"""The ``kernel`` axis of :class:`~repro.partitioner.config.ExecutionPolicy`.

Every V-cycle phase has one production implementation.  Two phases keep
a second one, because a recorded number shows it wins, and pick between
them by a static structural rule — never by timing:

``matching``
    ``fast`` takes the *single-term* route on levels where every
    connectivity score is one net's term (every fine-grain finest
    level), and the *scalar* loop with one-vertex batching of dense
    scoring expansions elsewhere
    (:func:`~repro.partitioner.coarsen.match_vertices`).  ``reference``
    always runs the per-pin loop.
``kway``
    ``fast`` runs the batch-scored *flat-sweep* when the first pass's
    boundary has at least 64 vertices, the per-vertex *reference* sweep
    otherwise (:func:`~repro.partitioner.kway.kway_refine`).
    ``reference`` always runs the per-vertex sweep.

FM refinement, the coarse build and GHG initial bisection run their one
implementation under either value.  Every route produces bit-identical
partitions — the replay matrix in :mod:`repro.verify.replay` asserts it —
so the kernel is pure execution policy and never participates in
:func:`repro.fingerprint`.

Values from before the axis collapsed keep working: ``python`` maps onto
``reference``; ``flat``, ``jit`` and ``auto`` map onto ``fast``
(:func:`resolve_kernel`).  :func:`kernel_info` (exported as
``repro.kernels()``) reports the axis and the routes each phase can take.
"""

from __future__ import annotations

__all__ = [
    "KERNELS",
    "PHASES",
    "kernel_info",
    "phase_kernels",
    "resolve_kernel",
]

#: the values of ``ExecutionPolicy.kernel`` after normalisation
KERNELS = ("reference", "fast")

#: pre-collapse kernel names and the value each now means
_ALIASES = {"python": "reference", "flat": "fast", "jit": "fast", "auto": "fast"}

#: per phase, the routes each kernel value can take (in route-name
#: vocabulary of the ``coarsen.match`` and ``kway`` span attributes)
PHASES = {
    "fm": {"reference": ["reference"], "fast": ["reference"]},
    "matching": {"reference": ["reference"], "fast": ["single-term", "scalar"]},
    "coarse_build": {"reference": ["reference"], "fast": ["reference"]},
    "initial": {"reference": ["reference"], "fast": ["reference"]},
    "kway": {"reference": ["reference"], "fast": ["flat-sweep", "reference"]},
}


def resolve_kernel(requested: str) -> str:
    """Normalise a kernel value to ``reference`` or ``fast``.

    Legacy names map through :data:`_ALIASES`; anything else raises
    :class:`ValueError`.
    """
    kernel = _ALIASES.get(requested, requested)
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {requested!r}; expected one of "
            f"{KERNELS + tuple(_ALIASES)}"
        )
    return kernel


def phase_kernels(requested: str = "fast") -> dict:
    """The routes each V-cycle phase can take under a kernel value."""
    kernel = resolve_kernel(requested)
    return {phase: list(routes[kernel]) for phase, routes in PHASES.items()}


def kernel_info() -> dict:
    """Static report of the kernel axis (``repro.kernels()``)::

        {"kernels": ["reference", "fast"],
         "default": "fast",
         "aliases": {"python": "reference", "flat": "fast", ...},
         "phases": {"fm": ["reference"], "matching": ["single-term", "scalar"], ...}}

    ``phases`` lists the routes under the default kernel.  The report is
    plain JSON data.
    """
    from repro.partitioner.config import ExecutionPolicy

    default = ExecutionPolicy().kernel
    return {
        "kernels": list(KERNELS),
        "default": default,
        "aliases": dict(_ALIASES),
        "phases": phase_kernels(default),
    }
