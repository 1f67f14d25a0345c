"""The routes each V-cycle phase can take (``repro.kernels()``).

Every V-cycle phase has one production implementation.  Two phases keep
a second one, because a recorded number shows it wins, and pick between
them from the level's structure alone — never from timing or a setting:

``matching``
    the *single-term* route on levels where every connectivity score is
    one net's term (every fine-grain finest level), the *product* route
    elsewhere: one blocked sparse product scores the whole level
    (:func:`~repro.partitioner.coarsen.match_vertices`).
``kway``
    the batch-scored *flat-sweep* when the first pass's boundary has at
    least 64 vertices, the per-vertex sweep (route ``reference``)
    otherwise (:func:`~repro.partitioner.kway.kway_refine`).

FM refinement, GHG initial bisection and the coarse build run one
implementation each; the coarse build's is the *sort* contraction
(:func:`~repro.partitioner.coarsen.build_coarse`).  The per-pin matcher
and the per-vertex K-way sweep stay as the reference bodies the tests
diff every route against, so every route produces the same bits.
"""

from __future__ import annotations

__all__ = ["PHASES", "kernel_info"]

#: per phase, the routes it can take (in the route-name vocabulary of the
#: ``coarsen.match`` and ``kway`` span attributes; ``reference`` names a
#: phase's one implementation, ``sort`` the coarse build's)
PHASES = {
    "fm": ["reference"],
    "matching": ["single-term", "product"],
    "coarse_build": ["sort"],
    "initial": ["reference"],
    "kway": ["flat-sweep", "reference"],
}


def kernel_info() -> dict:
    """Static report of the V-cycle routes (``repro.kernels()``)::

        {"phases": {"fm": ["reference"],
                    "matching": ["single-term", "product"], ...}}

    The report is plain JSON data.
    """
    return {"phases": {phase: list(routes) for phase, routes in PHASES.items()}}
