"""Configuration of the multilevel hypergraph partitioner.

The configuration is split along the line the fingerprint subsystem
enforces (:mod:`repro.fingerprint`):

* :class:`ModelConfig` — every knob that shapes which partition comes
  out (the bit-shaping fields).  ``repro.fingerprint()`` draws from this
  class directly, so adding a field here automatically makes it part of
  a request's content-addressed identity.
* :class:`ExecutionPolicy` — workers, backend, deadlines, checkpoints
  and child heartbeats.  Changing any of these must never move a bit;
  they are deliberately excluded from the fingerprint so the same
  request served on different hardware hits the same cache entry.

:class:`PartitionerConfig` composes the two and keeps the original flat
keyword API working (``PartitionerConfig(epsilon=0.1, n_workers=4)``)
as a back-compat shim — attribute access, ``with_()`` and pickling all
behave exactly as before the split.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

__all__ = [
    "ModelConfig",
    "ExecutionPolicy",
    "PartitionerConfig",
    "resolve_backend",
]


def _env_raw(name: str) -> str | None:
    """The variable's stripped text, or ``None`` when unset or empty."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _env_bool(name: str, fallback: bool) -> bool:
    raw = _env_raw(name)
    if raw is None:
        return fallback
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean (1/0, true/false, yes/no, on/off)"
    )


def _env_int(name: str, fallback: int) -> int:
    raw = _env_raw(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


def _env_str(name: str, fallback: str, choices: tuple[str, ...]) -> str:
    raw = _env_raw(name) or fallback
    if raw not in choices:
        raise ValueError(f"{name}={raw!r} is not one of {', '.join(choices)}")
    return raw


def _env_float(name: str, fallback: float | None) -> float | None:
    raw = _env_raw(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a number") from None


#: accepted ``start_backend`` values
_BACKENDS = ("auto", "process", "serial")


@dataclass(frozen=True)
class ModelConfig:
    """The bit-shaping knobs: everything that decides which partition
    comes out.

    The defaults mirror the paper's experimental setup where it specifies
    one (``epsilon = 0.03``: "percent load imbalance values are below 3%")
    and PaToH's defaults in spirit elsewhere.  ``repro.fingerprint()``
    digests exactly these fields — execution policy never participates.
    """

    #: maximum allowed imbalance ratio of Eq. 1 (paper: 3%)
    epsilon: float = 0.03
    #: coarsening stops when the hypergraph has at most this many vertices
    coarsen_to: int = 120
    #: hard cap on the number of coarsening levels per bisection
    max_coarsen_levels: int = 30
    #: stop coarsening when one level shrinks the vertex count by less than
    #: this factor (stagnation guard)
    min_coarsen_shrink: float = 0.95
    #: matching scheme: "hcc" (agglomerative clusters, PaToH default),
    #: "hcm" (pairwise matching) or "none" (no coarsening; flat FM)
    matching: str = "hcc"
    #: nets larger than this are ignored while scoring matches (they carry
    #: almost no locality signal and dominate the runtime)
    max_net_size_coarsen: int = 300
    #: number of initial-partitioning starts; the best bisection is kept
    n_initial_starts: int = 5
    #: coarsest-level initial partitioner: "ghg" (the best-of-N greedy
    #: hypergraph growing + random starts, PaToH-style) or "exact" (the
    #: branch-and-bound bipartitioner of :mod:`repro.exact`, attempted
    #: first under ``exact_initial_nodes``; when it certifies, its optimal
    #: bisection of the coarsest hypergraph is used, otherwise the GHG
    #: path runs bit-identically — the exact attempt consumes no RNG)
    initial_method: str = "ghg"
    #: node budget of the ``initial_method="exact"`` attempt.  A *node*
    #: budget, not wall clock, so the outcome — certified or fallback —
    #: is a pure function of the inputs on every machine
    exact_initial_nodes: int = 100_000
    #: ``initial_method="exact"`` is only attempted when the coarsest
    #: hypergraph has at most this many vertices (beyond it the search
    #: would burn the node budget without certifying anyway)
    exact_initial_vertices: int = 32
    #: maximum FM passes per uncoarsening level
    fm_passes: int = 3
    #: an FM pass aborts after this many consecutive non-improving moves
    #: (hill-climbing window); scaled fraction of free vertices
    fm_stall_frac: float = 0.25
    #: absolute floor for the stall window
    fm_stall_min: int = 50
    #: vertex-count threshold above which FM seeds its buckets with boundary
    #: vertices only (full seeding below)
    fm_boundary_threshold: int = 4096
    #: extra V-cycles per bisection: after the first multilevel pass, the
    #: bisected hypergraph is re-coarsened with matching restricted to the
    #: parts and refined again (PaToH-style V-cycle refinement); 0 disables
    n_vcycles: int = 1
    #: run a final direct K-way greedy refinement after recursive bisection
    kway_refine: bool = False
    #: passes of the direct K-way refinement
    kway_passes: int = 2
    #: independent seeded attempts of the multi-start engine
    #: (:func:`repro.partitioner.partition_multistart`); the best partition
    #: by (balance excess, cutsize, start index) wins.  ``1`` runs the
    #: legacy single-start pipeline unchanged (bit-identical results).
    n_starts: int = 1
    #: schedule the two subproblems of every bisection as independent tasks
    #: over the shared worker budget (see :mod:`repro.partitioner.pool`).
    #: Seeds come from a deterministic per-node seed tree, so the result is
    #: bit-identical to ``tree_parallel=True`` at any worker count and any
    #: backend — but NOT to the legacy sequential-stream recursion
    #: (``tree_parallel=False``), which threads one RNG through the tree in
    #: visit order.  That is why this field lives here and not on
    #: :class:`ExecutionPolicy`: flipping it changes which partition comes
    #: out.  Env-overridable default: ``REPRO_TREE_PARALLEL``.
    tree_parallel: bool = field(
        default_factory=lambda: _env_bool("REPRO_TREE_PARALLEL", False)
    )

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.matching not in ("hcc", "hcm", "none"):
            raise ValueError(f"unknown matching scheme {self.matching!r}")
        if self.coarsen_to < 2:
            raise ValueError("coarsen_to must be at least 2")
        for name in ("n_initial_starts", "n_starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.initial_method not in ("ghg", "exact"):
            raise ValueError(
                f"unknown initial_method {self.initial_method!r}; "
                f"expected 'ghg' or 'exact'"
            )
        if self.exact_initial_nodes < 1:
            raise ValueError("exact_initial_nodes must be >= 1")
        if self.exact_initial_vertices < 0:
            raise ValueError("exact_initial_vertices must be >= 0")
        if self.n_vcycles < 0:
            raise ValueError("n_vcycles must be >= 0")

    def with_(self, **kwargs) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a partition is computed, never what comes out.

    Every field here may change between machines, reruns and resumed
    sweeps without moving a single bit of the result — the verify
    subsystem's replay matrix asserts exactly that.  None of these
    participate in ``repro.fingerprint()``.
    """

    #: worker processes shared by the multi-start engine and the
    #: tree-parallel recursion (one budget: starts x subtrees never
    #: oversubscribe it); ``1`` runs everything sequentially in-process.
    #: Env-overridable default: ``REPRO_N_WORKERS``.
    n_workers: int = field(default_factory=lambda: _env_int("REPRO_N_WORKERS", 1))
    #: backend for ``n_workers > 1``: "process" (forked worker
    #: processes), "serial", or "auto" (process when the host has more
    #: than one CPU core, serial otherwise; see :func:`resolve_backend`).
    #: Env-overridable default: ``REPRO_START_BACKEND``.
    start_backend: str = field(
        default_factory=lambda: _env_str("REPRO_START_BACKEND", "auto", _BACKENDS)
    )
    #: wall-clock budget in seconds for one multi-start engine call
    #: (``None`` = unlimited).  Graceful degradation, never an exception:
    #: past the deadline no new starts launch, the best completed start is
    #: returned with ``PartitionResult.degraded`` set, and at least one
    #: start always runs.  Env-overridable default: ``REPRO_DEADLINE``.
    deadline: float | None = field(
        default_factory=lambda: _env_float("REPRO_DEADLINE", None)
    )
    #: path of the engine's crash-resumable sweep checkpoint (``None``
    #: disables).  After every completed start the file is atomically
    #: rewritten (tmp + ``os.replace``); a rerun with the same
    #: configuration, seed and path skips the recorded starts.  Requires
    #: ``n_starts > 1`` and an explicit seed to be useful.
    #: Env-overridable default: ``REPRO_CHECKPOINT``.
    checkpoint_path: str | None = field(
        default_factory=lambda: os.environ.get("REPRO_CHECKPOINT") or None
    )
    #: seconds between heartbeat writes of a supervised child.
    #: Env-overridable default: ``REPRO_HEARTBEAT_INTERVAL``.
    heartbeat_interval: float = field(
        default_factory=lambda: _env_float("REPRO_HEARTBEAT_INTERVAL", 0.25)
    )
    #: a supervised child whose newest heartbeat (or fork time) is older
    #: than this many seconds is presumed hung: it is killed and its start
    #: or subtree recomputed inline.
    #: Env-overridable default: ``REPRO_HEARTBEAT_TIMEOUT``.
    heartbeat_timeout: float = field(
        default_factory=lambda: _env_float("REPRO_HEARTBEAT_TIMEOUT", 30.0)
    )

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.start_backend not in _BACKENDS:
            raise ValueError(f"unknown start_backend {self.start_backend!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        for name in ("heartbeat_interval", "heartbeat_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def with_(self, **kwargs) -> "ExecutionPolicy":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def resolve_backend(cfg: "ExecutionPolicy | PartitionerConfig") -> str:
    """The backend ``cfg`` runs its parallel work on: "process" or "serial".

    The one ``auto`` policy shared by the multi-start engine and the
    tree scheduler: process workers when ``n_workers > 1`` and the host
    has more than one CPU core, serial otherwise.  An explicit "process"
    or "serial" is taken as given (with one worker, everything is serial).

    >>> resolve_backend(ExecutionPolicy(n_workers=1, start_backend="process"))
    'serial'
    >>> resolve_backend(ExecutionPolicy(n_workers=2, start_backend="process"))
    'process'
    """
    if cfg.n_workers <= 1 or cfg.start_backend == "serial":
        return "serial"
    if cfg.start_backend == "process":
        return "process"
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


_MODEL_FIELDS = frozenset(f.name for f in fields(ModelConfig))
_EXECUTION_FIELDS = frozenset(f.name for f in fields(ExecutionPolicy))


class PartitionerConfig:
    """Tuning knobs of :func:`repro.partitioner.partition_hypergraph`.

    A composition of :class:`ModelConfig` (``.model``, the bit-shaping
    fields) and :class:`ExecutionPolicy` (``.execution``, the
    how-to-compute fields).  The pre-split flat API still works — both
    construction and attribute access::

        >>> cfg = PartitionerConfig(epsilon=0.1, n_workers=4)
        >>> cfg.epsilon, cfg.n_workers
        (0.1, 4)
        >>> cfg.model.epsilon, cfg.execution.n_workers
        (0.1, 4)

    New code should prefer passing the sub-configs explicitly::

        >>> cfg = PartitionerConfig(
        ...     model=ModelConfig(epsilon=0.1),
        ...     execution=ExecutionPolicy(n_workers=4),
        ... )
    """

    __slots__ = ("model", "execution")

    def __init__(
        self,
        model: ModelConfig | None = None,
        execution: ExecutionPolicy | None = None,
        **kwargs,
    ):
        if kwargs:
            mk = {k: v for k, v in kwargs.items() if k in _MODEL_FIELDS}
            ek = {k: v for k, v in kwargs.items() if k in _EXECUTION_FIELDS}
            unknown = set(kwargs) - _MODEL_FIELDS - _EXECUTION_FIELDS
            if unknown:
                raise TypeError(
                    f"PartitionerConfig got unexpected keyword arguments "
                    f"{sorted(unknown)}"
                )
            if mk and model is not None:
                raise TypeError(
                    f"cannot combine model= with flat model kwargs {sorted(mk)}"
                )
            if ek and execution is not None:
                raise TypeError(
                    "cannot combine execution= with flat execution kwargs "
                    f"{sorted(ek)}"
                )
            model = model if model is not None else ModelConfig(**mk)
            execution = execution if execution is not None else ExecutionPolicy(**ek)
        object.__setattr__(self, "model", model or ModelConfig())
        object.__setattr__(self, "execution", execution or ExecutionPolicy())

    def __getattr__(self, name: str):
        # flat back-compat access: cfg.epsilon / cfg.n_workers keep working
        if name in _MODEL_FIELDS:
            return getattr(self.model, name)
        if name in _EXECUTION_FIELDS:
            return getattr(self.execution, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name, value):
        raise AttributeError("PartitionerConfig is immutable; use with_()")

    def __delattr__(self, name):
        raise AttributeError("PartitionerConfig is immutable; use with_()")

    def with_(self, **kwargs) -> "PartitionerConfig":
        """Return a copy with the given fields replaced.

        Accepts the flat field names (routed to the owning sub-config)
        as well as ``model=`` / ``execution=`` wholesale replacements.
        """
        model = kwargs.pop("model", None) or self.model
        execution = kwargs.pop("execution", None) or self.execution
        mk = {k: v for k, v in kwargs.items() if k in _MODEL_FIELDS}
        ek = {k: v for k, v in kwargs.items() if k in _EXECUTION_FIELDS}
        unknown = set(kwargs) - _MODEL_FIELDS - _EXECUTION_FIELDS
        if unknown:
            raise TypeError(f"unknown config fields {sorted(unknown)}")
        if mk:
            model = replace(model, **mk)
        if ek:
            execution = replace(execution, **ek)
        return PartitionerConfig(model=model, execution=execution)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionerConfig):
            return NotImplemented
        return self.model == other.model and self.execution == other.execution

    def __hash__(self) -> int:
        return hash((self.model, self.execution))

    def __repr__(self) -> str:
        return (
            f"PartitionerConfig(model={self.model!r}, "
            f"execution={self.execution!r})"
        )

    def __reduce__(self):
        # configs cross process boundaries (engine workers, serve daemon)
        return (PartitionerConfig, (self.model, self.execution))
