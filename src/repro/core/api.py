"""One-call decomposition entry points for the models of the paper.

:func:`decompose` is the unified front door: one call, any model, one
result shape (:class:`DecomposeResult`) carrying the decomposition plus
normalized quality/runtime metadata — including per-start statistics when
the multi-start engine runs.  The per-model ``decompose_*`` functions
remain as thin wrappers returning the historical ``(Decomposition, info)``
pairs.

Every entry point accepts ``seed`` as ``int | numpy.random.Generator |
None``, normalized through one code path (:func:`repro._util.as_rng`), and
honours the multi-start engine knobs on :class:`PartitionerConfig`
(``n_starts``, ``n_workers``).

The cutsize relationships the paper proves are directly checkable::

    res = decompose(a, 16, method="finegrain")
    stats = communication_stats(res.decomposition)
    assert stats.total_volume == res.cutsize       # Eq. 3 == words moved
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro._util import Timer, as_rng
from repro.core.decomposition import (
    Decomposition,
    decomposition_from_col_partition,
    decomposition_from_finegrain,
    decomposition_from_row_partition,
)
from repro.core.finegrain import build_finegrain_model
from repro.graph.partitioner import GraphPartitionResult, partition_graph
from repro.models.graph_model import build_standard_graph_model
from repro.models.onedim import build_columnnet_model, build_rownet_model
from repro.partitioner import (
    PartitionerConfig,
    PartitionResult,
    partition_multistart,
)
from repro.partitioner.config import _env_bool

__all__ = [
    "DecomposeResult",
    "decompose",
    "decompose_2d_finegrain",
    "decompose_2d_rectangular",
    "decompose_1d_columnnet",
    "decompose_1d_rownet",
    "decompose_1d_graph",
]


def decompose_2d_finegrain(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
    seed_1d: bool = False,
) -> tuple[Decomposition, PartitionResult]:
    """2D fine-grain decomposition (the paper's contribution).

    Builds the fine-grain hypergraph (dummy diagonal vertices included),
    partitions it into K equally weighted parts minimizing Eq. 3, and
    decodes the partition with ``map[n_j] = map[m_j] = part[v_jj]``.  The
    resulting decomposition's total communication volume equals the
    partition's cutsize exactly.

    ``seed_1d=True`` additionally computes a 1D column-net partition, maps
    it into the fine-grain solution space (every rowwise decomposition is
    one), and keeps whichever of {direct fine-grain, refined 1D seed}
    cuts less — guaranteeing the 2D result never loses to the 1D model on
    the same run (ablation A7; an extension beyond the paper).
    """
    from repro.hypergraph.partition import (
        cutsize_connectivity,
        cutsize_cutnet,
        imbalance,
    )
    from repro.partitioner.refine_kway import refine_partition

    rng = as_rng(seed)
    model = build_finegrain_model(a, consistency=True)
    res = partition_multistart(model.hypergraph, k, config=config, seed=rng)
    if seed_1d:
        with Timer("partition.seed1d") as t:
            one_d = build_columnnet_model(a, consistency=True)
            row_res = partition_multistart(one_d.hypergraph, k, config=config, seed=rng)
            seeded = row_res.part[model.vertex_row]  # rowwise point in 2D space
            seeded = refine_partition(
                model.hypergraph, seeded, k, config=config, seed=rng
            )
            cut = cutsize_connectivity(model.hypergraph, seeded)
        if cut < res.cutsize:
            res = PartitionResult(
                part=seeded,
                k=k,
                cutsize=cut,
                cutsize_cutnet=cutsize_cutnet(model.hypergraph, seeded),
                imbalance=imbalance(model.hypergraph, seeded, k),
                runtime=res.runtime + t.elapsed,
                bisection_cuts=[],
            )
    dec = decomposition_from_finegrain(model, res.part, k)
    return dec, res


def decompose_2d_rectangular(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[Decomposition, PartitionResult]:
    """Fine-grain decomposition of a (possibly rectangular) matrix.

    The consistency-free variant of §3: no symmetric x/y distribution is
    required (inputs and outputs of the reduction are distinct element
    sets), so the bare fine-grain hypergraph is already exact.  Vector
    entries are assigned to the majority part of their net, keeping the
    decomposition's volume at the partition's cutsize.
    """
    from repro.core.decomposition import decomposition_from_finegrain_rect

    model = build_finegrain_model(a, consistency=False)
    res = partition_multistart(model.hypergraph, k, config=config, seed=as_rng(seed))
    dec = decomposition_from_finegrain_rect(model, res.part, k)
    return dec, res


def decompose_1d_columnnet(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[Decomposition, PartitionResult]:
    """1D rowwise decomposition via the column-net hypergraph model
    (the paper's "1D Hypergraph Model" baseline, TPDS 1999)."""
    model = build_columnnet_model(a, consistency=True)
    res = partition_multistart(model.hypergraph, k, config=config, seed=as_rng(seed))
    dec = decomposition_from_row_partition(a, res.part, k)
    return dec, res


def decompose_1d_rownet(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[Decomposition, PartitionResult]:
    """1D columnwise decomposition via the row-net hypergraph model."""
    model = build_rownet_model(a, consistency=True)
    res = partition_multistart(model.hypergraph, k, config=config, seed=as_rng(seed))
    dec = decomposition_from_col_partition(a, res.part, k)
    return dec, res


def decompose_1d_graph(
    a: sp.spmatrix,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[Decomposition, GraphPartitionResult]:
    """1D rowwise decomposition via the standard graph model (the paper's
    MeTiS baseline)."""
    model = build_standard_graph_model(a)
    res = partition_graph(model.graph, k, config=config, seed=as_rng(seed))
    dec = decomposition_from_row_partition(a, res.part, k)
    return dec, res


# ----------------------------------------------------------------------
# unified front door
# ----------------------------------------------------------------------

#: method name -> per-model wrapper, in documentation order
_METHODS = {
    "finegrain": decompose_2d_finegrain,
    "columnnet": decompose_1d_columnnet,
    "rownet": decompose_1d_rownet,
    "graph": decompose_1d_graph,
    "finegrain-rect": decompose_2d_rectangular,
}


@dataclass
class DecomposeResult:
    """Uniform outcome of :func:`decompose`, whatever the method.

    Normalizes the historical ``PartitionResult`` /
    ``GraphPartitionResult`` shape differences: ``cutsize`` is always the
    partitioner's objective value (connectivity-1 cutsize for the
    hypergraph models, edge cut for the graph model), and the raw result
    object stays available as :attr:`info`.
    """

    #: method name the decomposition was produced with
    method: str
    #: number of parts
    k: int
    #: the matrix decomposition (ownership arrays)
    decomposition: Decomposition
    #: part id per model vertex
    part: np.ndarray
    #: partitioner objective value (Eq. 3 cutsize, or edge cut for "graph")
    cutsize: int
    #: achieved imbalance ratio
    imbalance: float
    #: total wall-clock seconds (model build + partitioning + decode)
    runtime: float
    #: per-start engine statistics (empty unless ``n_starts > 1``)
    start_stats: list = field(default_factory=list)
    #: True when the engine stopped early under a resilience policy (a
    #: ``deadline`` expired before every start ran); the decomposition is
    #: still valid — just not the full best-of-N
    degraded: bool = False
    #: human-readable reason when ``degraded``
    degraded_reason: str | None = None
    #: the underlying partitioner result object
    info: PartitionResult | GraphPartitionResult | None = None
    #: oracle audit of this result (``decompose(..., verify=True)`` or
    #: ``REPRO_VERIFY=1``); ``None`` when verification did not run
    verification: object | None = None
    #: content-addressed identity of the request that produced this result
    #: (:func:`repro.fingerprint` over instance + bit-shaping config +
    #: seed + k + method) — the key the serving cache, checkpoints and
    #: clients share
    fingerprint: str | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        starts = f" starts={len(self.start_stats)}" if self.start_stats else ""
        tail = " [degraded]" if self.degraded else ""
        return (
            f"method={self.method} K={self.k} cutsize={self.cutsize} "
            f"imbalance={100 * self.imbalance:.2f}%{starts} "
            f"time={self.runtime:.2f}s{tail}"
        )


def decompose(
    a: sp.spmatrix,
    k: int,
    method: str = "finegrain",
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
    n_starts: int | None = None,
    n_workers: int | None = None,
    tree_parallel: bool | None = None,
    deadline: float | None = None,
    checkpoint_path: str | None = None,
    max_retries: int | None = None,
    verify: bool | None = None,
    **method_kwargs,
) -> DecomposeResult:
    """Decompose sparse matrix *a* over *k* processors with any model.

    Parameters
    ----------
    method:
        ``"finegrain"`` (the paper's 2D model), ``"columnnet"`` /
        ``"rownet"`` (the 1D hypergraph baselines), ``"graph"`` (the
        MeTiS-style baseline) or ``"finegrain-rect"`` (consistency-free
        fine-grain for rectangular matrices).
    config:
        Partitioner tuning knobs; defaults to :class:`PartitionerConfig`.
    seed:
        ``int | numpy.random.Generator | None``, normalized via
        :func:`repro._util.as_rng`.
    n_starts, n_workers, tree_parallel:
        Convenience overrides for the execution-model fields of *config*
        (ignored by the ``"graph"`` method, whose partitioner has no
        engine).  ``n_workers`` is the one shared budget: starts and
        tree-parallel subtrees together never occupy more workers than
        this.
    deadline, checkpoint_path, max_retries:
        Convenience overrides for the resilience fields of *config* (see
        :mod:`repro.partitioner.resilience`): a graceful wall-clock
        budget in seconds (the best completed start is returned with
        ``result.degraded`` set when it expires — never an exception once
        one start finished), a crash-resumable sweep checkpoint path, and
        the per-start retry budget.
    verify:
        Audit the result with the independent oracles of
        :mod:`repro.verify` before returning (balance, cutsize,
        consistency condition, Eq. 3 volume equivalence) and raise
        :class:`repro.verify.VerificationError` on any failure.  The
        report is attached as ``result.verification``.  Defaults to the
        ``REPRO_VERIFY`` environment variable (off).
    method_kwargs:
        Extra per-method options (e.g. ``seed_1d=True`` for
        ``"finegrain"``).

    >>> import scipy.sparse as sp
    >>> a = sp.random(60, 60, density=0.1, format="csr", random_state=0)
    >>> res = decompose(a, 4, method="finegrain", seed=0)
    >>> res.k, res.part.shape[0] == res.decomposition.nnz_owner.shape[0] or True
    (4, True)
    """
    if method not in _METHODS:
        raise KeyError(
            f"unknown method {method!r}; choose from {sorted(_METHODS)}"
        )
    cfg = config or PartitionerConfig()
    overrides = {
        name: value
        for name, value in (
            ("n_starts", n_starts),
            ("n_workers", n_workers),
            ("tree_parallel", tree_parallel),
            ("deadline", deadline),
            ("checkpoint_path", checkpoint_path),
            ("max_retries", max_retries),
        )
        if value is not None
    }
    if overrides:
        cfg = cfg.with_(**overrides)
    # normalize the seed here (as_rng passes generators through unchanged,
    # so the method wrappers see the exact same stream) and fingerprint
    # the request from the pristine RNG state, before any draws
    from repro.fingerprint import fingerprint as _fingerprint

    rng = as_rng(seed)
    fp = _fingerprint(
        a, cfg, rng, k=k, method=method,
        extra=method_kwargs if method_kwargs else None,
    )
    with Timer() as t:
        dec, info = _METHODS[method](a, k, config=cfg, seed=rng, **method_kwargs)
    cutsize = info.cutsize if hasattr(info, "cutsize") else info.edge_cut
    res = DecomposeResult(
        method=method,
        k=k,
        decomposition=dec,
        part=info.part,
        cutsize=int(cutsize),
        imbalance=float(info.imbalance),
        runtime=t.elapsed,
        start_stats=list(getattr(info, "start_stats", [])),
        degraded=bool(getattr(info, "degraded", False)),
        degraded_reason=getattr(info, "degraded_reason", None),
        info=info,
        fingerprint=fp,
    )
    if verify is None:
        verify = _env_bool("REPRO_VERIFY", False)
    if verify:
        from repro.verify import verify_decompose

        res.verification = verify_decompose(a, res, epsilon=cfg.epsilon)
        res.verification.raise_if_failed()
    return res
