"""Public entry point of the hypergraph partitioner."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import Timer, as_rng
from repro.telemetry import get_recorder
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import (
    cutsize_connectivity,
    cutsize_cutnet,
    imbalance,
    validate_partition,
)
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.kway import kway_refine
from repro.partitioner.pool import TreeScheduler
from repro.partitioner.recursive import partition_recursive

__all__ = ["PartitionResult", "partition_hypergraph"]


@dataclass
class PartitionResult:
    """Outcome of :func:`partition_hypergraph`."""

    #: part id per vertex
    part: np.ndarray
    #: number of parts
    k: int
    #: connectivity-minus-one cutsize (Eq. 3) — the paper's objective
    cutsize: int
    #: cut-net cutsize (Eq. 2), for reference
    cutsize_cutnet: int
    #: achieved imbalance ratio (W_max - W_avg) / W_avg
    imbalance: float
    #: wall-clock seconds spent partitioning
    runtime: float
    #: cut of every bisection performed (sums to `cutsize` when the final
    #: direct K-way pass is disabled)
    bisection_cuts: list[int] = field(default_factory=list)
    #: per-start statistics when produced by the multi-start engine
    #: (:func:`repro.partitioner.partition_multistart` with ``n_starts > 1``);
    #: empty for the single-start pipeline
    start_stats: list = field(default_factory=list)
    #: True when the engine returned early under a resilience policy (for
    #: now: a ``deadline`` stopped the sweep before every start ran); the
    #: partition is still valid — just not the full best-of-N
    degraded: bool = False
    #: human-readable reason when ``degraded`` (e.g. which starts never ran)
    degraded_reason: str | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        tail = " [degraded]" if self.degraded else ""
        return (
            f"K={self.k} cutsize={self.cutsize} "
            f"imbalance={100 * self.imbalance:.2f}% time={self.runtime:.2f}s"
            f"{tail}"
        )


def partition_hypergraph(
    h: Hypergraph,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> PartitionResult:
    """Partition hypergraph *h* into *k* parts minimizing Eq. 3.

    Runs one multilevel recursive-bisection pipeline (plus the optional
    direct K-way pass); repeated seeded runs are the multi-start engine's
    job (:func:`repro.partitioner.partition_multistart`).  Fixed vertices
    are taken from ``h.fixed`` (final part ids, -1 = free).

    >>> from repro.hypergraph import hypergraph_from_netlists
    >>> h = hypergraph_from_netlists(4, [[0, 1], [2, 3], [1, 2]])
    >>> res = partition_hypergraph(h, 2, seed=0)
    >>> res.cutsize
    1
    """
    cfg = config or PartitionerConfig()
    rng = as_rng(seed)
    if k < 1:
        raise ValueError("k must be >= 1")
    fixed = h.fixed
    if fixed is not None and len(fixed) and fixed.max() >= k:
        raise ValueError("fixed part id out of range for k")

    rec = get_recorder()
    # the scheduler only ever affects wall clock — the seed tree pins the bits
    with TreeScheduler(cfg) as scheduler:
        with rec.span(
            "partition",
            k=k,
            vertices=h.num_vertices,
            nets=h.num_nets,
            pins=h.num_pins,
            tree_parallel=cfg.tree_parallel,
            initial=cfg.initial_method,
        ) as psp:
            with Timer() as t:
                part, cuts = partition_recursive(
                    h, k, cfg, rng, fixed, scheduler=scheduler
                )
                if cfg.kway_refine and k > 1:
                    part = kway_refine(h, part, k, cfg, rng, fixed)
            validate_partition(h, part, k)
            cut = cutsize_connectivity(h, part)
            imb = imbalance(h, part, k)
            psp.set(cutsize=cut, imbalance=round(imb, 6))
    return PartitionResult(
        part=part,
        k=k,
        cutsize=cut,
        cutsize_cutnet=cutsize_cutnet(h, part),
        imbalance=imb,
        runtime=t.elapsed,
        bisection_cuts=cuts,
    )
