"""Multi-start partitioning engine.

Runs ``n_starts`` independent seeded multilevel pipelines and keeps the
best partition by (balance excess, connectivity-1 cutsize, start index) —
the standard way real partitioners (PaToH's multiple-runs mode, Mondriaan,
KaHyPar) buy quality and, with parallel workers, wall-clock time.

Execution backends
------------------
``serial``
    The starts run one after another in-process.  Fully deterministic:
    the per-start seeds derive from the engine seed, every start runs,
    and the best is chosen by a total order.
``process``
    Each start is a one-task supervised child
    (:class:`~repro.partitioner.resilience.SupervisedTask`), at most
    ``n_workers`` at once.  Children are forked, so each inherits the
    hypergraph from the parent without a copy; only its result travels
    back.  Threads are not a backend: matching and FM hold the GIL, so
    threads lose to serial.
``auto``
    ``process`` when ``n_workers > 1`` and the machine has more than one
    CPU core, else ``serial`` (:func:`~repro.partitioner.config.resolve_backend`).

A start that raises on either backend, and a process start that cannot
fork or whose child dies or stops heartbeating, is recomputed once
in-process at once with the same seed; if that raises too, the
exception propagates.

Determinism contract: with ``n_starts=1`` the engine is a pass-through to
:func:`repro.partitioner.partition_hypergraph` — bit-identical results.
For ``n_starts > 1`` the per-start seeds and the winner are deterministic
functions of the engine seed regardless of backend.  Only a ``deadline``
can cut the sweep short, and the result then says so (``degraded``).

Resilience: execution is delegated to
:mod:`repro.partitioner.resilience` — one inline recompute per failed
start, child supervision (heartbeats, kill) for the process backend, a
graceful ``cfg.deadline`` budget, and crash-resumable sweeps via
``cfg.checkpoint_path``.  None of it moves the bits: recomputed and
resumed starts re-derive their original seeds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro._util import Timer, as_rng
from repro.hypergraph.hypergraph import Hypergraph
from repro.partitioner import resilience
from repro.partitioner.config import PartitionerConfig, resolve_backend
from repro.partitioner.driver import PartitionResult, partition_hypergraph
from repro.telemetry import get_recorder
from repro.verify.faults import trip as _fault_trip

__all__ = ["StartStat", "partition_multistart"]


@dataclass(frozen=True)
class StartStat:
    """Outcome of one engine start."""

    #: start index in [0, n_starts)
    start: int
    #: derived integer seed the start ran with; ``-1`` for start 0, which
    #: replays the engine seed's own RNG stream (see
    #: :func:`partition_multistart`)
    seed: int
    #: connectivity-minus-one cutsize the start achieved
    cutsize: int
    #: achieved imbalance ratio
    imbalance: float
    #: wall-clock seconds of the start
    runtime: float


def _run_start(
    h: Hypergraph, k: int, cfg: PartitionerConfig, seed: int
) -> PartitionResult:
    """Start body: one single-start pipeline behind the ``engine.start``
    fault site (top-level, so it pickles under a non-fork start method)."""
    _fault_trip("engine.start")
    return partition_hypergraph(h, k, cfg, seed)


def _tree_workers(cfg: PartitionerConfig, backend: str) -> int:
    """Worker-budget share each start may spend on subtree fan-out.

    One budget, ``cfg.n_workers`` slots: a serial-backend engine runs one
    start at a time, so the whole budget goes to the recursion tree; a
    parallel engine occupies ``min(n_workers, n_starts)`` slots with
    starts and divides the rest, so starts × subtrees never exceed
    ``n_workers`` concurrent workers.
    """
    if not cfg.tree_parallel:
        return 1
    if backend == "serial":
        return cfg.n_workers
    occupied = min(cfg.n_workers, cfg.n_starts)
    return max(1, cfg.n_workers // occupied)


def partition_multistart(
    h: Hypergraph,
    k: int,
    config: PartitionerConfig | None = None,
    seed: int | np.random.Generator | None = None,
) -> PartitionResult:
    """Best-of-``config.n_starts`` partition of *h* into *k* parts.

    With the default ``n_starts=1`` this is exactly
    :func:`partition_hypergraph` (same RNG consumption, bit-identical
    partition).  For ``n_starts > 1``, start 0 replays the engine seed's
    own RNG stream — it reproduces the single-start run bit for bit, so
    the best-of-N result is **never worse** than the single-start result
    at the same seed — while the remaining starts run with integer seeds
    drawn from the engine RNG.  The starts run on the configured backend
    and the best result by (balance excess, cutsize, start index) is
    returned with ``start_stats`` describing every completed start.  The
    result's ``runtime`` is the engine's total wall-clock time; per-start
    times are in the stats.

    >>> from repro.hypergraph import hypergraph_from_netlists
    >>> h = hypergraph_from_netlists(4, [[0, 1], [2, 3], [1, 2]])
    >>> cfg = PartitionerConfig(n_starts=3)
    >>> res = partition_multistart(h, 2, cfg, seed=0)
    >>> res.cutsize, len(res.start_stats)
    (1, 3)
    """
    cfg = config or PartitionerConfig()
    # the single-start shortcut must not skip the checkpoint layer: a
    # checkpointed n_starts=1 sweep still goes through the engine (start 0
    # replays the single-start stream, so the bits are identical)
    if cfg.n_starts == 1 and not cfg.checkpoint_path:
        return partition_hypergraph(h, k, cfg, seed)

    rng = as_rng(seed)
    # the fingerprint hashes the RNG state *before* any draws so a rerun
    # with the same explicit seed identifies the same sweep
    fingerprint = None
    if cfg.checkpoint_path:
        fingerprint = resilience.sweep_fingerprint(h, k, cfg, rng)
    # start 0 replays the pristine engine RNG (the legacy single-start
    # stream); later starts get independent integer seeds drawn after the
    # copy, so no start's consumption perturbs another's
    seeds: list[int | np.random.Generator] = [copy.deepcopy(rng)]
    seeds += [int(s) for s in rng.integers(0, 2**31 - 1, size=cfg.n_starts - 1)]
    backend = resolve_backend(cfg) if cfg.n_starts > 1 else "serial"
    # a start never inherits the sweep-level resilience knobs: the engine
    # owns the deadline and the checkpoint, not the inner pipelines
    single = cfg.with_(
        n_starts=1,
        n_workers=_tree_workers(cfg, backend),
        deadline=None,
        checkpoint_path=None,
    )

    rec = get_recorder()
    with rec.span(
        "engine",
        n_starts=cfg.n_starts,
        backend=backend,
        k=k,
    ) as esp, Timer() as timer:
        outcome = resilience.run_starts(
            h, k, single, seeds, cfg, backend, fingerprint=fingerprint
        )

        # deterministic winner over fresh + checkpoint-resumed starts:
        # scan in start order, strict improvement only
        candidates = list(outcome.completed.items())
        if outcome.resumed_best is not None:
            candidates.append(outcome.resumed_best)
        best_i, best_res = -1, None
        best_key: tuple[float, int] | None = None
        for i, res in sorted(candidates, key=lambda item: item[0]):
            key = (max(0.0, res.imbalance - cfg.epsilon), res.cutsize)
            if best_key is None or key < best_key:
                best_i, best_res, best_key = i, res, key
        assert best_res is not None

        stats = []
        for i in sorted(set(outcome.completed) | set(outcome.resumed)):
            if i in outcome.completed:
                res = outcome.completed[i]
                stats.append(
                    StartStat(
                        start=i,
                        seed=seeds[i] if isinstance(seeds[i], int) else -1,
                        cutsize=res.cutsize,
                        imbalance=res.imbalance,
                        runtime=res.runtime,
                    )
                )
            else:
                r = outcome.resumed[i]
                stats.append(
                    StartStat(
                        start=r.start,
                        seed=r.seed,
                        cutsize=r.cutsize,
                        imbalance=r.imbalance,
                        runtime=r.runtime,
                    )
                )
        if rec.enabled:
            rec.add("engine.starts", len(stats))
            rec.add("engine.best_cut", best_res.cutsize)
            rec.add(
                "engine.cut_spread",
                max(s.cutsize for s in stats) - min(s.cutsize for s in stats),
            )
        esp.set(best_start=best_i, cutsize=best_res.cutsize)
        if outcome.degraded_reason is not None:
            best_res.degraded = True
            best_res.degraded_reason = (
                f"{outcome.degraded_reason}: starts {outcome.skipped} "
                "never ran"
            )
            rec.add("engine.degraded_runs")
            esp.set(degraded=outcome.degraded_reason)

    best_res.start_stats = stats
    best_res.runtime = timer.elapsed
    return best_res
