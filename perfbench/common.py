"""Pieces every workload shares: paths, settings, metric tables, checks.

The harness talks to the program only through its public functions.  It
pins every partitioner setting it relies on here, so a changed default
or a stray ``REPRO_*`` variable cannot silently change what is measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file a run writes (daemon socket, cache, trace) lives under here
WORK = ROOT / ".perfbench_tmp"

#: Eq. 1 imbalance bound the paper uses (3%)
EPSILON = 0.03

#: every ModelConfig field, as the benchmark measures it
MODEL_SETTINGS = {
    "epsilon": EPSILON,
    "coarsen_to": 120,
    "max_coarsen_levels": 30,
    "min_coarsen_shrink": 0.95,
    "matching": "hcc",
    "max_net_size_coarsen": 300,
    "n_initial_starts": 5,
    "initial_method": "ghg",
    "exact_initial_nodes": 100_000,
    "exact_initial_vertices": 32,
    "fm_passes": 3,
    "fm_stall_frac": 0.25,
    "fm_stall_min": 50,
    "fm_boundary_threshold": 4096,
    "n_vcycles": 1,
    "kway_refine": False,
    "kway_passes": 2,
    "n_runs": 1,
    "n_starts": 1,
    "tree_parallel": False,
}

#: every ExecutionPolicy field, as the benchmark measures it
EXECUTION_SETTINGS = {
    "n_workers": 1,
    "start_backend": "serial",
    "spawn_depth": 2,
    "spawn_min_vertices": 4096,
    "shm_transport": True,
    "tree_task_timeout": None,
    "early_stop_cut": None,
    "max_retries": 0,
    "backoff_base": 0.05,
    "backoff_cap": 2.0,
    "deadline": None,
    "checkpoint_path": None,
    "supervise": True,
    "heartbeat_interval": 0.25,
    "heartbeat_timeout": 30.0,
    "kernel": "auto",
}

#: name -> unit of every end-to-end metric; each workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_ms_mean": "ms",
    "volume_words": "words",
    "messages": "msgs",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric; a layer a workload does not
#: enter reports 0
PER_LAYER = {
    # partition: self time by the partitioner's own span names, per op
    "coarsen.match_s": "s",
    "coarsen.build_s": "s",
    "initial_s": "s",
    "refine.fm_s": "s",
    "uncoarsen_s": "s",
    "partition.other_s": "s",
    "partition.s": "s",
    "partition.coverage": "fraction",
    # partition: work counters, per op
    "coarsen.pins_visited": "count",
    "coarsen.clusters": "count",
    "fm.passes": "count",
    "fm.moves": "count",
    "fm.rollbacks": "count",
    "fm.useful_ratio": "fraction",
    "arena.reuse_ratio": "fraction",
    # the other layers, per op (matrix: per set-up)
    "matrix.gen_s": "s",
    "model.build_s": "s",
    "decode.s": "s",
    "spmv.stats_s": "s",
    "graph.partition_s": "s",
    # engine (multi-start, process backend)
    "engine.s": "s",
    "engine.parallelism": "ratio",
    "engine.start_s_p50": "s",
    "engine.dispatch_s": "s",
    "engine.cpu_util": "fraction",
    "engine.shm_bytes": "bytes",
    "engine.start_retries": "count",
    "engine.worker_restarts": "count",
    "engine.backend_fallbacks": "count",
    # serve: client-side latency by outcome
    "serve.hit_ms_p50": "ms",
    "serve.hit_ms_p95": "ms",
    "serve.miss_ms_p50": "ms",
    "serve.miss_ms_p85": "ms",
    "serve.slo_attainment": "fraction",
    # serve: the daemon's per-response stage timings
    "serve.hit.cache_probe_ms_p50": "ms",
    "serve.hit.server_ms_p50": "ms",
    "serve.hit.wire_ms_p50": "ms",
    "serve.miss.cache_probe_ms_p50": "ms",
    "serve.miss.server_ms_p50": "ms",
    "serve.miss.wire_ms_p50": "ms",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p95": "ms",
    "serve.compute_ms_p50": "ms",
    "serve.serialize_ms_p50": "ms",
    # serve: the daemon's stats counters
    "serve.hit_rate": "fraction",
    "serve.deduped": "count",
    "serve.refused": "count",
    "serve.degraded": "count",
    "loadgen.lag_ms_p99": "ms",
    # reference seconds per wall second: how slow the shared host ran
    "host.scale": "ratio",
    # traced time over untraced time, minus one
    "trace.overhead_frac": "fraction",
}


def make_config(model: dict | None = None, execution: dict | None = None):
    """A PartitionerConfig with every field set from the tables above.

    Fields the installed program does not have are skipped (and so is a
    setting the program dropped); the effective config is recorded in
    the run document.
    """
    from repro.partitioner.config import (
        ExecutionPolicy,
        ModelConfig,
        PartitionerConfig,
    )

    def build(cls, table, overrides):
        known = {f.name for f in fields(cls)}
        values = {**table, **(overrides or {})}
        return cls(**{k: v for k, v in values.items() if k in known})

    return PartitionerConfig(
        model=build(ModelConfig, MODEL_SETTINGS, model),
        execution=build(ExecutionPolicy, EXECUTION_SETTINGS, execution),
    )


def clean_environ() -> dict:
    """The process environment without any ``REPRO_*`` variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def partition_metrics(
    self_t: dict, counters: dict, partition_s: float, covered_s: float, n_ops: int
) -> dict:
    """The partition layer's per-layer metrics, per op.

    *self_t* is self time by the partitioner's span names, *partition_s*
    the total time spent partitioning and *covered_s* the part of it
    inside the partitioner's own spans.
    """
    named = {
        "coarsen.match_s": self_t.get("coarsen.match", 0.0),
        "coarsen.build_s": self_t.get("coarsen.build", 0.0),
        "initial_s": self_t.get("initial", 0.0) + self_t.get("initial.exact", 0.0),
        "refine.fm_s": self_t.get("refine.fm", 0.0),
        "uncoarsen_s": self_t.get("uncoarsen", 0.0)
        + self_t.get("uncoarsen.level", 0.0),
    }
    out = {name: ratio(v, n_ops) for name, v in named.items()}
    out["partition.other_s"] = ratio(partition_s - sum(named.values()), n_ops)
    out["partition.s"] = ratio(partition_s, n_ops)
    out["partition.coverage"] = ratio(covered_s, partition_s)
    for name in ("coarsen.pins_visited", "coarsen.clusters", "fm.passes",
                 "fm.moves", "fm.rollbacks"):
        out[name] = ratio(counters.get(name, 0), n_ops)
    moves, rollbacks = counters.get("fm.moves", 0), counters.get("fm.rollbacks", 0)
    out["fm.useful_ratio"] = ratio(moves, moves + rollbacks)
    allocs, reuses = counters.get("arena.allocs", 0), counters.get("arena.reuses", 0)
    out["arena.reuse_ratio"] = ratio(reuses, allocs + reuses)
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: seconds the calibration kernel takes on the reference host (one core
#: of a 2-vCPU Intel Xeon VM, uncontended, best of three)
CAL_REF_S = 0.0015


def _kernel() -> float:
    """Seconds one run of a fixed kernel takes: dict, sort and small
    numpy work, the mix the partitioner's inner loops are made of."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(2500):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + i
    order = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    arr = np.arange(4096, dtype=np.int64)
    for _ in range(20):
        arr = np.cumsum(arr % 7)
    values = [v for _, v in order for _ in range(4)]
    values.sort()
    return time.perf_counter() - t0


def usable_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


class HostSpeed:
    """Expresses wall times in *reference seconds*.

    On a shared host the same work runs up to ~1.5x slower for seconds
    or minutes at a time, in CPU time as much as in wall time, because
    neighbours compete for a core's caches and execution units; each
    core is hit on its own.  The calibration kernel, run pinned to the
    cores the measured work runs on, slows down with it, so a wall time
    ``t`` measured while the kernel takes ``c`` seconds is reported as
    ``t * CAL_REF_S / c``: what it would have taken on the uncontended
    reference host.  The kernel is the benchmark's own code, so a change
    to the program moves reference times exactly as it moves wall times.
    """

    def __init__(self, cpus: list[int], every: float = 0.25):
        #: the cores the measured work runs on; a sample takes the slowest,
        #: because work split over them waits for its slowest part
        self.cpus = cpus
        #: at most one sample per *every* seconds from :meth:`maybe_sample`
        self.every = every
        #: kernel seconds, and the clock reading when each sample ended
        self.samples: list[float] = []
        self.times: list[float] = []

    def sample(self) -> float:
        home = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(min(_kernel() for _ in range(3)))
        finally:
            os.sched_setaffinity(0, home)
        c = max(per_cpu)
        self.samples.append(c)
        self.times.append(time.perf_counter())
        return c

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def scale(self, c: float) -> float:
        """Reference seconds per wall second at kernel time *c*."""
        return CAL_REF_S / c

    def scale_around(self, t0: float, t1: float) -> float:
        """The scale for work that ran from *t0* to *t1*: the mean kernel
        time of the samples within ``every`` of it, else the nearest."""
        near = [
            c for t, c in zip(self.times, self.samples)
            if t0 - self.every <= t <= t1 + self.every
        ]
        if not near:
            nearest = min(range(len(self.times)), key=lambda j: abs(self.times[j] - t0))
            near = [self.samples[nearest]]
        return self.scale(float(np.mean(near)))

    def median_scale(self, since: int = 0) -> float:
        """The scale at the median of the samples from index *since* on."""
        return self.scale(float(np.median(self.samples[since:] or self.samples)))


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def part_sha(part) -> str:
    return hashlib.sha256(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


def check_output(a, method: str, k: int, cutsize: int, dec, stats) -> list[str]:
    """Eq. 3 and Eq. 1 on one decomposition; returns the problems found.

    Eq. 3: for the hypergraph models the partition's connectivity-1
    cutsize equals the expand+fold volume.  The graph model's edge cut
    only approximates it (the paper's point), so it is exempt.

    Eq. 1: the heaviest part carries at most ``W_avg * (1 + epsilon)``
    multiplications, plus ``(1 + epsilon)`` times the heaviest vertex.
    Recursive bisection rounds every side's target weight to an integer,
    which over all levels adds less than one unit, and a vertex cannot be
    split.  A fine-grain vertex is one nonzero; a 1D vertex is a whole
    row (column).
    """
    problems = []
    if method != "graph" and int(stats.total_volume) != int(cutsize):
        problems.append(
            f"Eq. 3: {method} k={k} volume={int(stats.total_volume)} "
            f"cutsize={int(cutsize)}"
        )
    loads = dec.computational_loads()
    vertex = 1
    if method in ("columnnet", "graph"):
        vertex = int(np.diff(a.tocsr().indptr).max())
    elif method == "rownet":
        vertex = int(np.diff(a.tocsc().indptr).max())
    bound = (a.nnz / k + vertex) * (1.0 + EPSILON)
    if loads.max() > bound + 1e-9:
        problems.append(
            f"Eq. 1: {method} k={k} max load {int(loads.max())} > {bound:.1f}"
        )
    return problems


# ----------------------------------------------------------------------
# host and memory
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (engine workers, serve daemons), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _git_sha() -> str | None:
    env = clean_environ()
    # never let git walk above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block() -> dict:
    import scipy

    import repro

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "kernels": repro.kernels(),
        "executable": os.path.basename(sys.executable),
    }
