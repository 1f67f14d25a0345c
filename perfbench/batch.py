"""The three batch workloads: ``decompose()`` then ``communication_stats()``.

One *op* is one decomposition of one corpus instance (matrix, method,
K) followed by its communication statistics -- what a user of the
library waits for.  Ops cycle through the corpus until the window
closes; every instance runs at least once.  Each instance's latency is
the median of its ops, and the end-to-end latencies are taken over
those per-instance medians, so a partial last pass biases nothing.

The traced run spends the first 40% of the window untraced and the rest
traced.  Traced ops call the layers one by one (model build, partition,
decode, statistics) under benchmark-side spans, with the program's own
recorder on, so the partitioner's spans nest inside them.  The two
phases must produce the same part vectors.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from perfbench.common import (
    ROOT,
    SRC,
    HostSpeed,
    check_output,
    clean_environ,
    make_config,
    mean,
    part_sha,
    partition_metrics,
    pct,
    peak_rss_mb,
    ratio,
    usable_cpus,
)

#: share of a traced run's window spent untraced (the overhead baseline)
UNTRACED_SHARE = 0.4
#: set-up repetitions per run; setup_s is their median
SETUP_REPS = 5
#: seconds one set-up may take
SETUP_TIMEOUT = 120.0


@dataclass(frozen=True)
class BatchWorkload:
    #: (collection name, scale) pairs from repro.matrix
    matrices: tuple
    ks: tuple
    methods: tuple
    #: optional uniform random matrix: (n, density, methods, k)
    uniform: tuple | None = None
    model: dict = field(default_factory=dict)
    execution: dict = field(default_factory=dict)


# Scales are chosen so one pass over a corpus takes about 5 s on one
# core of the reference host: three or more passes fit in a 20 s window,
# and K=64 still leaves every part dozens of nonzeros.
_PAPER_MATRICES = (
    ("sherman3", 0.1),
    ("ken-11", 0.04),
    ("vibrobox", 0.025),
    ("cre-d", 0.015),
)

WORKLOADS = {
    # the paper's model at the paper's K; single start, engine never entered
    "finegrain-paper": BatchWorkload(
        matrices=_PAPER_MATRICES, ks=(16, 32, 64), methods=("finegrain",)
    ),
    # the 1D baselines on the same matrices, plus a dense uniform matrix
    # whose 1D models have high-degree vertices and large nets
    "onedim-baselines": BatchWorkload(
        matrices=_PAPER_MATRICES,
        ks=(16, 32, 64),
        methods=("columnnet", "graph"),
        uniform=(600, 0.12, ("columnnet", "rownet"), 16),
    ),
    # the only workload that enters the engine pool and its shm transport;
    # each op waits for the slower of two cores, so its time varies more
    # than a one-core op's, and smaller instances give each run ~20 ops
    "multistart-2core": BatchWorkload(
        matrices=(("ken-11", 0.025), ("vibrobox", 0.02), ("cre-d", 0.01)),
        ks=(32,),
        methods=("finegrain",),
        model={"n_starts": 4},
        execution={"n_workers": 2, "start_backend": "process", "shm_transport": True},
    ),
}

#: toy sizes of the same workloads, for the harness's own test
SMOKE = {
    "finegrain-paper": BatchWorkload(
        matrices=(("sherman3", 0.05), ("cre-d", 0.005)), ks=(4, 16), methods=("finegrain",)
    ),
    "onedim-baselines": BatchWorkload(
        matrices=(("sherman3", 0.05),),
        ks=(4, 16),
        methods=("columnnet", "graph"),
        uniform=(150, 0.1, ("columnnet", "rownet"), 4),
    ),
    "multistart-2core": BatchWorkload(
        matrices=(("sherman3", 0.05),),
        ks=(4,),
        methods=("finegrain",),
        model={"n_starts": 4},
        execution={"n_workers": 2, "start_backend": "process", "shm_transport": True},
    ),
}


@dataclass(frozen=True)
class Instance:
    label: str
    a: sp.csr_matrix
    method: str
    k: int


def uniform_matrix(n: int, density: float, rng: np.random.Generator) -> sp.csr_matrix:
    """n x n matrix with round(density * n^2) distinct unit nonzeros."""
    cells = rng.choice(n * n, size=int(round(density * n * n)), replace=False)
    a = sp.csr_matrix(
        (np.ones(len(cells)), (cells // n, cells % n)), shape=(n, n)
    )
    a.sort_indices()
    return a


def make_inputs(w: BatchWorkload, seed: int) -> list[Instance]:
    """The workload's corpus for *seed*: the same seed, the same matrices."""
    from repro.matrix import load_collection_matrix

    out = []
    for name, scale in w.matrices:
        a = load_collection_matrix(name, scale, seed)
        for k in w.ks:
            for method in w.methods:
                out.append(Instance(f"{method}/{name}@{scale}/k{k}", a, method, k))
    if w.uniform is not None:
        n, density, methods, k = w.uniform
        a = uniform_matrix(n, density, np.random.default_rng([seed, n]))
        for method in methods:
            out.append(Instance(f"{method}/uniform{n}@{density}/k{k}", a, method, k))
    return out


# ----------------------------------------------------------------------
# one op, untraced and traced
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    seconds: float
    part: np.ndarray
    cutsize: int
    dec: object
    stats: object


def op_untraced(inst: Instance, cfg, seed: int) -> Outcome:
    from repro import communication_stats, decompose

    t0 = time.perf_counter()
    res = decompose(inst.a, inst.k, method=inst.method, config=cfg, seed=seed)
    stats = communication_stats(res.decomposition)
    dt = time.perf_counter() - t0
    return Outcome(dt, res.part, res.cutsize, res.decomposition, stats)


def _build_model(inst: Instance):
    from repro.core.finegrain import build_finegrain_model
    from repro.models.graph_model import build_standard_graph_model
    from repro.models.onedim import build_columnnet_model, build_rownet_model

    if inst.method == "finegrain":
        return build_finegrain_model(inst.a, consistency=True)
    if inst.method == "columnnet":
        return build_columnnet_model(inst.a, consistency=True)
    if inst.method == "rownet":
        return build_rownet_model(inst.a, consistency=True)
    return build_standard_graph_model(inst.a)


def _decode(inst: Instance, model, part):
    from repro.core.decomposition import (
        decomposition_from_col_partition,
        decomposition_from_finegrain,
        decomposition_from_row_partition,
    )

    if inst.method == "finegrain":
        return decomposition_from_finegrain(model, part, inst.k)
    if inst.method == "rownet":
        return decomposition_from_col_partition(inst.a, part, inst.k)
    return decomposition_from_row_partition(inst.a, part, inst.k)


def op_traced(inst: Instance, cfg, seed: int, rec, engine_rows: list) -> Outcome:
    """The same op as :func:`op_untraced`, one layer call at a time."""
    from repro import communication_stats, partition_graph, partition_multistart

    with rec.span("bench.op") as op_span:
        with rec.span("bench.model"):
            model = _build_model(inst)
        rng = np.random.default_rng(seed)
        if inst.method == "graph":
            with rec.span("bench.graph"):
                pres = partition_graph(model.graph, inst.k, config=cfg, seed=rng)
            cutsize = pres.edge_cut
        else:
            cpu0 = os.times()
            with rec.span("bench.partition"):
                pres = partition_multistart(
                    model.hypergraph, inst.k, config=cfg, seed=rng
                )
            cpu1 = os.times()
            if pres.start_stats:
                cpu = sum(cpu1[:4]) - sum(cpu0[:4])
                engine_rows.append(
                    (pres.runtime, [s.runtime for s in pres.start_stats], cpu)
                )
            cutsize = pres.cutsize
        with rec.span("bench.decode"):
            dec = _decode(inst, model, pres.part)
        with rec.span("bench.spmv"):
            stats = communication_stats(dec)
    return Outcome(op_span.duration, pres.part, cutsize, dec, stats)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class _Ledger:
    """Per-instance timings and results, plus every failed check."""

    def __init__(self, instances: list[Instance], speed: HostSpeed):
        self.instances = instances
        self.speed = speed
        self.first: dict[int, Outcome] = {}
        self.sha: dict[int, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, i: int, out: Outcome) -> bool:
        """Check *out* (outside any timed region); True when it passed."""
        inst = self.instances[i]
        sha = part_sha(out.part)
        problems = []
        if i not in self.sha:
            self.sha[i] = sha
            self.first[i] = out
            problems = check_output(
                inst.a, inst.method, inst.k, out.cutsize, out.dec, out.stats
            )
        elif sha != self.sha[i]:
            problems = [f"{inst.label}: part vector differs between ops"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def window(self, seconds: float, op) -> tuple[dict, dict]:
        """Run ops round-robin for *seconds*, at least one full pass.

        Returns each instance's op times, in wall and in reference seconds.
        """
        done = []
        n = len(self.instances)
        t_end = time.perf_counter() + seconds
        count = 0
        while count < n or time.perf_counter() < t_end:
            i = count % n
            count += 1
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                out = op(self.instances[i])
            except Exception as exc:  # a failed op is counted, not fatal
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{self.instances[i].label}: {exc!r}")
                continue
            t1 = time.perf_counter()
            if self.record(i, out):
                done.append((i, t0, t1, out.seconds))
        self.speed.sample()  # so the last op has a sample after it too
        wall: dict[int, list[float]] = {}
        ref: dict[int, list[float]] = {}
        for i, t0, t1, s in done:
            wall.setdefault(i, []).append(s)
            ref.setdefault(i, []).append(s * self.speed.scale_around(t0, t1))
        return wall, ref


def _medians(times: dict[int, list[float]]) -> list[float]:
    return [float(np.median(v)) for _, v in sorted(times.items())]


#: one set-up in a fresh interpreter, so that import and first-use costs
#: count: generate the inputs (printing how long that took) and run one op
_SETUP_SCRIPT = """
import sys, time
from perfbench import batch
from perfbench.common import make_config
w = (batch.SMOKE if sys.argv[2] == "1" else batch.WORKLOADS)[sys.argv[1]]
seed = int(sys.argv[3])
t0 = time.perf_counter()
instances = batch.make_inputs(w, seed)
print(time.perf_counter() - t0)
batch.op_untraced(instances[0], make_config(w.model, w.execution), seed)
"""


def _setup_once(name: str, smoke: bool, seed: int) -> tuple[float, float]:
    """Wall seconds of one set-up, and of its input generation."""
    env = clean_environ()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_SCRIPT, name, str(int(smoke)), str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=SETUP_TIMEOUT,
    )
    return time.perf_counter() - t0, float(out.stdout.split()[0])


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run of batch workload *name*; returns the run document.

    A single-worker workload runs pinned to one core, where its host-speed
    samples are taken too; a multi-worker one spreads over every usable
    core and samples them all.
    """
    w = (SMOKE if smoke else WORKLOADS)[name]
    cfg = make_config(w.model, w.execution)
    cpus = usable_cpus()
    if cfg.n_workers == 1:
        cpus = cpus[-1:]
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        speed = HostSpeed(cpus)
        doc = _run(w, cfg, seed, seconds, trace, speed)
        # after the window, so that peak_rss_mb (this process and its
        # largest child) does not count the set-up interpreters
        setup, gen = [], []
        for _ in range(SETUP_REPS):
            before = speed.sample()
            total, gen_s = _setup_once(name, smoke, seed)
            scale = speed.scale((before + speed.sample()) / 2)
            setup.append(total * scale)
            gen.append(gen_s * scale)
    finally:
        os.sched_setaffinity(0, home)
    doc["metrics"].update(
        {"setup_s": float(np.median(setup))} if not trace
        else {"matrix.gen_s": float(np.median(gen))}
    )
    return doc


def _run(w: BatchWorkload, cfg, seed: int, seconds: float, trace: bool, speed: HostSpeed) -> dict:
    from repro.telemetry import TelemetryRecorder, use_recorder

    instances = make_inputs(w, seed)
    op_untraced(instances[0], cfg, seed)  # this process's first use, untimed
    ledger = _Ledger(instances, speed)
    untraced_seconds = seconds * UNTRACED_SHARE if trace else seconds
    wall, ref = ledger.window(untraced_seconds, lambda inst: op_untraced(inst, cfg, seed))
    medians_ms = [1e3 * t for t in _medians(ref)]

    doc = {
        "instances": [
            {
                "label": inst.label,
                "rows": int(inst.a.shape[0]),
                "nnz": int(inst.a.nnz),
                "wall_ms": [round(t * 1e3, 3) for t in wall.get(i, [])],
                "ref_ms": [round(t * 1e3, 3) for t in ref.get(i, [])],
                "cutsize": int(ledger.first[i].cutsize) if i in ledger.first else None,
                "volume": int(ledger.first[i].stats.total_volume)
                if i in ledger.first else None,
            }
            for i, inst in enumerate(instances)
        ],
        "config": repr(cfg),
    }
    if not trace:
        doc["metrics"] = {
            "latency_ms_p50": pct(medians_ms, 50),
            "latency_ms_p90": pct(medians_ms, 90),
            "latency_ms_mean": mean(medians_ms),
            "volume_words": float(
                sum(o.stats.total_volume for o in ledger.first.values())
            ),
            "messages": float(
                sum(o.stats.total_messages for o in ledger.first.values())
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        rec = TelemetryRecorder()
        engine_rows: list = []
        n_samples = len(speed.samples)
        with use_recorder(rec):
            _, traced = ledger.window(
                seconds - untraced_seconds,
                lambda inst: op_traced(inst, cfg, seed, rec, engine_rows),
            )
        n_ops = sum(len(v) for v in traced.values())
        scale = speed.median_scale(since=n_samples)
        doc["metrics"] = _layer_metrics(rec, n_ops, engine_rows, cfg, scale)
        doc["metrics"]["host.scale"] = scale
        # per-instance medians of both phases, over the instances both ran
        both = sorted(set(ref) & set(traced))
        doc["metrics"]["trace.overhead_frac"] = ratio(
            sum(float(np.median(traced[i])) for i in both),
            sum(float(np.median(ref[i])) for i in both),
        ) - 1.0
    doc["host_scale"] = speed.median_scale()
    doc.update(
        correct=not ledger.problems,
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
    )
    return doc


def _layer_metrics(rec, n_ops: int, engine_rows: list, cfg, scale: float) -> dict:
    """Per-layer metrics of the traced phase, per op; times in reference
    seconds (wall seconds times *scale*)."""
    self_t = {k: v * scale for k, v in rec.durations_by_name(self_time=True).items()}
    total_t = {k: v * scale for k, v in rec.durations_by_name(self_time=False).items()}
    counters = rec.counter_totals()

    def per_op(x: float) -> float:
        return ratio(x, n_ops)

    partition_total = total_t.get("bench.partition", 0.0)
    # time inside the partitioner's own spans = span time - the benchmark
    # span's self time (the part no program span covers)
    covered = partition_total - self_t.get("bench.partition", 0.0)
    out = partition_metrics(self_t, counters, partition_total, covered, n_ops)
    out["model.build_s"] = per_op(total_t.get("bench.model", 0.0))
    out["decode.s"] = per_op(total_t.get("bench.decode", 0.0))
    out["spmv.stats_s"] = per_op(total_t.get("bench.spmv", 0.0))
    out["graph.partition_s"] = per_op(total_t.get("bench.graph", 0.0))

    workers = cfg.n_workers
    wall = sum(r[0] for r in engine_rows)
    starts = [s for r in engine_rows for s in r[1]]
    cpu = sum(r[2] for r in engine_rows)
    out["engine.s"] = per_op(total_t.get("engine", 0.0))
    out["engine.parallelism"] = ratio(sum(starts), wall)
    out["engine.start_s_p50"] = pct(starts, 50) * scale
    out["engine.dispatch_s"] = (
        mean([r[0] - sum(r[1]) / workers for r in engine_rows]) * scale
    )
    out["engine.cpu_util"] = ratio(cpu, wall * workers)
    for name in ("engine.shm_bytes", "engine.start_retries",
                 "engine.worker_restarts", "engine.backend_fallbacks"):
        out[name] = per_op(counters.get(name, 0))
    return out
