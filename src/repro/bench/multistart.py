"""Multi-start engine benchmark: ``python -m repro.bench multistart``.

Compares three ways of getting a best-of-N fine-grain decomposition on the
fixed instance set the pre-PR baseline was recorded on
(``tests/data/prepr_multistart_baseline.json``):

1. the recorded pre-PR wall-clock of N sequential single starts,
2. N sequential single starts on the current code (isolates the kernel
   vectorization speedup),
3. the multi-start engine at ``n_starts=N`` with the serial and the
   process backend (isolates engine overhead and worker scaling).

The result JSON carries a hardware block — worker scaling is a function
of the core count, so the numbers are only comparable on similar hosts —
and the engine's per-start stats so the best-of-N quality is auditable.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict

from repro._util import Timer
from repro.core.api import decompose
from repro.partitioner import PartitionerConfig
from repro.partitioner.config import ExecutionPolicy
from repro.telemetry import TelemetryRecorder, use_recorder

#: recovery activity that would silently pollute a timing row — recorded
#: per engine run so a benchmark that survived retries or worker
#: restarts says so machine-readably instead of passing as clean
_RESILIENCE_COUNTERS = (
    "engine.start_retries",
    "engine.worker_restarts",
    "engine.backend_fallbacks",
    "engine.deadline_hits",
    "engine.degraded_runs",
    "engine.starts_resumed",
)


def _recovery_counters(rec: TelemetryRecorder) -> dict:
    totals = rec.counter_totals()
    return {k: int(totals[k]) for k in _RESILIENCE_COUNTERS if k in totals}

__all__ = ["BENCH_INSTANCES", "run_multistart_bench", "write_multistart_bench"]

#: (collection name, scale, k) — must match the keys of the recorded
#: pre-PR baseline file
BENCH_INSTANCES: tuple[tuple[str, float, int], ...] = (
    ("sherman3", 0.25, 8),
    ("ken-11", 0.125, 16),
    ("finan512", 0.0625, 16),
)

_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))),
    "tests", "data", "prepr_multistart_baseline.json",
)


def _load_baseline(path: str | None) -> dict:
    path = path or _BASELINE_PATH
    try:
        with open(path) as f:
            return json.load(f)
    except OSError:
        return {"matrices": {}}


def _hardware() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def run_multistart_bench(
    n_starts: int = 4,
    n_workers: int = 4,
    seed: int = 0,
    baseline_path: str | None = None,
    progress=None,
) -> dict:
    """Run the engine benchmark and return the result document."""
    from repro.matrix.collection import load_collection_matrix

    baseline = _load_baseline(baseline_path)
    hardware = _hardware()
    # honesty: a process-backend timing taken with more workers than
    # usable cores measures oversubscription (pool + transport overhead at
    # zero parallel speedup), not scaling — say so machine-readably
    # instead of letting the row pass as a parallel measurement
    oversubscribed = hardware["usable_cores"] < n_workers
    # the kernel every timed run below executes with (normalised, so a
    # legacy name never reaches the record) — timings taken under
    # different kernels are not comparable
    kernel = ExecutionPolicy().kernel
    out: dict = {
        "bench": "multistart-engine",
        "n_starts": n_starts,
        "n_workers": n_workers,
        "seed": seed,
        "kernel": kernel,
        "hardware": hardware,
        "oversubscribed": oversubscribed,
        "baseline_commit": baseline.get("commit"),
        "matrices": {},
    }

    for name, scale, k in BENCH_INSTANCES:
        key = f"{name}@{scale:g}-k{k}"
        if progress:
            progress(f"loading {key}")
        a = load_collection_matrix(name, scale=scale)

        # N sequential single starts on the current code (kernel-only view)
        if progress:
            progress(f"{key}: {n_starts} sequential single starts")
        seq_cuts = []
        with Timer() as t_seq:
            for s in range(n_starts):
                r = decompose(a, k, method="finegrain", seed=seed + s)
                seq_cuts.append(r.cutsize)

        # multi-start engine, serial backend
        if progress:
            progress(f"{key}: engine serial n_starts={n_starts}")
        cfg_serial = PartitionerConfig(n_starts=n_starts, start_backend="serial")
        rec_serial = TelemetryRecorder()
        with use_recorder(rec_serial):
            r_serial = decompose(
                a, k, method="finegrain", config=cfg_serial, seed=seed
            )

        # multi-start engine, process backend with n_workers
        if progress:
            progress(f"{key}: engine process n_workers={n_workers}")
        cfg_proc = PartitionerConfig(
            n_starts=n_starts, n_workers=n_workers, start_backend="process"
        )
        rec_proc = TelemetryRecorder()
        with use_recorder(rec_proc):
            r_proc = decompose(a, k, method="finegrain", config=cfg_proc, seed=seed)
        recovery_serial = _recovery_counters(rec_serial)
        recovery_proc = _recovery_counters(rec_proc)

        base = baseline.get("matrices", {}).get(key, {})
        base_secs = base.get("seconds_4_sequential_starts")
        row = {
            "k": k,
            "scale": scale,
            "prepr_seconds_sequential": base_secs,
            "prepr_cuts": base.get("cuts"),
            "seconds_sequential": round(t_seq.elapsed, 3),
            "sequential_cuts": seq_cuts,
            "engine_serial_seconds": round(r_serial.runtime, 3),
            "engine_serial_cut": r_serial.cutsize,
            "engine_process_seconds": round(r_proc.runtime, 3),
            "engine_process_cut": r_proc.cutsize,
            "process_workers_effective": min(n_workers, hardware["usable_cores"]),
            "process_oversubscribed": oversubscribed,
            "start_stats": [asdict(s) for s in r_serial.start_stats],
            "process_start_stats": [asdict(s) for s in r_proc.start_stats],
            "engine_serial_recovery": recovery_serial,
            "engine_process_recovery": recovery_proc,
            "clean_run": not (recovery_serial or recovery_proc),
        }
        if base_secs:
            row["kernel_speedup"] = round(base_secs / t_seq.elapsed, 2)
            row["speedup_serial_engine"] = round(base_secs / r_serial.runtime, 2)
            row["speedup_process_engine"] = round(base_secs / r_proc.runtime, 2)
        out["matrices"][key] = row
        if progress:
            progress(
                f"{key}: kernel x{row.get('kernel_speedup', '?')}, "
                f"engine serial x{row.get('speedup_serial_engine', '?')}, "
                f"process x{row.get('speedup_process_engine', '?')}"
            )

    speedups = [
        row["speedup_serial_engine"]
        for row in out["matrices"].values()
        if "speedup_serial_engine" in row
    ]
    proc_speedups = [
        row["speedup_process_engine"]
        for row in out["matrices"].values()
        if "speedup_process_engine" in row
    ]
    if speedups:
        out["summary"] = {
            "mean_kernel_speedup": round(
                sum(r["kernel_speedup"] for r in out["matrices"].values())
                / len(speedups), 2,
            ),
            "mean_speedup_serial_engine": round(sum(speedups) / len(speedups), 2),
            "mean_speedup_process_engine": round(
                sum(proc_speedups) / len(proc_speedups), 2
            ),
        }
    out["notes"] = [
        "speedup_* compare against the recorded pre-PR wall-clock of "
        f"{n_starts} sequential single starts (prepr_seconds_sequential).",
        (
            f"OVERSUBSCRIBED: only {hardware['usable_cores']} usable "
            f"core(s) for {n_workers} workers — process-backend rows "
            "measure transport + pool overhead, not parallel scaling; "
            "disregard speedup_process_engine on this host."
            if oversubscribed
            else f"process-backend rows ran {n_workers} workers on "
            f"{hardware['usable_cores']} usable cores."
        ),
        "The serial-engine speedup is pure kernel vectorization; the "
        "process-engine speedup additionally scales with usable cores "
        f"(this host: {hardware['usable_cores']}).  On a host with "
        f">= {n_workers} cores the process backend multiplies the kernel "
        f"speedup by up to {n_workers}x minus pool overhead; the overhead "
        "is the difference between engine_process_seconds and "
        "engine_serial_seconds / min(n_workers, usable_cores) here.",
        "n_starts=1 remains bit-identical to the pre-PR partitioner at a "
        "fixed seed (verified by tests/data/golden_parts.json replay in "
        "the test suite); start 0 of a multi-start run replays that same "
        "stream, so engine cuts are never worse than single-start cuts.",
        "engine_*_recovery record the resilience-runtime counters "
        "(retries, worker restarts, backend fallbacks, ...) observed "
        "during each timed engine run; clean_run=false means a timing "
        "row includes recovery work and should not be compared against "
        "clean rows.",
    ]
    return out


def write_multistart_bench(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
