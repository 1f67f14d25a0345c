"""Serving benchmark: ``python -m repro.bench serve``.

Boots a real ``repro serve`` daemon as a subprocess (UNIX socket), drives
it with a mixed workload from concurrent client threads, and writes
``BENCH_serve.json``:

* a **miss phase** — distinct (matrix, seed) requests that all reach the
  engine, from several clients at once (exercises fair admission);
* a **hit phase** — the same requests repeated, answered from the cache
  (each verified byte-identical to its miss-phase partition);
* a **dedup burst** — many clients asking for one *new* fingerprint
  simultaneously (one computation, the rest share it);
* one **deadline-degraded** request (tiny deadline, ``n_starts > 1``) to
  witness the SLO path;
* optionally one request under **fault injection** (``--faults``, e.g.
  ``worker.heartbeat:crash@2``): the daemon runs with ``REPRO_FAULTS``
  set, a mid-load start child stops heartbeating and is killed, its
  start recomputed inline, and the request must still return the
  correct result.

The result carries the same hardware-honesty block as the other
``BENCH_*`` files (``usable_cores``, ``oversubscribed``) plus a
``shared_core_warning`` when the daemon and the load generator are
pinned to a single core — throughput numbers from such a host measure
contention, not the service.  Leak checks (daemon exit code, leftover
``/dev/shm`` segments) are recorded machine-readably.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import scipy.sparse as sp

__all__ = ["run_serve_bench", "write_serve_bench"]

#: instance template for load requests (small enough that a smoke run
#: finishes in seconds, big enough that compute >> protocol overhead)
_N, _DENSITY, _K = 90, 0.05, 4


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


def _percentile(sorted_ms: list, p: float) -> float:
    if not sorted_ms:
        return 0.0
    return sorted_ms[min(len(sorted_ms) - 1, int(p * len(sorted_ms)))]


def _request_matrix(seed: int) -> sp.csr_matrix:
    return sp.random(
        _N, _N, density=_DENSITY, format="csr", random_state=seed
    )


def _start_daemon(sock: str, workers: int, cache_dir: str, trace: str,
                  faults: str | None) -> subprocess.Popen:
    env = dict(os.environ)
    if faults:
        env["REPRO_FAULTS"] = faults
        # fast heartbeats so a killed worker is detected within the run
        env.setdefault("REPRO_HEARTBEAT_INTERVAL", "0.05")
        env.setdefault("REPRO_HEARTBEAT_TIMEOUT", "0.5")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix", sock, "--workers", str(workers),
            "--cache-dir", cache_dir, "--trace", trace,
            "--allow-shutdown",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    ready = proc.stdout.readline()
    if "listening" not in ready:
        proc.kill()
        raise RuntimeError(f"daemon failed to start: {ready!r}")
    return proc


def run_serve_bench(
    n_workers: int = 2,
    n_clients: int = 4,
    n_distinct: int = 8,
    faults: str | None = None,
    sock: str | None = None,
    progress=lambda s: None,
) -> dict:
    """Run the full serving benchmark; returns the result document."""
    from repro.serve.client import Client

    tmp = tempfile.mkdtemp(prefix="repro_serve_bench_")
    sock = sock or os.path.join(tmp, "repro.sock")
    cache_dir = os.path.join(tmp, "cache")
    trace_path = os.path.join(tmp, "serve_trace.ndjson")
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    hardware = _hardware()
    progress(f"starting daemon (workers={n_workers}, faults={faults or 'none'})")
    proc = _start_daemon(sock, n_workers, cache_dir, trace_path, faults)

    lat: dict[str, list] = {"miss": [], "hit": [], "dedup": []}
    parts: dict[int, bytes] = {}
    hit_identical = True
    errors: list[str] = []
    lock = threading.Lock()

    def worker(phase: str, seeds: list) -> None:
        nonlocal hit_identical
        with Client(sock, client_id=f"{phase}-{threading.get_ident()}") as c:
            for seed in seeds:
                t0 = time.monotonic()
                try:
                    r = c.decompose(_request_matrix(seed), k=_K, seed=seed)
                except Exception as exc:  # recorded, not fatal: the
                    with lock:           # bench reports partial failure
                        errors.append(f"{phase} seed={seed}: {exc}")
                    continue
                ms = (time.monotonic() - t0) * 1e3
                with lock:
                    lat[phase].append(ms)
                    blob = r.part.tobytes()
                    if phase == "miss":
                        parts[seed] = blob
                    elif parts.get(seed) != blob:
                        hit_identical = False

    def run_phase(phase: str, seeds: list) -> float:
        chunks = [seeds[i::n_clients] for i in range(n_clients)]
        threads = [
            threading.Thread(target=worker, args=(phase, chunk))
            for chunk in chunks if chunk
        ]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.monotonic() - t0

    seeds = list(range(n_distinct))
    progress(f"miss phase: {n_distinct} distinct requests, {n_clients} clients")
    miss_wall = run_phase("miss", seeds)
    progress("hit phase: same requests again")
    hit_wall = run_phase("hit", seeds)

    # dedup burst: every client asks for the same *new* fingerprint at once
    progress(f"dedup burst: {n_clients} clients, one new request")
    dedup_parts: list = []

    def dedup_worker() -> None:
        with Client(sock, client_id=f"dedup-{threading.get_ident()}") as c:
            t0 = time.monotonic()
            try:
                r = c.decompose(_request_matrix(10_000), k=_K, seed=10_000)
            except Exception as exc:
                with lock:
                    errors.append(f"dedup: {exc}")
                return
            ms = (time.monotonic() - t0) * 1e3
            with lock:
                lat["dedup"].append(ms)
                dedup_parts.append(r.part.tobytes())

    threads = [threading.Thread(target=dedup_worker) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    dedup_identical = len(set(dedup_parts)) <= 1

    # one deadline-degraded request (SLO witness)
    progress("deadline request (expect degraded)")
    degraded_seen = False
    with Client(sock, client_id="deadline") as c:
        try:
            r = c.decompose(
                _request_matrix(20_000), k=_K, seed=20_000,
                n_starts=4, deadline=0.005,
            )
            degraded_seen = r.degraded
        except Exception as exc:
            errors.append(f"deadline: {exc}")

    # one request that must survive injected faults (worker killed mid-run)
    fault_survived = None
    if faults:
        progress(f"fault request under {faults}")
        with Client(sock, client_id="faulty", timeout=120.0) as c:
            try:
                r = c.decompose(
                    _request_matrix(30_000), k=_K, seed=30_000,
                    n_starts=2, engine_workers=2,
                )
                fault_survived = bool(
                    r.part is not None and len(r.part) and r.cutsize >= 0
                )
            except Exception as exc:
                fault_survived = False
                errors.append(f"faults: {exc}")

    with Client(sock) as c:
        stats = c.stats()
        c.shutdown()
    proc.wait(timeout=30)
    try:
        proc.stdout.close()
    except OSError:
        pass

    shm_after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    for phase in lat:
        lat[phase].sort()
    n_requests = sum(len(v) for v in lat.values())
    wall = miss_wall + hit_wall
    oversubscribed = hardware["usable_cores"] < n_workers + 1
    shared_core = hardware["usable_cores"] < 2

    doc = {
        "bench": "serve",
        "hardware": hardware,
        "n_workers": n_workers,
        "n_clients": n_clients,
        "n_distinct": n_distinct,
        "oversubscribed": oversubscribed,
        "shared_core_warning": (
            "daemon and load generator share one usable core; latency and "
            "throughput below measure contention, not the service"
            if shared_core else None
        ),
        "requests_total": n_requests,
        "requests_per_sec": (n_requests / wall) if wall > 0 else 0.0,
        "latency_ms": {
            phase: {
                "count": len(ms),
                "p50": round(_percentile(ms, 0.50), 3),
                "p99": round(_percentile(ms, 0.99), 3),
                "max": round(ms[-1], 3) if ms else 0.0,
            }
            for phase, ms in lat.items()
        },
        "hit_rate": stats.get("hit_rate", 0.0),
        "daemon_counters": stats.get("counters", {}),
        "daemon_latency_ms": stats.get("latency_ms", {}),
        "cache": stats.get("cache", {}),
        "checks": {
            "hit_parts_identical": hit_identical,
            "dedup_parts_identical": dedup_identical,
            "deadline_degraded": degraded_seen,
            "fault_survived": fault_survived,
            "daemon_exit_code": proc.returncode,
            "shm_leaked": sorted(shm_after - shm_before),
            "errors": errors,
        },
        "faults": faults,
        "trace_path": trace_path,
    }
    if oversubscribed:
        doc["oversubscription_note"] = (
            f"only {hardware['usable_cores']} usable cores for "
            f"{n_workers} compute slots plus the event loop; queueing "
            "latency includes CPU contention"
        )
    return doc


def write_serve_bench(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
