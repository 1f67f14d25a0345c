"""Serve-layer chaos benchmark: ``python -m repro.bench chaos``.

Runs a scripted schedule against real ``repro serve`` daemons and writes
``BENCH_chaos.json``.  The schedule covers the serving contract and the
four failure modes the crash-safety work promises to survive:

* **baseline** — a healthy daemon under seeded load: a miss phase of
  distinct requests from concurrent resilient clients, a hit phase that
  repeats them (every answer must come from the cache), a dedup burst
  (every client asks for one new request at once), and one request whose
  5 ms deadline cuts a 4-start sweep short (it must come back
  ``degraded``);
* **daemon SIGKILL + warm restart** — a request is held in compute by an
  injected ``serve.compute:sleep`` fault, the daemon is SIGKILLed after
  the durable journal records the accept, and a fresh daemon on the same
  state directory replays it; the client rides through the outage on
  reconnect/backoff and must receive the byte-identical result;
* **cache corruption** — a disk-tier entry is deliberately corrupted and
  re-requested on a cold daemon: detected by checksum, recomputed,
  byte-identical;
* **journal-write failure** — ``serve.journal_write:oserror`` makes the
  journal append fail: absorbed and counted, the request still served;
* **worker kill** — a supervised start child dies mid-request
  (``worker.heartbeat:crash``) and is killed, its start recomputed
  inline; the engine invariant
  ("recovery never moves a bit") must hold through the serving stack.

Every served partition is compared byte-for-byte against a golden the
engine computes locally first; ``byte_divergence`` in the result **must
be zero**.  Leaked ``/dev/shm`` segments, stranded ``*.tmp`` files in
the state directory and the bench process's fd count delta are recorded
machine-readably, alongside availability, the baseline daemon's cache
hit rate, failover latency, recovery time and replay counts.  Serving
latency under steady load is perfbench's ``serve-mixed`` workload, not
this record.  The usual hardware-honesty block (``usable_cores``,
``oversubscribed``) applies.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import numpy as np
import scipy.sparse as sp

from repro._util import percentile
from repro.bench.harness import Daemon, StateDir, host

__all__ = ["run_chaos_bench", "chaos_checks_ok"]

#: instance template (small enough for a CI smoke, large enough that a
#: request in compute gives the SIGKILL a window to land in, and that
#: one start outlasts the deadline request's 5 ms)
_N, _DENSITY, _K = 90, 0.05, 4
#: the seed whose request is held in compute and SIGKILLed
_KILL_SEED = 77_000
#: seeds for the single-request parts of the schedule
_DEADLINE_SEED, _DEDUP_SEED = 55_000, 66_000
_JOURNAL_SEED, _WORKER_SEED = 88_000, 99_000
#: daemon base config (mirrors the ``repro serve`` CLI default)
_EPSILON = 0.03


def _matrix(seed: int) -> sp.csr_matrix:
    return sp.random(_N, _N, density=_DENSITY, format="csr", random_state=seed)


def _fd_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _shm_set() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _wait_ready(state: StateDir, timeout: float = 30.0) -> float:
    """Poll ``health`` until the daemon reports ``ready``; returns the
    wait in seconds."""
    from repro.serve.client import Client

    t0 = time.monotonic()
    deadline = t0 + timeout
    with Client(state.sock, timeout=10.0, max_retries=60,
                backoff_base=0.02, backoff_cap=0.2) as c:
        while time.monotonic() < deadline:
            try:
                if c.health().get("state") == "ready":
                    return time.monotonic() - t0
            except Exception:
                pass
            time.sleep(0.05)
    raise RuntimeError("daemon never reached state=ready")


def _concurrently(target, args: list) -> float:
    """Run ``target(arg)`` on one thread per element of *args*; returns
    the wall seconds until every thread is done."""
    threads = [threading.Thread(target=target, args=(a,)) for a in args]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.monotonic() - t0


def run_chaos_bench(
    n_workers: int = 2,
    n_clients: int = 3,
    n_distinct: int = 6,
    quick: bool = False,
    progress=lambda s: None,
) -> dict:
    """Run the schedule; returns the BENCH_chaos result document."""
    from repro.core.api import decompose
    from repro.fingerprint import fingerprint
    from repro.partitioner.config import PartitionerConfig
    from repro.serve.client import Client

    if quick:
        n_distinct = min(n_distinct, 3)
        n_clients = min(n_clients, 2)
    hardware = host()
    root = tempfile.mkdtemp(prefix="repro_chaos_bench_")
    state = StateDir(root)
    shm_before, fd_before = _shm_set(), _fd_count()

    base = PartitionerConfig(epsilon=_EPSILON)

    def golden(seed: int, n_starts: int = 1, engine_workers: int = 1) -> bytes:
        cfg = base.with_(n_starts=n_starts, n_workers=engine_workers)
        res = decompose(
            _matrix(seed), _K, method="finegrain", config=cfg, seed=seed
        )
        return np.ascontiguousarray(res.part, dtype=np.int64).tobytes()

    seeds = list(range(n_distinct))
    # the deadline request's golden is single-start: a degraded sweep
    # returns start 0, which replays the single-start stream
    single_seeds = (*seeds, _DEADLINE_SEED, _DEDUP_SEED, _KILL_SEED,
                    _JOURNAL_SEED)
    progress(f"computing {len(single_seeds) + 1} local goldens")
    goldens = {seed: golden(seed) for seed in single_seeds}
    goldens[_WORKER_SEED] = golden(_WORKER_SEED, n_starts=2, engine_workers=2)

    divergence = 0
    attempts = successes = 0
    errors: list[str] = []
    lock = threading.Lock()
    schedule: list[dict] = []

    def ask(c, seed: int, label: str, **kw):
        """One counted request for *seed*'s matrix, held to its golden:
        ``(response, byte_equal)``, or ``(None, False)`` once the error
        is recorded."""
        nonlocal attempts, successes, divergence
        with lock:
            attempts += 1
        try:
            r = c.decompose(_matrix(seed), k=_K, seed=seed, **kw)
        except Exception as exc:
            with lock:
                errors.append(f"{label} seed={seed}: {exc}")
            return None, False
        same = (
            np.ascontiguousarray(r.part, dtype=np.int64).tobytes()
            == goldens[seed]
        )
        with lock:
            successes += 1
            if not same:
                divergence += 1
                errors.append(f"{label}: seed={seed} diverged from golden")
        return r, same

    def daemon_stats(c) -> dict:
        """The daemon's ``stats``, or ``{}`` once the error is recorded."""
        try:
            return c.stats()
        except Exception as exc:
            with lock:
                errors.append(f"stats: {exc}")
            return {}

    def client(name: str, max_retries: int = 5, **kw):
        return Client(state.sock, client_id=f"{name}-{threading.get_ident()}",
                      max_retries=max_retries, **kw)

    # ---- stage 1: baseline -------------------------------------------
    progress(f"baseline: {n_distinct} misses then hits x {n_clients} "
             "clients, a dedup burst, a deadline request")
    daemon = Daemon(state, n_workers)
    baseline_lat: list = []
    hit_ok: list = []
    dedup_ok: list = []
    chunks = [seeds[i::n_clients] for i in range(min(n_clients, n_distinct))]

    def miss_load(chunk: list) -> None:
        with client("miss") as c:
            for seed in chunk:
                t0 = time.monotonic()
                r, _ = ask(c, seed, "baseline")
                if r is not None:
                    with lock:
                        baseline_lat.append((time.monotonic() - t0) * 1e3)

    def hit_load(chunk: list) -> None:
        with client("hit") as c:
            for seed in chunk:
                r, same = ask(c, seed, "hit")
                with lock:
                    hit_ok.append(same and r.served.get("cache") != "computed")

    def dedup_request(_) -> None:
        with client("dedup") as c:
            _, same = ask(c, _DEDUP_SEED, "dedup")
            with lock:
                dedup_ok.append(same)

    miss_wall = _concurrently(miss_load, chunks)
    _concurrently(hit_load, chunks)
    _concurrently(dedup_request, list(range(n_clients)))
    with client("deadline") as c:
        r, same = ask(c, _DEADLINE_SEED, "deadline", n_starts=4,
                      deadline=0.005)
        deadline_degraded = same and r.degraded
        hit_rate = daemon_stats(c).get("hit_rate", 0.0)
    baseline_exit = daemon.stop()
    baseline_lat.sort()
    schedule.append({
        "stage": "baseline",
        "requests": n_distinct,
        "wall_s": round(miss_wall, 3),
        "p50_ms": round(percentile(baseline_lat, 0.50), 3),
        "p99_ms": round(percentile(baseline_lat, 0.99), 3),
        "daemon_exit_code": baseline_exit,
    })

    # ---- stage 2: daemon SIGKILL mid-compute + warm restart ----------
    hold = 2.0 if quick else 3.0
    progress(f"sigkill: hold compute {hold}s, kill daemon, warm restart")
    daemon = Daemon(state, n_workers, faults=f"serve.compute:sleep{hold}@1")
    kill_cfg = base.with_(n_starts=1, n_workers=1)
    kill_fp = fingerprint(
        _matrix(_KILL_SEED), kill_cfg, _KILL_SEED, k=_K, method="finegrain"
    )
    failover_result: dict = {}

    def kill_client() -> None:
        # generous retry budget: this client must ride through the
        # daemon's death and restart transparently
        with client("kill", timeout=60.0, max_retries=80, backoff_base=0.05,
                    backoff_cap=0.4) as c:
            t0 = time.monotonic()
            r, _ = ask(c, _KILL_SEED, "sigkill-failover")
            if r is not None:
                failover_result["latency_ms"] = (time.monotonic() - t0) * 1e3
                failover_result["reconnects"] = c.reconnects
                failover_result["retries"] = c.retries

    kc = threading.Thread(target=kill_client)
    kc.start()
    # wait until the durable journal holds the accept, then murder
    journal_deadline = time.monotonic() + 10.0
    accepted = False
    while time.monotonic() < journal_deadline:
        try:
            with open(state.journal) as f:
                accepted = kill_fp in f.read()
        except OSError:
            accepted = False
        if accepted:
            break
        time.sleep(0.02)
    time.sleep(0.15)  # let the request enter the held compute span
    t_kill = time.monotonic()
    daemon.kill()

    progress("restarting daemon on the same state dir")
    daemon = Daemon(state, n_workers)
    ready_wait = _wait_ready(state)
    recovery_s = time.monotonic() - t_kill
    kc.join(timeout=120)
    # the replayed result must now be served from cache, byte-identical
    with client("verify") as c:
        r, _ = ask(c, _KILL_SEED, "sigkill-replayed")
        served_from = r.served.get("cache") if r is not None else None
        replays = daemon_stats(c).get("counters", {}).get("replays", 0)
    schedule.append({
        "stage": "daemon_sigkill_restart",
        "journal_accept_observed": accepted,
        "recovery_s": round(recovery_s, 3),
        "ready_wait_s": round(ready_wait, 3),
        "replays": replays,
        "failover_latency_ms": round(
            failover_result.get("latency_ms", 0.0), 3
        ),
        "client_reconnects": failover_result.get("reconnects", 0),
        "client_retries": failover_result.get("retries", 0),
        "replayed_served_from": served_from,
        "daemon_exit_code": daemon.stop(),
    })

    # ---- stage 3: disk cache corruption ------------------------------
    progress("corrupting the disk cache entry, re-requesting cold")
    entry_path = os.path.join(state.cache_dir, f"{kill_fp}.npz")
    corrupted = False
    if os.path.exists(entry_path):
        with open(entry_path, "r+b") as f:
            f.seek(max(0, os.path.getsize(entry_path) // 2))
            f.write(b"\xde\xad\xbe\xef" * 8)
        corrupted = True
    daemon = Daemon(state, n_workers)  # cold memory tier
    with client("corrupt") as c:
        ask(c, _KILL_SEED, "cache-corruption")
        corrupt_detected = (
            daemon_stats(c).get("cache", {}).get("corrupt_entries", 0)
        )
    schedule.append({
        "stage": "cache_corruption",
        "entry_corrupted": corrupted,
        "corrupt_entries_detected": corrupt_detected,
        "daemon_exit_code": daemon.stop(),
    })

    # ---- stage 4: journal-write failure ------------------------------
    progress("journal-write failure (absorbed, request still served)")
    daemon = Daemon(state, n_workers, faults="serve.journal_write:oserror@1")
    with client("journal") as c:
        ask(c, _JOURNAL_SEED, "journal-write-failure")
        journal = daemon_stats(c).get("journal") or {}
    schedule.append({
        "stage": "journal_write_failure",
        "journal_write_errors": journal.get("write_errors", 0),
        "daemon_exit_code": daemon.stop(),
    })

    # ---- stage 5: engine worker kill ---------------------------------
    progress("worker kill (heartbeat crash, start recomputed inline)")
    daemon = Daemon(state, n_workers, faults="worker.heartbeat:crash@2")
    with client("worker", timeout=120.0) as c:
        ask(c, _WORKER_SEED, "worker-kill", n_starts=2, engine_workers=2)
    schedule.append({
        "stage": "worker_kill",
        "daemon_exit_code": daemon.stop(),
    })

    # ---- leak audit ---------------------------------------------------
    shm_after, fd_after = _shm_set(), _fd_count()
    tmp_leaked = state.tmp_files()
    oversubscribed = hardware["usable_cores"] < n_workers + 1

    doc = {
        "bench": "chaos",
        "hardware": hardware,
        "quick": quick,
        "n_workers": n_workers,
        "n_clients": n_clients,
        "n_distinct": n_distinct,
        "oversubscribed": oversubscribed,
        "availability": round(successes / attempts, 4) if attempts else 0.0,
        "requests_attempted": attempts,
        "requests_succeeded": successes,
        "byte_divergence": divergence,
        "hit_rate": hit_rate,
        "schedule": schedule,
        "state_dir": root,
        "trace_path": state.trace,
        "checks": {
            "byte_divergence_zero": divergence == 0,
            "all_requests_served": successes == attempts,
            "hit_parts_identical": len(hit_ok) == n_distinct and all(hit_ok),
            "dedup_parts_identical": (
                len(dedup_ok) == n_clients and all(dedup_ok)
            ),
            "deadline_degraded": deadline_degraded,
            "journal_accept_observed": schedule[1]["journal_accept_observed"],
            "replayed_from_cache": schedule[1]["replayed_served_from"]
            not in (None, "computed"),
            "corruption_detected": schedule[2]["corrupt_entries_detected"] > 0
            or not schedule[2]["entry_corrupted"],
            "journal_fault_absorbed": schedule[3]["journal_write_errors"] > 0,
            "daemon_exit_codes": [s["daemon_exit_code"] for s in schedule],
            "shm_leaked": sorted(shm_after - shm_before),
            "tmp_leaked": tmp_leaked,
            "fd_before": fd_before,
            "fd_after": fd_after,
            "errors": errors,
        },
    }
    if oversubscribed:
        doc["oversubscription_note"] = (
            f"only {hardware['usable_cores']} usable cores for "
            f"{n_workers} compute slots plus the event loop; failover "
            "latency includes CPU contention"
        )
    return doc


def chaos_checks_ok(doc: dict) -> bool:
    """The pass/fail gate CI applies to a chaos run."""
    checks = doc["checks"]
    return bool(
        checks["byte_divergence_zero"]
        and checks["all_requests_served"]
        and checks["hit_parts_identical"]
        and checks["dedup_parts_identical"]
        and checks["deadline_degraded"]
        and checks["journal_accept_observed"]
        and checks["replayed_from_cache"]
        and checks["corruption_detected"]
        and checks["journal_fault_absorbed"]
        and all(code == 0 for code in checks["daemon_exit_codes"])
        and not checks["shm_leaked"]
        and not checks["tmp_leaked"]
        and not checks["errors"]
    )
