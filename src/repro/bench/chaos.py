"""Serve-layer chaos benchmark: ``python -m repro.bench chaos``.

Runs a scripted fault schedule against real ``repro serve`` daemons and
writes ``BENCH_chaos.json``.  The schedule covers the four failure modes
the crash-safety work promises to survive:

* **baseline** — seeded load from concurrent resilient clients (the
  availability and latency reference, and the byte-identity goldens are
  computed locally with the engine first);
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

Every served partition is compared byte-for-byte against the local
golden; ``byte_divergence`` in the result **must be zero**.  Leaked
``/dev/shm`` segments, stranded ``*.tmp`` files in the state directory
and the bench process's fd count delta are recorded machine-readably,
alongside availability, failover latency, recovery time and replay
counts.  The usual hardware-honesty block (``usable_cores``,
``oversubscribed``) applies.
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

__all__ = ["run_chaos_bench", "chaos_checks_ok", "write_chaos_bench"]

#: instance template (small enough for a CI smoke, large enough that a
#: request in compute gives the SIGKILL a window to land in)
_N, _DENSITY, _K = 90, 0.05, 4
#: the seed whose request is held in compute and SIGKILLed
_KILL_SEED = 77_000
#: seeds for the single-fault stages
_JOURNAL_SEED, _WORKER_SEED = 88_000, 99_000
#: daemon base config (mirrors the ``repro serve`` CLI default)
_EPSILON = 0.03


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


def _matrix(seed: int) -> sp.csr_matrix:
    return sp.random(_N, _N, density=_DENSITY, format="csr", random_state=seed)


def _fd_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _shm_set() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class _StateDir:
    """The on-disk identity of one daemon across restarts."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.sock = os.path.join(root, "repro.sock")
        self.cache_dir = os.path.join(root, "cache")
        self.journal = os.path.join(root, "journal.ndjson")
        self.trace = os.path.join(root, "trace.ndjson")

    def tmp_files(self) -> list:
        found = []
        for dirpath, _, names in os.walk(self.root):
            found.extend(
                os.path.join(dirpath, n) for n in names if n.endswith(".tmp")
            )
        return sorted(found)


def _start_daemon(
    state: _StateDir, workers: int, faults: str | None = None
) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
        if faults.startswith("worker.heartbeat"):
            # fast heartbeats so the killed worker is detected in-run
            env.setdefault("REPRO_HEARTBEAT_INTERVAL", "0.05")
            env.setdefault("REPRO_HEARTBEAT_TIMEOUT", "0.5")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--unix", state.sock, "--workers", str(workers),
            "--cache-dir", state.cache_dir, "--journal", state.journal,
            "--trace", state.trace, "--allow-shutdown",
            "--drain-timeout", "10",
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


def _stop_daemon(proc: subprocess.Popen, state: _StateDir) -> int:
    from repro.serve.client import Client

    try:
        with Client(state.sock, timeout=30.0) as c:
            c.shutdown()
    except Exception:
        proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    try:
        proc.stdout.close()
    except OSError:
        pass
    return proc.returncode


def _wait_ready(state: _StateDir, timeout: float = 30.0) -> float:
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


def run_chaos_bench(
    n_workers: int = 2,
    n_clients: int = 3,
    n_distinct: int = 6,
    quick: bool = False,
    progress=lambda s: None,
) -> dict:
    """Run the fault schedule; returns the BENCH_chaos result document."""
    from repro.core.api import decompose
    from repro.fingerprint import fingerprint
    from repro.partitioner.config import PartitionerConfig
    from repro.serve.client import Client

    if quick:
        n_distinct = min(n_distinct, 3)
        n_clients = min(n_clients, 2)
    hardware = _hardware()
    root = tempfile.mkdtemp(prefix="repro_chaos_bench_")
    state = _StateDir(root)
    shm_before, fd_before = _shm_set(), _fd_count()

    base = PartitionerConfig(epsilon=_EPSILON)

    def golden(seed: int, n_starts: int = 1, engine_workers: int = 1) -> bytes:
        cfg = base.with_(n_starts=n_starts, n_workers=engine_workers)
        res = decompose(
            _matrix(seed), _K, method="finegrain", config=cfg, seed=seed
        )
        return np.ascontiguousarray(res.part, dtype=np.int64).tobytes()

    def part_bytes(r) -> bytes:
        return np.ascontiguousarray(r.part, dtype=np.int64).tobytes()

    progress(f"computing {n_distinct + 3} local goldens")
    goldens = {seed: golden(seed) for seed in range(n_distinct)}
    goldens[_KILL_SEED] = golden(_KILL_SEED)
    goldens[_JOURNAL_SEED] = golden(_JOURNAL_SEED)
    goldens[_WORKER_SEED] = golden(_WORKER_SEED, n_starts=2, engine_workers=2)

    divergence = 0
    attempts = successes = 0
    errors: list[str] = []
    lock = threading.Lock()
    schedule: list[dict] = []

    def check(seed: int, r, label: str) -> None:
        nonlocal divergence
        if part_bytes(r) != goldens[seed]:
            with lock:
                divergence += 1
                errors.append(f"{label}: seed={seed} diverged from golden")

    # ---- stage 1: baseline load --------------------------------------
    progress(f"baseline: {n_distinct} requests x {n_clients} clients")
    proc = _start_daemon(state, n_workers)
    baseline_lat: list = []

    def load_worker(seeds: list) -> None:
        nonlocal attempts, successes
        with Client(state.sock, client_id=f"load-{threading.get_ident()}",
                    max_retries=5) as c:
            for seed in seeds:
                with lock:
                    attempts += 1
                t0 = time.monotonic()
                try:
                    r = c.decompose(_matrix(seed), k=_K, seed=seed)
                except Exception as exc:
                    with lock:
                        errors.append(f"baseline seed={seed}: {exc}")
                    continue
                ms = (time.monotonic() - t0) * 1e3
                with lock:
                    successes += 1
                    baseline_lat.append(ms)
                check(seed, r, "baseline")

    chunks = [list(range(n_distinct))[i::n_clients] for i in range(n_clients)]
    threads = [
        threading.Thread(target=load_worker, args=(chunk,))
        for chunk in chunks if chunk
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline_wall = time.monotonic() - t0
    baseline_exit = _stop_daemon(proc, state)
    baseline_lat.sort()
    schedule.append({
        "stage": "baseline",
        "requests": n_distinct,
        "wall_s": round(baseline_wall, 3),
        "p50_ms": round(_percentile(baseline_lat, 0.50), 3),
        "p99_ms": round(_percentile(baseline_lat, 0.99), 3),
        "daemon_exit_code": baseline_exit,
    })

    # ---- stage 2: daemon SIGKILL mid-compute + warm restart ----------
    hold = 2.0 if quick else 3.0
    progress(f"sigkill: hold compute {hold}s, kill daemon, warm restart")
    proc = _start_daemon(state, n_workers,
                         faults=f"serve.compute:sleep{hold}@1")
    kill_cfg = base.with_(n_starts=1, n_workers=1)
    kill_fp = fingerprint(
        _matrix(_KILL_SEED), kill_cfg, _KILL_SEED, k=_K, method="finegrain"
    )
    failover_result: dict = {}

    def kill_client() -> None:
        nonlocal attempts, successes
        with lock:
            attempts += 1
        # generous retry budget: this client must ride through the
        # daemon's death and restart transparently
        with Client(state.sock, client_id="kill", timeout=60.0,
                    max_retries=80, backoff_base=0.05,
                    backoff_cap=0.4) as c:
            t0 = time.monotonic()
            try:
                r = c.decompose(_matrix(_KILL_SEED), k=_K, seed=_KILL_SEED)
            except Exception as exc:
                with lock:
                    errors.append(f"sigkill client: {exc}")
                return
            with lock:
                successes += 1
                failover_result["latency_ms"] = (time.monotonic() - t0) * 1e3
                failover_result["reconnects"] = c.reconnects
                failover_result["retries"] = c.retries
            check(_KILL_SEED, r, "sigkill-failover")

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
    proc.kill()  # SIGKILL: no drain, no journal tombstone, no cleanup
    proc.wait()
    try:
        proc.stdout.close()
    except OSError:
        pass

    progress("restarting daemon on the same state dir")
    proc = _start_daemon(state, n_workers)
    ready_wait = _wait_ready(state)
    recovery_s = time.monotonic() - t_kill
    kc.join(timeout=120)
    # the replayed result must now be served from cache, byte-identical
    replays = 0
    with Client(state.sock, client_id="verify", max_retries=5) as c:
        attempts += 1
        try:
            r = c.decompose(_matrix(_KILL_SEED), k=_K, seed=_KILL_SEED)
            successes += 1
            check(_KILL_SEED, r, "sigkill-replayed")
            served_from = r.served.get("cache")
            stats = c.stats()
            replays = stats["counters"].get("replays", 0)
        except Exception as exc:
            served_from = None
            errors.append(f"sigkill verify: {exc}")
    sigkill_exit = _stop_daemon(proc, state)
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
        "daemon_exit_code": sigkill_exit,
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
    proc = _start_daemon(state, n_workers)  # cold memory tier
    corrupt_detected = 0
    with Client(state.sock, client_id="corrupt", max_retries=5) as c:
        attempts += 1
        try:
            r = c.decompose(_matrix(_KILL_SEED), k=_K, seed=_KILL_SEED)
            successes += 1
            check(_KILL_SEED, r, "cache-corruption")
            corrupt_detected = (
                c.stats()["cache"].get("corrupt_entries", 0)
            )
        except Exception as exc:
            errors.append(f"corruption: {exc}")
    corrupt_exit = _stop_daemon(proc, state)
    schedule.append({
        "stage": "cache_corruption",
        "entry_corrupted": corrupted,
        "corrupt_entries_detected": corrupt_detected,
        "daemon_exit_code": corrupt_exit,
    })

    # ---- stage 4: journal-write failure ------------------------------
    progress("journal-write failure (absorbed, request still served)")
    proc = _start_daemon(state, n_workers,
                         faults="serve.journal_write:oserror@1")
    journal_write_errors = 0
    with Client(state.sock, client_id="journal", max_retries=5) as c:
        attempts += 1
        try:
            r = c.decompose(_matrix(_JOURNAL_SEED), k=_K, seed=_JOURNAL_SEED)
            successes += 1
            check(_JOURNAL_SEED, r, "journal-write-failure")
            jstats = c.stats().get("journal") or {}
            journal_write_errors = jstats.get("write_errors", 0)
        except Exception as exc:
            errors.append(f"journal fault: {exc}")
    journal_exit = _stop_daemon(proc, state)
    schedule.append({
        "stage": "journal_write_failure",
        "journal_write_errors": journal_write_errors,
        "daemon_exit_code": journal_exit,
    })

    # ---- stage 5: engine worker kill ---------------------------------
    progress("worker kill (heartbeat crash, start recomputed inline)")
    proc = _start_daemon(state, n_workers,
                         faults="worker.heartbeat:crash@2")
    with Client(state.sock, client_id="worker", timeout=120.0,
                max_retries=5) as c:
        attempts += 1
        try:
            r = c.decompose(
                _matrix(_WORKER_SEED), k=_K, seed=_WORKER_SEED,
                n_starts=2, engine_workers=2,
            )
            successes += 1
            check(_WORKER_SEED, r, "worker-kill")
        except Exception as exc:
            errors.append(f"worker kill: {exc}")
    worker_exit = _stop_daemon(proc, state)
    schedule.append({
        "stage": "worker_kill",
        "daemon_exit_code": worker_exit,
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
        "schedule": schedule,
        "state_dir": root,
        "trace_path": state.trace,
        "checks": {
            "byte_divergence_zero": divergence == 0,
            "all_requests_served": successes == attempts,
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
        and checks["journal_accept_observed"]
        and checks["replayed_from_cache"]
        and checks["corruption_detected"]
        and checks["journal_fault_absorbed"]
        and all(code == 0 for code in checks["daemon_exit_codes"])
        and not checks["shm_leaked"]
        and not checks["tmp_leaked"]
        and not checks["errors"]
    )


def write_chaos_bench(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
