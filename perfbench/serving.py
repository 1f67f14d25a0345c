"""The serve-mixed workload: a live ``repro serve`` daemon under open-loop load.

A ``repro serve --workers 2`` daemon listens on a UNIX socket inside the
checkout.  One asyncio thread drives it over two pipelined connections
with Poisson arrivals at ``RATE`` requests per second.  Four requests in
five ask again for one of ``WORKING_SET`` fingerprints warmed during
set-up, so they are cache reads; the fifth carries a fresh inline
matrix, so the daemon computes and inserts it while the reads run.

Latency runs from when a request was due, not from when it was sent, so
a stalled generator is charged to the requests it delayed; the
generator's own lateness is reported as ``loadgen.lag_ms_p99``.

After the window the harness checks every response: each hit must carry
exactly the parts its warm-up miss returned, and the working set plus
every ``RECHECK_EVERY``-th miss are recomputed in-process and must match
bit for bit and satisfy Eq. 3 and Eq. 1.

The traced run serves the first 40% of the schedule from the untraced
daemon, then restarts it with ``--trace`` on the same cache directory
and serves the rest; the daemon's per-request telemetry gives the
partitioner's phase times for the misses.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from perfbench.batch import UNTRACED_SHARE, uniform_matrix
from perfbench.common import (
    EPSILON,
    PER_LAYER,
    ROOT,
    SRC,
    WORK,
    HostSpeed,
    check_output,
    clean_environ,
    mean,
    partition_metrics,
    pct,
    peak_rss_mb,
    ratio,
    usable_cpus,
)

# At 20 req/s, 20% misses on 80 x 80 matrices keep the daemon computing
# about 15% of the time.  A hit that arrives during a compute waits for
# the GIL and takes several times longer.  With 30% misses on 120 x 120
# matrices the daemon computed about half the time; the median request
# then sat on the boundary between waiting and non-waiting hits and
# jumped between them from run to run.  One miss at a random position in
# every block of MISS_EVERY requests fixes the share at 20%: drawn per
# request it ranged over 17-26% between seeds and moved the mean with it.
RATE = 20.0
MISS_EVERY = 5
WORKING_SET = 32
N, DENSITY, K = 80, 0.05, 4
#: latency limits of the SLO: a hit within 25 ms, a miss within 500 ms
HIT_LIMIT_MS, MISS_LIMIT_MS = 25.0, 500.0
CONNECTIONS = 2
DAEMON_WORKERS = 2
RECHECK_EVERY = 10
SETUP_REPS = 3
#: an idle gap at least this long (s) leaves room for a host-speed sample
IDLE_GAP_S = 0.015
#: the generator sleeps until this long (s) before a send is due and polls
#: the loop for the rest: a timer wakes up to a millisecond late, and that
#: lateness would be charged to the request
SPIN_S = 0.002
#: seconds to wait for the daemon to start, drain or stop
TIMEOUT = 60.0


@dataclass
class Request:
    id: int
    #: seconds after the window opens
    due: float
    #: "hit" or "miss"
    kind: str
    #: working-set index of a hit, -1 for a miss
    ws: int
    #: the matrix of a miss
    a: object = None
    line: bytes = b""
    #: clock readings (perf_counter) of when it was due, sent and answered
    due_at: float = float("nan")
    sent: float = float("nan")
    recv: float = float("nan")
    resp: dict | None = None

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due_at) * 1e3

    @property
    def served(self) -> dict:
        return self.resp.get("served", {}) if self.resp else {}


def request_obj(a, seed: int) -> dict:
    from repro.serve.protocol import inline_matrix

    return {
        "op": "decompose",
        "matrix": {"inline": inline_matrix(a)},
        "method": "finegrain",
        "k": K,
        "seed": seed,
        "epsilon": EPSILON,
        "n_starts": 1,
        "engine_workers": 1,
        "want_part": True,
    }


def make_inputs(seed: int, seconds: float, working_set: int):
    """The working set and the arrival schedule for *seed*."""
    rng = np.random.default_rng([seed, 0x5E7E])
    ws = [uniform_matrix(N, DENSITY, rng) for _ in range(working_set)]
    reqs: list[Request] = []
    t = 0.0
    miss_at = 0
    while True:
        t += rng.exponential(1.0 / RATE)
        if t >= seconds:
            return ws, reqs
        j = len(reqs)
        if j % MISS_EVERY == 0:
            miss_at = j + int(rng.integers(MISS_EVERY))
        if j != miss_at:
            reqs.append(Request(j, t, "hit", int(rng.integers(working_set))))
        else:
            reqs.append(Request(j, t, "miss", -1, uniform_matrix(N, DENSITY, rng)))


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess pinned to core *cpu*, always stopped
    and reaped."""

    def __init__(self, sock: str, cache_dir: str, cpu: int, trace_path: str | None = None):
        self.sock = sock
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--unix", sock,
            "--workers", str(DAEMON_WORKERS),
            "--cache-dir", cache_dir,
            "--epsilon", str(EPSILON),
            "--allow-shutdown",
        ]
        if trace_path:
            cmd += ["--trace", trace_path]
        env = clean_environ()
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if "listening" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")

    def client(self):
        from repro.serve.client import Client

        return Client(self.sock, timeout=TIMEOUT)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.shutdown()
                self.proc.wait(timeout=TIMEOUT)
            except Exception:  # noqa: BLE001 - any failure ends in a kill
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def warm(daemon: Daemon, ws_objs: list[dict], speed: HostSpeed) -> tuple[list[dict], float]:
    """Request every working-set entry once, sampling the host's speed
    before each request; returns the result docs and the seconds spent
    sampling."""
    docs, sampling = [], 0.0
    with daemon.client() as c:
        for obj in ws_objs:
            t0 = time.perf_counter()
            speed.sample()
            sampling += time.perf_counter() - t0
            docs.append(c.request(obj)["result"])
    return docs, sampling


def counters_delta(before: dict, after: dict) -> dict:
    b, a = before.get("counters", {}), after.get("counters", {})
    return {k: a.get(k, 0) - b.get(k, 0) for k in a}


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
async def _drive(sock: str, reqs: list[Request], origin: float, speed: HostSpeed) -> None:
    """Send *reqs* at ``origin + due`` over pipelined connections and
    collect every response (or give up after TIMEOUT once all are sent).

    The host's speed is sampled only in idle gaps: with nothing in
    flight no response waits for the sample, and with the next request
    ``IDLE_GAP_S`` away no send is delayed by it.  The generator first
    sleeps until ``IDLE_GAP_S`` before the next send, so the replies to
    the requests just sent have had time to arrive.
    """
    conns = [
        await asyncio.open_unix_connection(sock, limit=1 << 24)
        for _ in range(CONNECTIONS)
    ]
    pending: dict[int, Request] = {}
    all_sent = asyncio.Event()
    drained = asyncio.Event()

    async def reader(stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            t = time.perf_counter()
            msg = json.loads(line)
            req = pending.pop(msg.get("id"), None)
            if req is not None:
                req.recv, req.resp = t, msg
            if all_sent.is_set() and not pending:
                drained.set()

    readers = [asyncio.create_task(reader(r)) for r, _ in conns]
    try:
        for req in reqs:
            req.due_at = origin + req.due
            delay = req.due_at - time.perf_counter()
            if delay > IDLE_GAP_S:
                await asyncio.sleep(delay - IDLE_GAP_S)
                if not pending:
                    speed.sample()
                delay = req.due_at - time.perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            while time.perf_counter() < req.due_at:
                await asyncio.sleep(0)  # replies are still read meanwhile
            writer = conns[req.id % CONNECTIONS][1]
            pending[req.id] = req
            req.sent = time.perf_counter()
            writer.write(req.line)
            await writer.drain()
        all_sent.set()
        if pending:
            try:
                await asyncio.wait_for(drained.wait(), TIMEOUT)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)


def serve_phase(daemon: Daemon, reqs: list[Request], offset: float, speed: HostSpeed) -> dict:
    """Drive *reqs* (due times shifted by -*offset*) against *daemon*;
    returns the daemon's counter deltas over the phase."""
    with daemon.client() as c:
        before = c.stats()
    asyncio.run(_drive(daemon.sock, reqs, time.perf_counter() - offset, speed))
    with daemon.client() as c:
        after = c.stats()
    return counters_delta(before, after)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, working_set: int = WORKING_SET) -> dict:
    """One benchmark run of serve-mixed; returns the run document."""
    from repro.serve.protocol import encode_msg

    ws, reqs = make_inputs(seed, seconds, working_set)
    ws_objs = [request_obj(a, seed) for a in ws]
    for req in reqs:
        obj = ws_objs[req.ws] if req.kind == "hit" else request_obj(req.a, seed)
        req.line = encode_msg({**obj, "id": req.id, "client": f"c{req.id % CONNECTIONS}"})

    work = WORK / f"serve-{seed}-{int(time.time() * 1e3)}"
    work.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    daemons: list[Daemon] = []
    # the daemon gets a core of its own and the load generator the rest
    # (on a one-core host they share it); host speed is sampled on the
    # daemon's core
    cpus = usable_cpus()
    daemon_cpu = cpus[-1]
    speed = HostSpeed([daemon_cpu])
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus[:-1] or cpus))
    try:
        setup, warm_docs = [], []
        for rep in range(SETUP_REPS):
            n_samples = len(speed.samples)
            t0 = time.perf_counter()
            daemon = Daemon(
                str((work / f"d{rep}.sock").relative_to(ROOT)),
                str(work / f"cache{rep}"),
                daemon_cpu,
            )
            daemons.append(daemon)
            docs, sampling = warm(daemon, ws_objs, speed)
            warm_docs.append(docs)
            setup.append(
                (time.perf_counter() - t0 - sampling)
                * speed.scale(float(np.mean(speed.samples[n_samples:])))
            )
            if rep < SETUP_REPS - 1:
                daemon.stop()
        ws_docs = warm_docs[-1]
        if any(docs != ws_docs for docs in warm_docs):
            problems.append("working set: daemons disagree on the warmed results")

        hwm = []
        window_samples = len(speed.samples)
        if not trace:
            deltas = [serve_phase(daemon, reqs, 0.0, speed)]
            hwm.append(daemon.vm_hwm_mb())
            daemon.stop()
            trace_lines = []
        else:
            cut = seconds * UNTRACED_SHARE
            first = [r for r in reqs if r.due < cut]
            rest = [r for r in reqs if r.due >= cut]
            deltas = [serve_phase(daemon, first, 0.0, speed)]
            hwm.append(daemon.vm_hwm_mb())
            daemon.stop()
            trace_path = work / "trace.ndjson"
            daemon = Daemon(
                str((work / "traced.sock").relative_to(ROOT)),
                str(work / f"cache{SETUP_REPS - 1}"),
                daemon_cpu,
                str(trace_path),
            )
            daemons.append(daemon)
            warm(daemon, ws_objs, speed)
            # the trace file's request lines from here on are the window's
            with open(trace_path) as f:
                skip = sum(1 for _ in f)
            deltas.append(serve_phase(daemon, rest, cut, speed))
            hwm.append(daemon.vm_hwm_mb())
            daemon.stop()
            with open(trace_path) as f:
                trace_lines = [json.loads(line) for line in list(f)[skip:]]
            trace_lines = [t for t in trace_lines if t.get("type") == "request"]
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, home)

    failed = 0
    for r in reqs:
        if r.resp is None or not r.resp.get("ok"):
            failed += 1
            problems.append(f"request {r.id}: {r.resp.get('error') if r.resp else 'no response'}")
        elif r.kind == "hit" and r.resp["result"] != ws_docs[r.ws]:
            failed += 1
            problems.append(f"request {r.id}: hit differs from its warm-up result")
    ok = [r for r in reqs if r.resp is not None and r.resp.get("ok")]
    rechecked = list(zip(ws, ws_docs)) + [
        (r.a, r.resp["result"]) for r in ok if r.kind == "miss"
    ][::RECHECK_EVERY]
    volume, messages, bad = _recompute(rechecked, len(ws), seed, problems)

    counters = {}
    for delta in deltas:
        for k, v in delta.items():
            counters[k] = counters.get(k, 0) + v
    doc = {
        "requests": len(reqs),
        "hits": sum(r.kind == "hit" for r in reqs),
        "misses": sum(r.kind == "miss" for r in reqs),
        "rechecked": len(rechecked),
        "daemon_vm_hwm_mb": max(hwm),
        "daemon_counters": counters,
    }
    scale = speed.median_scale(since=window_samples)
    doc["host_scale"] = scale
    if not trace:
        # each request by the samples taken around it: the host's speed
        # changes within a window
        lat = [r.latency_ms * speed.scale_around(r.due_at, r.recv) for r in ok]
        doc["metrics"] = {
            "setup_s": float(np.median(setup)),
            "latency_ms_p50": pct(lat, 50),
            "latency_ms_p90": pct(lat, 90),
            "latency_ms_mean": mean(lat),
            "volume_words": float(volume),
            "messages": float(messages),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        metrics = _layer_metrics(reqs, counters, trace_lines, seconds)
        doc["metrics"] = {
            name: value * scale if PER_LAYER[name] in ("s", "ms") else value
            for name, value in metrics.items()
        }
        doc["metrics"]["host.scale"] = scale
    doc.update(
        correct=not problems,
        attempted=len(reqs) + len(rechecked),
        failed=failed + bad,
        problems=problems,
    )
    return doc


def _recompute(items: list, n_ws: int, seed: int, problems: list) -> tuple:
    """Recompute *items* ((matrix, served result) pairs) in-process.

    Returns the volume and messages summed over the first *n_ws* items
    (the working set) and the number of items that failed a check.
    """
    from repro import PartitionerConfig, communication_stats, decompose
    from repro.serve.protocol import part_to_b64

    # the config the daemon itself derives for these requests
    cfg = PartitionerConfig(epsilon=EPSILON).with_(n_starts=1, n_workers=1)
    volume = messages = bad = 0
    for i, (a, doc) in enumerate(items):
        res = decompose(a, K, method="finegrain", config=cfg, seed=seed)
        stats = communication_stats(res.decomposition)
        found = check_output(a, "finegrain", K, doc["cutsize"], res.decomposition, stats)
        if (
            part_to_b64(res.part)["part_b64"] != doc.get("part_b64")
            or res.fingerprint != doc["fingerprint"]
            or res.cutsize != doc["cutsize"]
        ):
            found.append(f"served {doc['fingerprint'][:12]} differs from a local recompute")
        if found:
            bad += 1
            problems.extend(found)
        if i < n_ws:
            volume += stats.total_volume
            messages += stats.total_messages
    return volume, messages, bad


def _layer_metrics(reqs: list, counters: dict, trace_lines: list, seconds: float) -> dict:
    """Per-layer metrics of a traced serve run.

    Client-side and ``served``-block percentiles pool both phases; the
    partitioner's phase times come from the traced daemon, per request.
    """
    ok = [r for r in reqs if r.resp is not None and r.resp.get("ok")]
    hits = [r for r in ok if r.kind == "hit"]
    misses = [r for r in ok if r.kind == "miss"]

    def served(group, key):
        return [r.served.get(key, 0.0) for r in group]

    out = {
        "serve.hit_ms_p50": pct([r.latency_ms for r in hits], 50),
        "serve.hit_ms_p95": pct([r.latency_ms for r in hits], 95),
        "serve.miss_ms_p50": pct([r.latency_ms for r in misses], 50),
        "serve.miss_ms_p85": pct([r.latency_ms for r in misses], 85),
        "serve.slo_attainment": ratio(
            sum(
                r.latency_ms <= (HIT_LIMIT_MS if r.kind == "hit" else MISS_LIMIT_MS)
                for r in ok
            ),
            len(reqs),
        ),
        "serve.queue_wait_ms_p50": pct(served(misses, "queue_wait_ms"), 50),
        "serve.queue_wait_ms_p95": pct(served(misses, "queue_wait_ms"), 95),
        "serve.compute_ms_p50": pct(served(misses, "compute_ms"), 50),
        "serve.serialize_ms_p50": pct(served(misses, "serialize_ms"), 50),
        "loadgen.lag_ms_p99": pct([(r.sent - r.due_at) * 1e3 for r in reqs], 99),
    }
    for outcome, group in (("hit", hits), ("miss", misses)):
        out[f"serve.{outcome}.cache_probe_ms_p50"] = pct(served(group, "cache_probe_ms"), 50)
        out[f"serve.{outcome}.server_ms_p50"] = pct(served(group, "total_ms"), 50)
        out[f"serve.{outcome}.wire_ms_p50"] = pct(
            [(r.recv - r.sent) * 1e3 - r.served.get("total_ms", 0.0) for r in group], 50
        )
    cache_hits = counters.get("hits_memory", 0) + counters.get("hits_disk", 0)
    out["serve.hit_rate"] = ratio(cache_hits, cache_hits + counters.get("cache_misses", 0))
    out["serve.deduped"] = float(counters.get("deduped", 0))
    out["serve.refused"] = float(
        sum(counters.get(f"errors.{code}", 0)
            for code in ("queue-full", "client-busy", "shutdown-refused"))
    )
    out["serve.degraded"] = float(counters.get("degraded", 0))

    self_t: dict = {}
    totals: dict = {}
    partition_s = 0.0
    for line in trace_lines:
        tel = line.get("telemetry", {})
        for name, v in tel.get("phases", {}).items():
            self_t[name] = self_t.get(name, 0.0) + v
        for name, v in tel.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + v
        partition_s += sum(
            s["duration"] for s in tel.get("spans", []) if s["name"] == "partition"
        )
    # inside the daemon every partition span is the program's own
    out.update(partition_metrics(self_t, totals, partition_s, partition_s, len(trace_lines)))

    cut = seconds * UNTRACED_SHARE
    untraced = [r.latency_ms for r in ok if r.due < cut]
    traced = [r.latency_ms for r in ok if r.due >= cut]
    out["trace.overhead_frac"] = ratio(mean(traced), mean(untraced)) - 1.0
    return out
