"""Request scheduling core of the partitioning service.

:class:`PartitionService` is transport-agnostic: the TCP/UNIX server
(:mod:`repro.serve.server`) hands it one decoded request dict at a time
and writes back whatever dict it returns.  Everything interesting lives
here:

admission
    Cache misses are scheduled over a bounded pool of ``n_workers``
    compute slots (the engine's own :class:`WorkerBudget`).  When all
    slots are busy, requests queue — globally bounded by ``queue_limit``
    (excess refused with ``queue-full``), per client by
    ``per_client_limit`` (``client-busy``) — and freed slots are granted
    to waiting *clients* round-robin, so one chatty client cannot starve
    the others however many requests it pipelines.
dedup
    Identical in-flight requests (same :func:`repro.fingerprint`) share
    one computation: the first becomes the owner, later arrivals await
    the same future and receive the byte-identical canonical result.
    Deduplicated waiters bypass admission entirely — they consume no
    compute slot.
cache
    Before admission every request probes the two-tier
    :class:`~repro.serve.cache.PartitionCache`; a hit is returned
    without ever touching the engine (no ``serve.compute`` span in its
    trace).  Unseeded requests (no ``seed``) are served but never
    cached, deduplicated, or resumed — their fingerprint is entropy-
    unique by construction.
fingerprint memo
    A seeded ``inline`` or ``collection`` request whose bytes already
    decoded and fingerprinted once finds its fingerprint again from a
    SHA-256 digest of the request (a bounded LRU, ``_FP_MEMO_CAP``), so
    a cache hit decodes nothing.  The matrix is decoded only when the
    request computes.  ``path`` specs never enter: the file can change
    under the same name.
deadline
    A per-request ``deadline`` (seconds, measured from arrival; falling
    back to ``default_deadline``) is converted to the engine's graceful
    wall-clock budget: whatever time queueing consumed is subtracted and
    the remainder handed to :func:`repro.decompose`, which returns the
    best completed start with ``degraded`` set instead of raising.  The
    engine only preempts between starts, so the SLO is meaningful for
    ``n_starts > 1``; single-start requests run to completion (the
    response still reports how late it was).  Degraded results are
    **never cached** — the cache must only ever answer with the full-
    quality result.
telemetry
    Each request records into its own :class:`TelemetryRecorder` via
    :func:`~repro.telemetry.scoped_recorder` (the reentrancy refactor
    this daemon forced), so concurrent requests build disjoint traces;
    per-request timings are returned in-band and appended as NDJSON to
    ``trace_path`` when configured.  The trace file handle is held open
    and flushed per line, and :meth:`PartitionService.close` appends a
    final ``{"type": "shutdown"}`` line before closing it — a SIGTERM
    arriving mid-request still yields a complete, parseable trace.
crash safety
    With ``journal_path`` configured, every cacheable request that
    misses the cache is appended to the durable
    :class:`~repro.serve.journal.RequestJournal` *before* compute starts
    and tombstoned once it reaches a terminal outcome (result cached, or
    a deterministic error the client was told about).  On startup
    :meth:`PartitionService.startup` sweeps orphaned cache/journal tmp
    files and replays the incomplete entries through this very
    ``handle()`` path — because requests are fingerprint-keyed, the
    replayed result is byte-identical to what the dead daemon would have
    returned.  The service's lifecycle is exposed as a readiness state
    (``starting → replaying → ready → draining``) through ``stats`` and
    the in-band ``health`` op; while draining, new ``decompose``
    requests are refused with ``shutdown-refused`` instead of a reset
    connection.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro._util import percentile
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.pool import WorkerBudget
from repro.serve.cache import CacheEntry, PartitionCache
from repro.serve.journal import RequestJournal
from repro.serve.protocol import (
    ProtocolError,
    error_response,
    ok_response,
    parse_decompose,
    part_to_b64,
    resolve_matrix,
    result_doc,
)
from repro.telemetry import TelemetryRecorder, scoped_recorder
from repro.telemetry.export import trace_to_dict
from repro.verify.faults import trip as _fault_trip

__all__ = ["ServeConfig", "FairAdmission", "PartitionService"]


@dataclass
class ServeConfig:
    """Daemon configuration (CLI flags map 1:1 onto these fields)."""

    #: TCP bind address; ``port=None`` disables TCP, ``port=0`` asks the
    #: OS for an ephemeral port (printed on the ready line)
    host: str = "127.0.0.1"
    port: int | None = 0
    #: UNIX socket path (``None`` disables)
    unix_path: str | None = None
    #: compute slots — at most this many decompositions run at once
    n_workers: int = 2
    #: global bound on queued (admitted-but-waiting) requests
    queue_limit: int = 64
    #: bound on one client's simultaneously queued/running requests
    per_client_limit: int = 8
    #: memory tier budget of the result cache
    cache_mem_bytes: int = 64 * 1024 * 1024
    #: disk tier directory (``None`` disables the disk tier)
    cache_dir: str | None = None
    #: disk tier budget
    cache_disk_bytes: int = 1024 * 1024 * 1024
    #: deadline applied to requests that do not carry one (seconds)
    default_deadline: float | None = None
    #: per-request caps on engine amplification
    max_n_starts: int = 16
    max_engine_workers: int = 4
    #: NDJSON file receiving one line per served request
    trace_path: str | None = None
    #: durable request journal (``None`` disables crash recovery)
    journal_path: str | None = None
    #: grace period for in-flight requests when draining (seconds)
    drain_timeout: float = 5.0
    #: honour the in-band ``shutdown`` op
    allow_shutdown: bool = False
    #: base partitioner configuration requests override
    config: PartitionerConfig | None = None


class FairAdmission:
    """Round-robin fair admission over a bounded compute-slot pool.

    Confined to the event-loop thread (no locks): ``acquire`` either
    takes a free slot, queues the caller, or refuses; ``release`` hands
    the freed slot directly to the next waiting client in ring order.
    Per-client accounting counts queued *and* running requests, so a
    client that pipelines aggressively hits ``client-busy`` instead of
    monopolizing the queue.
    """

    def __init__(self, slots: int, queue_limit: int, per_client_limit: int):
        self.budget = WorkerBudget(slots)
        self.queue_limit = int(queue_limit)
        self.per_client_limit = int(per_client_limit)
        self.queued = 0
        self._inflight: dict[str, int] = {}
        self._waiting: dict[str, deque[asyncio.Future]] = {}
        self._ring: deque[str] = deque()

    async def acquire(self, client: str) -> None:
        """Take a compute slot for *client*, waiting fairly if needed.

        Raises :class:`ProtocolError` ``client-busy`` / ``queue-full``
        instead of queueing past the configured bounds.
        """
        if self._inflight.get(client, 0) >= self.per_client_limit:
            raise ProtocolError(
                "client-busy",
                f"client has {self.per_client_limit} requests in flight",
            )
        if not self.budget.try_acquire():
            if self.queued >= self.queue_limit:
                raise ProtocolError(
                    "queue-full", f"{self.queue_limit} requests already queued"
                )
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            queue = self._waiting.setdefault(client, deque())
            queue.append(fut)
            if client not in self._ring:
                self._ring.append(client)
            self.queued += 1
            self._inflight[client] = self._inflight.get(client, 0) + 1
            try:
                await fut
            except asyncio.CancelledError:
                if fut.done() and not fut.cancelled():
                    # the slot was granted in the same instant: pass it on
                    self._grant_next() or self.budget.release()
                self._dec(client)
                raise
            finally:
                self.queued -= 1
            return
        self._inflight[client] = self._inflight.get(client, 0) + 1

    def release(self, client: str) -> None:
        """Return *client*'s slot; granted to the next waiter in ring
        order, or back to the pool when nobody waits."""
        self._dec(client)
        if not self._grant_next():
            self.budget.release()

    # ------------------------------------------------------------------
    def _dec(self, client: str) -> None:
        n = self._inflight.get(client, 1) - 1
        if n > 0:
            self._inflight[client] = n
        else:
            self._inflight.pop(client, None)

    def _grant_next(self) -> bool:
        while self._ring:
            client = self._ring.popleft()
            queue = self._waiting.get(client)
            fut = None
            while queue:
                cand = queue.popleft()
                if not cand.done():
                    fut = cand
                    break
            if queue:
                self._ring.append(client)  # still waiting: back of the ring
            else:
                self._waiting.pop(client, None)
            if fut is not None:
                fut.set_result(None)
                return True
        return False


#: part fields stripped from a canonical result doc for want_part=false
_PART_KEYS = ("part_b64", "dtype", "n")

#: entries of the request-digest -> fingerprint memo (least recently used
#: evicted first); one entry is a 32-byte key and a 64-character value
_FP_MEMO_CAP = 4096


def _request_digest(fields: dict, n_starts: int, engine_workers: int) -> bytes | None:
    """SHA-256 of a request's matrix spec as sent plus every field that
    feeds its fingerprint, or ``None`` when the request may not use the
    fingerprint memo.

    Unseeded requests are excluded (their fingerprint is fresh entropy),
    and so are ``path`` specs (a file can change under the same name).
    """
    spec = fields["matrix"]
    if fields.get("seed") is None or not isinstance(spec, dict):
        return None
    # the branch resolve_matrix takes
    kind = "inline" if "inline" in spec else "collection"
    if kind not in spec:
        return None
    body = spec[kind] if isinstance(spec[kind], dict) else {"": spec[kind]}
    # string values (the base64 arrays) are hashed as bytes after a head
    # that records their lengths: a JSON copy of them costs more than the
    # rest of a cache hit.  The tags keep the encoding one-to-one.
    try:
        keys = sorted(body)
        head = json.dumps(
            [kind,
             [[key, ["s", len(body[key])] if isinstance(body[key], str)
               else ["j", body[key]]] for key in keys],
             fields["k"], fields["method"], fields["seed"],
             fields.get("epsilon"), n_starts, engine_workers],
            sort_keys=True, separators=(",", ":"),
        )
    except (TypeError, ValueError):  # not JSON: decode it every time
        return None
    h = hashlib.sha256(head.encode())
    for key in keys:
        if isinstance(body[key], str):
            h.update(body[key].encode("utf-8", "surrogatepass"))
    return h.digest()


class PartitionService:
    """The request-handling core behind :class:`PartitionServer`.

    ``await service.handle(request_dict, client_id)`` returns the
    response dict; every error is turned into a protocol error response
    (the transport never sees an exception).
    """

    def __init__(self, cfg: ServeConfig | None = None) -> None:
        self.cfg = cfg or ServeConfig()
        self.cache = PartitionCache(
            mem_bytes=self.cfg.cache_mem_bytes,
            disk_dir=self.cfg.cache_dir,
            disk_bytes=self.cfg.cache_disk_bytes,
        )
        self.base_config = self.cfg.config or PartitionerConfig()
        self.admission = FairAdmission(
            self.cfg.n_workers, self.cfg.queue_limit, self.cfg.per_client_limit
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.cfg.n_workers),
            thread_name_prefix="repro-serve",
        )
        #: fingerprint -> future resolving to the canonical result doc
        self._inflight: dict[str, asyncio.Future] = {}
        #: request digest -> fingerprint, for requests whose bytes already
        #: decoded and fingerprinted (see :func:`_request_digest`)
        self._fp_memo: OrderedDict[bytes, str] = OrderedDict()
        self._counters: dict[str, int] = {}
        self._latencies_ms: deque[float] = deque(maxlen=4096)
        self._t0 = time.monotonic()
        self._trace_lock = threading.Lock()
        self._trace_file = None
        self.shutdown_event = asyncio.Event()
        #: readiness: "starting" -> "replaying" -> "ready" -> "draining"
        self.state = "starting"
        #: handle() calls currently executing (drain waits for zero)
        self._active = 0
        self.journal = (
            RequestJournal.open(self.cfg.journal_path)
            if self.cfg.journal_path
            else None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def startup(self) -> dict:
        """Warm restart: sweep crash debris, replay the journal.

        Sweeps orphaned ``*.tmp`` files out of the disk cache tier (the
        journal sweeps its own on :meth:`RequestJournal.open`), then
        replays every accepted-but-unfinished journal entry through the
        normal :meth:`handle` path.  The state is ``replaying`` for the
        duration and ``ready`` after; new requests arriving mid-replay
        are served normally (they share fair admission with the
        replays).
        """
        swept = self.cache.sweep_orphans()
        replayed = 0
        if self.journal is not None and self.journal.incomplete():
            self.state = "replaying"
            replayed = await self.replay_incomplete()
        self.state = "ready"
        return {"cache_tmp_swept": swept, "replayed": replayed}

    async def replay_incomplete(self) -> int:
        """Re-run every open journal entry through the service path.

        A replayed request that reaches a terminal outcome — including a
        deterministic error response — is tombstoned so it cannot replay
        forever; only another crash mid-replay leaves it open.
        """
        if self.journal is None:
            return 0
        replayed = 0
        for fp, request in self.journal.incomplete():
            self._count("replays")
            resp = await self.handle(dict(request), client="__replay__")
            if not resp.get("ok", False):
                self._count("replay_errors")
            # the in-path tombstone is keyed by the *recomputed*
            # fingerprint; close the journaled key too so an entry whose
            # fingerprint cannot be recomputed (e.g. a matrix path
            # deleted since) does not replay forever
            self.journal.complete(fp)
            replayed += 1
        return replayed

    async def drain(self, timeout: float | None = None) -> bool:
        """Refuse new work and wait for in-flight requests to finish.

        Returns True when the service went idle inside the grace
        period, False when the timeout expired with requests still
        running (the caller shuts down regardless)."""
        self.state = "draining"
        if timeout is None:
            timeout = self.cfg.drain_timeout
        deadline = time.monotonic() + max(0.0, timeout)
        while self._active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return self._active == 0

    def close(self) -> None:
        """Release the compute pool, seal the trace, close the journal
        (idempotent)."""
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._write_trace(
            {
                "type": "shutdown",
                "state": self.state,
                "uptime_s": round(time.monotonic() - self._t0, 3),
                "counters": dict(self._counters),
            }
        )
        with self._trace_lock:
            if self._trace_file is not None:
                try:
                    self._trace_file.close()
                except OSError:
                    pass
                self._trace_file = None
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def _observe(self, t0: float) -> float:
        total_ms = (time.monotonic() - t0) * 1e3
        self._latencies_ms.append(total_ms)
        return total_ms

    def _write_trace(self, line: dict) -> None:
        if not self.cfg.trace_path:
            return
        data = json.dumps(line, default=str) + "\n"
        try:
            # one persistent handle, flushed per line: a SIGTERM (or
            # SIGKILL) mid-request never loses already-served lines
            with self._trace_lock:
                if self._trace_file is None:
                    self._trace_file = open(self.cfg.trace_path, "a")
                self._trace_file.write(data)
                self._trace_file.flush()
        except OSError:
            pass  # tracing must never fail a request

    def _journal_accept(self, fp: str, request: dict) -> None:
        if self.journal is not None:
            self.journal.accept(fp, request)

    def _journal_complete(self, fp: str) -> None:
        if self.journal is not None:
            self.journal.complete(fp)

    def stats(self) -> dict:
        """Service counters, queue state, latency percentiles, cache."""
        lat = sorted(self._latencies_ms)
        hits = self._counters.get("hits_memory", 0) + self._counters.get(
            "hits_disk", 0
        )
        lookups = hits + self._counters.get("cache_misses", 0)
        return {
            "state": self.state,
            "uptime_s": time.monotonic() - self._t0,
            "workers": self.cfg.n_workers,
            "queue_depth": self.admission.queued,
            "queue_limit": self.cfg.queue_limit,
            "inflight": len(self._inflight),
            "counters": dict(self._counters),
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "latency_ms": {
                "count": len(lat),
                "p50": percentile(lat, 0.50),
                "p99": percentile(lat, 0.99),
                "max": lat[-1] if lat else 0.0,
            },
            "cache": self.cache.stats(),
            "journal": self.journal.stats() if self.journal else None,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(self, obj: dict, client: str = "?") -> dict:
        """Serve one decoded request; always returns a response dict."""
        op = obj.get("op")
        req_id = obj.get("id")
        self._active += 1
        try:
            if op == "ping":
                return ok_response(req_id, pong=True)
            if op == "health":
                return ok_response(
                    req_id,
                    state=self.state,
                    uptime_s=round(time.monotonic() - self._t0, 3),
                    inflight=len(self._inflight),
                    queue_depth=self.admission.queued,
                )
            if op == "stats":
                return ok_response(req_id, stats=self.stats())
            if op == "shutdown":
                if not self.cfg.allow_shutdown:
                    raise ProtocolError(
                        "shutdown-refused",
                        "daemon was not started with --allow-shutdown",
                    )
                self.shutdown_event.set()
                return ok_response(req_id, stopping=True)
            if op == "decompose":
                if self.state == "draining":
                    # a typed refusal the client can retry elsewhere,
                    # not a reset connection
                    raise ProtocolError(
                        "shutdown-refused", "daemon is draining"
                    )
                return await self._decompose(obj, req_id, client)
            raise ProtocolError("bad-request", f"unknown op {op!r}")
        except ProtocolError as exc:
            self._count("errors")
            self._count(f"errors.{exc.code}")
            return error_response(req_id, exc.code, str(exc))
        except Exception as exc:  # the transport never sees an exception
            self._count("errors")
            self._count("errors.engine-error")
            return error_response(
                req_id, "engine-error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._active -= 1

    # ------------------------------------------------------------------
    # the decompose path
    # ------------------------------------------------------------------
    async def _decompose(self, obj: dict, req_id, client: str) -> dict:
        from repro.core.api import decompose
        from repro.fingerprint import fingerprint

        t0 = time.monotonic()
        self._count("requests")
        rec = TelemetryRecorder()
        timings = {
            "queue_wait_ms": 0.0, "cache_probe_ms": 0.0,
            "compute_ms": 0.0, "serialize_ms": 0.0,
        }
        fields = parse_decompose(obj)
        want_part = fields["want_part"]
        fp_only = "fingerprint" in fields["matrix"]
        seed = fields.get("seed")
        # an unseeded request is not reproducible: serve it, but never
        # cache, dedup, or answer it from the cache
        cacheable = fp_only or seed is not None

        # the matrix and its config are built only when the fingerprint
        # needs them or the request computes
        a = cfg_used = None
        if fp_only:
            fp = str(fields["matrix"]["fingerprint"])
        else:
            n_starts = min(fields.get("n_starts", 1), self.cfg.max_n_starts)
            n_workers = min(
                fields.get("engine_workers", 1), self.cfg.max_engine_workers
            )
            with scoped_recorder(rec), rec.span("serve.fingerprint") as span:
                digest = _request_digest(fields, n_starts, n_workers)
                fp = self._fp_memo.get(digest) if digest is not None else None
                span.set(memo=fp is not None)
                if fp is not None:
                    self._count("fingerprint_memo_hits")
                    self._fp_memo.move_to_end(digest)
                else:
                    self._count("fingerprint_memo_misses")
                    a, cfg_used = self._decode(fields, n_starts, n_workers, rec)
                    fp = fingerprint(
                        a, cfg_used, seed, k=fields["k"], method=fields["method"]
                    )
                    if digest is not None:
                        # only bytes that decoded and fingerprinted enter
                        self._fp_memo[digest] = fp
                        while len(self._fp_memo) > _FP_MEMO_CAP:
                            self._fp_memo.popitem(last=False)

        # ---- cache probe (a hit never touches the engine) -------------
        tc = time.monotonic()
        with scoped_recorder(rec), rec.span("serve.cache_probe"):
            try:
                hit = self.cache.get(fp) if cacheable else None
            except (OSError, RuntimeError):
                # a failing cache read (serve.cache_read) is a miss:
                # the engine recomputes, the client never notices
                self._count("cache_read_errors")
                hit = None
        timings["cache_probe_ms"] = (time.monotonic() - tc) * 1e3
        if not cacheable:
            self._count("uncacheable")
        if hit is not None:
            entry, tier = hit
            self._count(f"hits_{tier}")
            # a replayed request whose result was cached before the
            # crash (but not tombstoned) terminates here
            self._journal_complete(fp)
            result = dict(entry.meta)
            if want_part:
                result.update(part_to_b64(entry.part))
            return self._finish(
                req_id, client, fp, result, f"hit-{tier}", t0, timings, rec
            )
        if cacheable:
            self._count("cache_misses")
        if fp_only:
            self._count("unknown_fingerprint")
            raise ProtocolError(
                "unknown-fingerprint",
                "fingerprint not in cache and carries no instance to compute",
            )

        # ---- durable journal: accepted before compute starts ----------
        if cacheable:
            self._journal_accept(fp, obj)

        # ---- in-flight dedup: one computation, N waiters --------------
        owner_fut = self._inflight.get(fp) if cacheable else None
        if owner_fut is not None:
            self._count("deduped")
            full = await asyncio.shield(owner_fut)
            result = dict(full)
            if not want_part:
                for key in _PART_KEYS:
                    result.pop(key, None)
            return self._finish(
                req_id, client, fp, result, "deduped", t0, timings, rec
            )
        loop = asyncio.get_running_loop()
        fut: asyncio.Future | None = None
        if cacheable:
            fut = loop.create_future()
            self._inflight[fp] = fut

        admitted = False
        try:
            if a is None:  # the memo gave the fingerprint: decode now
                a, cfg_used = self._decode(fields, n_starts, n_workers, rec)

            # ---- fair admission over the bounded compute pool ---------
            tq = time.monotonic()
            await self.admission.acquire(client)
            admitted = True
            timings["queue_wait_ms"] = (time.monotonic() - tq) * 1e3

            # ---- deadline: remaining budget after queueing ------------
            deadline = fields.get("deadline", self.cfg.default_deadline)
            kw = {}
            if deadline is not None and fields.get("n_starts", 1) > 1:
                remaining = deadline - (time.monotonic() - t0)
                kw["deadline"] = max(remaining, 1e-3)

            # ---- compute on a worker thread, scoped telemetry ---------
            def work():
                with scoped_recorder(rec), rec.span("serve.compute"):
                    # injectable compute failure / stall: a crash here
                    # becomes an engine-error response, a sleep is the
                    # window the crash-recovery tests SIGKILL us in
                    _fault_trip("serve.compute")
                    return decompose(
                        a,
                        fields["k"],
                        method=fields["method"],
                        config=cfg_used,
                        seed=seed,
                        **kw,
                    )

            tw = time.monotonic()
            res = await loop.run_in_executor(self._executor, work)
            timings["compute_ms"] = (time.monotonic() - tw) * 1e3
            self._count("computed")
            if res.degraded:
                self._count("degraded")

            # ---- serialize + cache + resolve waiters ------------------
            ts = time.monotonic()
            full = result_doc(res, with_part=True)
            timings["serialize_ms"] = (time.monotonic() - ts) * 1e3
            if cacheable and res.fingerprint != fp:
                # must never happen (same instance/config/seed hash both
                # sides); refuse to poison the cache if it somehow does
                self._count("fingerprint_mismatch")
                cacheable = False
            if cacheable and not res.degraded:
                try:
                    self.cache.put(
                        CacheEntry(
                            fingerprint=fp,
                            part=np.ascontiguousarray(res.part, dtype=np.int64),
                            meta=result_doc(res, with_part=False),
                        )
                    )
                except (OSError, RuntimeError):
                    # a failing cache write (serve.cache_write) costs
                    # future hits, never this response
                    self._count("cache_write_errors")
            # terminal outcome reached: the client gets this response,
            # so the journal entry must not replay
            if cacheable:
                self._journal_complete(fp)
            if fut is not None:
                fut.set_result(full)
        except BaseException as exc:
            if isinstance(exc, Exception):
                # a deterministic error was (or is about to be) reported
                # to the client — replaying it forever helps nobody.  A
                # cancellation (daemon killed mid-compute) is NOT an
                # Exception: that entry stays open and replays.
                self._journal_complete(fp)
            if fut is not None and not fut.done():
                fut.set_exception(exc)
                fut.exception()  # mark retrieved; waiters still re-raise
            raise
        finally:
            if fut is not None:
                self._inflight.pop(fp, None)
            if admitted:
                self.admission.release(client)

        result = dict(full)
        if not want_part:
            for key in _PART_KEYS:
                result.pop(key, None)
        tier = "degraded" if res.degraded else "computed"
        return self._finish(req_id, client, fp, result, tier, t0, timings, rec)

    # ------------------------------------------------------------------
    def _decode(self, fields: dict, n_starts: int, n_workers: int, rec):
        """The request's matrix and the config it runs under."""
        with scoped_recorder(rec), rec.span("serve.decode"):
            a = resolve_matrix(fields["matrix"])
        overrides = {"n_starts": n_starts, "n_workers": n_workers}
        if "epsilon" in fields:
            overrides["epsilon"] = fields["epsilon"]
        return a, self.base_config.with_(**overrides)

    def _finish(
        self, req_id, client, fp, result, tier, t0, timings, rec
    ) -> dict:
        self._count("ok")
        timings["total_ms"] = self._observe(t0)
        served = {"cache": tier, **{k: round(v, 3) for k, v in timings.items()}}
        if self.cfg.trace_path:
            self._write_trace(
                {
                    "type": "request",
                    "id": req_id,
                    "client": client,
                    "fingerprint": fp,
                    "served": served,
                    "telemetry": trace_to_dict(rec, spans=True),
                }
            )
        return ok_response(req_id, result, served=served)
