"""Long-running partitioning service: daemon, cache, protocol, client.

The paper pays heavily once for a high-quality partition precisely
because the result is reused across many SpMV executions; this package
industrializes that trade.  A ``repro serve`` daemon keeps a two-tier
content-addressed result cache (:class:`~repro.serve.cache.PartitionCache`)
in front of the multi-start engine, schedules cache misses over a bounded
worker pool with fair per-client admission
(:class:`~repro.serve.service.PartitionService`), deduplicates identical
in-flight requests, and speaks newline-delimited JSON over TCP and UNIX
sockets (:mod:`repro.serve.protocol`, :mod:`repro.serve.server`).
:class:`~repro.serve.client.Client` is the synchronous client the
``repro query`` CLI and the ``repro-bench chaos`` load generator use.

Requests are keyed by :func:`repro.fingerprint` — the same
content-addressed identity the engine's checkpoint layer uses — so a
result computed once is recognizable from any client, across daemon
restarts (disk tier), forever.

The daemon is crash-safe: a durable request journal
(:class:`~repro.serve.journal.RequestJournal`) records every accepted
request before compute starts, a warm restart replays what a crash
interrupted (byte-identically, by fingerprint identity), draining
refuses new work with a typed ``shutdown-refused`` instead of a reset,
and :class:`~repro.serve.client.Client` reconnects and resubmits under
deterministic backoff with per-error-code typed exceptions.

See ``docs/serving.md`` for the wire protocol, cache semantics, the
deadline/degraded SLO contract, crash safety and an ops runbook.
"""

from repro.serve.cache import CacheEntry, PartitionCache
from repro.serve.client import (
    ERROR_TYPES,
    BadRequestError,
    Client,
    ClientBusyError,
    EngineError,
    OversizedError,
    QueueFullError,
    ServeError,
    ServeResult,
    ShutdownRefusedError,
    UnknownFingerprintError,
    serve_error,
)
from repro.serve.journal import RequestJournal
from repro.serve.protocol import ProtocolError
from repro.serve.server import PartitionServer, run_server
from repro.serve.service import PartitionService, ServeConfig

__all__ = [
    "CacheEntry",
    "PartitionCache",
    "Client",
    "ServeResult",
    "ServeError",
    "BadRequestError",
    "UnknownFingerprintError",
    "QueueFullError",
    "ClientBusyError",
    "EngineError",
    "ShutdownRefusedError",
    "OversizedError",
    "ERROR_TYPES",
    "serve_error",
    "RequestJournal",
    "ProtocolError",
    "PartitionServer",
    "run_server",
    "PartitionService",
    "ServeConfig",
]
