"""Resilient synchronous client for the partitioning service.

Speaks the NDJSON protocol over TCP or a UNIX socket; this is the client
behind the ``repro query`` CLI and the ``repro-bench serve`` /
``repro-bench chaos`` load generators, and the reference implementation
for anything else that wants to talk to the daemon::

    from repro.serve.client import Client

    with Client("127.0.0.1:43211") as c:
        r = c.decompose("collection:sherman3@0.25", k=4, seed=0)
        print(r.cutsize, r.served["cache"])     # "computed"
        r2 = c.decompose("collection:sherman3@0.25", k=4, seed=0)
        print(r2.served["cache"])               # "hit-memory"
        assert (r.part == r2.part).all()

A matrix may be named by a path or ``collection:`` spec (resolved by the
*daemon*), passed as a scipy sparse matrix (shipped inline over the
wire), or referenced by a bare fingerprint (cache-only lookup).

Error surface
-------------
Every wire error code maps to a dedicated :class:`ServeError` subclass
carrying a ``retryable`` flag — ``queue-full``, ``client-busy`` and
``shutdown-refused`` are transient conditions a caller (or this client)
can wait out; ``bad-request``, ``unknown-fingerprint``, ``oversized``
and ``engine-error`` are terminal for that request.  ``except
ServeError`` and the ``.code`` attribute keep working as before.

Resilience
----------
A daemon restart used to kill the client on the first broken socket.
With ``max_retries > 0`` the client instead reconnects under capped
exponential backoff with deterministic CRC32 jitter (:meth:`Client._backoff`)
and resubmits the request.  Resubmission is *idempotent by construction*: a seeded
``decompose`` is content-addressed by its fingerprint, so if the first
attempt completed server-side before the connection died, the retry is
answered straight from the cache/journal — same bytes, no recompute.
Retryable error responses (see above) are retried the same way.  The
``shutdown`` op is never retried.
"""

from __future__ import annotations

import os
import socket
import time
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_msg,
    encode_msg,
    inline_matrix,
    part_from_b64,
)

__all__ = [
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
]


class ServeError(RuntimeError):
    """An error response from the daemon, with its wire error code.

    ``retryable`` distinguishes transient refusals (worth waiting out)
    from terminal errors (the same request will fail the same way).
    """

    #: class-level default; instances copy it so callers can override
    retryable: bool = False

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retryable = type(self).retryable


class BadRequestError(ServeError):
    """``bad-request``: the request itself is malformed — terminal."""

    retryable = False


class UnknownFingerprintError(ServeError):
    """``unknown-fingerprint``: cache-only lookup missed — terminal
    (resubmitting the same bare fingerprint cannot succeed)."""

    retryable = False


class QueueFullError(ServeError):
    """``queue-full``: the global queue bound was hit — retryable."""

    retryable = True


class ClientBusyError(ServeError):
    """``client-busy``: this client's in-flight bound was hit —
    retryable once earlier requests drain."""

    retryable = True


class EngineError(ServeError):
    """``engine-error``: the computation failed deterministically —
    terminal (a retry recomputes the same failure)."""

    retryable = False


class ShutdownRefusedError(ServeError):
    """``shutdown-refused``: the daemon is draining (refusing new work)
    or was started without ``--allow-shutdown``.  Retryable — a
    restarted daemon on the same address will accept the resubmission."""

    retryable = True


class OversizedError(ServeError):
    """``oversized``: the request line exceeds the wire limit — terminal."""

    retryable = False


#: wire error code -> dedicated exception class
ERROR_TYPES: dict[str, type[ServeError]] = {
    "bad-request": BadRequestError,
    "unknown-fingerprint": UnknownFingerprintError,
    "queue-full": QueueFullError,
    "client-busy": ClientBusyError,
    "engine-error": EngineError,
    "shutdown-refused": ShutdownRefusedError,
    "oversized": OversizedError,
}


def serve_error(code: str, message: str) -> ServeError:
    """Build the typed exception for *code* (base ``ServeError`` for a
    code this client does not know — unknown means not retryable)."""
    return ERROR_TYPES.get(code, ServeError)(code, message)


@dataclass
class ServeResult:
    """One successful ``decompose`` response, decoded."""

    #: content-addressed request identity
    fingerprint: str
    #: model name and part count
    method: str
    k: int
    #: partitioner objective value and achieved imbalance
    cutsize: int
    imbalance: float
    #: deadline SLO outcome
    degraded: bool
    degraded_reason: str | None
    #: part id per model vertex (``None`` with ``want_part=False``)
    part: np.ndarray | None
    #: how the request was served (cache tier + stage timings)
    served: dict
    #: the canonical result document exactly as received
    raw: dict


def _matrix_spec(matrix) -> dict:
    """Wire form of any of the accepted matrix arguments."""
    if isinstance(matrix, dict):
        return matrix
    if sp.issparse(matrix):
        return {"inline": inline_matrix(matrix)}
    if isinstance(matrix, str):
        if matrix.startswith("collection:"):
            return {"collection": matrix.split(":", 1)[1]}
        if matrix.startswith("fingerprint:"):
            return {"fingerprint": matrix.split(":", 1)[1]}
        return {"path": os.path.abspath(matrix)}
    raise TypeError(
        "matrix must be a scipy sparse matrix, a path, a 'collection:...' "
        "or 'fingerprint:...' spec, or a wire-form dict"
    )


class Client:
    """Blocking NDJSON client over one connection, with reconnect.

    *address* is ``"host:port"`` (TCP), a filesystem path (UNIX socket),
    or a ``(host, port)`` tuple.  The connection is opened lazily on the
    first request and reused; use as a context manager or call
    :meth:`close`.

    Parameters
    ----------
    max_retries:
        Resubmissions attempted after a connection loss or a retryable
        error response (0 restores fail-fast behaviour).
    backoff_base, backoff_cap:
        Exponential backoff schedule between attempts (seconds); the
        actual delay is jittered deterministically by CRC32 of the
        client identity and attempt number.
    """

    def __init__(
        self,
        address,
        timeout: float | None = 60.0,
        client_id: str | None = None,
        max_retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.client_id = client_id
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._sock: socket.socket | None = None
        self._rfile = None
        self._next_id = 0
        #: times the connection was re-established after a loss
        self.reconnects = 0
        #: requests resubmitted (connection loss or retryable error)
        self.retries = 0

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is not None:
            return
        addr = self.address
        if isinstance(addr, str) and ":" in addr and not os.path.exists(addr):
            host, port = addr.rsplit(":", 1)
            addr = (host, int(port))
        if isinstance(addr, tuple):
            sock = socket.create_connection(addr, timeout=self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(addr)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        """Deterministic jittered delay before retry *attempt* (1-based):
        ``min(backoff_cap, backoff_base * 2**(attempt-1))`` scaled by a
        factor in [0.5, 1.0] from the CRC32 of the client identity and
        *attempt*, so reconnecting clients do not return in lockstep."""
        raw = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 1)))
        salt = f"{self.client_id or self.address}:{attempt}"
        u = zlib.crc32(salt.encode()) / 0xFFFFFFFF
        return raw * (0.5 + 0.5 * u)

    def _request_once(self, obj: dict) -> dict:
        """One send/receive round; raises the typed error on failure."""
        self._connect()
        self._next_id += 1
        obj = dict(obj)
        obj.setdefault("id", self._next_id)
        if self.client_id is not None:
            obj.setdefault("client", self.client_id)
        self._sock.sendall(encode_msg(obj))
        line = self._rfile.readline(MAX_LINE_BYTES)
        if not line:
            self.close()
            raise ConnectionError("server closed the connection")
        try:
            response = decode_msg(line)
        except ProtocolError as exc:
            raise ConnectionError(f"undecodable response: {exc}") from None
        if not response.get("ok"):
            err = response.get("error") or {}
            raise serve_error(
                err.get("code", "unknown"), err.get("message", "unknown error")
            )
        return response

    def request(self, obj: dict) -> dict:
        """Send one request dict, return the raw response dict.

        Raises the typed :class:`ServeError` subclass on an error
        response and :class:`ConnectionError` when the daemon hangs up
        and every retry is exhausted.  With ``max_retries > 0``, a lost
        connection or a retryable error response is retried under
        backoff; resubmission after a loss is idempotent because seeded
        requests are content-addressed — a first attempt that completed
        server-side answers the retry from the cache, byte-identically.
        The ``shutdown`` op is never retried (a lost response cannot be
        distinguished from a daemon that obeyed and exited).
        """
        retries = 0 if obj.get("op") == "shutdown" else self.max_retries
        attempt = 0
        while True:
            try:
                return self._request_once(obj)
            except (ConnectionError, OSError):
                self.close()
                attempt += 1
                if attempt > retries:
                    raise
                self.reconnects += 1
            except ServeError as exc:
                if not exc.retryable:
                    raise
                attempt += 1
                if attempt > retries:
                    raise
            self.retries += 1
            time.sleep(self._backoff(attempt))

    def decompose(
        self,
        matrix,
        k: int | None = None,
        method: str = "finegrain",
        seed: int | None = None,
        epsilon: float | None = None,
        n_starts: int | None = None,
        engine_workers: int | None = None,
        deadline: float | None = None,
        want_part: bool = True,
    ) -> ServeResult:
        """Request a decomposition; see :func:`repro.decompose` for the
        semantics of the knobs.  ``matrix`` may also be a bare
        ``"fingerprint:..."`` spec for a cache-only lookup (no ``k``)."""
        obj: dict = {
            "op": "decompose",
            "matrix": _matrix_spec(matrix),
            "method": method,
            "want_part": want_part,
        }
        for name, value in (
            ("k", k), ("seed", seed), ("epsilon", epsilon),
            ("n_starts", n_starts), ("engine_workers", engine_workers),
            ("deadline", deadline),
        ):
            if value is not None:
                obj[name] = value
        response = self.request(obj)
        result = response["result"]
        part = part_from_b64(result) if "part_b64" in result else None
        return ServeResult(
            fingerprint=result["fingerprint"],
            method=result["method"],
            k=int(result["k"]),
            cutsize=int(result["cutsize"]),
            imbalance=float(result["imbalance"]),
            degraded=bool(result["degraded"]),
            degraded_reason=result.get("degraded_reason"),
            part=part,
            served=response.get("served", {}),
            raw=result,
        )

    def stats(self) -> dict:
        """The daemon's live statistics document."""
        return self.request({"op": "stats"})["stats"]

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def health(self) -> dict:
        """Readiness probe: ``{"state": "starting|replaying|ready|draining",
        ...}`` plus uptime and load gauges."""
        response = self.request({"op": "health"})
        return {
            key: value
            for key, value in response.items()
            if key not in ("ok", "id")
        }

    def shutdown(self) -> bool:
        """Ask the daemon to stop (needs ``--allow-shutdown``)."""
        return bool(self.request({"op": "shutdown"}).get("stopping"))
