"""Wire protocol of the partitioning service: newline-delimited JSON.

Every message is one JSON object on one line (UTF-8, ``\\n``-terminated).
Requests carry an ``op`` and an optional client-chosen ``id`` that is
echoed on the response, so a client may pipeline requests over one
connection.

Request ops
-----------
``decompose``
    ``{"op": "decompose", "id": ..., "matrix": <matrix-spec>,
    "method": "finegrain", "k": 4, "seed": 0, "epsilon": 0.03,
    "n_starts": 1, "engine_workers": 1, "deadline": 5.0,
    "want_part": true}``

    The matrix spec is one of

    * ``{"path": "/abs/file.mtx"}`` — a MatrixMarket file readable by
      the daemon;
    * ``{"collection": "sherman3@0.25"}`` — the built-in test set;
    * ``{"inline": {"shape": [m, n], "rows_b64": ..., "cols_b64": ...,
      "vals_b64": ...}}`` — COO triplets shipped as base64 int64/float64
      little-endian arrays (:func:`inline_matrix` builds it);
    * ``{"fingerprint": "..."}`` — cache-only lookup: answered from the
      cache or refused with ``unknown-fingerprint``, never computed
      (there is no instance content to compute from).

``stats``
    ``{"op": "stats"}`` — service counters, queue depth, latency
    percentiles and cache occupancy.
``ping``
    ``{"op": "ping"}`` — liveness probe; answers ``{"ok": true}``.
``shutdown``
    ``{"op": "shutdown"}`` — graceful daemon shutdown, only honoured
    when the daemon was started with ``--allow-shutdown``.

Responses
---------
``{"id": ..., "ok": true, "result": {...}, "served": {...}}`` — the
``result`` document is *canonical*: it is a pure function of the request
fingerprint (sorted keys, base64 partition), so a cache hit is
byte-identical to the response that first computed it.  Everything
request-specific (cache tier, queue wait, timings) lives in ``served``.

``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` —
codes: ``bad-request``, ``unknown-fingerprint``, ``queue-full``,
``client-busy``, ``engine-error``, ``shutdown-refused``, ``oversized``.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode_msg",
    "decode_msg",
    "part_to_b64",
    "part_from_b64",
    "inline_matrix",
    "matrix_from_inline",
    "resolve_matrix",
    "parse_decompose",
    "result_doc",
    "canonical_result_bytes",
    "ok_response",
    "error_response",
]

#: hard cap on one NDJSON line (inline matrices are the big ones)
MAX_LINE_BYTES = 256 * 1024 * 1024
#: largest row or column count of an inline matrix: no per-row (or
#: per-column) int64 array the decode allocates outgrows the line cap
_MAX_INLINE_DIM = MAX_LINE_BYTES // 8

#: methods a request may name (mirrors repro.core.api._METHODS)
METHODS = ("finegrain", "columnnet", "rownet", "graph", "finegrain-rect")


class ProtocolError(ValueError):
    """A malformed or refusable request; carries a wire error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def encode_msg(obj: dict) -> bytes:
    """One NDJSON line for *obj* (canonical: sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_msg(line: bytes | str) -> dict:
    """Parse one NDJSON line into a dict, or raise ``bad-request``."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("oversized", "request line exceeds the limit")
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad-request", f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "message must be a JSON object")
    return obj


# ----------------------------------------------------------------------
# array / matrix encodings
# ----------------------------------------------------------------------
def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text)
        return np.frombuffer(raw, dtype=np.dtype(dtype)).copy()
    except (ValueError, TypeError) as exc:
        raise ProtocolError("bad-request", f"bad base64 array: {exc}") from None


def part_to_b64(part: np.ndarray) -> dict:
    """Wire form of a partition vector."""
    part = np.ascontiguousarray(part, dtype=np.int64)
    return {"part_b64": _b64(part), "dtype": "int64", "n": int(part.shape[0])}


def part_from_b64(doc: dict) -> np.ndarray:
    """Decode the partition vector of a result document."""
    part = _unb64(doc["part_b64"], doc.get("dtype", "int64"))
    if "n" in doc and part.shape[0] != int(doc["n"]):
        raise ProtocolError("bad-request", "partition length mismatch")
    return part


def inline_matrix(a: sp.spmatrix) -> dict:
    """Ship a scipy sparse matrix inline (COO triplets, base64)."""
    coo = sp.coo_matrix(a)
    return {
        "shape": [int(coo.shape[0]), int(coo.shape[1])],
        "rows_b64": _b64(coo.row.astype(np.int64)),
        "cols_b64": _b64(coo.col.astype(np.int64)),
        "vals_b64": _b64(coo.data.astype(np.float64)),
    }


def matrix_from_inline(spec: dict) -> sp.csr_matrix:
    """Rebuild a CSR matrix from an inline spec (b64 arrays or plain
    ``"coo": [[r, c, v], ...]`` lists for hand-written clients).

    A malformed spec raises :class:`ProtocolError` ``bad-request``; a row
    or column count above ``MAX_LINE_BYTES // 8`` raises ``oversized``.
    """
    try:
        m, n = (int(x) for x in spec["shape"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ProtocolError(
            "bad-request", "inline matrix needs a [m, n] 'shape'"
        ) from None
    if m < 0 or n < 0:
        raise ProtocolError(
            "bad-request", f"inline matrix shape [{m}, {n}] is negative"
        )
    if max(m, n) > _MAX_INLINE_DIM:
        raise ProtocolError(
            "oversized",
            f"inline matrix shape [{m}, {n}] exceeds {_MAX_INLINE_DIM} "
            "rows or columns",
        )
    if "coo" in spec:
        trips = spec["coo"]
        try:
            rows = np.array([t[0] for t in trips], dtype=np.int64)
            cols = np.array([t[1] for t in trips], dtype=np.int64)
            vals = np.array(
                [t[2] if len(t) > 2 else 1.0 for t in trips], dtype=np.float64
            )
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(
                "bad-request",
                f"inline 'coo' must be [row, col(, value)] triplets: {exc}",
            ) from None
    else:
        for key in ("rows_b64", "cols_b64", "vals_b64"):
            if key not in spec:
                raise ProtocolError(
                    "bad-request", f"inline matrix is missing {key!r}"
                )
        rows = _unb64(spec["rows_b64"], "int64")
        cols = _unb64(spec["cols_b64"], "int64")
        vals = _unb64(spec["vals_b64"], "float64")
    if not (len(rows) == len(cols) == len(vals)):
        raise ProtocolError("bad-request", "inline COO arrays disagree in length")
    if len(rows) and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= m or cols.max() >= n
    ):
        raise ProtocolError("bad-request", "inline COO indices out of range")
    a = sp.csr_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(m, n))
    )
    a.sum_duplicates()
    a.eliminate_zeros()
    a.sort_indices()
    return a


def resolve_matrix(spec) -> sp.csr_matrix | None:
    """Server-side matrix resolution; ``None`` for fingerprint-only specs."""
    if not isinstance(spec, dict):
        raise ProtocolError("bad-request", "'matrix' must be an object")
    if "fingerprint" in spec:
        return None
    if "inline" in spec:
        return matrix_from_inline(spec["inline"])
    from repro.cli import load_matrix_arg

    if "collection" in spec:
        try:
            return load_matrix_arg("collection:" + str(spec["collection"]))
        except Exception as exc:
            raise ProtocolError(
                "bad-request", f"unknown collection matrix: {exc}"
            ) from None
    if "path" in spec:
        try:
            return load_matrix_arg(str(spec["path"]))
        except Exception as exc:
            raise ProtocolError(
                "bad-request", f"cannot read matrix file: {exc}"
            ) from None
    raise ProtocolError(
        "bad-request",
        "'matrix' needs one of 'path', 'collection', 'inline', 'fingerprint'",
    )


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def parse_decompose(obj: dict) -> dict:
    """Validate a ``decompose`` request; returns normalized fields."""
    matrix = obj.get("matrix")
    if matrix is None:
        raise ProtocolError("bad-request", "decompose needs a 'matrix'")
    method = obj.get("method", "finegrain")
    if method not in METHODS:
        raise ProtocolError(
            "bad-request", f"unknown method {method!r}; choose from {METHODS}"
        )
    fields: dict = {"matrix": matrix, "method": method}
    if "fingerprint" not in matrix:
        try:
            fields["k"] = int(obj["k"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(
                "bad-request", "decompose needs an integer 'k'"
            ) from None
        if fields["k"] < 1:
            raise ProtocolError("bad-request", "'k' must be >= 1")
    for name, caster, lo in (
        ("seed", int, 0),
        ("epsilon", float, 0.0),
        ("n_starts", int, 1),
        ("engine_workers", int, 1),
        ("deadline", float, 1e-9),
    ):
        if obj.get(name) is None:
            continue
        try:
            value = caster(obj[name])
        except (TypeError, ValueError):
            raise ProtocolError(
                "bad-request", f"{name!r} must be a {caster.__name__}"
            ) from None
        if value < lo:
            raise ProtocolError("bad-request", f"{name!r} must be >= {lo}")
        fields[name] = value
    fields["want_part"] = bool(obj.get("want_part", True))
    return fields


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def result_doc(res, with_part: bool = True) -> dict:
    """Canonical result document for a :class:`repro.DecomposeResult`.

    Pure function of the fingerprint: two computations of the same
    request produce the same document (``degraded`` results are never
    cached, so timing-dependent fields stay out).
    """
    doc = {
        "fingerprint": res.fingerprint,
        "method": res.method,
        "k": int(res.k),
        "cutsize": int(res.cutsize),
        "imbalance": float(res.imbalance),
        "degraded": bool(res.degraded),
        "degraded_reason": res.degraded_reason,
    }
    if with_part:
        doc.update(part_to_b64(res.part))
    return doc


def canonical_result_bytes(result: dict) -> bytes:
    """The byte-identity witness of a result document (sorted-key JSON);
    what "a cache hit is byte-identical to the computed response" means."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


def ok_response(req_id, result: dict | None = None, **extra) -> dict:
    out = {"id": req_id, "ok": True}
    if result is not None:
        out["result"] = result
    out.update(extra)
    return out


def error_response(req_id, code: str, message: str) -> dict:
    return {"id": req_id, "ok": False, "error": {"code": code, "message": message}}
