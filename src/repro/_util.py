"""Shared low-level utilities: RNG normalization, validation, timing,
percentiles and partition hashes.

These helpers are deliberately dependency-light; every subpackage of
:mod:`repro` uses them, so they import nothing from the rest of the
library except :mod:`repro.telemetry`, which is itself stdlib-only.

:class:`Timer` now lives in :mod:`repro.telemetry` (it is a thin shim over
the telemetry clock that can optionally record a span); it is re-exported
here so existing call sites keep working.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.telemetry.recorder import Timer

__all__ = [
    "as_rng",
    "check_in_range",
    "check_positive",
    "ensure_int_array",
    "part_sha",
    "percentile",
    "prefix_from_counts",
    "reap",
    "sorted_without_zeros",
    "Timer",
]

#: Integer dtype used for all index arrays in the library.  int64 keeps the
#: arithmetic safe for pin counts beyond 2**31 without any special casing;
#: the memory cost is irrelevant at the scales a pure-Python partitioner can
#: handle anyway.
INDEX_DTYPE = np.int64


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Accepts ``None`` (fresh entropy), an ``int`` seed, or an existing
    generator (returned unchanged so callers can thread one RNG through a
    pipeline for reproducibility).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def ensure_int_array(data: Iterable[int] | np.ndarray, name: str = "array") -> np.ndarray:
    """Convert *data* to a contiguous int64 numpy array, validating type.

    Floating-point inputs are accepted only when they are exactly integral
    (this catches accidental weight truncation early).
    """
    arr = np.asarray(data)
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise TypeError(f"{name} must contain integers, got fractional values")
        arr = arr.astype(INDEX_DTYPE)
    elif arr.dtype.kind in "iu":
        arr = arr.astype(INDEX_DTYPE, copy=False)
    else:
        raise TypeError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr)


def part_sha(part) -> str:
    """SHA-256 hex digest of a partition vector's int64 bytes."""
    return hashlib.sha256(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """The *p*-quantile (``0 <= p <= 1``) of an ascending sequence: its
    element at index ``int(p * n)``, clamped to the last; ``0.0`` when it
    is empty."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, int(p * n))] if n else 0.0


def prefix_from_counts(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Build a CSR-style offset array (length ``len(counts)+1``) from counts."""
    counts = np.asarray(counts, dtype=INDEX_DTYPE)
    out = np.empty(len(counts) + 1, dtype=INDEX_DTYPE)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


def reap(proc, grace: float = 0.0) -> bool:
    """Join the child process *proc*; kill it if it is still alive after
    *grace* seconds.  Returns whether it had to be killed."""
    proc.join(timeout=grace)
    if not proc.is_alive():
        return False
    proc.kill()
    proc.join(timeout=5)
    return True


def sorted_without_zeros(a, fmt: str = "csr"):
    """*a* as a ``"csr"`` or ``"csc"`` scipy matrix with stored zeros
    dropped and indices sorted.

    Converting a matrix already in *fmt* shares its arrays, so when there
    is anything to drop or sort the work happens on a copy: the caller's
    matrix is never reordered under it.
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(a) if fmt == "csr" else sp.csc_matrix(a)
    if not a.has_sorted_indices or not a.data.all():
        a = a.copy()
        a.eliminate_zeros()
        a.sort_indices()
    return a
