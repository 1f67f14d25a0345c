"""Matrix Market I/O, implemented from scratch.

Supports the coordinate format with ``real``, ``integer`` and ``pattern``
fields and ``general``, ``symmetric`` and ``skew-symmetric`` symmetries —
enough to read every matrix in the paper's test set from the NIST / UF
collections when the files are available, and to round-trip matrices
produced by :mod:`repro.matrix.generators`.

Every ingestion defect — malformed header, unparseable entry, index out of
range, non-finite value, duplicate entry, truncated file, a row or column
count above :data:`repro.errors.MAX_DIMENSION` — raises one
exception type, :class:`repro.errors.ReproFormatError`, carrying the
source name and 1-based line number, so a failing multi-hour sweep names
the offending file and line instead of dying with a bare ``IndexError``
deep inside scipy.  ``repair=True`` downgrades the recoverable defects
(out-of-range / non-finite entries are dropped, duplicates are summed) to
a single warning.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.errors import MAX_DIMENSION, ReproFormatError

__all__ = ["read_matrix_market", "write_matrix_market"]

_FIELDS = {"real", "integer", "pattern", "complex"}
_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def read_matrix_market(path_or_file, repair: bool = False) -> sp.csr_matrix:
    """Parse a Matrix Market ``.mtx`` file into CSR.

    Symmetric / skew-symmetric storage is expanded to the full pattern.
    Complex fields are rejected (the library is real-valued throughout).
    Malformed input raises :class:`~repro.errors.ReproFormatError` with
    file/line context; ``repair=True`` instead drops out-of-range and
    non-finite entries and sums duplicates, with one summary warning.
    """
    close = False
    if isinstance(path_or_file, (str, Path)):
        f = open(path_or_file, "r")
        close = True
        source = str(path_or_file)
    else:
        f = path_or_file
        source = getattr(f, "name", None) or "<stream>"
    try:
        lineno = 1
        header = f.readline().strip().split()
        if (
            len(header) != 5
            or header[0] != "%%MatrixMarket"
            or header[1].lower() != "matrix"
            or header[2].lower() != "coordinate"
        ):
            raise ReproFormatError(
                "only MatrixMarket coordinate format is supported",
                source=source, line=lineno,
            )
        field = header[3].lower()
        symmetry = header[4].lower()
        if field not in _FIELDS or field == "complex":
            raise ReproFormatError(
                f"unsupported field {field!r}", source=source, line=lineno
            )
        if symmetry not in _SYMMETRIES or symmetry == "hermitian":
            raise ReproFormatError(
                f"unsupported symmetry {symmetry!r}", source=source, line=lineno
            )

        line = f.readline()
        lineno += 1
        while line.startswith("%") or not line.strip():
            if not line:
                raise ReproFormatError(
                    "missing size line", source=source, line=lineno
                )
            line = f.readline()
            lineno += 1
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError:
            raise ReproFormatError(
                f"malformed size line {line.strip()!r}",
                source=source, line=lineno,
            ) from None
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise ReproFormatError(
                "size line must be non-negative", source=source, line=lineno
            )
        if max(nrows, ncols) > MAX_DIMENSION:
            # the CSR offsets are sized by the row count alone
            raise ReproFormatError(
                f"size line declares {nrows}x{ncols}, above the "
                f"{MAX_DIMENSION} rows or columns a file may declare",
                source=source, line=lineno,
            )

        # sized by what is read, never by the header's count: a header
        # may claim any number of entries
        rows: list = []
        cols: list = []
        vals: list = []
        dropped = 0
        need = 2 if field == "pattern" else 3
        for line in f:
            lineno += 1
            s = line.strip()
            if not s or s.startswith("%"):
                continue
            if len(rows) + dropped >= nnz:
                raise ReproFormatError(
                    f"more than the declared {nnz} entries",
                    source=source, line=lineno,
                )
            parts = s.split()
            if len(parts) < need:
                raise ReproFormatError(
                    f"entry has {len(parts)} tokens, expected {need}",
                    source=source, line=lineno,
                )
            try:
                i = int(parts[0]) - 1
                j = int(parts[1]) - 1
                v = 1.0 if field == "pattern" else float(parts[2])
            except ValueError:
                raise ReproFormatError(
                    f"unparseable entry {s!r}", source=source, line=lineno
                ) from None
            if not (0 <= i < nrows and 0 <= j < ncols):
                if not repair:
                    raise ReproFormatError(
                        f"index ({i + 1}, {j + 1}) out of range for "
                        f"{nrows}x{ncols}",
                        source=source, line=lineno,
                    )
                dropped += 1
                continue
            if not np.isfinite(v):
                if not repair:
                    raise ReproFormatError(
                        f"non-finite value {parts[2]!r} at ({i + 1}, {j + 1})",
                        source=source, line=lineno,
                    )
                dropped += 1
                continue
            rows.append(i)
            cols.append(j)
            vals.append(v)
        k = len(rows)
        if k + dropped != nnz:
            # truncation is not repairable: data is missing, not malformed
            raise ReproFormatError(
                f"expected {nnz} entries, read {k + dropped}", source=source
            )
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)

        if k:
            # duplicate (i, j) pairs: an error in strict mode (the format
            # forbids them), summed — standard assembly semantics — under
            # repair
            order = np.lexsort((cols, rows))
            ri, ci = rows[order], cols[order]
            dup = (ri[1:] == ri[:-1]) & (ci[1:] == ci[:-1])
            n_dup = int(dup.sum())
            if n_dup:
                if not repair:
                    first = int(np.flatnonzero(dup)[0]) + 1
                    raise ReproFormatError(
                        f"{n_dup} duplicate entries (first at row "
                        f"{ri[first] + 1}, col {ci[first] + 1})",
                        source=source,
                    )
                dropped += n_dup

        if dropped:
            warnings.warn(
                f"{source}: repaired {dropped} defective entries "
                "(out-of-range/non-finite dropped, duplicates summed)",
                stacklevel=2,
            )

        if symmetry in ("symmetric", "skew-symmetric"):
            off = rows != cols
            sign = -1.0 if symmetry == "skew-symmetric" else 1.0
            new_rows = np.concatenate([rows, cols[off]])
            new_cols = np.concatenate([cols, rows[off]])
            vals = np.concatenate([vals, sign * vals[off]])
            rows, cols = new_rows, new_cols
        a = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
        return a.tocsr()
    finally:
        if close:
            f.close()


def write_matrix_market(
    a: sp.spmatrix,
    path_or_file,
    field: str = "real",
    comment: str = "",
) -> None:
    """Write *a* as a MatrixMarket ``coordinate`` file with ``general``
    symmetry.

    ``field='pattern'`` writes only the sparsity structure.
    """
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported field {field!r}")
    coo = sp.coo_matrix(a)
    close = False
    if isinstance(path_or_file, (str, Path)):
        f = open(path_or_file, "w")
        close = True
    else:
        f = path_or_file
    try:
        f.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        if comment:
            for line in comment.splitlines():
                f.write(f"% {line}\n")
        f.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        if field == "pattern":
            for i, j in zip(coo.row, coo.col):
                f.write(f"{i + 1} {j + 1}\n")
        elif field == "integer":
            for i, j, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {j + 1} {int(v)}\n")
        else:
            for i, j, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {j + 1} {float(v)!r}\n")
    finally:
        if close:
            f.close()
