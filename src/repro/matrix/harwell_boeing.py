"""Harwell–Boeing (HB) matrix file reader/writer.

The paper's oldest test matrices (*sherman3*, *bcspwr10*) were distributed
in this fixed-column Fortran format [8].  Supporting it means the original
files run through this library unconverted.

Format recap (see Duff, Grimes & Lewis, ACM TOMS 1989): four header lines
(plus an optional fifth for right-hand sides), then the column pointers,
row indices and values in the Fortran formats the header declares.

Supported: RUA/RSA/PUA/PSA/IUA/ISA types (real/pattern/integer,
unsymmetric/symmetric assembled).  Symmetric storage is expanded.  Fortran
formats of the shapes ``(nIw)``, ``(nFw.d)``, ``(nEw.d)`` and ``(nDw.d)``
are parsed; exponents written with ``D`` are handled.  Malformed input
raises :class:`repro.errors.ReproFormatError` with file/line context.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro._util import INDEX_DTYPE
from repro.errors import MAX_DIMENSION, ReproFormatError

__all__ = ["read_harwell_boeing", "write_harwell_boeing"]


def _field_width(fmt: str, source: str, lineno: int) -> int:
    """Extract the field width from a Fortran format like (10I8) or (5E16.8)."""
    m = re.match(r"\s*\(\s*\d*\s*[IiFfEeDdGg]\s*(\d+)", fmt)
    if not m or int(m.group(1)) == 0:
        raise ReproFormatError(
            f"unsupported Fortran format {fmt!r}", source=source, line=lineno
        )
    return int(m.group(1))


def _read_fixed(
    lines: list[str], first: int, count: int, width: int, convert, what: str,
    source: str,
) -> list:
    """Read *count* fixed-width fields from consecutive *lines*, the first
    of which is line *first* of the file."""
    out = []
    for lineno, line in enumerate(lines, first):
        for pos in range(0, len(line), width):
            tok = line[pos : pos + width].strip()
            if tok:
                try:
                    out.append(convert(tok))
                except (ValueError, OverflowError):
                    raise ReproFormatError(
                        f"unparseable {what} {tok!r}", source=source, line=lineno
                    ) from None
            if len(out) == count:
                return out
    if len(out) != count:
        raise ReproFormatError(
            f"expected {count} {what}s, found {len(out)}",
            source=source, line=first + len(lines) - 1 if lines else None,
        )
    return out


def _to_float(tok: str) -> float:
    return float(tok.replace("D", "E").replace("d", "e"))


def _header_ints(line: str, n: int, what: str, source: str, lineno: int) -> list[int]:
    """The first *n* integers of header *line*, each non-negative."""
    try:
        vals = [int(t) for t in line.split()[:n]]
    except ValueError:
        raise ReproFormatError(
            f"malformed {what} line {line.strip()!r}", source=source, line=lineno
        ) from None
    if any(v < 0 for v in vals):
        raise ReproFormatError(
            f"{what} line must be non-negative", source=source, line=lineno
        )
    return vals


def read_harwell_boeing(path_or_file) -> sp.csr_matrix:
    """Parse an assembled Harwell–Boeing file into CSR.

    Malformed input raises :class:`~repro.errors.ReproFormatError` with
    the source and, when known, the 1-based line.  Everything is checked
    before scipy sees it: the header counts (a row or column count above
    :data:`~repro.errors.MAX_DIMENSION` is refused, since the offsets are
    sized by it), the column pointers (they start at 1, never decrease
    and end at nnz + 1) and the row indices (each in ``[1, nrow]``).
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
        lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise ReproFormatError("not a text file", source=source) from None
    finally:
        if close:
            f.close()
    if len(lines) < 4:
        raise ReproFormatError(
            "truncated Harwell-Boeing header", source=source, line=len(lines)
        )

    # line 2: TOTCRD PTRCRD INDCRD VALCRD RHSCRD
    card_counts = _header_ints(lines[1], 5, "card count", source, 2)
    card_counts += [0] * (5 - len(card_counts))
    _tot, ptrcrd, indcrd, valcrd, rhscrd = card_counts

    # line 3: MXTYPE NROW NCOL NNZERO NELTVL
    parts = lines[2].split()
    if len(parts) < 4:
        raise ReproFormatError(
            f"malformed type line {lines[2].strip()!r}", source=source, line=3
        )
    mxtype = parts[0].upper()
    nrow, ncol, nnz = _header_ints(" ".join(parts[1:4]), 3, "type", source, 3)
    if max(nrow, ncol) > MAX_DIMENSION:
        # the CSC and CSR offsets are sized by these counts alone
        raise ReproFormatError(
            f"header declares {nrow}x{ncol}, above the {MAX_DIMENSION} rows "
            "or columns a file may declare",
            source=source, line=3,
        )
    if len(mxtype) != 3:
        raise ReproFormatError(f"bad matrix type {mxtype!r}", source=source, line=3)
    value_type, symmetry, assembled = mxtype[0], mxtype[1], mxtype[2]
    if assembled != "A":
        raise ReproFormatError(
            "only assembled (..A) matrices are supported", source=source, line=3
        )
    if value_type not in "RPI":
        raise ReproFormatError(
            f"unsupported value type {value_type!r}", source=source, line=3
        )
    if symmetry not in "US":
        raise ReproFormatError(
            f"unsupported symmetry {symmetry!r} (only U/S)", source=source, line=3
        )
    if symmetry == "S" and nrow != ncol:
        raise ReproFormatError(
            f"symmetric storage of a {nrow}x{ncol} matrix", source=source, line=3
        )

    # line 4: PTRFMT INDFMT VALFMT RHSFMT
    fmts = lines[3].split()
    if len(fmts) < (2 if value_type == "P" else 3):
        raise ReproFormatError(
            f"missing Fortran formats in {lines[3].strip()!r}", source=source, line=4
        )
    ptr_w = _field_width(fmts[0], source, 4)
    ind_w = _field_width(fmts[1], source, 4)
    val_w = _field_width(fmts[2], source, 4) if value_type != "P" else 0

    pos = 4 + (1 if rhscrd > 0 else 0)
    ptr_first = pos + 1
    ptr_lines = lines[pos : pos + ptrcrd]
    pos += ptrcrd
    ind_first = pos + 1
    ind_lines = lines[pos : pos + indcrd]
    pos += indcrd
    val_first = pos + 1
    val_lines = lines[pos : pos + valcrd]

    # fields are read as Python ints and checked before numpy converts
    # them: a header may declare any nnz, and a pointer any value
    colptr = _read_fixed(
        ptr_lines, ptr_first, ncol + 1, ptr_w, int, "column pointer", source
    )
    rowind = _read_fixed(
        ind_lines, ind_first, nnz, ind_w, int, "row index", source
    )
    if colptr[0] != 1 or colptr[-1] != nnz + 1:
        raise ReproFormatError(
            f"column pointers run {colptr[0]}..{colptr[-1]}, not 1..{nnz + 1}",
            source=source, line=ptr_first,
        )
    for j in range(ncol):
        if colptr[j + 1] < colptr[j]:
            raise ReproFormatError(
                f"column pointer {j + 2} ({colptr[j + 1]}) is below the one "
                f"before it ({colptr[j]})",
                source=source, line=ptr_first,
            )
    if rowind and (min(rowind) < 1 or max(rowind) > nrow):
        bad = next(r for r in rowind if not 1 <= r <= nrow)
        raise ReproFormatError(
            f"row index {bad} outside [1, {nrow}]", source=source, line=ind_first
        )
    if value_type == "P":
        values = np.ones(nnz, dtype=np.float64)
    else:
        conv = _to_float if value_type == "R" else (lambda t: float(int(t)))
        values = np.asarray(
            _read_fixed(val_lines, val_first, nnz, val_w, conv, "value", source),
            dtype=np.float64,
        )
        if not np.isfinite(values).all():
            raise ReproFormatError(
                "non-finite value", source=source, line=val_first
            )

    a = sp.csc_matrix(
        (
            values,
            np.asarray(rowind, dtype=INDEX_DTYPE) - 1,
            np.asarray(colptr, dtype=INDEX_DTYPE) - 1,
        ),
        shape=(nrow, ncol),
    )
    if symmetry == "S":
        lower = sp.tril(a, k=-1)
        a = a + lower.T
    return sp.csr_matrix(a)


def write_harwell_boeing(
    a: sp.spmatrix, path_or_file, title: str = "repro export", key: str = "REPRO"
) -> None:
    """Write *a* as an assembled RUA Harwell–Boeing file.

    Always writes the full (unsymmetric-storage) pattern with real values —
    the most portable HB flavour.
    """
    csc = sp.csc_matrix(a)
    csc.sort_indices()
    nrow, ncol, nnz = csc.shape[0], csc.shape[1], csc.nnz

    def cards(n_items: int, per_line: int) -> int:
        return (n_items + per_line - 1) // per_line

    ptr_per, ind_per, val_per = 10, 10, 4
    ptrcrd = cards(ncol + 1, ptr_per)
    indcrd = cards(nnz, ind_per)
    valcrd = cards(nnz, val_per)
    totcrd = ptrcrd + indcrd + valcrd

    def emit_ints(vals, per_line, width=8):
        out = []
        for i in range(0, len(vals), per_line):
            out.append("".join(f"{int(v):>{width}}" for v in vals[i : i + per_line]))
        return out

    def emit_reals(vals, per_line, width=20):
        out = []
        for i in range(0, len(vals), per_line):
            out.append(
                "".join(f"{float(v):>{width}.12E}" for v in vals[i : i + per_line])
            )
        return out

    lines = [
        f"{title:<72}{key:<8}",
        f"{totcrd:>14}{ptrcrd:>14}{indcrd:>14}{valcrd:>14}{0:>14}",
        f"{'RUA':<14}{nrow:>14}{ncol:>14}{nnz:>14}{0:>14}",
        f"{'(10I8)':<16}{'(10I8)':<16}{'(4E20.12)':<20}",
    ]
    lines += emit_ints(csc.indptr + 1, ptr_per)
    lines += emit_ints(csc.indices + 1, ind_per)
    lines += emit_reals(csc.data, val_per)

    close = False
    if isinstance(path_or_file, (str, Path)):
        f = open(path_or_file, "w")
        close = True
    else:
        f = path_or_file
    try:
        f.write("\n".join(lines) + "\n")
    finally:
        if close:
            f.close()
