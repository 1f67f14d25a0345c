"""Library-wide exception types.

Kept dependency-free so every subpackage can raise them without import
cycles.  :class:`ReproFormatError` subclasses ``ValueError`` on purpose:
callers that predate it (and the existing test suite) catch ``ValueError``
for malformed inputs, and that contract must keep holding.
"""

from __future__ import annotations

__all__ = ["MAX_DIMENSION", "ReproFormatError"]

#: The largest row, column or vertex count a file header may declare.  The
#: readers allocate per row (CSR offsets) or per vertex (weights, incidence
#: offsets) before the body shows whether a row or vertex holds any data,
#: so the header alone would size that memory: a 3-line Matrix Market file
#: declaring 2 * 10**12 rows asked for 14.6 TiB.  2**25 keeps each such
#: array under 300 MB, far above what a pure-Python partitioner handles.
MAX_DIMENSION = 2**25


class ReproFormatError(ValueError):
    """A malformed or corrupt input file (MatrixMarket, Harwell–Boeing,
    PaToH, hMeTiS).

    One exception type for every ingestion defect — out-of-range indices,
    non-finite values, duplicate entries, unparseable tokens — always
    carrying the source name and, when known, the 1-based line number, so
    a failing multi-hour sweep names the offending file and line instead
    of dying with a bare ``IndexError`` deep inside numpy.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 line: int | None = None) -> None:
        self.source = source or "<stream>"
        self.line = line
        loc = self.source if line is None else f"{self.source}:{line}"
        super().__init__(f"{loc}: {message}")
