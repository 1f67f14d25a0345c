"""Hypergraph file I/O: PaToH and hMeTiS text formats.

PaToH format (the tool the paper runs)::

    % comment lines start with %
    <base> <|V|> <|N|> <|pins|> [<flag>]
    ... one line per net: [cost] pin pin pin ...
    [one line of |V| vertex weights when flag selects weighted vertices]

``flag`` is 0 (unweighted), 1 (weighted vertices), 2 (weighted nets) or 3
(both).  ``base`` is 0 or 1 and offsets every pin index.

hMeTiS format::

    <|N|> <|V|> [<fmt>]
    ... one line per net (1-based pins), cost first when fmt has nets weighted
    ... one line per vertex weight when fmt has vertices weighted

fmt is omitted (unweighted), 1 (net costs), 10 (vertex weights) or 11 (both).

Both readers validate as they parse: any other base, flag or fmt,
out-of-range pins, duplicate pins within a net, negative vertex weights
and net costs, unparseable tokens, truncated files and a vertex count
above :data:`repro.errors.MAX_DIMENSION` raise
:class:`repro.errors.ReproFormatError` with file/line context.
``repair=True`` drops out-of-range pins and dedups duplicate pins (first
occurrence wins) with one summary warning instead.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TextIO

import numpy as np

from repro._util import INDEX_DTYPE, prefix_from_counts
from repro.errors import MAX_DIMENSION, ReproFormatError
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["write_patoh", "read_patoh", "write_hmetis", "read_hmetis"]


def _open(path_or_file, mode: str):
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode), True
    return path_or_file, False


def _source_of(path_or_file, f) -> str:
    if isinstance(path_or_file, (str, Path)):
        return str(path_or_file)
    return getattr(f, "name", None) or "<stream>"


#: the largest magnitude a value may have: every one ends in an int64 array
_INT_MAX = int(np.iinfo(INDEX_DTYPE).max)


def _ints(text: str, source: str, lineno: int) -> list[int]:
    """Parse a whitespace-separated integer line with location context."""
    try:
        vals = [int(t) for t in text.split()]
    except ValueError:
        raise ReproFormatError(
            f"unparseable integer line {text!r}", source=source, line=lineno
        ) from None
    if vals and (max(vals) > _INT_MAX or min(vals) < -_INT_MAX):
        raise ReproFormatError(
            f"integer out of range in {text!r}", source=source, line=lineno
        )
    return vals


def _check_vertex_count(nv: int, source: str, lineno: int) -> None:
    """Reject a header declaring more than ``MAX_DIMENSION`` vertices: the
    hypergraph allocates per vertex, whether or not any net holds it."""
    if nv > MAX_DIMENSION:
        raise ReproFormatError(
            f"header declares {nv} vertices, above the {MAX_DIMENSION} "
            "a file may declare",
            source=source, line=lineno,
        )


def _check_net_pins(
    pins: list[int], nv: int, net: int, source: str, lineno: int,
    repair: bool,
) -> tuple[list[int], int]:
    """Validate one net's pin list; returns (clean pins, #repaired)."""
    out: list[int] = []
    seen: set[int] = set()
    repaired = 0
    for p in pins:
        if p < 0 or p >= nv:
            if not repair:
                raise ReproFormatError(
                    f"net {net}: pin {p} out of range [0, {nv})",
                    source=source, line=lineno,
                )
            repaired += 1
            continue
        if p in seen:
            if not repair:
                raise ReproFormatError(
                    f"net {net}: duplicate pin {p}", source=source,
                    line=lineno,
                )
            repaired += 1
            continue
        seen.add(p)
        out.append(p)
    return out, repaired


def _check_non_negative(
    vals: list[int], what: str, source: str, lineno: int
) -> None:
    """Reject a negative vertex weight or net cost, in both repair modes:
    there is no value to repair it to."""
    for x in vals:
        if x < 0:
            raise ReproFormatError(
                f"{what} {x} is negative", source=source, line=lineno
            )


def _nonunit(arr: np.ndarray) -> bool:
    return bool(np.any(arr != 1))


# ----------------------------------------------------------------------
# PaToH
# ----------------------------------------------------------------------
def write_patoh(h: Hypergraph, path_or_file, base: int = 1) -> None:
    """Write *h* in PaToH text format (default 1-based pins)."""
    f, close = _open(path_or_file, "w")
    try:
        wv = _nonunit(h.vertex_weights)
        wn = _nonunit(h.net_costs)
        flag = (1 if wv else 0) | (2 if wn else 0)
        f.write(f"{base} {h.num_vertices} {h.num_nets} {h.num_pins} {flag}\n")
        for j in range(h.num_nets):
            pins = h.pins_of(j) + base
            prefix = f"{int(h.net_costs[j])} " if wn else ""
            f.write(prefix + " ".join(map(str, pins.tolist())) + "\n")
        if wv:
            f.write(" ".join(map(str, h.vertex_weights.tolist())) + "\n")
    finally:
        if close:
            f.close()


def read_patoh(path_or_file, repair: bool = False) -> Hypergraph:
    """Read a hypergraph from PaToH text format.

    Malformed input raises :class:`~repro.errors.ReproFormatError` with
    file/line context; ``repair=True`` drops out-of-range and duplicate
    pins with one summary warning instead.
    """
    f, close = _open(path_or_file, "r")
    source = _source_of(path_or_file, f)
    try:
        tokens = _tokenize(f, source)
        try:
            header_line = next(tokens.lines)
        except StopIteration:
            raise ReproFormatError("empty file", source=source) from None
        header = _ints(header_line, source, tokens.lineno)
        if len(header) < 4:
            raise ReproFormatError(
                "malformed PaToH header (need base |V| |N| |pins|)",
                source=source, line=tokens.lineno,
            )
        base, nv, nn, npins = header[:4]
        flag = header[4] if len(header) > 4 else 0
        if base not in (0, 1):
            raise ReproFormatError(
                f"PaToH base {base} is not 0 or 1",
                source=source, line=tokens.lineno,
            )
        if flag not in (0, 1, 2, 3):
            raise ReproFormatError(
                f"PaToH flag {flag} is not 0, 1, 2 or 3",
                source=source, line=tokens.lineno,
            )
        if nv < 0 or nn < 0 or npins < 0:
            raise ReproFormatError(
                "header counts must be non-negative",
                source=source, line=tokens.lineno,
            )
        _check_vertex_count(nv, source, tokens.lineno)
        wv, wn = bool(flag & 1), bool(flag & 2)
        netlists: list[list[int]] = []
        costs: list[int] = []
        seen = 0
        repaired = 0
        # PaToH is line-oriented: one net per line (blank = empty net)
        for net in range(nn):
            parts = _ints(tokens.net_line(), source, tokens.lineno)
            if wn:
                if not parts:
                    raise ReproFormatError(
                        f"net {net}: missing cost", source=source,
                        line=tokens.lineno,
                    )
                _check_non_negative(
                    parts[:1], f"net {net}: cost", source, tokens.lineno
                )
                costs.append(parts[0])
                parts = parts[1:]
            seen += len(parts)
            pins_net, fixed = _check_net_pins(
                [p - base for p in parts], nv, net, source, tokens.lineno,
                repair,
            )
            repaired += fixed
            netlists.append(pins_net)
        if seen != npins:
            raise ReproFormatError(
                f"pin count mismatch: header says {npins}, read {seen}",
                source=source,
            )
        if repaired:
            warnings.warn(
                f"{source}: repaired {repaired} defective pins "
                "(out-of-range/duplicates dropped)",
                stacklevel=2,
            )
        weights = None
        if wv:
            wtoks: list[int] = []
            while len(wtoks) < nv:
                try:
                    chunk = _ints(next(tokens.lines), source, tokens.lineno)
                except StopIteration:
                    raise ReproFormatError(
                        f"expected {nv} vertex weights, read {len(wtoks)}",
                        source=source,
                    ) from None
                _check_non_negative(chunk, "vertex weight", source, tokens.lineno)
                wtoks.extend(chunk)
            weights = np.asarray(wtoks[:nv], dtype=INDEX_DTYPE)
        xpins = prefix_from_counts([len(n) for n in netlists])
        pins = (
            np.concatenate([np.asarray(n, dtype=INDEX_DTYPE) for n in netlists])
            if netlists and any(netlists)
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        return Hypergraph(
            nv, xpins, pins,
            vertex_weights=weights,
            net_costs=np.asarray(costs, dtype=INDEX_DTYPE) if wn else None,
        )
    finally:
        if close:
            f.close()


# ----------------------------------------------------------------------
# hMeTiS
# ----------------------------------------------------------------------
def write_hmetis(h: Hypergraph, path_or_file) -> None:
    """Write *h* in hMeTiS text format (1-based pins)."""
    f, close = _open(path_or_file, "w")
    try:
        wv = _nonunit(h.vertex_weights)
        wn = _nonunit(h.net_costs)
        # hMeTiS fmt: ones digit = net costs present, tens digit = vertex
        # weights present (manual §5.1): 1, 10 or 11
        fmt_num = (10 if wv else 0) + (1 if wn else 0)
        header = f"{h.num_nets} {h.num_vertices}"
        if fmt_num:
            header += f" {fmt_num}"
        f.write(header + "\n")
        for j in range(h.num_nets):
            pins = h.pins_of(j) + 1
            prefix = f"{int(h.net_costs[j])} " if wn else ""
            f.write(prefix + " ".join(map(str, pins.tolist())) + "\n")
        if wv:
            for w in h.vertex_weights.tolist():
                f.write(f"{w}\n")
    finally:
        if close:
            f.close()


def read_hmetis(path_or_file, repair: bool = False) -> Hypergraph:
    """Read a hypergraph from hMeTiS text format.

    Malformed input raises :class:`~repro.errors.ReproFormatError` with
    file/line context; ``repair=True`` drops out-of-range and duplicate
    pins with one summary warning instead.
    """
    f, close = _open(path_or_file, "r")
    source = _source_of(path_or_file, f)
    try:
        tokens = _tokenize(f, source)
        try:
            header = next(tokens.lines).split()
        except StopIteration:
            raise ReproFormatError("empty file", source=source) from None
        if len(header) < 2:
            raise ReproFormatError(
                "malformed hMeTiS header (need |N| |V| [fmt])",
                source=source, line=tokens.lineno,
            )
        try:
            nn, nv = int(header[0]), int(header[1])
        except ValueError:
            raise ReproFormatError(
                f"unparseable hMeTiS header {' '.join(header)!r}",
                source=source, line=tokens.lineno,
            ) from None
        if nn < 0 or nv < 0:
            raise ReproFormatError(
                "header counts must be non-negative",
                source=source, line=tokens.lineno,
            )
        _check_vertex_count(nv, source, tokens.lineno)
        fmt = header[2] if len(header) > 2 else "0"
        if fmt not in ("0", "1", "10", "11"):
            raise ReproFormatError(
                f"hMeTiS fmt {fmt!r} is not 0, 1, 10 or 11",
                source=source, line=tokens.lineno,
            )
        wn = fmt in ("1", "11")
        wv = fmt in ("10", "11")
        netlists: list[list[int]] = []
        costs: list[int] = []
        repaired = 0
        for net in range(nn):
            parts = _ints(tokens.net_line(), source, tokens.lineno)
            if wn:
                if not parts:
                    raise ReproFormatError(
                        f"net {net}: missing cost", source=source,
                        line=tokens.lineno,
                    )
                _check_non_negative(
                    parts[:1], f"net {net}: cost", source, tokens.lineno
                )
                costs.append(parts[0])
                parts = parts[1:]
            pins_net, fixed = _check_net_pins(
                [p - 1 for p in parts], nv, net, source, tokens.lineno,
                repair,
            )
            repaired += fixed
            netlists.append(pins_net)
        if repaired:
            warnings.warn(
                f"{source}: repaired {repaired} defective pins "
                "(out-of-range/duplicates dropped)",
                stacklevel=2,
            )
        weights = None
        if wv:
            wlist = []
            for _ in range(nv):
                try:
                    chunk = _ints(next(tokens.lines), source, tokens.lineno)[:1]
                except StopIteration:
                    raise ReproFormatError(
                        f"expected {nv} vertex weights, read {len(wlist)}",
                        source=source,
                    ) from None
                _check_non_negative(chunk, "vertex weight", source, tokens.lineno)
                wlist += chunk
            weights = np.asarray(wlist, dtype=INDEX_DTYPE)
        xpins = prefix_from_counts([len(n) for n in netlists])
        pins = (
            np.concatenate([np.asarray(n, dtype=INDEX_DTYPE) for n in netlists])
            if netlists and any(netlists)
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        return Hypergraph(
            nv, xpins, pins,
            vertex_weights=weights,
            net_costs=np.asarray(costs, dtype=INDEX_DTYPE) if wn else None,
        )
    finally:
        if close:
            f.close()


# ----------------------------------------------------------------------
class _TokenStream:
    """Line reader shared by both format parsers.

    ``lines`` skips comments *and* blanks (headers, weight blocks);
    :meth:`net_line` skips only comments — inside the net block a blank
    line is data: it encodes an empty net (a net with zero pins writes as
    an empty line, and swallowing it would shift every following net up
    by one).
    """

    def __init__(self, f: TextIO, source: str = "<stream>") -> None:
        self._f = f
        self.source = source
        #: 1-based number of the line most recently yielded
        self.lineno = 0
        self.lines = self._line_iter()

    def _line_iter(self):
        while True:
            line = self._f.readline()
            if not line:
                return
            self.lineno += 1
            s = line.strip()
            if not s or s.startswith("%") or s.startswith("#"):
                continue
            yield s

    def net_line(self) -> str:
        """Next net line; blank means an empty net, comments are skipped."""
        while True:
            line = self._f.readline()
            if not line:
                raise ReproFormatError(
                    "unexpected end of file inside net block",
                    source=self.source, line=self.lineno,
                )
            self.lineno += 1
            s = line.strip()
            if s.startswith("%") or s.startswith("#"):
                continue
            return s


def _tokenize(f: TextIO, source: str = "<stream>") -> _TokenStream:
    return _TokenStream(f, source)
