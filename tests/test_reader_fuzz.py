"""Mutation fuzzers for the four file readers.

Each test writes a valid file with the library's own writer, then
replaces, deletes and inserts tokens and drops lines.  Whatever the
mutations make of the file, a reader may return or raise
:class:`~repro.errors.ReproFormatError`; a bare ``ValueError``, an
``IndexError``, a ``MemoryError`` or any other exception fails the test.
The readers that have a repair mode run with it off and on.
"""

import io
import os
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproFormatError
from repro.hypergraph.io import read_hmetis, read_patoh, write_hmetis, write_patoh
from repro.matrix.harwell_boeing import read_harwell_boeing, write_harwell_boeing
from repro.matrix.io import read_matrix_market, write_matrix_market
from tests.conftest import hypergraphs, sparse_square_matrices

#: replacement and insertion tokens: small and negative counts, counts far
#: above ``MAX_DIMENSION`` and past int64, non-integers, and the keywords
#: and format strings of the four formats.  No count between 1e3 and
#: ``MAX_DIMENSION`` is drawn: a header may declare one, and the reader
#: would then allocate that much in earnest.
_TOKENS = (
    "-2", "-1", "0", "1", "2", "3", "7", "11", "2000000000000",
    "99999999999999999999999", "1.5", "-0.5", "1e400", "nan", "inf", "x",
    "%", "#", "1D+00", "%%MatrixMarket", "matrix", "coordinate", "array",
    "real", "integer", "pattern", "complex", "general", "symmetric",
    "skew-symmetric", "hermitian", "RUA", "RSA", "PUA", "PSA", "IUA", "RUE",
    "CUA", "(10I8)", "(4E20.12)", "(0I8)", "(I)",
)

#: examples per fuzzer: 200 in tier-1, 3,000 for CI's deep search
_EXAMPLES = 3000 if os.environ.get("HYPOTHESIS_PROFILE") == "thorough" else 200

_SPLIT = re.compile(r"(\s+)")


def _fields(line: str) -> list[str]:
    """*line* as alternating whitespace and tokens (even slots whitespace,
    possibly empty), so a token can be swapped in place."""
    parts = _SPLIT.split(line)
    if parts and not parts[0].isspace():
        parts.insert(0, "")
    return parts


def _mutate(text: str, ops: list) -> str:
    """Apply *ops* to *text*.  A replacement keeps the token's right edge,
    so the fixed-width fields of Harwell-Boeing stay aligned."""
    lines = text.splitlines()
    for op, i, j, tok in ops:
        if not lines:
            break
        li = i % len(lines)
        if op == "drop":
            del lines[li]
            continue
        parts = _fields(lines[li])
        toks = [t for t in range(1, len(parts), 2) if parts[t]]
        if not toks:  # a blank line: every op inserts
            parts = [tok]
        elif op == "insert":
            pos = toks[j % len(toks)]
            parts[pos:pos] = [tok, " "]
        else:
            t = toks[j % len(toks)]
            lead = parts[t - 1]
            span = len(lead) + len(parts[t])
            if op == "delete":
                new = " " * span
            elif not lead:
                new = tok
            else:
                new = tok.rjust(span) if len(tok) < span else " " + tok
            parts[t - 1 : t + 1] = [new, ""]
        lines[li] = "".join(parts)
    return "\n".join(lines) + "\n"


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "replace", "delete", "insert", "drop"]),
        st.integers(0, 60),
        st.integers(0, 60),
        st.sampled_from(_TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def _read_or_reject(read, text: str, **kw) -> None:
    """Read *text*: any outcome but a return or a ReproFormatError fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a repair's summary warning
        try:
            read(io.StringIO(text), **kw)
        except ReproFormatError:
            pass


def _written(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


@pytest.mark.parametrize("repair", [False, True])
@given(sparse_square_matrices(max_n=8), st.booleans(), _OPS)
@settings(max_examples=_EXAMPLES, deadline=None)
def test_matrix_market_mutations(repair, a, pattern, ops):
    text = _written(
        lambda m, f: write_matrix_market(m, f, field="pattern" if pattern else "real"),
        a,
    )
    _read_or_reject(read_matrix_market, _mutate(text, ops), repair=repair)


@pytest.mark.parametrize("repair", [False, True])
@given(hypergraphs(max_vertices=8, max_nets=6, weighted=True), _OPS)
@settings(max_examples=_EXAMPLES, deadline=None)
def test_patoh_mutations(repair, h, ops):
    text = _written(write_patoh, h)
    _read_or_reject(read_patoh, _mutate(text, ops), repair=repair)


@pytest.mark.parametrize("repair", [False, True])
@given(hypergraphs(max_vertices=8, max_nets=6, weighted=True), _OPS)
@settings(max_examples=_EXAMPLES, deadline=None)
def test_hmetis_mutations(repair, h, ops):
    text = _written(write_hmetis, h)
    _read_or_reject(read_hmetis, _mutate(text, ops), repair=repair)


@given(sparse_square_matrices(max_n=8), _OPS)
@settings(max_examples=_EXAMPLES, deadline=None)
def test_harwell_boeing_mutations(a, ops):
    """Harwell-Boeing has no repair mode."""
    _read_or_reject(read_harwell_boeing, _mutate(_written(write_harwell_boeing, a), ops))


def test_mutations_keep_fixed_width_fields():
    """A replacement keeps the right edge of the token it replaces, and a
    deletion blanks its field, so later fields keep their columns; an
    insertion goes in front of a token."""
    line = "       1       3       4"
    assert _mutate(line, [("replace", 0, 1, "-1")]) == "       1      -1       4\n"
    assert _mutate(line, [("delete", 0, 0, "")]) == "               3       4\n"
    assert _mutate(line, [("insert", 0, 2, "7")]) == "       1       3       7 4\n"
    assert _mutate(line, [("replace", 0, 0, "12345678")]) == " 12345678       3       4\n"
    assert _mutate("a\nb\n", [("drop", 1, 0, "")]) == "a\n"
