"""Tests for the Harwell–Boeing reader/writer."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.errors import ReproFormatError
from repro.matrix import harwell_boeing as hb
from repro.matrix.harwell_boeing import read_harwell_boeing, write_harwell_boeing
from tests.conftest import sparse_square_matrices


def roundtrip(a):
    buf = io.StringIO()
    write_harwell_boeing(a, buf)
    buf.seek(0)
    return read_harwell_boeing(buf)


class TestRoundtrip:
    def test_small(self, small_sparse_matrix):
        b = roundtrip(small_sparse_matrix)
        assert abs(b - small_sparse_matrix).max() < 1e-10

    def test_rectangular(self):
        a = sp.random(5, 9, density=0.4, random_state=0, format="csr")
        b = roundtrip(a)
        assert b.shape == (5, 9)
        assert abs(b - a).max() < 1e-10

    def test_file_path(self, tmp_path, small_sparse_matrix):
        p = tmp_path / "m.rua"
        write_harwell_boeing(small_sparse_matrix, p)
        assert abs(read_harwell_boeing(p) - small_sparse_matrix).max() < 1e-10

    @given(sparse_square_matrices(max_n=10))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, a):
        b = roundtrip(a)
        assert abs(b - a).max() < 1e-9 if a.nnz else b.nnz == 0


class TestReadFormats:
    def hand_file(self, mxtype="RUA", vals=True):
        """A hand-written 3x3 HB file: entries (1,1)=1.0 (3,1)=2.0 (2,2)=3.0."""
        lines = [
            f"{'hand-written test matrix':<72}{'TEST':<8}",
            f"{3:>14}{1:>14}{1:>14}{1:>14}{0:>14}",
            f"{mxtype:<14}{3:>14}{3:>14}{3:>14}{0:>14}",
            f"{'(4I8)':<16}{'(4I8)':<16}{'(3E20.12)':<20}",
            "       1       3       4       4",
            "       1       3       2",
        ]
        if vals:
            lines.append(
                "  1.000000000000E+00  2.000000000000E+00  3.000000000000E+00"
            )
        return io.StringIO("\n".join(lines) + "\n")

    def test_hand_rua(self):
        a = read_harwell_boeing(self.hand_file()).toarray()
        assert a[0, 0] == 1.0 and a[2, 0] == 2.0 and a[1, 1] == 3.0
        assert np.count_nonzero(a) == 3

    def test_symmetric_expansion(self):
        a = read_harwell_boeing(self.hand_file(mxtype="RSA")).toarray()
        # (3,1) mirrors to (1,3)
        assert a[0, 2] == 2.0 and a[2, 0] == 2.0

    def test_pattern_type(self):
        f = self.hand_file(mxtype="PUA", vals=False)
        # pattern files have no value cards
        text = f.getvalue().splitlines()
        text[1] = f"{2:>14}{1:>14}{1:>14}{0:>14}{0:>14}"
        a = read_harwell_boeing(io.StringIO("\n".join(text) + "\n"))
        assert a.nnz == 3
        assert set(a.data.tolist()) == {1.0}

    def test_fortran_d_exponent(self):
        f = self.hand_file()
        text = f.getvalue().replace("E+00", "D+00")
        a = read_harwell_boeing(io.StringIO(text))
        assert a[0, 0] == 1.0

    def test_unassembled_rejected(self):
        f = self.hand_file(mxtype="RUE")
        with pytest.raises(ValueError, match="assembled"):
            read_harwell_boeing(f)

    def test_complex_rejected(self):
        f = self.hand_file(mxtype="CUA")
        with pytest.raises(ValueError, match="value type"):
            read_harwell_boeing(f)

    def test_truncated(self):
        with pytest.raises(ValueError, match="truncated"):
            read_harwell_boeing(io.StringIO("only\ntwo\n"))


def pattern_file(type_line, ptrs, rows):
    """A 6-line pattern (PUA-style) file: title, card counts, *type_line*,
    formats, then one card of column pointers and one of row indices."""
    lines = [
        f"{'pattern test matrix':<72}{'TEST':<8}",
        f"{2:>14}{1:>14}{1:>14}{0:>14}{0:>14}",
        type_line,
        f"{'(10I8)':<16}{'(10I8)':<16}",
        "".join(f"{p:>8}" for p in ptrs),
        "".join(f"{r:>8}" for r in rows),
    ]
    return io.StringIO("\n".join(lines) + "\n")


class TestMalformed:
    """Every defect is a ReproFormatError with the source and line, raised
    before scipy sees the arrays."""

    def test_huge_row_count(self):
        # used to ask numpy for 14.6 TiB of CSR offsets (MemoryError)
        f = pattern_file("PUA 2000000000000 1 1 0", [1, 2], [1])
        with pytest.raises(ReproFormatError, match="declares 2000000000000x1") as err:
            read_harwell_boeing(f)
        assert (err.value.source, err.value.line) == ("<stream>", 3)

    def test_row_index_out_of_range(self):
        # used to return normally with a corrupted heap: the interpreter
        # then crashed at exit
        f = pattern_file("PUA 2 2 1 0", [1, 2, 2], [9])
        with pytest.raises(ReproFormatError, match=r"row index 9 outside \[1, 2\]") as err:
            read_harwell_boeing(f)
        assert err.value.line == 6

    def test_decreasing_column_pointers(self):
        # used to return a malformed matrix silently
        f = pattern_file("PUA 2 2 1 0", [1, 5, 2], [1])
        with pytest.raises(ReproFormatError, match="below the one before it") as err:
            read_harwell_boeing(f)
        assert err.value.line == 5

    @pytest.mark.parametrize("ptrs", [[0, 1, 2], [1, 1, 1], [1, 2, 3]])
    def test_pointers_must_run_from_1_to_nnz_plus_1(self, ptrs):
        with pytest.raises(ReproFormatError, match="not 1..2"):
            read_harwell_boeing(pattern_file("PUA 2 2 1 0", ptrs, [1]))

    def test_row_index_bounds_are_inclusive(self):
        a = read_harwell_boeing(pattern_file("PUA 2 2 2 0", [1, 2, 3], [1, 2]))
        assert a.toarray().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ReproFormatError, match="row index 0"):
            read_harwell_boeing(pattern_file("PUA 2 2 2 0", [1, 2, 3], [0, 2]))

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(hb, "MAX_DIMENSION", 3)
        assert read_harwell_boeing(pattern_file("PUA 3 1 1 0", [1, 2], [3])).shape == (3, 1)
        with pytest.raises(ReproFormatError, match="above the 3 rows"):
            read_harwell_boeing(pattern_file("PUA 4 1 1 0", [1, 2], [4]))

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda t: t[:2], "truncated"),
            (lambda t: [t[0], "x y", *t[2:]], "malformed card count"),
            (lambda t: [*t[:2], "PUA 2 x 1 0", *t[3:]], "malformed type"),
            (lambda t: [*t[:2], "CUA 2 2 1 0", *t[3:]], "value type"),
            (lambda t: [*t[:2], "PSA 2 3 1 0", *t[3:]], "symmetric storage"),
            (lambda t: [*t[:3], "(10X8) (10I8)", *t[4:]], "Fortran format"),
            (lambda t: [*t[:3], "(10I0) (10I8)", *t[4:]], "Fortran format"),
            (lambda t: [*t[:4], "       1       x       2", t[5]], "column pointer 'x'"),
            (lambda t: t[:5], "expected 1 row indexs"),
        ],
    )
    def test_other_defects(self, edit, match):
        text = pattern_file("PUA 2 2 1 0", [1, 2, 2], [1]).getvalue().splitlines()
        with pytest.raises(ReproFormatError, match=match) as err:
            read_harwell_boeing(io.StringIO("\n".join(edit(text)) + "\n"))
        assert err.value.source == "<stream>"

    def test_non_finite_value(self):
        text = TestReadFormats().hand_file().getvalue().replace(
            "  2.000000000000E+00", f"{'nan':>20}"
        )
        with pytest.raises(ReproFormatError, match="non-finite"):
            read_harwell_boeing(io.StringIO(text))

    def test_source_is_the_path(self, tmp_path):
        p = tmp_path / "bad.rua"
        p.write_text(pattern_file("PUA 2 2 1 0", [1, 2, 2], [9]).getvalue())
        with pytest.raises(ReproFormatError, match="bad.rua:6"):
            read_harwell_boeing(p)
