"""Tests for the Matrix Market reader/writer."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.errors import ReproFormatError
from repro.matrix import io as mm_io
from repro.matrix import read_matrix_market, write_matrix_market
from tests.conftest import sparse_square_matrices


def roundtrip(a, **kw):
    buf = io.StringIO()
    write_matrix_market(a, buf, **kw)
    buf.seek(0)
    return read_matrix_market(buf)


class TestWriteRead:
    def test_roundtrip_real(self, small_sparse_matrix):
        b = roundtrip(small_sparse_matrix)
        assert abs(b - small_sparse_matrix).max() < 1e-15

    def test_roundtrip_exact_values(self):
        a = sp.csr_matrix(np.array([[0.1234567890123, 0], [0, -7.5e-3]]))
        b = roundtrip(a)
        assert np.array_equal(b.toarray(), a.toarray())

    def test_pattern_field(self, small_sparse_matrix):
        b = roundtrip(small_sparse_matrix, field="pattern")
        assert b.nnz == small_sparse_matrix.nnz
        assert set(b.data.tolist()) == {1.0}

    def test_integer_field(self):
        a = sp.csr_matrix(np.array([[3, 0], [0, -2]], dtype=float))
        b = roundtrip(a, field="integer")
        assert np.array_equal(b.toarray(), a.toarray())

    def test_comment_written_and_skipped(self):
        a = sp.eye(2, format="csr")
        buf = io.StringIO()
        write_matrix_market(a, buf, comment="hello\nworld")
        text = buf.getvalue()
        assert "% hello" in text and "% world" in text
        buf.seek(0)
        assert abs(read_matrix_market(buf) - a).max() == 0

    def test_file_path(self, tmp_path, small_sparse_matrix):
        p = tmp_path / "m.mtx"
        write_matrix_market(small_sparse_matrix, p)
        assert abs(read_matrix_market(p) - small_sparse_matrix).max() < 1e-15

    @given(sparse_square_matrices())
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, a):
        b = roundtrip(a)
        assert (abs(b - a)).max() < 1e-15 if a.nnz else b.nnz == 0


class TestReadFormats:
    def test_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 2.0\n"
            "2 1 3.0\n"
            "3 3 4.0\n"
        )
        a = read_matrix_market(io.StringIO(text))
        dense = a.toarray()
        assert dense[0, 1] == dense[1, 0] == 3.0
        assert dense[0, 0] == 2.0
        assert a.nnz == 4

    def test_skew_symmetric(self):
        text = (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 5.0\n"
        )
        a = read_matrix_market(io.StringIO(text)).toarray()
        assert a[1, 0] == 5.0 and a[0, 1] == -5.0

    def test_pattern_read(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        a = read_matrix_market(io.StringIO(text))
        assert a.nnz == 2

    def test_rejects_array_format(self):
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(io.StringIO("%%MatrixMarket matrix array real general\n"))

    def test_rejects_complex(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
        with pytest.raises(ValueError, match="complex"):
            read_matrix_market(io.StringIO(text))

    def test_rejects_wrong_count(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        with pytest.raises(ValueError, match="expected 3"):
            read_matrix_market(io.StringIO(text))

    def test_header_count_sizes_nothing(self):
        # a header may claim any number of entries: the reader must not
        # allocate for them before it has read them
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2000000000000\n1 1 1.0\n"
        )
        with pytest.raises(ValueError, match="expected 2000000000000 entries, read 1"):
            read_matrix_market(io.StringIO(text))

    def test_header_dimension_is_bounded(self):
        # the CSR offsets are sized by the declared row count alone: this
        # 3-line file used to ask for 14.6 TiB and raise MemoryError
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2000000000000 3 1\n1 1 1.0\n"
        )
        with pytest.raises(ReproFormatError, match="declares 2000000000000x3"):
            read_matrix_market(io.StringIO(text))

    def test_dimension_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(mm_io, "MAX_DIMENSION", 3)
        head = "%%MatrixMarket matrix coordinate real general\n"
        a = read_matrix_market(io.StringIO(head + "3 3 1\n1 1 1.0\n"))
        assert a.shape == (3, 3)
        for size in ("4 3 1", "3 4 1"):
            with pytest.raises(ReproFormatError, match="above the 3 rows or columns"):
                read_matrix_market(io.StringIO(head + size + "\n1 1 1.0\n"))

    def test_rejects_bad_write_field(self):
        with pytest.raises(ValueError, match="unsupported field"):
            write_matrix_market(sp.eye(2, format="csr"), io.StringIO(), field="complex")
