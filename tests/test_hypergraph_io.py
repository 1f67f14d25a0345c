"""Round-trip and format tests for PaToH / hMeTiS hypergraph I/O."""

import io

import pytest
from hypothesis import given, settings

from repro.errors import ReproFormatError
from repro.hypergraph import hypergraph_from_netlists
from repro.hypergraph import io as hio
from repro.hypergraph.io import read_hmetis, read_patoh, write_hmetis, write_patoh
from tests.conftest import hypergraphs


def roundtrip(h, writer, reader, **kw):
    buf = io.StringIO()
    writer(h, buf, **kw)
    buf.seek(0)
    return reader(buf)


class TestPatoh:
    def test_roundtrip_unweighted(self, tiny_hypergraph):
        assert roundtrip(tiny_hypergraph, write_patoh, read_patoh) == tiny_hypergraph

    def test_roundtrip_base0(self, tiny_hypergraph):
        assert (
            roundtrip(tiny_hypergraph, write_patoh, read_patoh, base=0)
            == tiny_hypergraph
        )

    def test_roundtrip_weighted(self):
        h = hypergraph_from_netlists(
            4, [[0, 1], [1, 2, 3]], vertex_weights=[1, 2, 3, 4], net_costs=[5, 6]
        )
        assert roundtrip(h, write_patoh, read_patoh) == h

    def test_comments_skipped(self):
        text = "% header comment\n1 2 1 2 0\n% net comment\n1 2\n"
        h = read_patoh(io.StringIO(text))
        assert h.num_vertices == 2 and h.num_nets == 1
        assert h.pins_of(0).tolist() == [0, 1]

    def test_flag_optional(self):
        h = read_patoh(io.StringIO("1 2 1 2\n1 2\n"))
        assert h.num_pins == 2

    def test_pin_count_mismatch(self):
        with pytest.raises(ValueError, match="pin count mismatch"):
            read_patoh(io.StringIO("1 3 1 5\n1 2\n"))

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="malformed"):
            read_patoh(io.StringIO("1 2\n"))

    def test_file_path_roundtrip(self, tiny_hypergraph, tmp_path):
        p = tmp_path / "h.patoh"
        write_patoh(tiny_hypergraph, p)
        assert read_patoh(p) == tiny_hypergraph

    @given(hypergraphs(weighted=False))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, h):
        assert roundtrip(h, write_patoh, read_patoh) == h


class TestHmetis:
    def test_roundtrip_unweighted(self, tiny_hypergraph):
        assert roundtrip(tiny_hypergraph, write_hmetis, read_hmetis) == tiny_hypergraph

    def test_roundtrip_net_costs_only(self):
        h = hypergraph_from_netlists(3, [[0, 1], [1, 2]], net_costs=[3, 4])
        assert roundtrip(h, write_hmetis, read_hmetis) == h

    def test_roundtrip_vertex_weights_only(self):
        h = hypergraph_from_netlists(3, [[0, 1], [1, 2]], vertex_weights=[2, 3, 4])
        assert roundtrip(h, write_hmetis, read_hmetis) == h

    def test_roundtrip_both_weighted(self):
        h = hypergraph_from_netlists(
            3, [[0, 1], [1, 2]], vertex_weights=[2, 3, 4], net_costs=[9, 8]
        )
        assert roundtrip(h, write_hmetis, read_hmetis) == h

    def test_known_format(self):
        # the example of the hMeTiS manual: 4 nets, 7 vertices
        text = "4 7\n1 2\n1 7 5 6\n4 5 6\n2 3 4\n"
        h = read_hmetis(io.StringIO(text))
        assert h.num_nets == 4 and h.num_vertices == 7
        assert h.pins_of(1).tolist() == [0, 6, 4, 5]

    def test_file_path_roundtrip(self, tiny_hypergraph, tmp_path):
        p = tmp_path / "h.hmetis"
        write_hmetis(tiny_hypergraph, p)
        assert read_hmetis(p) == tiny_hypergraph

    @given(hypergraphs(weighted=False))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, h):
        assert roundtrip(h, write_hmetis, read_hmetis) == h


class TestEmptyNets:
    """Regression: an empty net writes as a blank line, which the readers
    used to skip — shifting every following net up by one (or running off
    the end of the file)."""

    def _h(self, **kw):
        return hypergraph_from_netlists(5, [[0, 1], [], [2, 3, 4], []], **kw)

    @pytest.mark.parametrize(
        "writer,reader", [(write_patoh, read_patoh), (write_hmetis, read_hmetis)]
    )
    def test_roundtrip_empty_nets(self, writer, reader):
        h = self._h()
        assert roundtrip(h, writer, reader) == h

    @pytest.mark.parametrize(
        "writer,reader", [(write_patoh, read_patoh), (write_hmetis, read_hmetis)]
    )
    def test_roundtrip_empty_nets_weighted(self, writer, reader):
        h = self._h(vertex_weights=[2, 1, 3, 1, 1], net_costs=[1, 5, 2, 4])
        assert roundtrip(h, writer, reader) == h

    def test_trailing_empty_net(self):
        h = hypergraph_from_netlists(3, [[0, 1, 2], []])
        assert roundtrip(h, write_patoh, read_patoh) == h
        assert roundtrip(h, write_hmetis, read_hmetis) == h

    def test_truncated_net_block_raises(self):
        # header promises 3 nets but only 2 lines follow
        text = "1 4 3 4 0\n1 2\n3 4\n"
        with pytest.raises(ValueError, match="end of file"):
            read_patoh(io.StringIO(text))


class TestDeclaredSize:
    """A header's vertex count sizes per-vertex arrays before any net shows
    whether a vertex is used; above ``MAX_DIMENSION`` it is a format error.
    These 2-line files used to raise MemoryError."""

    @pytest.mark.parametrize(
        "reader,text",
        [(read_patoh, "1 3000000000 1 1\n1\n"), (read_hmetis, "1 3000000000\n1\n")],
    )
    def test_huge_vertex_count_is_a_format_error(self, reader, text):
        with pytest.raises(ReproFormatError, match="declares 3000000000 vertices"):
            reader(io.StringIO(text))

    @pytest.mark.parametrize(
        "reader,header", [(read_patoh, "1 {} 1 1\n"), (read_hmetis, "1 {}\n")]
    )
    def test_bound_is_inclusive(self, reader, header, monkeypatch):
        monkeypatch.setattr(hio, "MAX_DIMENSION", 3)
        assert reader(io.StringIO(header.format(3) + "1\n")).num_vertices == 3
        with pytest.raises(ReproFormatError, match="above the 3 a file may declare"):
            reader(io.StringIO(header.format(4) + "1\n"))


class TestNegativeValues:
    """A negative vertex weight or net cost is a format error with the file
    and line, in both repair modes: there is nothing to repair it to.
    These files used to reach ``Hypergraph`` and raise a bare ValueError."""

    @pytest.mark.parametrize("repair", [False, True])
    @pytest.mark.parametrize(
        "reader,text,line,match",
        [
            (read_patoh, "1 6 3 8 3\n1 1 2 3\n2 3 4\n3 5 6 1\n1 -1 2 1 1 3 1\n",
             5, "vertex weight -1 is negative"),
            (read_hmetis, "2 3 10\n1 2\n2 3\n1\n-1\n1\n", 5,
             "vertex weight -1 is negative"),
            (read_hmetis, "2 3 1\n-1 1 2\n1 2 3\n", 2, "net 0: cost -1 is negative"),
        ],
    )
    def test_negative_is_a_format_error(self, reader, text, line, match, repair):
        with pytest.raises(ReproFormatError, match=match) as err:
            reader(io.StringIO(text), repair=repair)
        assert (err.value.source, err.value.line) == ("<stream>", line)

    @pytest.mark.parametrize("reader", [read_patoh, read_hmetis])
    def test_integer_past_int64_is_a_format_error(self, reader):
        # found by tests/test_reader_fuzz.py: it used to raise OverflowError
        # when the weights became an int64 array
        text = {
            read_patoh: "1 1 0 0 1\n99999999999999999999999\n",
            read_hmetis: "0 1 10\n99999999999999999999999\n",
        }[reader]
        with pytest.raises(ReproFormatError, match="out of range") as err:
            reader(io.StringIO(text))
        assert err.value.line == 2
