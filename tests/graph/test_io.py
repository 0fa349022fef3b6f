"""Tests for edge-list and MatrixMarket I/O."""

import io

import pytest

from repro.errors import GraphFormatError
from repro.graph.io_edgelist import (
    edgelist_from_string,
    read_edgelist,
    write_edgelist,
)
from repro.graph.io_mtx import read_mtx, write_mtx


class TestEdgelistRead:
    def test_basic(self):
        g = edgelist_from_string("0 1\n1 2\n")
        assert g.num_vertices == 3
        assert g.num_edges == 4

    def test_weighted(self):
        g = edgelist_from_string("0 1 2.5\n")
        assert g.edge_weights(0).tolist() == [2.5]

    def test_comments_and_blanks(self):
        g = edgelist_from_string("# header\n% alt comment\n\n0 1\n")
        assert g.num_edges == 2

    def test_default_weight(self):
        g = edgelist_from_string("0 1\n", default_weight=4.0)
        assert g.edge_weights(0).tolist() == [4.0]

    def test_no_symmetrize(self):
        g = edgelist_from_string("0 1\n", symmetrize=False)
        assert g.num_edges == 1

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("0\n")

    def test_non_numeric(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("a b\n")

    def test_negative_id(self):
        with pytest.raises(GraphFormatError):
            edgelist_from_string("-1 0\n")


class TestEdgelistRoundtrip:
    def test_roundtrip_memory(self, small_random_weighted):
        buf = io.StringIO()
        write_edgelist(small_random_weighted, buf)
        buf.seek(0)
        back = read_edgelist(
            buf, num_vertices=small_random_weighted.num_vertices
        )
        assert back == small_random_weighted

    def test_roundtrip_file(self, tmp_path, two_cliques):
        path = tmp_path / "g.txt"
        write_edgelist(two_cliques, path)
        assert read_edgelist(path) == two_cliques

    def test_directed_write_keeps_all(self, path10, tmp_path):
        p = tmp_path / "d.txt"
        write_edgelist(path10, p, directed=True)
        g = read_edgelist(p, symmetrize=False)
        assert g.num_edges == path10.num_edges

    def test_unweighted_write(self, path10):
        buf = io.StringIO()
        write_edgelist(path10, buf, write_weights=False)
        assert all(len(l.split()) == 2 for l in buf.getvalue().splitlines())


class TestMtx:
    def test_read_general_real(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2 1.5\n"
            "2 3 2.0\n"
        )
        g = read_mtx(io.StringIO(text))
        assert g.num_vertices == 3
        assert g.num_edges == 4  # symmetrized
        assert g.edge_weights(0).tolist() == [1.5]

    def test_read_pattern(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 1\n"
            "1 2\n"
        )
        g = read_mtx(io.StringIO(text))
        assert g.edge_weights(0).tolist() == [1.0]

    def test_read_symmetric_mirrors(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "2 1 3.0\n"
        )
        g = read_mtx(io.StringIO(text), symmetrize=False)
        assert g.num_edges == 2

    def test_rejects_missing_header(self):
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO("1 1 0\n"))

    def test_rejects_rectangular(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 0\n"
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_out_of_bounds(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_wrong_count(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO(text))

    def test_rejects_unparsable_entry_naming_file_and_line(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "% comment\n"
                     "2 2 2\n"
                     "1 2 1.0\n"
                     "1 2 x\n")
        with pytest.raises(GraphFormatError, match=r"bad\.mtx:5: .*'1 2 x'"):
            read_mtx(p)

    def test_rejects_unparsable_size_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 two 0\n"
        with pytest.raises(GraphFormatError, match=":2: "):
            read_mtx(io.StringIO(text))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_weight(self, tmp_path, weight):
        p = tmp_path / "nan.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     f"2 2 1\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError,
                           match=r"nan\.mtx:3: non-finite weight"):
            read_mtx(p)

    def test_rejects_array_format(self):
        with pytest.raises(GraphFormatError):
            read_mtx(io.StringIO("%%MatrixMarket matrix array real general\n"))

    def test_roundtrip(self, tmp_path, small_random_weighted):
        p = tmp_path / "g.mtx"
        write_mtx(small_random_weighted, p)
        back = read_mtx(p, symmetrize=False)
        assert back == small_random_weighted

    def test_roundtrip_pattern(self, tmp_path, path10):
        p = tmp_path / "g.mtx"
        write_mtx(path10, p, field="pattern")
        back = read_mtx(p, symmetrize=False)
        assert back == path10

    def test_write_rejects_bad_field(self, path10, tmp_path):
        with pytest.raises(GraphFormatError):
            write_mtx(path10, tmp_path / "g.mtx", field="complex")
