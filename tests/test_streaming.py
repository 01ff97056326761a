"""Bounded-memory ingestion: :class:`EdgeChunks` and ``read_edge_list``.

``read_edge_list`` streams its file through ``EdgeChunks`` in chunks of
``repro.graphs.io.CHUNK_EDGES`` edges; these tests shrink that constant so
small files cross many chunk and block boundaries.
"""

import io

import pytest

import repro.graphs.io as graphs_io
from repro.graphs import erdos_renyi_graph, read_edge_list, write_edge_list
from repro.graphs.io import EdgeChunks


def _chunks(text, chunk_edges):
    handle = io.BytesIO(text.encode("utf-8"))
    # EdgeChunks reuses its arrays for the next chunk; keep copies.
    return [tuple(a.copy() for a in chunk) for chunk in EdgeChunks(handle, chunk_edges)]


@pytest.fixture
def tiny_chunks(monkeypatch):
    def _set(chunk_edges):
        monkeypatch.setattr(graphs_io, "CHUNK_EDGES", chunk_edges)

    return _set


class TestIterEdgeChunks:
    def test_chunks_respect_size(self):
        text = "\n".join(f"{i} {i + 1}" for i in range(10))
        assert [c[0].size for c in _chunks(text, 3)] == [3, 3, 3, 1]

    def test_weights_parsed(self):
        assert _chunks("0 1 2.5\n", 10)[0][2][0] == 2.5

    def test_comments_skipped(self):
        chunks = _chunks("# header\n0 1\n# mid\n1 2\n", 10)
        assert chunks[0][0].size == 2

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            _chunks("0 1\nbad line here oops\n", 10)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            _chunks("-1 2\n", 10)

    def test_empty_input(self):
        assert _chunks("", 10) == []


class TestStreamingReader:
    def test_equivalent_to_plain_reader(self, tmp_path, random_pair, tiny_chunks):
        graph, _ = random_pair
        path = tmp_path / "g.txt"
        write_edge_list(graph, path, write_weights=True)
        plain = read_edge_list(path)
        tiny_chunks(7)
        assert read_edge_list(path) == plain

    def test_tiny_chunks_same_result(self, tmp_path, random_pair, tiny_chunks):
        graph, _ = random_pair
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        plain = read_edge_list(path)
        tiny_chunks(1)
        assert read_edge_list(path) == plain

    def test_duplicate_edges_summed(self, tmp_path, tiny_chunks):
        path = tmp_path / "dup.txt"
        path.write_text("0 1 2.0\n0 1 3.0\n")
        tiny_chunks(1)
        graph = read_edge_list(path)
        assert graph.adjacency[0, 1] == 5.0

    def test_known_num_nodes_immediate_fold(self, tmp_path, tiny_chunks):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        tiny_chunks(1)
        graph = read_edge_list(path, num_nodes=10)
        assert graph.num_nodes == 10
        assert graph.num_edges == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        graph = read_edge_list(path)
        assert graph.num_nodes == 0
        assert graph.num_edges == 0

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "webcrawl.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "webcrawl"

    def test_large_synthetic_round_trip(self, tmp_path, tiny_chunks):
        graph = erdos_renyi_graph(200, 2000, seed=9)
        path = tmp_path / "big.txt"
        write_edge_list(graph, path)
        tiny_chunks(128)
        assert read_edge_list(path) == graph
