"""Unit tests for repro.graphs.io."""

import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.io as graphs_io
from repro.graphs import (
    Graph,
    convert_edge_list,
    read_edge_list,
    read_edge_list_text,
    write_edge_list,
)
from repro.graphs.io import EdgeChunks


class TestReadText:
    def test_basic_pairs(self):
        g = read_edge_list_text("0 1\n1 2\n")
        assert g.num_nodes == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_weighted_lines(self):
        g = read_edge_list_text("0 1 2.5\n")
        assert g.adjacency[0, 1] == 2.5

    def test_comments_and_blanks_skipped(self):
        g = read_edge_list_text("# header\n\n0 1\n# trailing\n")
        assert g.num_edges == 1

    def test_custom_comment_prefix(self):
        g = read_edge_list_text("% note\n0 1\n", comment="%")
        assert g.num_edges == 1

    def test_tab_separated(self):
        g = read_edge_list_text("0\t1\n")
        assert g.has_edge(0, 1)

    def test_node_count_from_max_id(self):
        g = read_edge_list_text("0 5\n")
        assert g.num_nodes == 6

    def test_relabel_tokens(self):
        g = read_edge_list_text("alice bob\nbob carol\n", relabel=True)
        assert g.num_nodes == 3
        assert g.has_edge(0, 1)  # alice -> bob in appearance order
        assert g.has_edge(1, 2)

    def test_relabel_preserves_first_appearance_order(self):
        g = read_edge_list_text("9 3\n3 9\n", relabel=True)
        # 9 seen first -> id 0; 3 -> id 1.
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_non_integer_without_relabel_raises(self):
        with pytest.raises(ValueError, match="relabel=True"):
            read_edge_list_text("alice bob\n")

    def test_negative_id_without_relabel_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            read_edge_list_text("-1 2\n")

    def test_bad_weight_raises(self):
        with pytest.raises(ValueError, match="invalid weight"):
            read_edge_list_text("0 1 heavy\n")

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError, match="expected"):
            read_edge_list_text("0 1 2 3\n")

    def test_error_mentions_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list_text("0 1\n0 1 zzz\n")


class TestParseModes:
    def test_default_is_strict(self):
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list_text("0 1\n0 1 2 3\n")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            read_edge_list_text("0 1\n", mode="forgiving")

    def test_lenient_skips_wrong_arity(self):
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            g = read_edge_list_text("0 1\n0 1 2 3\n1 2\n", mode="lenient")
        assert g.num_edges == 2

    def test_lenient_skips_bad_weight(self):
        with pytest.warns(RuntimeWarning, match="invalid weight"):
            g = read_edge_list_text("0 1 heavy\n0 1 2.0\n", mode="lenient")
        assert g.num_edges == 1
        assert g.adjacency[0, 1] == 2.0

    def test_lenient_skips_non_integer_ids(self):
        with pytest.warns(RuntimeWarning, match="non-integer node id"):
            g = read_edge_list_text("alice bob\n0 1\n", mode="lenient")
        assert g.num_edges == 1

    def test_lenient_skips_negative_ids(self):
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            g = read_edge_list_text("-1 2\n0 1\n", mode="lenient")
        assert g.num_edges == 1
        assert g.num_nodes == 2

    def test_lenient_counts_every_skip(self):
        text = "0 1\nx y\n0 1 bad\n0\n1 2\n"
        with pytest.warns(RuntimeWarning, match="skipped 3 malformed"):
            g = read_edge_list_text(text, mode="lenient")
        assert g.num_edges == 2

    def test_lenient_clean_input_is_silent(self, recwarn):
        g = read_edge_list_text("0 1\n1 2\n", mode="lenient")
        assert g.num_edges == 2
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_negative_field_is_not_a_line_end(self):
        # Five fields, though the fast path's line-end marker (-1) would
        # split them 2 + 2.
        with pytest.raises(ValueError, match="line 1: expected"):
            read_edge_list_text("0 1 -1 2 3\n")

    def test_strict_reports_first_bad_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            read_edge_list_text("0 1\n1 2\nbroken line here extra\n")

    def test_lenient_file_read(self, tmp_path):
        path = tmp_path / "dirty.txt"
        path.write_text("# crawl dump\n0 1\ngarbage\n1 2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_edge_list(path)
        with pytest.warns(RuntimeWarning, match="dirty.txt"):
            g = read_edge_list(path, mode="lenient")
        assert g.num_edges == 2


class TestFileRoundTrip:
    def test_round_trip(self, tmp_path, random_pair):
        graph, _ = random_pair
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded == graph

    def test_round_trip_weights(self, tmp_path):
        graph = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path, write_weights=True)
        loaded = read_edge_list(path)
        assert loaded == graph

    @pytest.mark.parametrize("write_weights", [False, True])
    @pytest.mark.parametrize("chunk", [7, graphs_io._WRITE_EDGES])
    def test_matches_line_by_line_writer(self, monkeypatch, write_weights, chunk):
        # Chunks of 7 lines end mid-row; the text must not change with them.
        rng = np.random.default_rng(3)
        edges = np.column_stack(
            [
                rng.integers(0, 60, 400),
                rng.integers(0, 60, 400),
                rng.choice([1.0, 0.5, 1 / 3, 2.5e-7, 123456789.0, 1e21], 400),
            ]
        )
        monkeypatch.setattr(graphs_io, "_WRITE_EDGES", chunk)
        for graph in (Graph.from_edges(60, edges), Graph.from_edges(5, [])):
            buffer = io.StringIO()
            write_edge_list(graph, buffer, write_weights=write_weights)
            lines = [
                f"# name={graph.name} nodes={graph.num_nodes} edges={graph.num_edges}\n"
            ]
            for src, dst, weight in graph.edges():
                lines.append(
                    f"{src}\t{dst}\t{weight:g}\n" if write_weights else f"{src}\t{dst}\n"
                )
            assert buffer.getvalue() == "".join(lines)

    def test_header_written(self, tmp_path, path_graph):
        path = tmp_path / "g.txt"
        write_edge_list(path_graph, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert "nodes=4" in first

    def test_header_suppressed(self, path_graph):
        buffer = io.StringIO()
        write_edge_list(path_graph, buffer, header=False)
        assert not buffer.getvalue().startswith("#")

    def test_write_to_stream(self, path_graph):
        buffer = io.StringIO()
        write_edge_list(path_graph, buffer)
        assert "0\t1" in buffer.getvalue()

    def test_name_defaults_to_stem(self, tmp_path, path_graph):
        path = tmp_path / "mygraph.txt"
        write_edge_list(path_graph, path)
        assert read_edge_list(path).name == "mygraph"


class TestLineEnds:
    """A lone CR ends a line, as in a text-mode file (universal newlines)."""

    def test_lone_cr_splits_fields_onto_two_lines(self):
        with pytest.raises(ValueError, match="line 1: expected"):
            read_edge_list_text("0\r1\n")
        with pytest.warns(RuntimeWarning, match="skipped 2 malformed"):
            read_edge_list_text("0\r1\n", mode="lenient")

    def test_lone_cr_line_numbers_across_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "mac.txt"
        path.write_bytes(b"0 1\r" * 10 + b"x y\r" + b"1 2\r\n")
        monkeypatch.setattr(graphs_io, "CHUNK_EDGES", 1)
        with pytest.raises(ValueError, match="line 11"):
            read_edge_list(path)
        with pytest.raises(ValueError, match="line 11"):
            convert_edge_list(path, tmp_path / "csr", chunk_edges=1)
        with pytest.warns(RuntimeWarning, match="first: line 11"):
            g = read_edge_list(path, mode="lenient")
        assert g == Graph.from_edges(3, [(0, 1)] * 10 + [(1, 2)])


class TestNodeCountHeader:
    def test_header_keeps_isolated_trailing_nodes(self):
        g = read_edge_list_text("# name=g nodes=6 edges=1\n0 1\n")
        assert g.num_nodes == 6 and g.num_edges == 1

    def test_header_after_first_edge_is_ignored(self):
        assert read_edge_list_text("0 1\n# nodes=9\n").num_nodes == 2

    def test_relabel_ignores_header(self):
        assert read_edge_list_text("# nodes=9\na b\n", relabel=True).num_nodes == 2

    def test_id_at_or_above_header_count_raises(self):
        with pytest.raises(ValueError, match="line 3: edge \\(2, 5\\) out of range for 3"):
            read_edge_list_text("# nodes=3\n0 1\n2 5\n")

    def test_id_above_header_count_skipped_when_lenient(self):
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            g = read_edge_list_text("# nodes=3\n0 1\n2 5\n1 2\n", mode="lenient")
        assert g.num_nodes == 3 and g.num_edges == 2

    def test_explicit_num_nodes_wins(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nodes=3\n0 1\n")
        assert read_edge_list(path, num_nodes=8).num_nodes == 8
        with pytest.raises(ValueError, match="line 2"):
            read_edge_list(path, num_nodes=1)

    def test_num_nodes_with_relabel_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="relabel"):
            read_edge_list(path, relabel=True, num_nodes=2)

    def test_converter_honours_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nodes=5\n0 1\n9 9\n1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            convert_edge_list(path, tmp_path / "strict")
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            mapped = convert_edge_list(path, tmp_path / "lenient", mode="lenient")
        assert mapped.num_nodes == 5
        assert mapped == Graph.from_edges(5, [(0, 1), (1, 2)])


# ----------------------------------------------------------------------
# Differential: every reader against a line-by-line reference parser
# ----------------------------------------------------------------------
def _reference(text):
    """``(records, num_nodes)``: per non-blank, non-comment line, its number
    and either ``(src, dst, weight)`` or the reason it is malformed.
    Written for the files :func:`edge_files` draws (no lone CR)."""
    records, num_nodes, header = [], None, True
    for number, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            for token in line.split() if header else ():
                if token.startswith("nodes="):
                    num_nodes = int(token[len("nodes="):])
            continue
        header, parts = False, line.split()
        if len(parts) not in (2, 3):
            reason = f"expected 'src dst [weight]', got {line!r}"
        elif len(parts) == 3 and not _is_float(parts[2]):
            reason = f"invalid weight {parts[2]!r}"
        elif not (_is_int(parts[0]) and _is_int(parts[1])):
            reason = f"non-integer node id {parts[0]!r}/{parts[1]!r}"
        elif min(src := int(parts[0]), dst := int(parts[1])) < 0:
            reason = "negative node id"
        elif num_nodes is not None and max(src, dst) >= num_nodes:
            reason = f"edge ({src}, {dst}) out of range for {num_nodes} nodes"
        else:
            records.append((number, (src, dst, float(parts[2]) if len(parts) == 3 else 1.0)))
            continue
        records.append((number, f"line {number}: {reason}"))
    return records, num_nodes


def _is_int(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


_SMALL_IDS = st.integers(0, 30).map(str)
_BIG_IDS = st.sampled_from([2**31 - 1, 2**31, 2**31 + 1, 2**62]).map(str)
_PLAIN_WEIGHTS = st.sampled_from(["1", "3", "007", "0"])
_WEIGHTS = _PLAIN_WEIGHTS | st.sampled_from(["2.5", "-0.5", "1e-3", "+4"])
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t "])
# Lines the fast path must refuse; all but "1_000 2" are malformed.
_TRICKY_LINES = st.sampled_from(
    [
        *("x y", "7", "1 2 3 4", "1 2 heavy", "-1 2", "3 -4", "1.5 2", "0x1 2"),
        "1_000 2",  # valid for int(), refused by the fast path
        "0 1 -1 2 3",  # five fields, though "-1" could pass for a line end
    ]
)


@st.composite
def _edge_line(draw, ids, plain, weighted):
    """``src dst [weight]``.  Plain lines hold only digits and blanks (the
    fast path's input), with a weight iff ``weighted``; others add ``+``
    signs and decimal weights."""
    prefix = st.sampled_from(["", "0", "00"] if plain else ["+", "", "0"])
    fields = [draw(prefix) + draw(ids), draw(prefix) + draw(ids)]
    if weighted if plain else draw(st.booleans()):
        fields.append(draw(_PLAIN_WEIGHTS if plain else _WEIGHTS))
    line = fields[0]
    for field in fields[1:]:
        line += draw(_BLANKS) + field
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))


@st.composite
def edge_files(draw, big_ids_need_header=True):
    """Edge-list text mixing blank, comment, edge and malformed lines.

    Ids near 2**31 and above appear only under a ``nodes=32`` header (they
    are then out of range) unless ``big_ids_need_header`` is False.
    """
    header, weighted = draw(st.booleans()), draw(st.booleans())
    ids = _SMALL_IDS | _BIG_IDS if header or not big_ids_need_header else _SMALL_IDS
    line = st.one_of(
        *[_edge_line(ids, True, weighted)] * 6,
        _edge_line(ids, False, weighted),
        st.sampled_from(["", "   ", "# comment", "  # indented comment"]),
        _TRICKY_LINES,
    )
    lines = draw(st.lists(line, max_size=30))
    if header:
        lines.insert(0, "# name=g nodes=32 edges=?")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = newline if lines and draw(st.booleans()) else ""
    return newline.join(lines) + final


def _expected(text):
    """The reference's graph and its malformed-line reasons."""
    records, num_nodes = _reference(text)
    edges = [edge for _, edge in records if not isinstance(edge, str)]
    if num_nodes is None:
        num_nodes = max((max(s, d) for s, d, _ in edges), default=-1) + 1
    bad = [reason for _, reason in records if isinstance(reason, str)]
    return Graph.from_edges(num_nodes, edges), bad


def _readers(text, chunk_edges, mode, workdir):
    """read_edge_list, read_edge_list_text and convert_edge_list on
    ``text``, each streaming chunks of ``chunk_edges`` edges."""
    path = Path(workdir) / "edges.txt"
    path.write_bytes(text.encode("utf-8"))

    def _with_chunks(read):
        def call():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graphs_io, "CHUNK_EDGES", chunk_edges)
                return read()

        return call

    def _convert():
        out = Path(tempfile.mkdtemp(dir=workdir))
        return convert_edge_list(path, out, mode=mode, chunk_edges=chunk_edges, block_rows=4)

    return [
        _with_chunks(lambda: read_edge_list(path, mode=mode)),
        _with_chunks(lambda: read_edge_list_text(text, mode=mode)),
        _convert,
    ]


# chunk_edges 1 and 3 read 16- and 48-byte blocks: most cut a line.
_CHUNKS = (1, 3, 64, graphs_io.CHUNK_EDGES)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(text=edge_files())
    def test_strict_readers_match_reference(self, text):
        expected, bad = _expected(text)
        with tempfile.TemporaryDirectory() as workdir:
            for chunk_edges in _CHUNKS:
                for read in _readers(text, chunk_edges, "strict", workdir):
                    if bad:
                        line = bad[0].split(":")[0]
                        with pytest.raises(ValueError, match=f"^{line}:"):
                            read()
                    else:
                        graph = read()
                        assert graph.num_nodes == expected.num_nodes
                        assert graph == expected

    @settings(max_examples=40, deadline=None)
    @given(text=edge_files())
    def test_lenient_readers_match_reference(self, text):
        expected, bad = _expected(text)
        with tempfile.TemporaryDirectory() as workdir:
            for chunk_edges in _CHUNKS:
                for read in _readers(text, chunk_edges, "lenient", workdir):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        graph = read()
                    messages = [str(w.message) for w in caught]
                    if bad:
                        assert len(messages) == 1
                        assert f"skipped {len(bad)} malformed" in messages[0]
                        assert messages[0].endswith(f"(first: {bad[0]})")
                    else:
                        assert messages == []
                    assert graph.num_nodes == expected.num_nodes
                    assert graph == expected

    @settings(max_examples=60, deadline=None)
    @given(text=edge_files(big_ids_need_header=False), chunk_edges=st.sampled_from(_CHUNKS))
    def test_chunks_match_reference_with_large_ids(self, text, chunk_edges):
        records, _ = _reference(text)
        handle = io.BytesIO(text.encode("utf-8"))
        chunks = EdgeChunks(handle, chunk_edges, mode="lenient")
        got = []
        for src, dst, weight in chunks:
            assert src.size <= chunk_edges
            got += zip(src.tolist(), dst.tolist(), weight.tolist())
        assert got == [edge for _, edge in records if not isinstance(edge, str)]
        bad = [reason for _, reason in records if isinstance(reason, str)]
        assert chunks.skipped == len(bad)
        assert chunks.first_reason == (bad[0] if bad else None)
