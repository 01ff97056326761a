"""Unit tests for the high-level GSimIndex retrieval layer."""

import numpy as np
import pytest

from repro import gsim_plus
from repro.core import top_k_pairs
from repro.retrieval import GSimIndex
from repro.graphs import erdos_renyi_graph, random_node_sample


@pytest.fixture
def pair():
    graph_a = erdos_renyi_graph(30, 120, seed=1)
    graph_b = random_node_sample(graph_a, 12, seed=2)
    return graph_a, graph_b


@pytest.fixture
def index(pair):
    return GSimIndex.build(*pair, iterations=6)


class TestBuild:
    def test_metadata_captured(self, pair, index):
        graph_a, graph_b = pair
        assert index.metadata.n_a == graph_a.num_nodes
        assert index.metadata.m_b == graph_b.num_edges
        assert index.metadata.iterations == 6
        assert not index.metadata.content_prior

    def test_query_matches_solver(self, pair, index):
        graph_a, graph_b = pair
        expected = gsim_plus(
            graph_a, graph_b, iterations=6, normalization="global"
        ).similarity
        block = index.query([0, 5], [1, 3])
        np.testing.assert_allclose(block, expected[np.ix_([0, 5], [1, 3])], atol=1e-10)

    def test_content_prior_flag(self, pair, rng):
        graph_a, graph_b = pair
        prior = (
            rng.uniform(0.1, 1, (graph_a.num_nodes, 2)),
            rng.uniform(0.1, 1, (graph_b.num_nodes, 2)),
        )
        index = GSimIndex.build(graph_a, graph_b, iterations=4, initial_factors=prior)
        assert index.metadata.content_prior

    def test_repr(self, index):
        assert "GSimIndex" in repr(index)
        assert "iterations=6" in repr(index)

    def test_memory_reported(self, index):
        assert index.memory_bytes() > 0


class TestPersistence:
    def test_round_trip(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = GSimIndex.load(path)
        assert loaded.metadata == index.metadata
        np.testing.assert_array_equal(
            loaded.query([0, 1], [2]), index.query([0, 1], [2])
        )

    @staticmethod
    def _content(index):
        import json
        from dataclasses import asdict

        factors = index.factors
        return {
            "u": factors.u,
            "v": factors.v,
            "log_scale": np.float64(factors.log_scale),
            "dtype": np.str_(factors.dtype.name),
            "metadata_json": json.dumps(asdict(index.metadata)),
        }

    def test_saved_members_and_checksum(self, index, tmp_path):
        # Plain np.load reads the members; the stored checksum is the
        # content checksum of what was saved.
        from repro.runtime.resilience import content_checksum

        path = tmp_path / "index.npz"
        index.save(path)
        content = self._content(index)
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == [*content, "checksum"]
            for name in ("u", "v", "log_scale"):
                assert archive[name].dtype == content[name].dtype
                np.testing.assert_array_equal(archive[name], content[name])
            assert str(archive["checksum"]) == content_checksum(content)
        loaded = GSimIndex.load(path).factors
        np.testing.assert_array_equal(loaded.u, index.factors.u)
        np.testing.assert_array_equal(loaded.v, index.factors.v)
        assert loaded.log_scale == index.factors.log_scale

    def test_savez_compressed_v3_index_loads(self, index, tmp_path):
        # v3 indexes written by np.savez_compressed keep loading.
        from repro.runtime.resilience import content_checksum

        content = self._content(index)
        path = tmp_path / "v3.npz"
        np.savez_compressed(
            path,
            **{**content, "metadata_json": np.str_(content["metadata_json"])},
            checksum=np.str_(content_checksum(content)),
        )
        loaded = GSimIndex.load(path)
        assert loaded.metadata == index.metadata
        np.testing.assert_array_equal(loaded.factors.u, index.factors.u)
        np.testing.assert_array_equal(
            loaded.query([0, 1], [2, 3]), index.query([0, 1], [2, 3])
        )

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, whatever=np.ones(2))
        with pytest.raises(ValueError, match="not a GSimIndex"):
            GSimIndex.load(path)

    def test_newer_version_rejected(self, index, tmp_path):
        import json

        path = tmp_path / "future.npz"
        np.savez(
            path,
            u=np.ones((2, 1)),
            v=np.ones((2, 1)),
            log_scale=np.float64(0),
            metadata_json=np.str_(
                json.dumps(
                    dict(
                        n_a=2, n_b=2, m_a=0, m_b=0, iterations=1,
                        graph_a_name="a", graph_b_name="b",
                        content_prior=False, metadata_version=99,
                    )
                )
            ),
        )
        with pytest.raises(ValueError, match="newer library"):
            GSimIndex.load(path)


class TestServing:
    def test_top_matches_ordered(self, index):
        matches = index.top_matches(0, k=5)
        scores = [m.score for m in matches]
        assert scores == sorted(scores, reverse=True)
        assert all(m.node_a == 0 for m in matches)

    def test_top_matches_range_checked(self, index):
        with pytest.raises(IndexError):
            index.top_matches(999)

    @pytest.mark.parametrize(
        "rows, cols",
        [([1.5], [0]), ([1], [0.9]), (["1"], [0]), ([True], [0]), ([1], [None])],
    )
    def test_query_rejects_non_integer_ids(self, index, rows, cols):
        with pytest.raises(TypeError, match="integer node ids"):
            index.query(rows, cols)

    def test_query_accepts_integral_floats(self, index):
        np.testing.assert_array_equal(
            index.query(np.array([1.0, 2.0]), [0]), index.query([1, 2], [0])
        )

    @pytest.mark.parametrize("node", [1.5, "1", True, None])
    def test_top_matches_rejects_non_integer_node(self, index, node):
        with pytest.raises(TypeError, match="integer node ids"):
            index.top_matches(node)

    def test_top_pairs_matches_low_level(self, pair, index):
        graph_a, graph_b = pair
        ours = index.top_pairs(k=5)
        reference = top_k_pairs(graph_a, graph_b, k=5, iterations=6)
        assert [(p.node_a, p.node_b) for p in ours] == [
            (p.node_a, p.node_b) for p in reference
        ]

    def test_top_pairs_small_blocks(self, index):
        a = index.top_pairs(k=4, block_rows=3)
        b = index.top_pairs(k=4, block_rows=1024)
        assert [(p.node_a, p.node_b) for p in a] == [(p.node_a, p.node_b) for p in b]

    def test_top_pairs_scores_descending(self, index):
        scores = [p.score for p in index.top_pairs(k=6)]
        assert scores == sorted(scores, reverse=True)
