"""Unit tests for repro.core.embeddings.LowRankFactors."""

import math

import numpy as np
import pytest

from repro.core import LowRankFactors
from repro.core.gsim_plus import NUMERICAL_RANK_TOL


def random_factors(rng, n=7, m=5, w=3, log_scale=0.0):
    return LowRankFactors(
        rng.standard_normal((n, w)), rng.standard_normal((m, w)), log_scale
    )


class TestConstruction:
    def test_shape_and_width(self, rng):
        f = random_factors(rng)
        assert f.shape == (7, 5)
        assert f.width == 3

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            LowRankFactors(np.ones((3, 2)), np.ones((4, 3)))

    def test_ones(self):
        f = LowRankFactors.ones(4, 6)
        assert f.shape == (4, 6)
        assert f.width == 1
        np.testing.assert_array_equal(f.materialize(), np.ones((4, 6)))

    def test_ones_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LowRankFactors.ones(0, 3)

    def test_vectors_promoted_to_2d(self):
        f = LowRankFactors(np.ones(3), np.ones(3))
        # atleast_2d turns (3,) into (1, 3): a width-3 pair of row factors.
        assert f.width == 3

    def test_memory_bytes(self, rng):
        f = random_factors(rng)
        assert f.memory_bytes() == (7 * 3 + 5 * 3) * 8


class TestFactoredAlgebra:
    def test_frobenius_matches_dense(self, rng):
        f = random_factors(rng)
        dense = f.materialize()
        assert f.frobenius_norm() == pytest.approx(np.linalg.norm(dense))

    def test_frobenius_with_scale(self, rng):
        f = random_factors(rng, log_scale=2.0)
        dense_norm = np.linalg.norm(f.u @ f.v.T) * math.exp(2.0)
        assert f.frobenius_norm() == pytest.approx(dense_norm)

    def test_frobenius_exclude_scale(self, rng):
        f = random_factors(rng, log_scale=5.0)
        assert f.frobenius_norm(include_scale=False) == pytest.approx(
            np.linalg.norm(f.u @ f.v.T)
        )

    def test_normalized_distance_matches_dense(self, rng):
        f = random_factors(rng)
        g = random_factors(rng)
        a = f.materialize() / np.linalg.norm(f.materialize())
        b = g.materialize() / np.linalg.norm(g.materialize())
        assert f.normalized_distance(g) == pytest.approx(
            np.linalg.norm(a - b), abs=1e-10
        )

    def test_normalized_distance_self_is_zero(self, rng):
        f = random_factors(rng)
        assert f.normalized_distance(f) == pytest.approx(0.0, abs=1e-7)

    def test_normalized_distance_ignores_scale(self, rng):
        f = random_factors(rng)
        g = LowRankFactors(f.u.copy(), f.v.copy(), log_scale=9.0)
        assert f.normalized_distance(g) == pytest.approx(0.0, abs=1e-7)

    def test_normalized_distance_zero_matrix_raises(self):
        zero = LowRankFactors(np.zeros((2, 1)), np.zeros((3, 1)))
        other = LowRankFactors.ones(2, 3)
        with pytest.raises(ZeroDivisionError):
            zero.normalized_distance(other)


class TestQueryBlock:
    def test_block_matches_dense_slice(self, rng):
        f = random_factors(rng)
        dense = f.materialize()
        block = f.query_block([1, 3], [0, 2, 4])
        np.testing.assert_allclose(block, dense[np.ix_([1, 3], [0, 2, 4])])

    def test_block_respects_scale(self, rng):
        f = random_factors(rng, log_scale=1.5)
        block = f.query_block([0], [0])
        assert block[0, 0] == pytest.approx(f.materialize()[0, 0])

    def test_row_out_of_range(self, rng):
        with pytest.raises(IndexError, match="row"):
            random_factors(rng).query_block([99], [0])

    def test_col_out_of_range(self, rng):
        with pytest.raises(IndexError, match="column"):
            random_factors(rng).query_block([0], [99])


class TestConditioning:
    # The cut every index build makes: width at most min(n_rows, n_cols).
    def test_compressed_reduces_width(self, rng):
        # width 10 > min(4, 6): the cut must leave 4.
        f = LowRankFactors(
            rng.standard_normal((4, 10)), rng.standard_normal((6, 10))
        )
        compressed = f.recompressed(NUMERICAL_RANK_TOL)
        assert compressed.width == 4
        np.testing.assert_allclose(
            compressed.materialize(), f.materialize(), atol=1e-10
        )

    def test_compressed_wide_other_side(self, rng):
        f = LowRankFactors(
            rng.standard_normal((6, 10)), rng.standard_normal((4, 10))
        )
        compressed = f.recompressed(NUMERICAL_RANK_TOL)
        assert compressed.width == 4
        np.testing.assert_allclose(
            compressed.materialize(), f.materialize(), atol=1e-10
        )

    def test_compressed_noop_when_slim(self, rng):
        f = random_factors(rng)  # width 3 < min(7, 5), full rank
        assert f.recompressed(NUMERICAL_RANK_TOL).width == 3

    def test_repr(self, rng):
        assert "width=3" in repr(random_factors(rng))
