"""Unit tests for repro.analysis accuracy metrics."""

import numpy as np
import pytest

from repro.analysis import frobenius_error


class TestAccuracyMetrics:
    def test_frobenius_zero_on_identical(self, rng):
        m = rng.standard_normal((4, 5))
        assert frobenius_error(m, m) == 0.0

    def test_frobenius_known_value(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_error(a, b) == pytest.approx(5.0)

    def test_frobenius_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frobenius_error(np.ones((2, 2)), np.ones((3, 3)))
