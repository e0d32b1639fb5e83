"""Distance bounds: the sandwich property and Lemma 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    error_vector_norms,
    exact_distances,
    kth_smallest,
    rectangle_bounds,
)


class TestRectangleBounds:
    def test_point_rectangle_gives_exact_distance(self):
        q = np.array([0.0, 0.0])
        p = np.array([[3.0, 4.0]])
        lb, ub = rectangle_bounds(q, p, p)
        assert lb[0] == pytest.approx(5.0)
        assert ub[0] == pytest.approx(5.0)

    def test_query_inside_rectangle(self):
        q = np.array([1.0, 1.0])
        lb, ub = rectangle_bounds(q, np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]]))
        assert lb[0] == 0.0
        assert ub[0] == pytest.approx(np.sqrt(2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rectangle_bounds(np.zeros(3), np.zeros((1, 2)), np.ones((1, 2)))

    def test_vectorized_shapes(self):
        q = np.zeros(4)
        lo = np.zeros((7, 4))
        hi = np.ones((7, 4))
        lb, ub = rectangle_bounds(q, lo, hi)
        assert lb.shape == ub.shape == (7,)

    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_property_sandwich(self, seed, dim):
        """lb <= dist(q, p) <= ub for any p inside the rectangle."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=dim) * 10
        lo = rng.normal(size=(5, dim)) * 10
        hi = lo + rng.uniform(0, 5, size=(5, dim))
        # p uniformly inside each rectangle.
        p = lo + rng.uniform(size=(5, dim)) * (hi - lo)
        lb, ub = rectangle_bounds(q, lo, hi)
        dist = exact_distances(q, p)
        assert np.all(lb <= dist + 1e-9)
        assert np.all(dist <= ub + 1e-9)

    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_property_lemma1(self, seed, dim):
        """Lemma 1: dist+ - dist <= ||error vector||."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=dim) * 10
        lo = rng.normal(size=(5, dim)) * 10
        hi = lo + rng.uniform(0, 5, size=(5, dim))
        p = lo + rng.uniform(size=(5, dim)) * (hi - lo)
        _, ub = rectangle_bounds(q, lo, hi)
        dist = exact_distances(q, p)
        eps = error_vector_norms(lo, hi)
        assert np.all(ub - dist <= eps + 1e-9)


class TestExactDistances:
    def test_known_values(self):
        d = exact_distances(np.zeros(2), np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert d.tolist() == [5.0, 0.0]

    @pytest.mark.parametrize("d", [3, 40, 300])
    def test_bits_match_reference_formula(self, d):
        # One pairwise-summation regime of the row sum per d (< 8, <= 128,
        # > 128), for a batch, one row and a 1-D point.
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(20, d)) * rng.uniform(0.01, 1e3, size=d)
        q = rng.normal(size=d) * 50
        for p in (pts, pts[3:4], pts[3], pts[:, ::-1].T.T[:, ::-1]):
            want = np.sqrt(np.sum((np.atleast_2d(p) - q) ** 2, axis=-1))
            assert exact_distances(q, p).tobytes() == want.tobytes()

    def test_shapes(self):
        assert exact_distances(np.zeros(3), np.ones(3)).shape == (1,)
        assert exact_distances(np.zeros(1), np.float64(2.0)).tolist() == [2.0]
        assert exact_distances(np.zeros(2), np.ones((4, 2))).shape == (4,)


class TestErrorVectorNorms:
    def test_zero_width(self):
        r = np.array([[1.0, 2.0]])
        assert error_vector_norms(r, r)[0] == 0.0

    def test_matches_manual(self):
        lo = np.array([[0.0, 0.0]])
        hi = np.array([[3.0, 4.0]])
        assert error_vector_norms(lo, hi)[0] == pytest.approx(5.0)


class TestKthSmallest:
    def test_basic(self):
        assert kth_smallest(np.array([5.0, 1.0, 3.0]), 2) == 3.0

    def test_k_beyond_size_is_inf(self):
        assert kth_smallest(np.array([1.0]), 2) == float("inf")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kth_smallest(np.array([1.0]), 0)

    def test_with_infinities(self):
        vals = np.array([np.inf, 2.0, np.inf])
        assert kth_smallest(vals, 1) == 2.0
        assert kth_smallest(vals, 2) == np.inf
