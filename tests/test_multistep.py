"""Multi-step refinement: exactness and fetch-optimality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import exact_distances
from repro.core.multistep import multistep_knn
from repro.storage.pointfile import PointFile
from tests.conftest import assert_valid_knn


def _fetcher(points):
    calls = []

    def fetch(ids, tracker=None):
        calls.extend(np.atleast_1d(ids).tolist())
        return points[np.atleast_1d(ids)]

    return fetch, calls


class TestCorrectness:
    def test_no_bounds_fetches_everything(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 4))
        fetch, calls = _fetcher(pts)
        res = multistep_knn(pts[0], np.arange(30), np.zeros(30), 5, fetch)
        assert len(calls) == 30
        assert_valid_knn(pts, pts[0], 5, res.ids)

    def test_tight_bounds_fetch_less(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 4))
        q = pts[0]
        dist = np.linalg.norm(pts - q, axis=1)
        fetch, calls = _fetcher(pts)
        res = multistep_knn(q, np.arange(50), dist, 5, fetch)
        # Exact lower bounds: the optimal algorithm fetches exactly k... or
        # slightly more on ties.
        assert len(calls) <= 7
        assert_valid_knn(pts, q, 5, res.ids)

    def test_confirmed_count_toward_k(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3)) + 10
        q = np.zeros(3)
        dist = np.linalg.norm(pts - q, axis=1)
        order = np.argsort(dist)
        confirmed = order[:2]
        rest = order[2:]
        fetch, calls = _fetcher(pts)
        res = multistep_knn(
            q,
            rest,
            dist[rest],
            4,
            fetch,
            confirmed_ids=confirmed,
            confirmed_ubs=dist[confirmed] + 0.01,
        )
        assert set(confirmed.tolist()) <= set(res.ids.tolist())
        assert_valid_knn(pts, q, 4, res.ids)

    def test_confirmed_never_displaced(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        q = np.array([0.0])
        res = multistep_knn(
            q,
            np.array([1, 2, 3]),
            np.array([1.0, 2.0, 3.0]),
            2,
            _fetcher(pts)[0],
            confirmed_ids=np.array([0]),
            confirmed_ubs=np.array([0.5]),
        )
        assert 0 in res.ids

    def test_fewer_candidates_than_k(self):
        pts = np.array([[0.0], [5.0]])
        fetch, _ = _fetcher(pts)
        res = multistep_knn(np.array([1.0]), np.array([0, 1]), np.zeros(2), 9, fetch)
        assert len(res.ids) == 2

    def test_empty_candidates(self):
        pts = np.zeros((1, 2))
        fetch, calls = _fetcher(pts)
        res = multistep_knn(np.zeros(2), np.empty(0, dtype=int), np.empty(0), 3, fetch)
        assert res.ids.size == 0
        assert not calls

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            multistep_knn(np.zeros(2), np.array([0]), np.array([0.0]), 0, lambda i, t: None)

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            multistep_knn(
                np.zeros(2), np.array([0, 1]), np.array([0.0]), 1, lambda i, t: None
            )

    def test_exact_mask_distinguishes_confirmed(self):
        pts = np.array([[0.0], [1.0], [9.0]])
        fetch, _ = _fetcher(pts)
        res = multistep_knn(
            np.array([0.0]),
            np.array([1, 2]),
            np.array([1.0, 9.0]),
            2,
            fetch,
            confirmed_ids=np.array([0]),
            confirmed_ubs=np.array([0.2]),
        )
        by_id = dict(zip(res.ids.tolist(), res.exact_mask.tolist()))
        assert by_id[0] is False  # confirmed: upper bound, not exact
        assert by_id[1] is True

    def test_pointfile_integration_counts_io(self):
        rng = np.random.default_rng(3)
        pts = np.rint(rng.uniform(0, 255, size=(100, 8)))
        pf = PointFile(pts)
        from repro.storage.iostats import QueryIOTracker

        tracker = QueryIOTracker()
        res = multistep_knn(
            pts[0], np.arange(100), np.zeros(100), 3, pf.fetch, tracker=tracker
        )
        assert tracker.page_reads > 0
        assert res.num_fetched == 100


class TestOptimality:
    def test_never_fetches_beyond_threshold(self):
        """Seidl-Kriegel optimality: with exact lower bounds, no candidate
        whose bound exceeds the k-th result distance is fetched."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 6))
        q = rng.normal(size=6)
        dist = np.linalg.norm(pts - q, axis=1)
        fetch, calls = _fetcher(pts)
        k = 7
        multistep_knn(q, np.arange(200), dist, k, fetch)
        kth = np.sort(dist)[k - 1]
        assert all(dist[c] <= kth + 1e-12 for c in calls)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_property_exact_with_valid_bounds(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 60))
        pts = rng.normal(size=(n, 3)) * 10
        q = rng.normal(size=3) * 10
        dist = np.linalg.norm(pts - q, axis=1)
        lb = np.maximum(dist - rng.uniform(0, 5, size=n), 0.0)
        fetch, _ = _fetcher(pts)
        res = multistep_knn(q, np.arange(n), lb, k, fetch)
        assert_valid_knn(pts, q, k, res.ids)


class TestDistanceBits:
    @pytest.mark.parametrize("d", [3, 40, 300])
    def test_distances_bit_identical_to_exact_distances(self, d):
        # One pairwise-summation regime of np.sum per d (< 8, <= 128, > 128).
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(80, d)) * rng.uniform(0.01, 1e3, size=d)
        q = rng.normal(size=d) * 50
        pf = PointFile(pts)
        res = multistep_knn(q, np.arange(80), np.zeros(80), 80, pf.fetch)
        assert res.exact_mask.all()
        want = exact_distances(q, pts[res.ids])
        assert res.distances.tobytes() == want.tobytes()
