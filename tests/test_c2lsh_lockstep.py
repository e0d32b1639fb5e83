"""C2LSH's lock-step, ring-counting search against the per-function loop.

``reference_candidates`` is the straightforward form of dynamic collision
counting: at every radius level it searches each function's sorted run in
turn, charges each run's pages with one ``needs_read`` per page, and
recounts collisions from zero.  ``C2LSHIndex.candidates`` must return the
same ids in the same order and leave the same pages behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lsh.c2lsh import (
    C2LSHIndex,
    C2LSHParams,
    lockstep_searchsorted,
    ragged_arange,
)
from repro.storage.iostats import QueryIOTracker


def reference_candidates(
    index: C2LSHIndex, query: np.ndarray, k: int, tracker: QueryIOTracker
) -> tuple[np.ndarray, bool]:
    """``(ids, fell_back)`` by the per-function loop over every level."""
    query = np.asarray(query, dtype=np.float64)
    hq = index.family.hash(query[None, :])[0]
    n, m = index.n_points, index.n_hashes
    target = k + max(1, int(index.params.beta * n))
    counts = np.zeros(n, dtype=np.int32)
    radius = 1
    for _ in range(index.params.max_levels):
        counts[:] = 0
        whole = 0
        for i in range(m):
            bucket = hq[i] // radius
            row = index._sorted_hashes[i]
            lo = int(np.searchsorted(row, bucket * radius, "left"))
            hi = int(np.searchsorted(row, (bucket + 1) * radius, "left"))
            if hi > lo:
                base = i * index._pages_per_table
                first = lo // index.entries_per_page
                last = (hi - 1) // index.entries_per_page
                for page in range(first, last + 1):
                    tracker.needs_read(base + page)
            counts[index._sorted_ids[i, lo:hi]] += 1
            if hi - lo == n:
                whole += 1
        hits = counts >= index.collision_threshold
        found = int(np.sum(hits))
        if found >= min(target, n) or whole == m:
            break
        if index._points is not None and found >= k:
            ids_now = np.flatnonzero(hits)
            dists = np.linalg.norm(index._points[ids_now] - query, axis=1)
            if int(np.sum(dists <= index.params.c * radius * index.base_radius)) >= k:
                break
        radius *= index.params.c
    ids = np.flatnonzero(counts >= index.collision_threshold)
    fell_back = ids.size == 0
    if fell_back:
        take = min(target, n)
        ids = np.argpartition(-counts, take - 1)[:take]
    order = np.lexsort((ids, -counts[ids]))
    return ids[order].astype(np.int64), fell_back


def assert_matches_reference(index, queries, k) -> list[bool]:
    """Compare every query; return which ones took the fallback."""
    fallbacks = []
    for q in queries:
        t_new, t_ref = QueryIOTracker(), QueryIOTracker()
        got = index.candidates(q, k, t_new)
        want, fell_back = reference_candidates(index, q, k, t_ref)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert t_new.pages_seen == t_ref.pages_seen
        assert t_new.page_reads == t_ref.page_reads
        fallbacks.append(fell_back)
    return fallbacks


@pytest.fixture(scope="module")
def signed_points() -> np.ndarray:
    """Clustered data centred on the origin, so hashes take both signs."""
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=30.0, size=(4, 8))
    return np.concatenate(
        [c + rng.normal(scale=6.0, size=(150, 8)) for c in centers]
    )


def probe_queries(points: np.ndarray, n: int = 6, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    near = points[rng.choice(len(points), n, replace=False)]
    return near + rng.normal(scale=2.0, size=near.shape)


class TestLockstepSearchsorted:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 341, 1000])
    def test_matches_searchsorted_per_row(self, n):
        rng = np.random.default_rng(n)
        rows = np.sort(rng.integers(-20, 20, size=(9, n)), axis=1)
        targets = rng.integers(-25, 25, size=(4, 9))
        got = lockstep_searchsorted(rows, targets)
        want = np.array(
            [
                [np.searchsorted(rows[i], t[i], "left") for i in range(9)]
                for t in targets
            ]
        )
        assert np.array_equal(got, want)

    def test_single_target_row_shape(self):
        rows = np.array([[1, 3, 3, 5], [-4, -2, 0, 0]])
        got = lockstep_searchsorted(rows, np.array([3, 1]))
        assert got.tolist() == [1, 4]


class TestRaggedArange:
    def test_concatenates_runs(self):
        got = ragged_arange(np.array([10, 0, 5, 7]), np.array([3, 0, 1, 2]))
        assert got.tolist() == [10, 11, 12, 5, 7, 8]

    def test_empty(self):
        none = np.array([], dtype=np.int64)
        assert ragged_arange(none, none).size == 0
        assert ragged_arange(np.array([4, 9]), np.array([0, 0])).size == 0


class TestAgainstPerFunctionLoop:
    @pytest.mark.parametrize("use_t2", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_random_signed_data(self, signed_points, k, use_t2):
        index = C2LSHIndex(
            signed_points, C2LSHParams(use_t2=use_t2, n_hashes=40), seed=3
        )
        assert index._sorted_hashes.min() < 0 < index._sorted_hashes.max()
        assert_matches_reference(index, probe_queries(signed_points), k)

    @pytest.mark.parametrize("max_levels", [1, 2, 24])
    def test_level_caps(self, signed_points, max_levels):
        index = C2LSHIndex(
            signed_points,
            C2LSHParams(max_levels=max_levels, c=3, n_hashes=24),
            seed=4,
            page_size=256,
        )
        assert_matches_reference(index, probe_queries(signed_points), 10)

    def test_degenerate_fallback(self, signed_points):
        # Queries far from the data and one level: no id collides often
        # enough, so the heaviest colliders are returned.
        index = C2LSHIndex(
            signed_points, C2LSHParams(max_levels=1, n_hashes=32), seed=6
        )
        far = probe_queries(signed_points) + 300.0
        assert all(assert_matches_reference(index, far, 10))

    def test_whole_table_stop(self, signed_points):
        # Buckets far wider than the data: every range spans all n.
        index = C2LSHIndex(
            signed_points,
            C2LSHParams(width_factor=1e6, beta=1.0, n_hashes=16),
            seed=7,
        )
        q = probe_queries(signed_points)[0]
        hq = index.family.hash(q[None, :])[0]
        assert np.all(index._sorted_hashes == hq[:, None])
        tracker = QueryIOTracker()
        assert len(index.candidates(q, 5, tracker)) == index.n_points
        assert_matches_reference(index, probe_queries(signed_points), 5)

    def test_fewer_points_than_a_page(self, signed_points):
        small = signed_points[::40]
        index = C2LSHIndex(small, C2LSHParams(n_hashes=20), seed=8)
        assert index.n_points < index.entries_per_page
        assert_matches_reference(index, probe_queries(small, n=4), 3)

    @pytest.mark.parametrize("use_t2", [False, True])
    def test_after_insert_many(self, signed_points, use_t2):
        index = C2LSHIndex(
            signed_points[:400],
            C2LSHParams(use_t2=use_t2, n_hashes=32),
            seed=9,
            page_size=512,
        )
        index.insert_many(signed_points[400:])
        assert index.n_points == len(signed_points)
        assert_matches_reference(index, probe_queries(signed_points), 10)

    def test_tiny_dataset_defaults(self, tiny_dataset):
        index = C2LSHIndex(tiny_dataset.points, seed=0)
        queries = tiny_dataset.query_log.test[:8]
        assert_matches_reference(index, queries, 10)


def test_non_integer_ratio_rejected():
    with pytest.raises(ValueError, match="integer"):
        C2LSHParams(c=2.5)
