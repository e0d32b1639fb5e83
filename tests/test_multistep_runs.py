"""Refinement in runs: same answers, fetch order and I/O as one at a time.

``multistep_knn`` fetches every candidate the optimal multi-step rule is
bound to read as one run, with one fetcher call.  The one-at-a-time loop
it replaced is kept below as the reference: on any input both must return
the same ids, distances, exactness and fetch order, and charge the same
pages and point fetches, also when the device fails in the middle of a
run.  ``PointFile.fetch`` and ``BufferedPointFile.fetch`` on a run are
checked against the same ids fetched one by one and against the page
layout computed by hand.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import exact_distances
from repro.core.multistep import RefinementResult, multistep_knn
from repro.faults.disk import FaultyDisk
from repro.faults.errors import TransientIOError
from repro.faults.plan import FaultSpec
from repro.storage.bufferpool import BufferedPointFile, BufferPool
from repro.storage.disk import DiskConfig, PageRangeError, SimulatedDisk
from repro.storage.iostats import QueryIOTracker
from repro.storage.pointfile import PointFile


def reference_knn(
    query, candidate_ids, lower_bounds, k, fetcher,
    confirmed_ids=None, confirmed_ubs=None, tracker=None,
):
    """The one-candidate-per-call refinement loop ``multistep_knn`` replaced."""
    query = np.asarray(query, dtype=np.float64)
    candidate_ids = np.atleast_1d(np.asarray(candidate_ids, dtype=np.int64))
    lower_bounds = np.atleast_1d(np.asarray(lower_bounds, dtype=np.float64))
    confirmed_ids = (
        np.empty(0, dtype=np.int64) if confirmed_ids is None
        else np.atleast_1d(np.asarray(confirmed_ids, dtype=np.int64))
    )
    confirmed_ubs = (
        np.empty(0, dtype=np.float64) if confirmed_ubs is None
        else np.atleast_1d(np.asarray(confirmed_ubs, dtype=np.float64))
    )
    order = np.argsort(lower_bounds, kind="stable")
    sorted_ids = candidate_ids[order]
    sorted_lb = lower_bounds[order]
    best = []
    for cid, cub in zip(confirmed_ids.tolist(), confirmed_ubs.tolist()):
        heapq.heappush(best, (-float(cub), cid, False))

    def threshold():
        if len(best) < k:
            return float("inf")
        return -best[0][0]

    fetched = []
    for cid, lb in zip(sorted_ids.tolist(), sorted_lb.tolist()):
        if lb > threshold():
            break
        point = fetcher(np.asarray([cid], dtype=np.int64), tracker)
        dist = float(exact_distances(query, point)[0])
        fetched.append(cid)
        heapq.heappush(best, (-dist, cid, True))
        if len(best) > k:
            heapq.heappop(best)
    results = sorted(((-neg, cid, exact) for neg, cid, exact in best))
    return RefinementResult(
        ids=np.asarray([cid for _, cid, _ in results[:k]], dtype=np.int64),
        distances=np.asarray([d for d, _, _ in results[:k]], dtype=np.float64),
        exact_mask=np.asarray([e for _, _, e in results[:k]], dtype=bool),
        fetched_ids=np.asarray(fetched, dtype=np.int64),
    )


def counting(fetch):
    """Wrap a fetcher; ``calls`` records the size of every call."""
    calls = []

    def wrapped(ids, tracker=None):
        calls.append(len(ids))
        return fetch(ids, tracker)

    return wrapped, calls


def make_file(points, order, faults=None):
    disk = SimulatedDisk(DiskConfig())
    if faults is not None:
        disk = FaultyDisk(disk, faults)
    return PointFile(points, disk=disk, order=order)


def io_counts(point_file, tracker):
    return (
        tracker.page_reads,
        tracker.pages_seen,
        tracker.point_fetches,
        point_file.disk.stats.page_reads,
        point_file.disk.stats.point_fetches,
    )


def assert_same_result(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.exact_mask, want.exact_mask)
    assert np.array_equal(got.fetched_ids, want.fetched_ids)


@st.composite
def refinement_cases(draw):
    """Points, a query, candidates with sound lower bounds, confirmed ids.

    Lower bounds are exact distances scaled down and snapped to a coarse
    grid, so ties, zeros (cache misses) and tight bounds all occur;
    confirmed candidates enter with sound (>= exact) upper bounds.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 60))
    d = draw(st.sampled_from([3, 8, 37]))
    points = np.rint(rng.uniform(0, 16, size=(n, d)))
    query = np.rint(rng.uniform(0, 16, size=d))
    dist = np.linalg.norm(points - query, axis=1)
    ids = rng.permutation(n)
    n_confirmed = draw(st.integers(0, min(n, 12)))
    confirmed, candidates = ids[:n_confirmed], ids[n_confirmed:]
    shape = draw(st.sampled_from(["zeros", "tight", "scaled", "snapped", "mixed"]))
    exact = dist[candidates]
    if shape == "zeros":
        lb = np.zeros(len(candidates))
    elif shape == "tight":
        lb = exact.copy()
    else:
        lb = exact * rng.uniform(0.3, 1.0, size=len(candidates))
        if shape in ("snapped", "mixed"):
            lb = np.floor(lb / 4.0) * 4.0
        if shape == "mixed":
            lb[rng.random(len(candidates)) < 0.4] = 0.0
    ub = dist[confirmed] + np.floor(rng.uniform(0, 3, size=n_confirmed))
    k = draw(st.sampled_from([1, 10, n + 5]))
    order = rng.permutation(n)
    return points, order, query, candidates, lb, k, confirmed, ub


class TestRunsMatchOneAtATime:
    @settings(max_examples=300, deadline=None)
    @given(refinement_cases())
    def test_same_answers_fetch_order_and_io(self, case):
        points, order, query, candidates, lb, k, confirmed, ub = case
        results, counts, calls = [], [], []
        for knn in (reference_knn, multistep_knn):
            pf = make_file(points, order)
            tracker = QueryIOTracker()
            fetch, sizes = counting(pf.fetch)
            results.append(knn(query, candidates, lb, k, fetch,
                               confirmed_ids=confirmed, confirmed_ubs=ub,
                               tracker=tracker))
            counts.append(io_counts(pf, tracker))
            calls.append(sizes)
        want, got = results
        assert_same_result(got, want)
        assert counts[1] == counts[0]
        assert sum(calls[1]) == sum(calls[0]) == want.num_fetched
        assert len(calls[1]) <= len(calls[0])

    @pytest.mark.parametrize("k", [1, 10, 500])
    def test_cache_misses_are_one_run(self, k):
        rng = np.random.default_rng(k)
        points = rng.normal(size=(300, 8))
        pf = make_file(points, None)
        fetch, sizes = counting(pf.fetch)
        res = multistep_knn(points[0], np.arange(300), np.zeros(300), k, fetch)
        # Every lower bound is 0 (tied at the floor), so the rule reads
        # them all, in a single call.
        assert sizes == [300]
        assert res.num_fetched == 300

    def test_floor_counts_confirmed_upper_bounds(self):
        # Two confirmed results with upper bounds 0.5 and 1.0 cap every
        # later threshold at 1.0: no candidate is read, although the
        # k-th smallest lower bound alone (4.0) would admit two of them.
        points = np.asarray([[0.0], [1.0], [3.0], [5.0], [6.0], [7.0]])
        query = np.zeros(1)
        candidates = np.asarray([2, 3, 4, 5])
        lb = np.asarray([2.0, 4.0, 5.0, 6.0])
        for knn in (reference_knn, multistep_knn):
            res = knn(query, candidates, lb, 2, make_file(points, None).fetch,
                      confirmed_ids=np.asarray([0, 1]),
                      confirmed_ubs=np.asarray([0.5, 1.0]))
            assert res.num_fetched == 0
            assert res.ids.tolist() == [0, 1]

    def test_first_run_is_the_k_smallest_bounds(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(40, 4))
        query = points[0]
        lb = exact_distances(query, points) * 0.5
        pf = make_file(points, None)
        fetch, sizes = counting(pf.fetch)
        got = multistep_knn(query, np.arange(40), lb, 5, fetch)
        want = reference_knn(query, np.arange(40), lb, 5,
                             make_file(points, None).fetch)
        assert_same_result(got, want)
        assert sizes[0] == 5


class TestFaultMidRun:
    @pytest.mark.parametrize("d", [128, 1500])  # 8 records a page; 2 pages each
    @pytest.mark.parametrize("period", [2, 3, 7, 19, 40])
    @pytest.mark.parametrize("tracked", [True, False])
    def test_same_exception_and_counts(self, d, period, tracked):
        rng = np.random.default_rng(period)
        n = 400 if d == 128 else 60  # 50 pages; 120 pages
        points = rng.normal(size=(n, d))
        order = rng.permutation(n)
        lb = np.zeros(n)  # one run of every candidate: the fault is inside it
        seen = []
        for knn in (reference_knn, multistep_knn):
            pf = make_file(points, order, FaultSpec(transient_period=period))
            tracker = QueryIOTracker() if tracked else None
            with pytest.raises(TransientIOError) as info:
                knn(points[0], np.arange(n), lb, 5, pf.fetch, tracker=tracker)
            seen.append((
                str(info.value),
                None if tracker is None else (
                    tracker.page_reads, tracker.pages_seen, tracker.point_fetches
                ),
                pf.disk.stats.page_reads,
                pf.disk.stats.point_fetches,
                pf.disk.plan.attempts,
                dict(pf.disk.plan.counters),
            ))
        assert seen[1] == seen[0]
        assert seen[0][4] == period
        assert seen[0][3] < n


class TestFetchRuns:
    @staticmethod
    def _files(which, make=PointFile):
        rng = np.random.default_rng(4)
        if which == "shared":
            points, order = rng.normal(size=(300, 8)), rng.permutation(300)
        elif which == "spanning":  # 6000 B records span 2 pages
            points, order = rng.normal(size=(9, 1500)), rng.permutation(9)
        else:  # 4096 B records fill exactly one page
            points, order = rng.normal(size=(7, 1024)), rng.permutation(7)
        return make(points, order=order), make(points, order=order)

    @pytest.mark.parametrize("which", ["shared", "spanning", "page"])
    def test_run_matches_per_id_loop_and_layout(self, which):
        run_file, loop_file = self._files(which)
        n = run_file.num_points
        ids = np.random.default_rng(5).integers(n, size=40)
        t_run, t_loop = QueryIOTracker(), QueryIOTracker()
        rows = run_file.fetch(ids, t_run)
        loop_rows = np.concatenate(
            [loop_file.fetch(np.asarray([i]), t_loop) for i in ids]
        )
        assert np.array_equal(rows, loop_rows)
        assert np.array_equal(rows, run_file.points[ids])
        assert io_counts(run_file, t_run) == io_counts(loop_file, t_loop)
        # The pages each record spans, computed by hand.
        span = run_file.pages_per_point
        layout = [run_file.page_of(int(i)) + s for i in ids for s in range(span)]
        assert t_run.pages_seen == set(layout)
        assert t_run.page_reads == len(set(layout))
        assert t_run.point_fetches == run_file.disk.stats.point_fetches == len(ids)
        # Untracked, every page of every record is a read.
        before = run_file.disk.stats.page_reads
        run_file.fetch(ids)
        assert run_file.disk.stats.page_reads - before == len(layout)

    def test_empty_run_charges_nothing(self):
        pf, _ = self._files("shared")
        t = QueryIOTracker()
        assert pf.fetch(np.empty(0, dtype=np.int64), t).shape == (0, 8)
        assert io_counts(pf, t) == (0, set(), 0, 0, 0)

    @pytest.mark.parametrize("which", ["shared", "spanning"])
    def test_page_range_error_mid_run_keeps_the_prefix(self, which):
        run_file, loop_file = self._files(which)
        last = int(run_file._order[-1])  # the record at the final position
        ids = np.asarray([int(run_file._order[0]), last, int(run_file._order[0])])
        for pf in (run_file, loop_file):
            pf.disk.n_pages = pf.page_of(last) + pf.pages_per_point - 1
        t_run, t_loop = QueryIOTracker(), QueryIOTracker()
        with pytest.raises(PageRangeError):
            run_file.fetch(ids, t_run)
        with pytest.raises(PageRangeError):
            for i in ids:
                loop_file.fetch(np.asarray([i]), t_loop)
        assert io_counts(run_file, t_run) == io_counts(loop_file, t_loop)
        assert t_run.point_fetches == 1

    @pytest.mark.parametrize("which", ["shared", "spanning"])
    def test_buffered_run_matches_per_id_loop(self, which):
        run_file, loop_file = self._files(which)
        pools = BufferPool(3 * 4096), BufferPool(3 * 4096)
        run_buf = BufferedPointFile(run_file, pools[0])
        loop_buf = BufferedPointFile(loop_file, pools[1])
        ids = np.random.default_rng(6).integers(run_file.num_points, size=30)
        for _ in range(2):
            t_run, t_loop = QueryIOTracker(), QueryIOTracker()
            rows = run_buf.fetch(ids, t_run)
            loop_rows = np.concatenate(
                [loop_buf.fetch(np.asarray([i]), t_loop) for i in ids]
            )
            assert np.array_equal(rows, loop_rows)
            assert io_counts(run_file, t_run) == io_counts(loop_file, t_loop)
            assert pools[0].stats() == pools[1].stats()

    def test_buffered_rejects_tombstoned_and_negative_ids(self):
        pf, _ = self._files("shared")
        buffered = BufferedPointFile(pf, BufferPool(1 << 16))
        pf.tombstone(np.asarray([5]))
        t = QueryIOTracker()
        with pytest.raises(IndexError, match="tombstoned"):
            buffered.fetch(np.asarray([5]), t)
        with pytest.raises(IndexError, match="out of range"):
            buffered.fetch(np.asarray([-1]), t)
        with pytest.raises(IndexError, match="out of range"):
            buffered.fetch(np.asarray([0, pf.num_points]), t)
        assert io_counts(pf, t) == (0, set(), 0, 0, 0)
        assert buffered.pool.stats().misses == 0


class TestReadPages:
    @pytest.mark.parametrize("faulty", [False, True])
    def test_equals_read_page_loop(self, faulty):
        def make():
            disk = SimulatedDisk(DiskConfig(), n_pages=20)
            if faulty:
                disk = FaultyDisk(disk, FaultSpec(transient_period=100))
            return disk

        runs = [[3, 3, 4], [], [4, 5, 19, 0], [7]]
        for tracked in (True, False):
            run_disk, loop_disk = make(), make()
            t_run = QueryIOTracker() if tracked else None
            t_loop = QueryIOTracker() if tracked else None
            for run in runs:
                run_disk.read_pages(np.asarray(run, dtype=np.int64), t_run)
                for page in run:
                    loop_disk.read_page(page, t_loop)
            assert run_disk.stats.page_reads == loop_disk.stats.page_reads
            if tracked:
                assert t_run.pages_seen == t_loop.pages_seen
                assert t_run.page_reads == t_loop.page_reads

    @pytest.mark.parametrize("faulty", [False, True])
    def test_out_of_range_charges_prefix(self, faulty):
        disk = SimulatedDisk(DiskConfig(), n_pages=10)
        if faulty:
            disk = FaultyDisk(disk, FaultSpec())
        t = QueryIOTracker()
        with pytest.raises(PageRangeError) as info:
            disk.read_pages(np.asarray([1, 2, 1, 10, 3]), t)
        assert info.value.pages_done == 3
        assert t.pages_seen == {1, 2}
        assert disk.stats.page_reads == 2


@pytest.mark.parametrize("d", [3, 8, 37, 150, 960, 4096])
def test_exact_distances_of_a_run_equal_single_rows(d):
    rng = np.random.default_rng(d)
    points = rng.normal(size=(33, d)) * 100.0
    query = rng.normal(size=d) * 100.0
    run = exact_distances(query, points)
    for i in range(len(points)):
        assert run[i] == exact_distances(query, points[i : i + 1])[0]
