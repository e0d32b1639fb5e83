"""Storage substrate: disk accounting, point files, orderings."""

import numpy as np
import pytest

from repro.storage.disk import DiskConfig, PageRangeError, SimulatedDisk
from repro.storage.iostats import IOStats, QueryIOTracker
from repro.storage.ordering import (
    clustered_order,
    make_order,
    raw_order,
    sorted_key_order,
)
from repro.storage.pointfile import PointFile


class TestIOStats:
    def test_delta_and_add(self):
        a = IOStats(10, 5)
        b = IOStats(3, 2)
        assert a.delta(b).page_reads == 7
        assert (a + b).point_fetches == 7

    def test_reset(self):
        s = IOStats(4, 4)
        s.reset()
        assert s.page_reads == 0 and s.point_fetches == 0


class TestQueryIOTracker:
    def test_dedup_within_query(self):
        t = QueryIOTracker()
        assert t.needs_read(3)
        assert not t.needs_read(3)
        assert t.needs_read(4)
        assert t.page_reads == 2

    @pytest.mark.parametrize(
        "runs",
        [
            [range(3, 9), range(5, 12), range(0, 4)],  # overlapping
            [range(4, 4), range(0), range(7, 7)],  # empty
            [range(2, 6), range(2, 6), [5, 5, 5, 2]],  # repeated
            [np.arange(10, 20), np.array([], dtype=np.int64), range(15, 25)],
        ],
    )
    def test_read_pages_equals_per_page_loop(self, runs):
        loop, batched = QueryIOTracker(), QueryIOTracker()
        for run in runs:
            fresh = sum(loop.needs_read(int(page)) for page in run)
            assert batched.read_pages(run) == fresh
            assert batched.page_reads == loop.page_reads
            assert batched.pages_seen == loop.pages_seen
        assert all(type(page) is int for page in batched.pages_seen)


class TestSimulatedDisk:
    def test_counts_and_time(self):
        disk = SimulatedDisk(DiskConfig(read_latency_s=0.01))
        disk.read_page(0)
        disk.read_page(1)
        assert disk.stats.page_reads == 2
        assert disk.modeled_time() == pytest.approx(0.02)

    def test_tracker_dedup(self):
        disk = SimulatedDisk()
        t = QueryIOTracker()
        disk.read_page(5, t)
        disk.read_page(5, t)
        assert disk.stats.page_reads == 1

    def test_rejects_negative_page(self):
        with pytest.raises(ValueError):
            SimulatedDisk().read_page(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiskConfig(page_size=0)
        with pytest.raises(ValueError):
            DiskConfig(read_latency_s=-1)


class TestPointFile:
    @pytest.fixture()
    def pf(self):
        rng = np.random.default_rng(0)
        return PointFile(rng.normal(size=(100, 8)), value_bytes=4)

    def test_layout(self, pf):
        # 8 dims x 4 bytes = 32 bytes/point -> 128 points per 4 KB page.
        assert pf.point_size == 32
        assert pf.points_per_page == 128
        assert pf.file_bytes == 3200

    def test_fetch_returns_points(self, pf):
        out = pf.fetch(np.array([3, 7]))
        assert np.array_equal(out, pf.points[[3, 7]])

    def test_io_charged_per_page(self, pf):
        t = QueryIOTracker()
        pf.fetch(np.arange(50), t)
        assert t.page_reads == 1  # all on one page
        assert t.point_fetches == 50

    def test_big_points_span_pages(self):
        pts = np.zeros((4, 2048))  # 8 KB per point at 4 B values
        pf = PointFile(pts, value_bytes=4)
        assert pf.pages_per_point == 2
        t = QueryIOTracker()
        pf.fetch(np.array([1]), t)
        assert t.page_reads == 2

    def test_out_of_range(self, pf):
        with pytest.raises(IndexError):
            pf.fetch(np.array([500]))

    def test_ordering_changes_pages(self):
        pts = np.zeros((8, 1024))  # 1 point per page
        order = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        pf = PointFile(pts, order=order, value_bytes=4)
        assert pf.page_of(7) == 0
        assert pf.page_of(0) == 7

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            PointFile(np.zeros((3, 2)), order=np.array([0, 0, 2]))

    def test_clustered_order_reduces_io_for_cluster_queries(self):
        """Points of one cluster share pages under clustered ordering."""
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, size=(64, 32))
        b = rng.normal(50, 1, size=(64, 32))
        pts = np.empty((128, 32))
        pts[0::2] = a
        pts[1::2] = b  # interleaved: raw ordering mixes clusters
        order = clustered_order(pts, n_clusters=2, seed=0)
        pf_raw = PointFile(pts, value_bytes=4)
        pf_clu = PointFile(pts, order=order, value_bytes=4)
        cluster_a_ids = np.arange(0, 128, 2)
        t_raw, t_clu = QueryIOTracker(), QueryIOTracker()
        pf_raw.fetch(cluster_a_ids, t_raw)
        pf_clu.fetch(cluster_a_ids, t_clu)
        assert t_clu.page_reads <= t_raw.page_reads


class TestPointFileSingleFetch:
    """One-id ``fetch`` (refinement's path) against the multi-id path."""

    @staticmethod
    def _files():
        rng = np.random.default_rng(4)
        small = rng.normal(size=(300, 8))  # 128 records per page
        big = rng.normal(size=(9, 1500))  # 6000 B records span 2 pages
        return [
            PointFile(small, order=rng.permutation(300)),
            PointFile(big, order=rng.permutation(9)),
        ]

    @pytest.mark.parametrize("which", [0, 1])
    def test_matches_multi_id_path(self, which):
        one, many = self._files()[which], self._files()[which]
        n = one.num_points
        ids = np.random.default_rng(which).integers(n, size=40)
        t_one, t_many = QueryIOTracker(), QueryIOTracker()
        rows = np.concatenate([one.fetch(np.asarray([i]), t_one) for i in ids])
        assert np.array_equal(rows, many.fetch(ids, t_many))
        assert t_one.page_reads == t_many.page_reads > 0
        assert t_one.point_fetches == t_many.point_fetches == len(ids)
        assert one.disk.stats.page_reads == many.disk.stats.page_reads
        assert one.disk.stats.point_fetches == many.disk.stats.point_fetches
        # Untracked reads are charged per spanned page, undeduplicated.
        one.fetch(np.asarray([ids[0]]))
        assert one.disk.stats.page_reads == many.disk.stats.page_reads + one.pages_per_point

    def test_tracker_dedupes_repeat_reads(self):
        pf = self._files()[1]
        t = QueryIOTracker()
        pf.fetch(np.asarray([3]), t)
        pf.fetch(np.asarray([3]), t)
        assert t.page_reads == pf.pages_per_point == 2
        assert t.point_fetches == 2

    def test_rejects_bad_ids(self):
        pf = self._files()[0]
        pf.tombstone(np.asarray([5]))
        for bad in (-1, pf.num_points, 5):
            with pytest.raises(IndexError):
                pf.fetch(np.asarray([bad]))
        assert pf.disk.stats.page_reads == 0

    @pytest.mark.parametrize("which", [0, 1])
    def test_page_range_error_past_declared_extent(self, which):
        pf = self._files()[which]
        last = int(pf._order[-1])  # the record at the final file position
        pf.disk.n_pages = pf.page_of(last)  # a device cut short
        with pytest.raises(PageRangeError):
            pf.fetch(np.asarray([last]))
        with pytest.raises(PageRangeError):
            pf.fetch(np.asarray([last, last]))

    @pytest.mark.parametrize(
        "n, d, value_bytes",
        [(300, 8, 4), (9, 1500, 4), (5, 1024, 4), (7, 3, 8), (0, 16, 4)],
    )
    def test_page_rule_matches_record_layout(self, n, d, value_bytes):
        # Spelled out per case: shared pages, 2-page records, exactly one
        # page per record, wide values, and an empty file.
        pf = PointFile(
            np.zeros((n, d)), order=np.arange(n)[::-1].copy(), value_bytes=value_bytes
        )
        size, page = d * value_bytes, 4096
        if size >= page:
            want_first = [pos * -(-size // page) for pos in range(n)]
            want_pages = n * -(-size // page)
        else:
            want_first = [pos // (page // size) for pos in range(n)]
            want_pages = -(-n // (page // size))
        assert [pf.page_of(int(pid)) for pid in pf._order] == want_first
        assert pf.num_pages == want_pages

    def test_bad_id_in_batch_charges_nothing(self):
        pf = self._files()[1]
        pf.tombstone(np.asarray([5]))
        t = QueryIOTracker()
        for bad in ([0, 1, pf.num_points], [0, 1, 5], [0, -1]):
            with pytest.raises(IndexError):
                pf.fetch(np.asarray(bad), t)
        assert pf.disk.stats.page_reads == t.page_reads == 0
        assert pf.disk.stats.point_fetches == t.point_fetches == 0
        with pytest.raises(IndexError, match="out of range"):
            pf.fetch(np.asarray([5, pf.num_points]))

    def test_returns_a_copy(self):
        pf = self._files()[0]
        before = pf.points.copy()
        row = pf.fetch(np.asarray([7]))
        assert row.shape == (1, pf.dim)
        row[:] = 123.0
        assert np.array_equal(pf.points, before)


class TestOrderings:
    def test_raw_order(self):
        assert raw_order(4).tolist() == [0, 1, 2, 3]

    def test_all_orderings_are_permutations(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 5))
        for name in ("raw", "clustered", "sortedkey"):
            order = make_order(name, pts, seed=0)
            assert sorted(order.tolist()) == list(range(60))

    def test_sorted_key_groups_similar_points(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 0.5, size=(30, 8))
        b = rng.normal(30, 0.5, size=(30, 8))
        pts = np.concatenate([a, b])
        order = sorted_key_order(pts, seed=1)
        # Positions of cluster-a points should be contiguous-ish: measure
        # how often adjacent file slots hold same-cluster points.
        is_a = order < 30
        agreements = np.sum(is_a[:-1] == is_a[1:])
        assert agreements >= 50  # 59 max; random would be ~29

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            make_order("bogus", np.zeros((3, 2)))
