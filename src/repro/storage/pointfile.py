"""The sequential data-point file of the paper's framework.

The point set ``P`` lives in a flat file of fixed-size records, addressable
by point identifier (paper Section 2.1).  Candidate refinement fetches
records through this file and pays page reads on the simulated disk.
"""

from __future__ import annotations

import numpy as np

from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.iostats import QueryIOTracker


class PointFile:
    """Fixed-record file of d-dimensional points with id -> page mapping.

    Args:
        points: ``(n, d)`` array; row ``i`` is the point with identifier ``i``.
        disk: the simulated device charged for reads (a private one is
            created when omitted).
        order: optional permutation mapping *file position* -> point id,
            controlling physical placement (see repro.storage.ordering).
            Defaults to raw (identity) ordering.
        value_bytes: stored size of one coordinate; the paper's datasets use
            4-byte values (600 bytes per 150-d point, 3840 per 960-d point).
    """

    def __init__(
        self,
        points: np.ndarray,
        disk: SimulatedDisk | None = None,
        order: np.ndarray | None = None,
        value_bytes: int = 4,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if value_bytes <= 0:
            raise ValueError("value_bytes must be positive")
        self.points = points
        self.disk = disk or SimulatedDisk(DiskConfig())
        self.value_bytes = value_bytes
        n = len(points)
        if order is None:
            order = np.arange(n, dtype=np.int64)
        else:
            order = np.asarray(order, dtype=np.int64)
            if sorted(order.tolist()) != list(range(n)):
                raise ValueError("order must be a permutation of 0..n-1")
        # order[pos] = point id stored at file position pos.
        self._order = order
        self._position_of = np.empty(n, dtype=np.int64)
        self._position_of[order] = np.arange(n, dtype=np.int64)
        # Declare the file's page extent so the device can reject reads
        # beyond it (PageRangeError) instead of charging them silently.
        self.disk.extend_pages(self.num_pages)
        # Mutation state: rows 0..base_count-1 are the build-time segment,
        # rows beyond it the append segment; tombstoned rows keep their
        # id (the id space is stable, never compacted) but reject fetches.
        self._base_count = n
        self._live = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------
    # Mutation: append segment + tombstone bitmap.
    # ------------------------------------------------------------------
    @property
    def base_count(self) -> int:
        """Rows of the original (build-time) segment."""
        return self._base_count

    @property
    def live(self) -> np.ndarray:
        """Tombstone bitmap: ``live[id]`` is False once the row is deleted."""
        return self._live

    def append(self, points: np.ndarray) -> np.ndarray:
        """Append rows to the file; returns the new ids.

        New records land at the end of the physical order (append
        segment), so existing placements never move; the device's page
        extent grows to cover them.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ValueError(
                f"appended points must have dim {self.dim}, got {points.shape[1]}"
            )
        n_old = self.num_points
        n_new = len(points)
        if n_new == 0:
            return np.empty(0, dtype=np.int64)
        self.points = np.vstack([self.points, points])
        tail = np.arange(n_old, n_old + n_new, dtype=np.int64)
        self._order = np.concatenate([self._order, tail])
        self._position_of = np.concatenate([self._position_of, tail])
        self._live = np.concatenate([self._live, np.ones(n_new, dtype=bool)])
        self.disk.extend_pages(self.num_pages)
        return tail

    def tombstone(self, point_ids: np.ndarray) -> None:
        """Mark rows deleted; their pages stay allocated, fetches fail."""
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_points):
            raise IndexError("point id out of range")
        self._live[ids] = False

    def update_rows(self, point_ids: np.ndarray, points: np.ndarray) -> None:
        """Overwrite live records in place (same id, same page)."""
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(ids) != len(points):
            raise ValueError("ids and points must align")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_points):
            raise IndexError("point id out of range")
        if not self._live[ids].all():
            raise IndexError("cannot update a tombstoned point")
        self.points[ids] = points

    @property
    def num_pages(self) -> int:
        """Pages the file occupies on the device."""
        return -(-self.num_points // self.points_per_page) * self.pages_per_point

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def point_size(self) -> int:
        """Bytes occupied by one record."""
        return self.dim * self.value_bytes

    @property
    def points_per_page(self) -> int:
        """Records per disk page; at least one (large records span pages)."""
        return self._page_rule()[0]

    @property
    def pages_per_point(self) -> int:
        """Pages a single record spans (1 unless the record exceeds a page)."""
        return self._page_rule()[1]

    def _page_rule(self) -> tuple[int, int]:
        """``(points_per_page, pages_per_point)``, the file's record layout.

        Records either share pages (one page each) or span whole pages of
        their own; either way the record at file position ``pos`` starts
        on page ``pos // points_per_page * pages_per_point``.
        """
        page, size = self.disk.config.page_size, self.point_size
        return max(1, page // size), max(1, -(-size // page))

    @property
    def file_bytes(self) -> int:
        return self.num_points * self.point_size

    def page_of(self, point_id: int) -> int:
        """First page holding the record of ``point_id``."""
        per_page, span = self._page_rule()
        return int(self._position_of[point_id]) // per_page * span

    def fetch(
        self, point_ids: np.ndarray, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Read records by identifier, charging page I/O.

        Returns the ``(len(point_ids), d)`` array of points in request
        order.  Every id is checked before any page is charged; the pages
        of the whole run are then charged with one ``read_pages`` call.
        Refinement fetches a run of candidates per call, and the reads it
        is charged equal those of fetching the ids one by one.
        """
        return self._fetch_through(point_ids, tracker, self.disk.read_pages)

    def _fetch_through(self, point_ids, tracker, read_pages) -> np.ndarray:
        """:meth:`fetch`, with the run's pages charged by ``read_pages``.

        A record spanning several pages contributes them consecutively.
        A failed read leaves ``point_fetches`` counting the records whose
        pages were all handled before it, as a per-id loop would.
        """
        ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        # Builtins over the id list and a count over the live flags: on
        # the short runs refinement reads, ndarray reductions cost more.
        listed = ids.tolist()
        if listed and (min(listed) < 0 or max(listed) >= len(self.points)):
            raise IndexError("point id out of range")
        if np.count_nonzero(self._live.take(ids)) != len(listed):
            raise IndexError("point id tombstoned")
        per_page, span = self._page_rule()
        pages = self._position_of.take(ids) // per_page
        if span > 1:
            pages = (pages[:, None] * span + np.arange(span)).ravel()
        try:
            read_pages(pages, tracker)
        except Exception as exc:
            self._count_fetches(getattr(exc, "pages_done", 0) // span, tracker)
            raise
        self._count_fetches(len(listed), tracker)
        return self.points.take(ids, axis=0)

    def _count_fetches(self, count: int, tracker: QueryIOTracker | None) -> None:
        self.disk.stats.point_fetches += count
        if tracker is not None:
            tracker.point_fetches += count
