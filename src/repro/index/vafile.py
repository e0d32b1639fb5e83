"""VA-file: vector-approximation scan index (Weber & Blott 1997).

Each dimension is partitioned into ``2**bits`` cells (equi-depth, per the
paper's Section 5.1 note that the VA-file's encoding scheme matches
equi-depth); every point is approximated by its cell codes.  A kNN query
scans the approximations (phase 1), keeps the points whose lower bound
does not exceed the k-th smallest upper bound, and refines the survivors
against the exact data (phase 2).

In this reproduction the VA-file serves as a *candidate generator* for the
Algorithm-1 pipeline: ``candidates`` returns the phase-1 survivors, and
the cache/refinement machinery handles phase 2 — which is precisely how
the paper runs HC-O on top of a VA-file in Figure 16(b).
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import kth_smallest
from repro.core.builders import build_equidepth
from repro.core.domain import ValueDomain
from repro.core.encoder import IndividualHistogramEncoder
from repro.core.kernels import gather_bounds, gather_index
from repro.storage.iostats import QueryIOTracker


class ApproximationScan:
    """Phase-1 scan shared by the VA-file and the VA+-file.

    Subclasses set ``encoder`` (per-dimension cell histograms), the
    approximation geometry (``approximations_on_disk``, ``scan_pages``)
    and call :meth:`_set_codes`; ``bounds`` maps the query into the code
    space and calls :meth:`_scan_bounds`.  Codes are held only as flat
    gather indices into the encoder's raveled ``(d, cells)`` decode
    tables — one ``(n, d)`` int64 array — so a scan is one table build
    plus the bound kernels' ``take`` + pairwise ``sum``.
    """

    def _set_codes(self, codes: np.ndarray) -> None:
        """Take ownership of an int64 ``(n, d)`` code array for scans.

        The array becomes the flat gather index in place, so building
        an index never holds codes and gather indices side by side.
        """
        self._lowers, self._uppers = self.encoder.decode_tables()
        n_dims, n_cells = self._lowers.shape
        if codes.ndim != 2 or codes.shape[1] != n_dims:
            raise ValueError("codes must be an (n, d) array matching the encoder")
        if codes.size and (codes.min() < 0 or codes.max() >= n_cells):
            raise IndexError("cell code out of range")
        self._flat = gather_index(codes, n_cells, out=codes)

    @property
    def codes(self) -> np.ndarray:
        """``(n, d)`` cell codes (derived from the gather indices)."""
        return self._flat - np.arange(self.dim, dtype=np.int64) * self._lowers.shape[1]

    def _scan_bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return gather_bounds(query, self._lowers, self._uppers, self._flat)

    def candidates(
        self,
        query: np.ndarray,
        k: int,
        tracker: QueryIOTracker | None = None,
        live: np.ndarray | None = None,
    ) -> np.ndarray:
        """Phase-1 survivors: points with ``lb <= k``-th smallest ``ub``.

        Returned in ascending lower-bound order (the VA-file's phase-2
        visit order).  ``live`` restricts the scan to rows whose entry is
        True — the filter bound must come from eligible rows only, or a
        tombstoned/predicate-rejected row close to the query would
        tighten ``delta`` below a true neighbor's lower bound and prune
        it unsoundly.  The bitmap may extend past ``n_points`` when
        appended rows live in an overlay rather than this index.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if self.approximations_on_disk and tracker is not None:
            tracker.read_pages(range(self.scan_pages))
        lb, ub = self.bounds(query)
        if live is not None:
            alive = np.flatnonzero(
                np.asarray(live, dtype=bool)[: self.n_points]
            )
            if len(alive) == 0:
                return np.empty(0, dtype=np.int64)
            delta = kth_smallest(ub[alive], min(k, len(alive)))
            survivors = alive[lb[alive] <= delta]
        else:
            delta = kth_smallest(ub, min(k, self.n_points))
            survivors = np.flatnonzero(lb <= delta)
        order = np.argsort(lb[survivors], kind="stable")
        return survivors[order].astype(np.int64)


class VAFileIndex(ApproximationScan):
    """Scan-based candidate generator over per-dimension cell codes.

    Args:
        points: ``(n, d)`` dataset.
        bits: bits per dimension (cells per dimension = ``2**bits``).
        approximations_on_disk: when True, each query charges the
            sequential pages of the approximation file; the default keeps
            the approximation array in memory (the C-VA configuration).
        page_size: disk page size for the on-disk variant.
    """

    def __init__(
        self,
        points: np.ndarray,
        bits: int = 6,
        approximations_on_disk: bool = False,
        page_size: int = 4096,
        encoder: IndividualHistogramEncoder | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        if encoder is None:
            # Trained geometry: the equi-depth cell boundaries are a
            # build-time artifact.  Mutation appends codes under the
            # preserved encoder; pass ``encoder`` to rebuild an index
            # sharing the geometry of an existing one.
            encoder = IndividualHistogramEncoder(
                [
                    build_equidepth(ValueDomain.from_column(column), 2**bits)
                    for column in points.T
                ]
            )
        self._adopt(encoder.encode(points), encoder, bits, approximations_on_disk, page_size)

    @classmethod
    def from_codes(
        cls,
        codes: np.ndarray,
        encoder: IndividualHistogramEncoder,
        bits: int,
        approximations_on_disk: bool = False,
        page_size: int = 4096,
    ) -> "VAFileIndex":
        """An index over already-encoded cell codes (snapshot restore).

        ``codes`` is copied into a private gather index (a restored
        array is a read-only mapping), so the index holds its own
        ``(n, d)`` int64 array rather than sharing the mapped member.
        """
        index = cls.__new__(cls)
        codes = np.array(codes, dtype=np.int64)
        index._adopt(codes, encoder, bits, approximations_on_disk, page_size)
        return index

    def _adopt(self, codes, encoder, bits, approximations_on_disk, page_size) -> None:
        """The one place an index's state is set, built or restored."""
        self.encoder = encoder
        self._set_codes(codes)
        self.n_points, self.dim = self._flat.shape
        self.bits = bits
        self.approximations_on_disk = approximations_on_disk
        self.page_size = page_size
        self.approximation_bytes = self.n_points * self.dim * bits // 8

    def insert_many(self, points: np.ndarray) -> None:
        """Append rows encoded under the preserved cell geometry."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return
        codes = self.encoder.encode(points)
        gather_index(codes, self._lowers.shape[1], out=codes)
        self._flat = np.vstack([self._flat, codes])
        self.n_points += len(points)
        self.approximation_bytes = self.n_points * self.dim * self.bits // 8

    @property
    def scan_pages(self) -> int:
        """Sequential pages of one full approximation scan."""
        return -(-self.approximation_bytes // self.page_size)

    def bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phase-1 bounds for every point: ``(lb, ub)`` arrays of len n."""
        return self._scan_bounds(np.asarray(query, dtype=np.float64))
