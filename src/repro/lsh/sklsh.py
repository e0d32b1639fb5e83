"""SK-LSH: sorted-compound-key LSH (Liu et al., PVLDB 2014).

SK-LSH materializes the file-ordering idea this package already uses in
``repro.storage.ordering.sorted_key_order`` as a full index: points are
sorted by a compound LSH key ("linear order"), and a query probes the
contiguous run of points around its own key position in each of ``L``
orders.  Because probed points are physically adjacent, candidate
generation reads few, dense pages.

The paper treats SK-LSH as orthogonal related work ([35]): it reduces
refinement I/O by *layout*, the paper by *caching*.  Having it as a
candidate generator lets the harness combine both.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.hashes import PStableHashFamily
from repro.storage.iostats import QueryIOTracker


class SKLSHIndex:
    """LSH over ``L`` sorted compound-key orders.

    Args:
        points: ``(n, d)`` dataset.
        n_orders: number of independent linear orders ``L``.
        n_bits: hashes per compound key.
        probe_width: points probed around the query position per order
            (half on each side).
        width_factor: bucket width relative to the coordinate std.
        seed: RNG seed.
        page_size: index page size (entries are 8-byte ids laid out in
            key order, so a probe reads a contiguous page run).
    """

    ENTRY_BYTES = 8

    def __init__(
        self,
        points: np.ndarray,
        n_orders: int = 4,
        n_bits: int = 4,
        probe_width: int = 64,
        width_factor: float = 4.0,
        seed: int = 0,
        page_size: int = 4096,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if min(n_orders, n_bits, probe_width) <= 0:
            raise ValueError("n_orders, n_bits and probe_width must be positive")
        self.n_points, self.dim = points.shape
        self.n_orders = n_orders
        self.n_bits = n_bits
        self.probe_width = probe_width
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // self.ENTRY_BYTES)
        width = width_factor * float(points.std() or 1.0)
        self._families = [
            PStableHashFamily(self.dim, n_bits, width, seed=seed + 53 * t)
            for t in range(n_orders)
        ]
        self._orders: list[np.ndarray] = []
        self._sorted_keys: list[np.ndarray] = []
        for family in self._families:
            keys = family.hash(points)  # (n, kappa)
            order = np.lexsort(
                tuple(keys[:, j] for j in reversed(range(n_bits)))
            ).astype(np.int64)
            self._orders.append(order)
            self._sorted_keys.append(keys[order])

    def _position(self, sorted_keys: np.ndarray, key: np.ndarray) -> int:
        """Rank of the query key in one linear order (lexicographic)."""
        lo, hi = 0, len(sorted_keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if tuple(sorted_keys[mid].tolist()) < tuple(key.tolist()):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def candidates(
        self, query: np.ndarray, k: int, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Union of the contiguous key-neighborhoods over all orders."""
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        half = self.probe_width // 2
        found: list[np.ndarray] = []
        for t, (family, order, sorted_keys) in enumerate(
            zip(self._families, self._orders, self._sorted_keys)
        ):
            key = family.hash(query[None, :])[0]
            pos = self._position(sorted_keys, key)
            lo = max(0, pos - half)
            hi = min(self.n_points, pos + half)
            if tracker is not None:
                base = t * (-(-self.n_points // self.entries_per_page))
                first = lo // self.entries_per_page
                last = max(first, (hi - 1) // self.entries_per_page)
                tracker.read_pages(range(base + first, base + last + 1))
            found.append(order[lo:hi])
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(found))
