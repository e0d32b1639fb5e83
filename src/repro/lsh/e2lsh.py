"""Classic bucketed LSH (Gionis/Indyk/Motwani style, "E2LSH").

``L`` hash tables, each keyed by a compound of ``kappa`` p-stable hashes;
a query's candidates are the union of its ``L`` buckets.  Included as a
secondary candidate generator: it demonstrates that the caching layer is
agnostic to which LSH scheme produced ``C(q)``.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.hashes import PStableHashFamily
from repro.storage.iostats import QueryIOTracker


class E2LSHIndex:
    """LSH with ``L`` compound-key hash tables.

    Args:
        points: ``(n, d)`` dataset.
        n_tables: number of tables ``L``.
        n_bits: hashes concatenated per compound key ``kappa``.
        width_factor: bucket width in units of the data's coordinate std.
        seed: RNG seed.
        page_size: bytes per index page (8-byte ids per bucket list).
    """

    ENTRY_BYTES = 8

    def __init__(
        self,
        points: np.ndarray,
        n_tables: int = 8,
        n_bits: int = 6,
        width_factor: float = 4.0,
        seed: int = 0,
        page_size: int = 4096,
        width: float | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if n_tables <= 0 or n_bits <= 0:
            raise ValueError("n_tables and n_bits must be positive")
        self.n_points, self.dim = points.shape
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.seed = seed
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // self.ENTRY_BYTES)
        # The bucket width is trained geometry (data std at build time);
        # pass ``width`` to rebuild with the geometry of an existing index
        # so hashes — and therefore candidate sets — stay comparable.
        if width is None:
            width = width_factor * float(points.std() or 1.0)
        self.width = float(width)
        self._families = [
            PStableHashFamily(self.dim, n_bits, self.width, seed=seed + 31 * t)
            for t in range(n_tables)
        ]
        self._tables: list[dict[tuple[int, ...], np.ndarray]] = []
        self._page_base: list[dict[tuple[int, ...], int]] = []
        for family in self._families:
            keys = family.hash(points)  # (n, kappa)
            table: dict[tuple[int, ...], list[int]] = {}
            for pid, key in enumerate(map(tuple, keys.tolist())):
                table.setdefault(key, []).append(pid)
            self._tables.append(
                {k: np.asarray(v, dtype=np.int64) for k, v in table.items()}
            )
        self._rebuild_page_bases()

    def _rebuild_page_bases(self) -> None:
        """Recompute the sequential page layout of every bucket list."""
        self._page_base = []
        next_page = 0
        for frozen in self._tables:
            bases: dict[tuple[int, ...], int] = {}
            for key in sorted(frozen):
                bases[key] = next_page
                next_page += -(-len(frozen[key]) // self.entries_per_page)
            self._page_base.append(bases)
        self._total_pages = next_page

    def insert_many(self, points: np.ndarray) -> None:
        """Hash appended rows into their buckets (ids stay ascending).

        New ids are larger than every existing id and are appended to
        their bucket lists, which a from-scratch build over the extended
        dataset enumerates in exactly the same ascending-id order — so
        the incremental index is bit-identical to a rebuild sharing the
        same hash geometry.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return
        base = self.n_points
        for family, table in zip(self._families, self._tables):
            keys = family.hash(points)
            for offset, key in enumerate(map(tuple, keys.tolist())):
                pid = base + offset
                bucket = table.get(key)
                if bucket is None:
                    table[key] = np.asarray([pid], dtype=np.int64)
                else:
                    table[key] = np.append(bucket, pid)
        self.n_points += len(points)
        self._rebuild_page_bases()

    @property
    def index_bytes(self) -> int:
        return self.n_tables * self.n_points * self.ENTRY_BYTES

    def candidates(
        self, query: np.ndarray, k: int, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Union of the query's buckets over all tables."""
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        found: list[np.ndarray] = []
        for family, table, bases in zip(
            self._families, self._tables, self._page_base
        ):
            key = tuple(family.hash(query[None, :])[0].tolist())
            bucket = table.get(key)
            if bucket is None:
                continue
            if tracker is not None:
                n_pages = -(-len(bucket) // self.entries_per_page)
                tracker.read_pages(range(bases[key], bases[key] + n_pages))
            found.append(bucket)
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(found))
