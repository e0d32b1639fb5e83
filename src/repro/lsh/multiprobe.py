"""Multi-probe LSH (Lv et al., VLDB 2007).

Instead of building many hash tables, multi-probe LSH probes *several
nearby buckets* of each table: the query's own bucket plus perturbation
sequences over the compound key, ordered by how likely the perturbed
bucket is to hold near neighbors (distance of the projection to the
bucket boundary).  Fewer tables, same recall — the space-efficient
member of the paper's related-work lineup ([24]).

Implementation: per table, candidate perturbations flip single key
components to the adjacent bucket (+-1), scored by the projection's
distance to that boundary; the best ``n_probes - 1`` single-component
perturbations (across components) are probed after the home bucket.
"""

from __future__ import annotations


import numpy as np

from repro.lsh.hashes import PStableHashFamily
from repro.storage.iostats import QueryIOTracker


class MultiProbeLSHIndex:
    """LSH with perturbation-based multi-probing.

    Args:
        points: ``(n, d)`` dataset.
        n_tables: hash tables (fewer than classic LSH needs).
        n_bits: hashes per compound key.
        n_probes: buckets probed per table (1 = classic LSH).
        width_factor: bucket width relative to the data's coordinate std.
        seed: RNG seed.
        page_size: index page size for I/O accounting.
    """

    ENTRY_BYTES = 8

    def __init__(
        self,
        points: np.ndarray,
        n_tables: int = 4,
        n_bits: int = 6,
        n_probes: int = 8,
        width_factor: float = 4.0,
        seed: int = 0,
        page_size: int = 4096,
        width: float | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if min(n_tables, n_bits, n_probes) <= 0:
            raise ValueError("n_tables, n_bits, n_probes must be positive")
        self.n_points, self.dim = points.shape
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.n_probes = n_probes
        self.seed = seed
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // self.ENTRY_BYTES)
        # Trained geometry: pass ``width`` to rebuild with the bucket
        # width of an existing index (mutation keeps hashes comparable).
        if width is None:
            width = width_factor * float(points.std() or 1.0)
        self.width = float(width)
        self._families = [
            PStableHashFamily(self.dim, n_bits, self.width, seed=seed + 97 * t)
            for t in range(n_tables)
        ]
        self._tables: list[dict[tuple[int, ...], np.ndarray]] = []
        self._page_base: list[dict[tuple[int, ...], int]] = []
        for family in self._families:
            keys = family.hash(points)
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

    def insert_many(self, points: np.ndarray) -> None:
        """Hash appended rows into their buckets (see ``E2LSHIndex``)."""
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

    def _probe_sequence(
        self, family: PStableHashFamily, query: np.ndarray
    ) -> list[tuple[int, ...]]:
        """Home bucket + the best single-component perturbations."""
        projections = family.project(query[None, :])[0]
        home = np.floor(projections / family.width).astype(np.int64)
        frac = projections / family.width - home  # position inside bucket
        # Score each (component, direction): distance to that boundary.
        scored: list[tuple[float, int, int]] = []
        for j in range(self.n_bits):
            scored.append((float(frac[j]), j, -1))        # lower boundary
            scored.append((float(1.0 - frac[j]), j, +1))  # upper boundary
        scored.sort()
        probes = [tuple(home.tolist())]
        for dist, j, direction in scored[: max(self.n_probes - 1, 0)]:
            perturbed = home.copy()
            perturbed[j] += direction
            probes.append(tuple(perturbed.tolist()))
        return probes

    def candidates(
        self, query: np.ndarray, k: int, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Union of the probed buckets over all tables."""
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        found: list[np.ndarray] = []
        for family, table, bases in zip(
            self._families, self._tables, self._page_base
        ):
            for key in self._probe_sequence(family, query):
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
