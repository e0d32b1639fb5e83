"""C2LSH: dynamic collision counting LSH (Gan et al., SIGMOD 2012).

The paper's primary candidate-generation index.  C2LSH keeps ``m``
independent p-stable hash functions (no compound keys).  A point is a
candidate when it collides with the query on at least ``l = alpha * m``
functions.  *Virtual rehashing* widens buckets geometrically: at search
radius ``R`` the level-``R`` bucket of hash value ``h`` is
``floor(h / R)``, so one physical table per function (sorted by hash
value) serves every radius.  The search enlarges ``R`` by the
approximation ratio ``c`` until ``k + beta*n`` candidates collide often
enough.

Index I/O: each hash table is a sorted run of (hash, id) entries on disk;
a query reads the contiguous range of pages covering its collision
interval at each level (ranges at successive levels nest, so pages
dedupe within a query).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lsh.hashes import PStableHashFamily, collision_probability
from repro.storage.iostats import QueryIOTracker


@dataclass(frozen=True)
class C2LSHParams:
    """Tuning knobs of C2LSH.

    Attributes:
        c: approximation ratio (radius growth factor), an integer >= 2.
        delta: error probability bound used to size ``m``.
        beta: false-positive allowance; the search stops once
            ``k + beta * n`` candidates pass the collision threshold.
        width_factor: base bucket width ``w`` in units of the calibrated
            base radius.
        n_hashes: override for ``m`` (None = derive from delta via a
            Hoeffding bound, clipped to [16, 192]).
        max_levels: cap on virtual-rehashing rounds.
    """

    c: int = 2
    delta: float = 0.01
    beta: float = 0.005
    width_factor: float = 1.0
    n_hashes: int | None = None
    max_levels: int = 24
    #: Enable C2LSH's second termination condition (T2): stop as soon as
    #: k candidates lie within distance c*R of the query.  The original
    #: system interleaves these distance evaluations with refinement; in
    #: this phase-separated reproduction T2 is evaluated in memory and
    #: only tightens the candidate set (the fetches are charged when the
    #: refinement phase actually reads the points).
    use_t2: bool = False

    def __post_init__(self) -> None:
        if self.c < 2 or self.c != int(self.c):
            # Integer c makes every level's buckets nest, which the
            # incremental collision count in ``candidates`` relies on.
            raise ValueError("approximation ratio c must be an integer >= 2")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.width_factor <= 0:
            raise ValueError("width_factor must be positive")


def derive_collision_threshold(params: C2LSHParams) -> tuple[int, int, float, float]:
    """Size ``m`` and the collision threshold ``l`` from the parameters.

    ``p1 = p(1)`` and ``p2 = p(c)`` are the collision probabilities at unit
    and at ``c`` times the search radius; the threshold fraction
    ``alpha = (p1 + p2) / 2`` separates them, and a two-sided Hoeffding
    bound sizes ``m`` so both error events stay below ``delta``.

    Returns:
        ``(m, l, p1, p2)``.
    """
    p1 = collision_probability(1.0, params.width_factor)
    p2 = collision_probability(float(params.c), params.width_factor)
    alpha = (p1 + p2) / 2.0
    gap = p1 - alpha
    if params.n_hashes is not None:
        m = params.n_hashes
    else:
        m = math.ceil(math.log(2.0 / params.delta) / (2.0 * gap * gap))
        m = int(np.clip(m, 16, 192))
    l = max(1, math.ceil(alpha * m))
    return m, l, p1, p2


def calibrate_base_radius(
    points: np.ndarray, sample: int = 256, seed: int = 0
) -> float:
    """Median nearest-neighbor distance of a data sample.

    Virtual rehashing starts at ``R = 1`` in units of this radius, so the
    first level already targets typical nearest-neighbor distances.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        return 1.0
    rng = np.random.default_rng(seed)
    pool = points[rng.choice(n, size=min(n, 2048), replace=False)]
    probes = pool[: min(sample, len(pool))]
    d2 = (
        np.sum(probes**2, axis=1)[:, None]
        - 2.0 * probes @ pool.T
        + np.sum(pool**2, axis=1)[None, :]
    )
    np.clip(d2, 0.0, None, out=d2)
    d2_sorted = np.sort(d2, axis=1)
    # Column 0 is the point itself (distance 0); column 1 is the true NN.
    nn = np.sqrt(d2_sorted[:, 1]) if d2_sorted.shape[1] > 1 else np.ones(len(probes))
    med = float(np.median(nn))
    return med if med > 0 else float(np.mean(nn)) or 1.0


def lockstep_searchsorted(sorted_rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise ``np.searchsorted(sorted_rows[i], targets[..., i], "left")``.

    All rows of the ``(m, n)`` table are bisected in lock step on its flat
    view: every row has the same length, so one branch-free halving
    schedule (``ceil(log2 n)`` vector steps) serves every search at once.
    ``targets`` has shape ``(..., m)``; the result has the same shape.
    """
    m, n = sorted_rows.shape
    flat = sorted_rows.reshape(-1)
    row_start = np.arange(m, dtype=np.int64) * n
    pos = np.broadcast_to(row_start, targets.shape).copy()
    size = n
    while size > 1:
        half = size // 2
        pos += half * (flat.take(pos + half) < targets)
        size -= half
    pos += flat.take(pos) < targets
    return pos - row_start


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over ``zip(starts, lengths)``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        starts - (ends - lengths), lengths
    )


class C2LSHIndex:
    """Disk-resident C2LSH index over a point set.

    Args:
        points: ``(n, d)`` dataset (hash tables are built over it; the
            points themselves stay in the data file).
        params: C2LSH tuning (defaults follow the original recipe).
        seed: RNG seed for the hash family.
        page_size: bytes per index page; each (hash, id) entry costs
            12 bytes, mirroring the paper's disk-based tables.
        base_radius: override for the calibrated base radius.  Sharded
            deployments pass the radius calibrated on the *full* dataset
            so every shard hashes with an identical family geometry
            (calibrating per shard would give each shard different bucket
            widths and therefore incomparable collision counts).
    """

    ENTRY_BYTES = 12

    def __init__(
        self,
        points: np.ndarray,
        params: C2LSHParams | None = None,
        seed: int = 0,
        page_size: int = 4096,
        base_radius: float | None = None,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        params = params or C2LSHParams()
        if base_radius is not None and base_radius <= 0:
            raise ValueError("base_radius must be positive")
        base_radius = (
            float(base_radius)
            if base_radius is not None
            else calibrate_base_radius(points, seed=seed)
        )
        family = PStableHashFamily(
            points.shape[1],
            derive_collision_threshold(params)[0],
            width=params.width_factor * base_radius,
            seed=seed + 1,
        )
        hashes = family.hash(points)  # (n, m)
        order = np.argsort(hashes, axis=0, kind="stable")  # (n, m)
        self._setup(
            points,
            params,
            seed,
            page_size,
            base_radius,
            family,
            sorted_ids=order.T.copy(),  # (m, n)
            sorted_hashes=np.take_along_axis(hashes, order, axis=0).T.copy(),
        )

    @classmethod
    def from_tables(
        cls,
        points: np.ndarray,
        params: C2LSHParams,
        *,
        seed: int,
        page_size: int,
        base_radius: float,
        family_a: np.ndarray,
        family_b: np.ndarray,
        sorted_ids: np.ndarray,
        sorted_hashes: np.ndarray,
    ) -> "C2LSHIndex":
        """An index over already-built sorted runs (a snapshot restore).

        ``family_a``/``family_b`` are the hash family's projections and
        offsets; nothing is rehashed, so mapped tables stay mapped.
        """
        family = PStableHashFamily.from_arrays(
            family_a, family_b, width=params.width_factor * base_radius
        )
        index = cls.__new__(cls)
        index._setup(
            points,
            params,
            seed,
            page_size,
            float(base_radius),
            family,
            sorted_ids=sorted_ids,
            sorted_hashes=sorted_hashes,
        )
        return index

    def _setup(
        self,
        points: np.ndarray,
        params: C2LSHParams,
        seed: int,
        page_size: int,
        base_radius: float,
        family: PStableHashFamily,
        *,
        sorted_ids: np.ndarray,
        sorted_hashes: np.ndarray,
    ) -> None:
        m, l, p1, p2 = derive_collision_threshold(params)
        if (
            family.n_hashes != m
            or sorted_ids.ndim != 2
            or sorted_ids.shape != sorted_hashes.shape
            or len(sorted_ids) != m
        ):
            raise ValueError("sorted runs must be two (m, n) tables, one row per hash")
        self.params = params
        self.n_points = sorted_ids.shape[1]
        self.dim = family.dim
        self.seed = seed
        self.page_size = page_size
        self.entries_per_page = max(1, page_size // self.ENTRY_BYTES)
        self.base_radius = base_radius
        self.n_hashes = m
        self.collision_threshold = l
        self.p1, self.p2 = p1, p2
        self.family = family
        self._points = (
            np.asarray(points, dtype=np.float64) if params.use_t2 else None
        )
        # Contiguous so the lock-step search's flat views never copy.
        self._sorted_ids = np.ascontiguousarray(sorted_ids)
        self._sorted_hashes = np.ascontiguousarray(sorted_hashes)
        self._pages_per_table = -(-self.n_points // self.entries_per_page)

    # ------------------------------------------------------------------
    def insert_many(self, points: np.ndarray) -> None:
        """Merge appended rows into each per-function sorted run.

        A run is sorted by ``(hash, id)`` — the build's stable argsort
        orders equal hashes by ascending id — so a lexsort merge of the
        existing run with the new entries reproduces a from-scratch
        build over the extended dataset bit-identically (new ids are
        larger than every existing id).
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if len(points) == 0:
            return
        new_ids = np.arange(
            self.n_points, self.n_points + len(points), dtype=np.int64
        )
        hashes = self.family.hash(points)  # (n_new, m)
        merged_ids = np.empty(
            (self.n_hashes, self.n_points + len(points)), dtype=np.int64
        )
        merged_hashes = np.empty_like(merged_ids)
        for i in range(self.n_hashes):
            run_h = np.concatenate([self._sorted_hashes[i], hashes[:, i]])
            run_id = np.concatenate([self._sorted_ids[i], new_ids])
            order = np.lexsort((run_id, run_h))
            merged_hashes[i] = run_h[order]
            merged_ids[i] = run_id[order]
        self._sorted_ids = merged_ids
        self._sorted_hashes = merged_hashes
        self.n_points += len(points)
        self._pages_per_table = -(-self.n_points // self.entries_per_page)
        if self._points is not None:
            self._points = np.vstack([self._points, points])

    @property
    def index_bytes(self) -> int:
        """On-disk size of the hash tables."""
        return self.n_hashes * self.n_points * self.ENTRY_BYTES

    def candidates(
        self, query: np.ndarray, k: int, tracker: QueryIOTracker | None = None
    ) -> np.ndarray:
        """Dynamic collision counting with virtual rehashing.

        Every level locates all ``m`` collision intervals with one
        lock-step search.  With integer ``c`` the level-``cR`` bucket
        contains the level-``R`` one, so each interval contains the
        previous level's and only the new ring ``[lo', lo) + [hi, hi')``
        is counted.  For the same reason the pages read are exactly the
        final level's intervals, charged once at the end.

        Returns candidate ids in descending collision-count order (ties by
        id), the paper's ``C(q)``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        hq = self.family.hash(query[None, :])[0]  # (m,)
        n, m = self.n_points, self.n_hashes
        target = k + max(1, int(self.params.beta * n))
        flat_ids = self._sorted_ids.reshape(-1)
        row_start = np.arange(m, dtype=np.int64) * n
        counts = np.zeros(n, dtype=np.int32)
        lo = hi = None
        radius = 1
        for _ in range(self.params.max_levels):
            start = hq // radius * radius
            new_lo, new_hi = lockstep_searchsorted(
                self._sorted_hashes, np.stack([start, start + radius])
            )
            if lo is None:
                lo = hi = new_lo  # an empty previous interval
            ring = ragged_arange(
                np.concatenate([row_start + new_lo, row_start + hi]),
                np.concatenate([lo - new_lo, new_hi - hi]),
            )
            counts += np.bincount(flat_ids.take(ring), minlength=n)
            lo, hi = new_lo, new_hi
            hits = counts >= self.collision_threshold
            found = int(np.count_nonzero(hits))
            whole = int(np.count_nonzero(hi - lo == n))
            if found >= min(target, n) or whole == m:
                break
            if self._points is not None and found >= k:
                # T2: enough candidates already proven near (dist <= c*R).
                ids_now = np.flatnonzero(hits)
                dists = np.linalg.norm(self._points[ids_now] - query, axis=1)
                bound = self.params.c * radius * self.base_radius
                if int(np.sum(dists <= bound)) >= k:
                    break
            radius *= self.params.c
        if tracker is not None and lo is not None:
            first = lo // self.entries_per_page
            last = (hi - 1) // self.entries_per_page
            tracker.read_pages(
                ragged_arange(
                    np.arange(m, dtype=np.int64) * self._pages_per_table + first,
                    np.where(hi > lo, last - first + 1, 0),
                )
            )
        ids = np.flatnonzero(counts >= self.collision_threshold)
        if ids.size == 0:
            # Degenerate fallback: return the heaviest colliders so the
            # search still has candidates to refine.
            take = min(target, n)
            ids = np.argpartition(-counts, take - 1)[:take]
        order = np.lexsort((ids, -counts[ids]))
        return ids[order].astype(np.int64)
