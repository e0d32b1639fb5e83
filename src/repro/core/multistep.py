"""Phase 3: optimal multi-step kNN refinement (paper Section 2.3).

Implements the optimal multi-step algorithm of Seidl & Kriegel (SIGMOD'98)
as generalized by Kriegel et al. (SSTD'07) to lower *and* upper bounds:
candidates are fetched from disk in ascending lower-bound order; fetching
stops as soon as the next lower bound exceeds the k-th best distance known
so far.  Candidates confirmed by Phase 2 participate through their upper
bounds (they are guaranteed results and tighten the stopping threshold
without being fetched).  Candidates the rule is bound to read are fetched
in runs, one fetcher call per run, without changing which are read or in
what order.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.bounds import exact_distances
from repro.storage.iostats import QueryIOTracker

#: Signature of the disk access used by refinement: ids -> (m, d) points.
Fetcher = Callable[[np.ndarray, QueryIOTracker | None], np.ndarray]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of the refinement phase.

    Attributes:
        ids: final result ids (``<= k`` of them, best first).
        distances: exact distance where the point was fetched, otherwise
            the (conservative) upper bound of a confirmed candidate.
        exact_mask: True where ``distances`` is an exact distance.
        fetched_ids: candidates actually read from disk, in fetch order.
    """

    ids: np.ndarray
    distances: np.ndarray
    exact_mask: np.ndarray
    fetched_ids: np.ndarray

    @property
    def num_fetched(self) -> int:
        return len(self.fetched_ids)


def multistep_knn(
    query: np.ndarray,
    candidate_ids: np.ndarray,
    lower_bounds: np.ndarray,
    k: int,
    fetcher: Fetcher,
    confirmed_ids: np.ndarray | None = None,
    confirmed_ubs: np.ndarray | None = None,
    tracker: QueryIOTracker | None = None,
) -> RefinementResult:
    """Fetch-minimal kNN over candidates with known lower bounds.

    Args:
        query: ``(d,)`` query point.
        candidate_ids: remaining candidates (any order).
        lower_bounds: their lower bounds (0 for cache misses).
        k: result size.
        fetcher: disk access callable (typically ``PointFile.fetch``); it
            is handed whole runs of candidate ids, in fetch order.
        confirmed_ids / confirmed_ubs: Phase-2 true results and their upper
            bounds; counted toward ``k`` without fetching.
        tracker: per-query I/O tracker passed through to the fetcher.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    query = np.asarray(query, dtype=np.float64)
    candidate_ids = np.atleast_1d(np.asarray(candidate_ids, dtype=np.int64))
    lower_bounds = np.atleast_1d(np.asarray(lower_bounds, dtype=np.float64))
    if len(candidate_ids) != len(lower_bounds):
        raise ValueError("candidate_ids and lower_bounds must align")
    confirmed_ids = (
        np.empty(0, dtype=np.int64)
        if confirmed_ids is None
        else np.atleast_1d(np.asarray(confirmed_ids, dtype=np.int64))
    )
    confirmed_ubs = (
        np.empty(0, dtype=np.float64)
        if confirmed_ubs is None
        else np.atleast_1d(np.asarray(confirmed_ubs, dtype=np.float64))
    )
    if len(confirmed_ids) != len(confirmed_ubs):
        raise ValueError("confirmed ids and bounds must align")

    order = np.argsort(lower_bounds, kind="stable")
    sorted_ids = candidate_ids[order]
    sorted_lb = lower_bounds[order]

    # Max-heap (negated) of the k best distance estimates seen so far.
    # Confirmed candidates enter with their upper bounds; fetched ones with
    # exact distances.  entry = (-estimate, id, exact?, estimate)
    best: list[tuple[float, int, bool]] = []
    for cid, cub in zip(confirmed_ids.tolist(), confirmed_ubs.tolist()):
        heapq.heappush(best, (-float(cub), cid, False))

    def threshold() -> float:
        if len(best) < k:
            return float("inf")
        return -best[0][0]

    # The candidates are read in runs.  ``floor``, the k-th smallest of
    # the heap's estimates and the unfetched lower bounds, never exceeds
    # any later threshold: each exact distance is at least its own lower
    # bound.  So every next candidate with ``lb <= floor`` is one the
    # one-at-a-time rule reads anyway, and the run of them is fetched
    # with one call; the fetch set and its order stay the same.
    lbs = sorted_lb.tolist()
    n = len(lbs)
    fetched: list[int] = []
    start = 0
    while start < n:
        estimates = sorted([-neg for neg, _, _ in best] + lbs[start : start + k])
        floor = estimates[k - 1] if len(estimates) >= k else float("inf")
        stop = bisect.bisect_right(lbs, floor, start)
        if stop == start:
            if lbs[start] > threshold():
                break  # optimal stopping: no unfetched candidate can qualify
            stop = start + 1
        run = sorted_ids[start:stop]
        dists = exact_distances(query, fetcher(run, tracker))
        for cid, dist in zip(run.tolist(), dists.tolist()):
            fetched.append(cid)
            heapq.heappush(best, (-dist, cid, True))
            if len(best) > k:
                heapq.heappop(best)
        start = stop

    results = sorted(((-neg, cid, exact) for neg, cid, exact in best))
    # Confirmed candidates are guaranteed results; they can never be
    # displaced because at most k-1 of them exist and their upper bounds
    # undercut every competing lower bound (Phase-2 invariant).
    ids = np.asarray([cid for _, cid, _ in results[:k]], dtype=np.int64)
    dists = np.asarray([d for d, _, _ in results[:k]], dtype=np.float64)
    exact_mask = np.asarray([e for _, _, e in results[:k]], dtype=bool)
    return RefinementResult(
        ids=ids,
        distances=dists,
        exact_mask=exact_mask,
        fetched_ids=np.asarray(fetched, dtype=np.int64),
    )
