"""Answer checking and failure accounting against hand-made replies."""

import numpy as np
import pytest

import ledger
import workloads as W
from repro.engine.stats import QueryStats, QueryOutcome, SearchResult
from repro.serve import Overloaded, ServeResponse

K = 3
STATS = QueryStats(0, 0, 0, 0, 0, 0, 0, 0)


@pytest.fixture
def world():
    rng = np.random.default_rng(5)
    points = np.rint(rng.uniform(0, 255, size=(200, 8)))
    query = points[17] + 0.5
    live = np.ones(len(points), dtype=bool)
    return points, query, live


def true_answer(points, query, live, k=K):
    d = W.distances(points, query)
    d[~live] = np.inf
    ids = np.argsort(d, kind="stable")[:k]
    return ids, d[ids]


def result(ids, dists, exact=True, outcome=None):
    kwargs = {} if outcome is None else {"outcome": outcome}
    return SearchResult(
        ids=np.asarray(ids, dtype=np.int64),
        distances=np.asarray(dists, dtype=np.float64),
        exact_mask=np.full(len(ids), exact, dtype=bool),
        stats=STATS,
        **kwargs,
    )


def served(res):
    return ServeResponse(tier="default", result=res)


class TestVerdict:
    def test_exact_answer_passes(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        assert W.verdict(result(ids, dists), query, ref, points, live) is None

    def test_upper_bounds_pass_when_not_flagged_exact(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        assert W.verdict(result(ids, dists + 1.0, exact=False), query, ref, points, live) is None

    def test_wrong_id_fails(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live, k=K + 1)
        wrong = np.concatenate([ids[:-2], ids[-1:]])
        assert W.verdict(result(wrong, dists[: K]), query, ref, points, live) == "wrong"

    def test_wrong_exact_distance_fails(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        assert W.verdict(result(ids, dists * 1.01), query, ref, points, live) == "wrong"

    def test_bound_below_truth_fails(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        assert W.verdict(result(ids, dists - 1.0, exact=False), query, ref, points, live) == "wrong"

    def test_tombstoned_id_fails(self, world):
        points, query, live = world
        ids, dists = true_answer(points, query, live)
        live = live.copy()
        live[ids[0]] = False
        ref = W.exact_reference(points, live, query, K)
        assert W.verdict(result(ids, dists), query, ref, points, live) == "wrong"

    def test_duplicate_ids_fail(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        dup = [ids[0], ids[0], ids[1]]
        assert W.verdict(result(dup, dists), query, ref, points, live) == "wrong"

    def test_degraded_answer(self, world):
        points, query, live = world
        ref = W.exact_reference(points, live, query, K)
        ids, dists = true_answer(points, query, live)
        partial = QueryOutcome(complete=False, reason="deadline")
        assert W.verdict(result(ids, dists, outcome=partial), query, ref, points, live) == "degraded"


def test_overloaded_and_wrong_answer_each_count_once(world):
    points, query, live = world
    ref = W.exact_reference(points, live, query, K)
    ids, dists = true_answer(points, query, live)
    replies = [
        served(result(ids, dists)),
        ServeResponse(tier="default", overloaded=Overloaded(256, 256, "default")),
        served(result(ids[::-1], dists[::-1] + 5.0)),  # exact-flagged, wrong distances
        served(result(ids, dists)),
        None,  # never answered
    ]
    tally = ledger.Tally()
    for reply in replies:
        tally.record(W.response_verdict(reply, query, ref, points, live))
    assert tally.attempted == 5
    assert dict(tally.failures) == {"shed": 1, "wrong": 1, "timeout": 1}
    assert tally.failed_frac == pytest.approx(3 / 5)
