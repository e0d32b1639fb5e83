"""The open-loop generator charges a stall to every request it delays."""

import time

import numpy as np

import ledger
from openloop import CompletionClock, run_phase
from repro.engine.stats import QueryStats, SearchResult
from repro.serve import ServeConfig, Server, ThreadedExecutor

STALL_S = 0.2


class StallingEngine:
    """Answers instantly except for one long stall on its first batch."""

    def __init__(self) -> None:
        self.calls = 0

    def search_many(self, queries, k):
        self.calls += 1
        if self.calls == 1:
            time.sleep(STALL_S)
        return [
            SearchResult(
                ids=np.asarray([int(q[0])]),
                distances=np.zeros(1),
                exact_mask=np.ones(1, dtype=bool),
                stats=QueryStats(0, 0, 0, 0, 0, 0, 0, 0),
            )
            for q in queries
        ]


def test_latency_counts_from_due_time_through_a_stall():
    engine = StallingEngine()
    clock = CompletionClock(engine)
    server = Server(engine, ServeConfig(max_batch=1, max_wait_us=0), executor=ThreadedExecutor())
    rate = 100.0
    queries = np.arange(20, dtype=np.float64).reshape(-1, 1)
    try:
        phase = run_phase(server, queries, rate, clock)
    finally:
        server.close()
        clock.close()
    assert phase.timed_out == 0
    assert len(phase.latency_s) == len(queries)
    assert all(pos == i for i, pos in enumerate(phase.position))
    # Requests due during the stall wait for it: the one due at 50 ms
    # completes after the 200 ms stall, at least ~150 ms after its due time.
    assert phase.latency_s[5] >= STALL_S - 5 / rate - 0.02
    assert max(phase.latency_s) >= STALL_S - 0.02
    # The backlog built behind the stall is visible.
    assert max(phase.outstanding) >= 5
    # Each ticket carries its own query's answer (FIFO bookkeeping).
    for i, ticket in enumerate(phase.tickets):
        assert ticket.response.result.ids[0] == i


def test_clock_maps_batches_to_fifo_positions():
    class Echo:
        def search_many(self, queries, k):
            return list(range(len(queries)))

    engine = Echo()
    tracer = ledger.Tracer()
    clock = CompletionClock(engine, tracer)
    engine.search_many(np.zeros((3, 2)), 1)
    engine.search_many(np.zeros((2, 2)), 1)
    assert len(clock.done_at) == 5
    assert clock.done_at[0] == clock.done_at[2] <= clock.done_at[3] == clock.done_at[4]
    assert [size for _, _, size in clock.batches] == [3, 2]
    assert tracer._state().requests == range(3, 5)
    clock.close()
    assert "timed" not in getattr(engine.search_many, "__name__", "")
