"""Open-loop load generator that times each request from when it was due.

``repro.serve.run_open_loop`` times requests from admission, so a stall
that delays the generator also delays later arrivals without charging
them for it (coordinated omission).  This generator instead fixes every
request's due time up front (``start + i / rate``), sleeps until it,
submits, and measures latency as completion minus *due* time.  How late
the generator itself ran is reported separately.

Completion times come from a wrapper around the served engine's
``search_many``: the dispatcher serves accepted requests strictly in
FIFO order (no tiers, no deadlines), so the ``j``-th request a batch
completes is the ``j``-th request the server accepted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: How long to wait for a request still in flight after the last arrival.
TICKET_TIMEOUT_S = 30.0


class CompletionClock:
    """Timestamps every request the engine completes, in FIFO order.

    Installs itself over ``engine.search_many``.  When a tracer is given,
    each batch declares the FIFO positions it serves before the engine
    call opens its span, so batched spans carry every request.
    """

    def __init__(self, engine, tracer=None) -> None:
        self.done_at: list[float] = []
        self.batches: list[tuple[float, float, int]] = []
        self.tracer = tracer
        self._engine = engine
        self._inner = inner = engine.search_many

        def timed(queries, k, *args, **kwargs):
            first = len(self.done_at)
            if self.tracer is not None:
                self.tracer.serving(range(first, first + len(queries)))
            start = time.perf_counter()
            try:
                return inner(queries, k, *args, **kwargs)
            finally:
                end = time.perf_counter()
                self.batches.append((start, end, len(queries)))
                self.done_at.extend([end] * len(queries))

        engine.search_many = timed

    def close(self) -> None:
        """Put the engine's own ``search_many`` back."""
        self._engine.search_many = self._inner


@dataclass
class Phase:
    """One fixed-rate open-loop phase and what it observed."""

    rate: float
    tickets: list = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)
    #: FIFO position of each accepted request (None when shed).
    position: list[int | None] = field(default_factory=list)
    #: requests accepted but not completed, sampled at each arrival.
    outstanding: list[int] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    timed_out: int = 0

    @property
    def backlog_grew(self) -> bool:
        """Mean backlog of the last quarter of arrivals exceeds the first's
        by more than a factor of two (plus one request of slack)."""
        q = max(1, len(self.outstanding) // 4)
        first = sum(self.outstanding[:q]) / q
        last = sum(self.outstanding[-q:]) / q
        return last > 2.0 * first + 1.0


def run_phase(server, queries, rate: float, clock: CompletionClock, tracer=None) -> Phase:
    """Offer ``queries`` at ``rate`` per second, then wait for every reply."""
    phase = Phase(rate=rate)
    base = len(clock.done_at)
    accepted = 0
    start = time.perf_counter() + 0.005
    for i, query in enumerate(queries):
        due = start + i / rate
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        phase.lag_s.append(time.perf_counter() - due)
        if tracer is not None:
            tracer.serving((base + accepted,))
        ticket = server.submit(query)
        phase.due.append(due)
        phase.tickets.append(ticket)
        if ticket.done and ticket.response.overloaded is not None:
            phase.position.append(None)
        else:
            phase.position.append(base + accepted)
            accepted += 1
        phase.outstanding.append(accepted - (len(clock.done_at) - base))
    for ticket in phase.tickets:
        try:
            ticket.wait(TICKET_TIMEOUT_S)
        except TimeoutError:
            phase.timed_out += 1
    for due, pos in zip(phase.due, phase.position):
        if pos is not None and pos < len(clock.done_at):
            phase.latency_s.append(clock.done_at[pos] - due)
    return phase
