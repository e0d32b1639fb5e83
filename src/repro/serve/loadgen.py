"""Open-loop load generation against a :class:`~repro.serve.server.Server`.

Open-loop means arrivals are paced by the *offered* rate alone — the
generator never waits for a response before submitting the next request,
so queueing delay shows up in the measured latency instead of silently
throttling the arrival process (the coordinated-omission mistake that
closed-loop replay makes).  A paced request's latency is measured from
its *scheduled* arrival, so a stall that holds up later submissions is
charged to them too.

Pacing runs through the server's :class:`~repro.serve.clock.Clock`, so
under a ``ManualClock`` the generator is deterministic and instantaneous;
``rate_qps=0`` disables pacing entirely (saturating load: every request
is offered as fast as the loop can submit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LoadReport:
    """Aggregate of one open-loop run at a fixed offered rate.

    The latency percentiles cover *served* requests only — shed
    (``Overloaded``) submissions complete instantly at admission and
    would fraudulently drag the percentiles down if mixed in.  The
    ``per_tier`` breakdown splits each tier's outcomes into served /
    shed / degraded / expired (``expired`` is the subset of degraded
    answered from the SLA deadline alone; other degraded reasons —
    brownout, replica failure — stay out of it).
    """

    offered_qps: float
    duration_s: float
    submitted: int
    served: int
    rejected: int
    degraded: int
    expired: int
    achieved_qps: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    mean_batch_size: float
    mutations: int = 0
    per_tier: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "offered_qps": self.offered_qps,
            "duration_s": self.duration_s,
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "expired": self.expired,
            "mutations": self.mutations,
            "achieved_qps": self.achieved_qps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "mean_batch_size": self.mean_batch_size,
            "per_tier": {
                tier: dict(counts) for tier, counts in self.per_tier.items()
            },
        }


def _is_expired(response) -> bool:
    """Degraded specifically because the SLA deadline ran out."""
    return (
        response.degraded
        and getattr(response.result.outcome, "reason", None) == "deadline"
    )


def run_open_loop(
    server,
    queries: np.ndarray,
    k: int | None = None,
    tier: str | None = None,
    rate_qps: float = 0.0,
    timeout_s: float = 60.0,
    mutator=None,
    churn_rate: float = 0.0,
) -> LoadReport:
    """Offer ``queries`` at ``rate_qps`` and report the latency profile.

    With ``rate_qps > 0`` request ``i`` is due at ``start + i / rate_qps``
    and its latency runs from that due time to completion; with
    ``rate_qps=0`` it runs from admission.

    With an inline executor the generator pumps the server after every
    arrival (flush rules still decide when batches actually go out) and
    drains at the end; with a threaded executor the dispatcher flushes on
    its own and the generator just waits for every ticket.

    With ``mutator`` and ``churn_rate > 0``, the generator interleaves
    ``churn_rate`` mutations per offered query into the arrival stream:
    ``mutator()`` must return a zero-argument mutation callable, which is
    admitted through :meth:`~repro.serve.server.Server.submit_mutation`
    (a fence ticket — no micro-batch straddles it).  Mutation tickets are
    excluded from the latency profile; ``LoadReport.mutations`` counts
    the ones that were admitted.
    """
    if rate_qps < 0:
        raise ValueError("rate_qps must be non-negative")
    if churn_rate < 0:
        raise ValueError("churn_rate must be non-negative")
    if churn_rate > 0 and mutator is None:
        raise ValueError("churn_rate requires a mutator")
    clock = server.clock
    inline = server.executor.inline
    start = clock.now()
    tickets = []
    # per request: how long after its due time it was admitted
    late_s = []
    mutation_tickets = []
    churn_acc = 0.0
    for i, query in enumerate(np.asarray(queries)):
        late = 0.0
        if rate_qps > 0:
            target = start + i / rate_qps
            now = clock.now()
            if target > now:
                clock.sleep(target - now)
            late = max(clock.now() - target, 0.0)
        late_s.append(late)
        tickets.append(server.submit(query, k=k, tier=tier))
        if mutator is not None and churn_rate > 0:
            churn_acc += churn_rate
            while churn_acc >= 1.0:
                churn_acc -= 1.0
                mutation_tickets.append(
                    server.submit_mutation(mutator(), tier=tier)
                )
        if inline:
            server.pump()
    if inline:
        server.drain()
        responses = [t.response for t in tickets]
        mutation_responses = [t.response for t in mutation_tickets]
    else:
        responses = [t.wait(timeout_s) for t in tickets]
        mutation_responses = [t.wait(timeout_s) for t in mutation_tickets]
    duration_s = max(clock.now() - start, 1e-12)

    served = [r for r in responses if r.ok]
    rejected = len(responses) - len(served)
    degraded = sum(1 for r in served if r.degraded)
    expired = sum(1 for r in served if _is_expired(r))
    per_tier: dict[str, dict[str, int]] = {}
    for response in responses:
        counts = per_tier.setdefault(
            response.tier,
            {"served": 0, "shed": 0, "degraded": 0, "expired": 0},
        )
        if not response.ok:
            counts["shed"] += 1
            continue
        counts["served"] += 1
        if response.degraded:
            counts["degraded"] += 1
        if _is_expired(response):
            counts["expired"] += 1
    latencies_ms = np.array(
        [(r.latency_s + late) * 1e3 for r, late in zip(responses, late_s) if r.ok]
    )
    batch_sizes = np.array([r.batch_size for r in served])
    return LoadReport(
        offered_qps=rate_qps,
        duration_s=duration_s,
        submitted=len(responses),
        served=len(served),
        rejected=rejected,
        degraded=degraded,
        expired=expired,
        achieved_qps=len(served) / duration_s,
        latency_p50_ms=(
            float(np.percentile(latencies_ms, 50)) if len(served) else 0.0
        ),
        latency_p99_ms=(
            float(np.percentile(latencies_ms, 99)) if len(served) else 0.0
        ),
        latency_mean_ms=(
            float(latencies_ms.mean()) if len(served) else 0.0
        ),
        mean_batch_size=(
            float(batch_sizes.mean()) if len(served) else 0.0
        ),
        mutations=sum(1 for r in mutation_responses if r.ok),
        per_tier=per_tier,
    )
