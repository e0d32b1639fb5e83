"""Bookkeeping shared by every workload: percentiles, failures and spans.

Everything here is plain Python (no numpy, no ``repro``) so the rules the
benchmark reports by can be tested on hand-built inputs:

* :func:`tail_percentile` - the sample-count rule: a percentile is only
  reported when at least ten samples lie beyond it;
* :class:`Tally` - attempted/failed accounting, one entry per operation;
* :class:`Tracer` and :func:`self_times` - the traced run's span ledger
  and the self-time arithmetic that turns it into per-layer numbers.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``pct`` rank."""
    if n <= 0:
        return 0
    return n - math.ceil(round(n * pct / 100.0, 9))


def supports(n: int, pct: float) -> bool:
    """Whether ``n`` samples are enough to report percentile ``pct``."""
    return samples_beyond(n, pct) >= MIN_BEYOND


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of no samples")
    pos = (len(values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(samples) -> float:
    return percentile(samples, 50.0)


def tail_percentile(samples) -> tuple[float, float] | None:
    """``(pct, value)`` of the highest ladder percentile the samples support.

    None when even the lowest rung lacks ten samples beyond it.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if supports(n, pct):
            return pct, percentile(samples, pct)
    return None


def pct_label(pct: float) -> str:
    """``99.0 -> 'p99'``, ``99.9 -> 'p99.9'``."""
    return f"p{pct:g}"


def summarize_ms(samples_s) -> dict:
    """Median and rule-chosen tail of a list of seconds, in milliseconds."""
    out = {"n": len(samples_s)}
    if samples_s:
        out["p50_ms"] = median(samples_s) * 1e3
        tail = tail_percentile(samples_s)
        if tail is not None:
            out["tail"] = pct_label(tail[0])
            out["tail_ms"] = tail[1] * 1e3
    return out


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
#: Why an operation failed.  Each failed operation carries exactly one.
FAILURE_REASONS = ("shed", "degraded", "timeout", "raised", "wrong")


class Tally:
    """Attempted and failed operations of one measured run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        if reason not in FAILURE_REASONS:
            raise ValueError(f"unknown failure reason {reason!r}")
        self.attempted += 1
        self.failures[reason] += 1

    def record(self, reason: str | None) -> None:
        """Count one operation: ``None`` for success, else its reason."""
        if reason is None:
            self.ok()
        else:
            self.fail(reason)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def wrong(self) -> int:
        return self.failures["wrong"]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: Span record fields (a list, so the end time can be filled in place).
NAME, START, END, PARENT, REQUESTS = range(5)


class Tracer:
    """In-memory span recorder around wrapped calls.

    Each thread appends to its own list, so the serve dispatcher and the
    load generator never contend; parents are indexes into the same
    thread's list.  A span's ``requests`` is the request-id collection
    the calling thread was serving when the span opened (a batched call
    carries every request in its batch).
    """

    def __init__(self) -> None:
        #: wrapped calls pass straight through while False (warm-up)
        self.active = True
        self._local = threading.local()
        self._lists: list[list[list]] = []
        self._counts: list[Counter] = []
        self._lists_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.requests = ()
            local.counts = Counter()
            with self._lists_lock:
                self._lists.append(local.spans)
                self._counts.append(local.counts)
        return local

    def serving(self, requests) -> None:
        """Declare which requests the calling thread's next calls serve."""
        self._state().requests = requests

    # -- recording -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)``, when given, returns a work count added
        to the counter ``name`` after each call (e.g. pairs computed).
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if not tracer.active:
                return inner(*args, **kwargs)
            state = tracer._state()
            parent = state.stack[-1] if state.stack else -1
            span = [name, 0.0, 0.0, parent, state.requests]
            state.spans.append(span)
            state.stack.append(len(state.spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                state.stack.pop()
            if count is not None:
                state.counts[name] += count(args, result)
            return result

        setattr(owner, attr, traced)

    def counts(self) -> Counter:
        """Work counts summed over every thread."""
        total: Counter = Counter()
        with self._lists_lock:
            for counts in self._counts:
                total.update(counts)
        return total

    def threads(self) -> list[list[list]]:
        """Every thread's span list (each list's parents index into itself)."""
        with self._lists_lock:
            return list(self._lists)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` is one thread's list of span records; a child is a span
    whose ``PARENT`` is the parent's index.  Overlapping children count
    their union once, and child time outside the parent is ignored.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        intervals = sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_self_seconds(threads, layer_of) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and span counts per layer over every thread's spans.

    ``layer_of`` maps a span name to its layer.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for spans in threads:
        for span, own in zip(spans, self_times(spans)):
            layer = layer_of[span[NAME]]
            seconds[layer] = seconds.get(layer, 0.0) + own
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
    return seconds, counts
