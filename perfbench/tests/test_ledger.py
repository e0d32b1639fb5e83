"""The benchmark's reporting rules: percentiles, failures, self time."""

import threading

import pytest

import ledger
from ledger import END, NAME, PARENT, START


class TestSampleCountRule:
    @pytest.mark.parametrize(
        "n, pct, ok",
        [
            (1000, 99.0, True),  # exactly ten beyond p99
            (999, 99.0, False),
            (200, 95.0, True),
            (199, 95.0, False),
            (100, 90.0, True),
            (99, 90.0, False),
            (10000, 99.9, True),
            (9999, 99.9, False),
        ],
    )
    def test_ten_samples_beyond(self, n, pct, ok):
        assert ledger.supports(n, pct) is ok

    @pytest.mark.parametrize(
        "n, label",
        [(10000, "p99.9"), (1000, "p99"), (999, "p95"), (200, "p95"), (100, "p90"), (40, "p75")],
    )
    def test_tail_is_highest_supported_rung(self, n, label):
        pct, _ = ledger.tail_percentile([float(i) for i in range(n)])
        assert ledger.pct_label(pct) == label

    def test_too_few_samples_report_no_tail(self):
        assert ledger.tail_percentile(list(range(39))) is None
        assert "tail" not in ledger.summarize_ms([0.001] * 39)

    def test_percentile_interpolates_like_numpy(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert ledger.median(samples) == 2.5
        assert ledger.percentile(samples, 90.0) == pytest.approx(3.7)
        assert ledger.percentile([5.0], 99.0) == 5.0

    def test_summary_is_in_milliseconds(self):
        summary = ledger.summarize_ms([0.001 * i for i in range(1, 101)])
        assert summary["n"] == 100
        assert summary["p50_ms"] == pytest.approx(50.5)
        assert summary["tail"] == "p90"
        assert summary["tail_ms"] == pytest.approx(90.1)


class TestTally:
    def test_counts_each_failure_once(self):
        tally = ledger.Tally()
        for reason in (None, "shed", None, "wrong"):
            tally.record(reason)
        assert tally.attempted == 4
        assert tally.failed == 2
        assert tally.wrong == 1
        assert tally.failed_frac == 0.5

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            ledger.Tally().fail("slow")

    def test_empty_tally(self):
        assert ledger.Tally().failed_frac == 0.0


def span(name, start, end, parent=-1):
    return [name, start, end, parent, ()]


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            span("engine", 0.0, 10.0),
            span("index", 1.0, 4.0, parent=0),
            span("refine", 5.0, 9.0, parent=0),
            span("storage", 6.0, 7.0, parent=2),
            span("storage", 7.5, 8.0, parent=2),
        ]
        assert ledger.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])

    def test_self_times_sum_to_root_duration(self):
        spans = [
            span("engine", 0.0, 10.0),
            span("index", 1.0, 4.0, parent=0),
            span("refine", 5.0, 9.0, parent=0),
            span("storage", 6.0, 7.0, parent=2),
        ]
        assert sum(ledger.self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span("engine", 0.0, 10.0),
            span("a", 1.0, 5.0, parent=0),
            span("b", 3.0, 6.0, parent=0),
            span("c", 8.0, 12.0, parent=0),  # runs past its parent
        ]
        assert ledger.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)

    def test_layer_totals(self):
        spans = [
            span("engine.search", 0.0, 10.0),
            span("cache.lookup", 1.0, 2.0, parent=0),
            span("cache.admit", 3.0, 3.5, parent=0),
        ]
        layer_of = {"engine.search": "engine", "cache.lookup": "cache", "cache.admit": "cache"}
        seconds, counts = ledger.layer_self_seconds([spans], layer_of)
        assert seconds == pytest.approx({"engine": 8.5, "cache": 1.5})
        assert counts == {"engine.search": 1, "cache.lookup": 1, "cache.admit": 1}


class _Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


class TestTracer:
    def test_nested_calls_record_parents_and_requests(self):
        tracer = ledger.Tracer()
        obj = _Layered()
        tracer.wrap(obj, "inner", "inner", count=lambda args, result: args[0])
        tracer.wrap(obj, "outer", "outer")
        tracer.serving(range(3, 5))
        assert obj.outer(7) == 15
        (spans,) = tracer.threads()
        assert [s[NAME] for s in spans] == ["outer", "inner"]
        assert spans[0][PARENT] == -1 and spans[1][PARENT] == 0
        assert spans[0][START] <= spans[1][START] <= spans[1][END] <= spans[0][END]
        assert all(s[ledger.REQUESTS] == range(3, 5) for s in spans)
        assert tracer.counts()["inner"] == 7

    def test_inactive_tracer_records_nothing(self):
        tracer = ledger.Tracer()
        obj = _Layered()
        tracer.wrap(obj, "inner", "inner", count=lambda args, result: 1)
        tracer.active = False
        assert obj.inner(3) == 6
        assert tracer.threads() == [] and not tracer.counts()
        tracer.active = True
        obj.inner(3)
        assert len(tracer.threads()[0]) == 1 and tracer.counts()["inner"] == 1

    def test_threads_keep_separate_lists(self):
        tracer = ledger.Tracer()
        obj = _Layered()
        tracer.wrap(obj, "inner", "inner")
        worker = threading.Thread(target=obj.inner, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        obj.inner(2)
        lists = tracer.threads()
        assert len(lists) == 2
        assert all(len(spans) == 1 and spans[0][PARENT] == -1 for spans in lists)

    def test_wrapper_keeps_signature(self):
        import inspect

        tracer = ledger.Tracer()
        obj = _Layered()
        tracer.wrap(obj, "inner", "inner")
        assert list(inspect.signature(obj.inner).parameters) == ["n"]
