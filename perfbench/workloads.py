"""Set-up, reference answers and measured loops of the three workloads.

Everything reaches the program through its public entry points:
``load_dataset`` / ``generate_query_log`` for inputs,
``WorkloadContext.prepare`` + ``build_caching_pipeline`` for the engine,
``MutablePipeline`` for writes and ``Server`` + ``ThreadedExecutor`` for
serving.  Importing this module imports ``repro`` and numpy, so the
entry point imports it only once its set-up clock is running.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

import repro.workload.train as train
from repro import build_caching_pipeline, load_dataset
from repro.core.cache import ApproximateCache
from repro.data.workload import generate_query_log
from repro.eval.methods import WorkloadContext

import ledger
import settings as S
from openloop import CompletionClock, run_phase

perf = time.perf_counter

#: Span name -> layer, for every call the traced run wraps.
LAYER_OF = {
    "engine.search": "engine",
    "engine.search_many": "engine",
    "index.candidates": "index",
    "cache.lookup": "cache",
    "cache.lookup_batch": "cache",
    "cache.admit": "cache",
    "reduce.run": "reduce",
    "refine.run": "refine",
    "storage.fetch": "storage",
    "serve.submit": "serve",
    "mutate.insert": "mutate",
    "mutate.delete": "mutate",
    "mutate.patch_fence": "mutate",
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Built:
    workload: S.Workload
    dataset: object
    context: object
    pipeline: object
    mutable: object | None  # a MutablePipeline on the churn workload
    #: seconds per set-up phase: import, data, index, train, populate, total
    split: dict


@contextlib.contextmanager
def _timing(owner, attr: str, total: list):
    """Temporarily wrap ``owner.attr`` so its call time adds to ``total[0]``."""
    inner = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = perf()
        try:
            return inner(*args, **kwargs)
        finally:
            total[0] += perf() - start

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, inner)


def build(name: str, t0: float | None = None) -> Built:
    """Build a workload's engine, timing each set-up phase.

    ``t0`` is when the interpreter started importing ``repro`` (the
    import phase counts from there); without it the import phase only
    covers the workload's own packages.
    """
    wl = S.WORKLOADS[name]
    start = perf()
    for package in wl.packages:
        import_module(package)
    split = {"import": perf() - (t0 if t0 is not None else start)}

    start = perf()
    dataset = load_dataset(S.CORPUS, seed=S.CORPUS_SEED, scale=wl.scale)
    split["data"] = perf() - start

    derive, populate = [0.0], [0.0]
    with _timing(train, "derive_workload", derive), _timing(
        ApproximateCache, "populate_hff", populate
    ):
        start = perf()
        context = WorkloadContext.prepare(
            dataset, index_name=wl.index, k=S.K, seed=S.CORPUS_SEED
        )
        prepared = perf() - start
        start = perf()
        pipeline = build_caching_pipeline(
            dataset,
            method=S.METHOD,
            tau=S.TAU,
            cache_bytes=int(wl.cache_frac * dataset.file_bytes),
            index_name=wl.index,
            k=S.K,
            seed=S.CORPUS_SEED,
            context=context,
        )
        mutable = None
        if wl is S.CHURN:
            from repro.mutate import MutablePipeline

            mutable = MutablePipeline(pipeline)
        trained = perf() - start
    split["index"] = prepared - derive[0]
    split["train"] = derive[0] + trained - populate[0]
    split["populate"] = populate[0]
    split["total"] = sum(split.values())
    return Built(wl, dataset, context, pipeline, mutable, split)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Reference answers and the answer check
# ----------------------------------------------------------------------
def distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distances, summed in the same order as the engine's."""
    return np.sqrt(np.sum((points - query) ** 2, axis=-1))


def exact_reference(points: np.ndarray, live: np.ndarray, query, k: int) -> np.ndarray:
    """Sorted distances of the exact kNN over the rows ``live`` marks."""
    d = distances(points[live], query)
    kk = min(k, len(d))
    return np.sort(np.partition(d, kk - 1)[:kk])


def verdict(result, query, reference, points, live) -> str | None:
    """Failure reason of one answer (None when it is right).

    The answer must hold distinct live ids whose true distances equal
    the reference's (ties may pick other ids at the same distance); a
    distance flagged exact must be the true one, and any other must be
    an upper bound of it.
    """
    if not result.outcome.complete:
        return "degraded"
    ids = np.asarray(result.ids, dtype=np.int64)
    if len(ids) != len(reference) or len(np.unique(ids)) != len(ids):
        return "wrong"
    if ids.size and not live[ids].all():
        return "wrong"
    true = distances(points[ids], query)
    if not np.allclose(np.sort(true), reference, rtol=1e-9, atol=1e-9):
        return "wrong"
    got = np.asarray(result.distances, dtype=np.float64)
    exact = np.asarray(result.exact_mask, dtype=bool)
    if not np.allclose(got[exact], true[exact], rtol=1e-9, atol=1e-9):
        return "wrong"
    if np.any(got[~exact] < true[~exact] * (1 - 1e-9) - 1e-9):
        return "wrong"
    return None


def response_verdict(response, query, reference, points, live) -> str | None:
    """Failure reason of one served request (None when it is right)."""
    if response is None:
        return "timeout"
    if response.overloaded is not None:
        return "shed"
    return verdict(response.result, query, reference, points, live)


# ----------------------------------------------------------------------
# Measured runs
# ----------------------------------------------------------------------
STAT_FIELDS = (
    "num_candidates",
    "cache_hits",
    "pruned",
    "confirmed",
    "c_refine",
    "refine_page_reads",
    "gen_page_reads",
)


@dataclass
class Run:
    """What one measured pass observed."""

    queries: int = 0
    tally: ledger.Tally = field(default_factory=ledger.Tally)
    stats: dict = field(default_factory=lambda: dict.fromkeys(STAT_FIELDS, 0))
    #: the gated latency samples, seconds
    latency_s: list = field(default_factory=list)
    #: queries per second of each measured block; throughput_qps is
    #: their median, so a burst of contention moves it less
    rates: list = field(default_factory=list)
    #: wall seconds of the calls the trace attributes to layers
    call_wall_s: float = 0.0
    #: per-layer values only this workload has (serve.*, mutate.*)
    layer: dict = field(default_factory=dict)
    #: printed-only end-to-end lines: name -> (value, unit, note)
    extra: dict = field(default_factory=dict)

    def add_stats(self, stats) -> None:
        self.queries += 1
        for name in STAT_FIELDS:
            self.stats[name] += getattr(stats, name)


def _instrument(tracer: ledger.Tracer, built: Built) -> None:
    """Wrap every layer entry point of a built pipeline in spans."""
    engine = built.pipeline.engine
    hits = lambda args, result: int(np.count_nonzero(result[0]))  # noqa: E731
    tracer.wrap(engine, "search", "engine.search")
    tracer.wrap(engine, "search_many", "engine.search_many")
    tracer.wrap(built.context.index, "candidates", "index.candidates")
    tracer.wrap(engine.cache, "lookup", "cache.lookup", count=hits)
    tracer.wrap(
        engine.cache,
        "lookup_batch",
        "cache.lookup_batch",
        count=lambda args, result: len(np.atleast_2d(args[0]))
        * int(np.count_nonzero(result[0])),
    )
    tracer.wrap(engine.cache, "admit", "cache.admit")
    tracer.wrap(engine.reduce, "run", "reduce.run")
    tracer.wrap(engine.refine, "run", "refine.run")
    tracer.wrap(
        built.context.point_file,
        "fetch",
        "storage.fetch",
        count=lambda args, result: len(result),
    )
    if built.mutable is not None:
        for attr in ("insert", "delete", "patch_fence"):
            tracer.wrap(built.mutable, attr, f"mutate.{attr}")


#: Points at which a measured pass pauses (``pause()``), spreading it over
#: a longer stretch of wall time: host speed drifts over tens of seconds,
#: and the entry point times its extra set-ups in these pauses.
BREAKS = 2


def _no_pause() -> None:
    pass


def _raised(tally: ledger.Tally) -> None:
    """Count an operation that raised, keeping its traceback visible."""
    traceback.print_exc(file=sys.stderr)
    tally.fail("raised")


def _zipf_draws(rank_order: np.ndarray, n: int, s: float, rng) -> np.ndarray:
    """``n`` pool indices whose rank ``r`` (``rank_order[r-1]``) has weight ``r**-s``."""
    weights = np.arange(1, len(rank_order) + 1, dtype=np.float64) ** -s
    prob = np.empty(len(rank_order))
    prob[rank_order] = weights / weights.sum()
    return rng.choice(len(rank_order), size=n, p=prob)


class Serve:
    """serve-c2lsh-hot: Zipf stream over the trained pool, open loop."""

    def __init__(self, built: Built, seed: int) -> None:
        self.built = built
        log = built.dataset.query_log
        self.pool = log.pool
        counts = np.bincount(log.workload_idx, minlength=len(self.pool))
        self.rank_order = np.argsort(-counts, kind="stable")
        self.rng = np.random.default_rng([seed, S.STREAM_SALT])
        self.reference: dict[int, np.ndarray] = {}
        self.nocache = build_caching_pipeline(
            built.dataset,
            method="NO-CACHE",
            index_name=built.workload.index,
            k=S.K,
            seed=S.CORPUS_SEED,
            context=built.context,
        )

    def _stream(self, n: int) -> np.ndarray:
        """Draw ``n`` requests; computes references for new pool queries."""
        draws = _zipf_draws(self.rank_order, n, S.SERVE_ZIPF, self.rng)
        for idx in np.unique(draws).tolist():
            if idx not in self.reference:
                answer = self.nocache.search(self.pool[idx], S.K)
                if not answer.exact_mask.all():
                    raise RuntimeError("NO-CACHE reference answer is not exact")
                self.reference[idx] = np.sort(answer.distances)
        return draws

    def prepare(self, seconds: float) -> dict:
        warm = self._stream(round(S.SERVE_RATES[0] * S.SERVE_WARMUP_S))
        phases = [
            self._stream(max(1, round(rate * share * seconds)))
            for rate, share in zip(S.SERVE_RATES, S.SERVE_SHARES)
        ]
        return {"warm": warm, "phases": phases}

    def run(self, inputs: dict, tracer: ledger.Tracer | None = None, pause=_no_pause) -> Run:
        from repro.serve import ServeConfig, Server, ThreadedExecutor

        built = self.built
        engine = built.pipeline.engine
        points = built.dataset.points
        live = np.ones(len(points), dtype=bool)
        if tracer is not None:
            _instrument(tracer, built)
        clock = CompletionClock(engine, tracer)
        server = Server(
            built.pipeline, ServeConfig(), default_k=S.K, executor=ThreadedExecutor()
        )
        if tracer is not None:
            tracer.wrap(server, "submit", "serve.submit")
            tracer.active = False
        try:
            run_phase(server, self.pool[inputs["warm"]], S.SERVE_RATES[0], clock)
            first_batch = len(clock.batches)
            if tracer is not None:
                tracer.active = True
            phases = []
            for rate, draws in zip(S.SERVE_RATES, inputs["phases"]):
                if phases:
                    pause()
                phases.append(run_phase(server, self.pool[draws], rate, clock, tracer))
        finally:
            server.close()
            clock.close()
        out = Run()
        starts = [start for start, _, size in clock.batches for _ in range(size)]
        waits, lags, degraded, shed, phase_failed = [], [], 0, 0, []
        for phase, draws in zip(phases, inputs["phases"]):
            lags.extend(phase.lag_s)
            failed_before = out.tally.failed
            for ticket, idx, due, lag, pos in zip(
                phase.tickets, draws, phase.due, phase.lag_s, phase.position
            ):
                response = ticket.response
                reason = response_verdict(
                    response, self.pool[idx], self.reference[idx], points, live
                )
                out.tally.record(reason)
                degraded += reason == "degraded"
                shed += reason == "shed"
                if response is not None and response.result is not None:
                    out.add_stats(response.result.stats)
                if pos is not None and pos < len(starts):
                    waits.append(starts[pos] - (due + lag))
            phase_failed.append(out.tally.failed - failed_before)
        out.latency_s = phases[0].latency_s
        batches = clock.batches[first_batch:]
        for i in range(0, len(batches), S.SERVE_WINDOW_BATCHES):
            window = batches[i : i + S.SERVE_WINDOW_BATCHES]
            out.rates.append(
                sum(size for _, _, size in window)
                / sum(end - start for start, end, _ in window)
            )
        out.call_wall_s = sum(end - start for start, end, _ in batches)
        served = sum(size for _, _, size in batches)
        n_batches = len(batches)
        out.layer = {
            "serve.batch_size_mean": served / max(1, n_batches),
            "serve.backlog_max": max(max(p.outstanding) for p in phases),
            "serve.shed": shed,
            "serve.degraded": degraded,
        }
        wait = ledger.summarize_ms(waits)
        lag = ledger.summarize_ms(lags)
        out.extra["serve.queue_wait_p50_ms"] = (wait.get("p50_ms"), "ms", f"n={wait['n']}")
        if "tail" in wait:
            out.extra[f"serve.queue_wait_{wait['tail']}_ms"] = (wait["tail_ms"], "ms", f"n={wait['n']}")
        if "tail" in lag:
            out.extra[f"serve.generator_lag_{lag['tail']}_ms"] = (lag["tail_ms"], "ms", f"n={lag['n']}")
        best = 0.0
        for label, phase, draws, failed in zip(
            ("low", "mid", "high"), phases, inputs["phases"], phase_failed
        ):
            summary = ledger.summarize_ms(phase.latency_s)
            note = f"at {phase.rate:g} q/s, sent {len(draws)}, failed {failed}"
            out.extra[f"latency_p50_ms.{label}"] = (summary.get("p50_ms"), "ms", note)
            if "tail" in summary:
                out.extra[f"latency_{summary['tail']}_ms.{label}"] = (summary["tail_ms"], "ms", note)
            meets = (
                "tail_ms" in summary
                and summary["tail_ms"] <= S.SLO_MS
                and not phase.backlog_grew
                and not failed
            )
            if meets:
                best = phase.rate
        out.extra["max_qps_under_slo"] = (best, "1/s", f"tail latency <= {S.SLO_MS:g} ms")
        return out


class Batch:
    """batch-linear-kernel: offline search_many over a fixed query set."""

    def __init__(self, built: Built, seed: int) -> None:
        self.built = built
        points = built.dataset.points
        self.queries = generate_query_log(
            points,
            pool_size=S.BATCH_QUERIES,
            workload_size=0,
            test_size=1,
            zipf_s=0.0,
            seed=seed + S.STREAM_SALT,
        ).pool
        live = np.ones(len(points), dtype=bool)
        self.reference = [exact_reference(points, live, q, S.K) for q in self.queries]

    def prepare(self, seconds: float) -> dict:
        return {"seconds": seconds}

    def run(self, inputs: dict, tracer: ledger.Tracer | None = None, pause=_no_pause) -> Run:
        built = self.built
        engine = built.pipeline.engine
        points = built.dataset.points
        live = np.ones(len(points), dtype=bool)
        engine.search_many(self.queries[: S.BATCH_WARMUP_QUERIES], S.K)
        if tracer is not None:
            _instrument(tracer, built)
        out = Run()
        n = len(self.queries)
        deadline = perf() + inputs["seconds"]
        passes = 0
        while passes < S.BATCH_MIN_PASSES or perf() < deadline:
            if tracer is not None:
                tracer.serving(range(passes * n, (passes + 1) * n))
            start = perf()
            try:
                results = engine.search_many(self.queries, S.K)
            except Exception:
                _raised(out.tally)
                break
            out.latency_s.append(perf() - start)
            out.rates.append(n / out.latency_s[-1])
            passes += 1
            for query, ref, result in zip(self.queries, self.reference, results):
                out.tally.record(verdict(result, query, ref, points, live))
                out.add_stats(result.stats)
            if passes <= BREAKS:
                paused = perf()
                pause()
                deadline += perf() - paused
        out.call_wall_s = sum(out.latency_s)
        out.layer = {"serve.batch_size_mean": float(n)}
        return out


class Churn:
    """churn-vafile-cold: one closed-loop client mixing reads and writes."""

    def __init__(self, built: Built, seed: int) -> None:
        self.built = built
        self.seed = seed

    def prepare(self, seconds: float) -> dict:
        points = self.built.dataset.points
        n_base = len(points)
        n_q = max(S.CHURN_MIN_QUERIES, round(S.CHURN_QPS * seconds))
        log = generate_query_log(
            points,
            pool_size=S.CHURN_POOL,
            workload_size=S.CHURN_WARMUP_QUERIES + n_q,
            test_size=1,
            zipf_s=S.CHURN_ZIPF,
            seed=self.seed + S.STREAM_SALT,
        )
        stream = log.workload
        rng = np.random.default_rng([self.seed, S.STREAM_SALT, 1])
        n_pairs = n_q // S.MUTATE_EVERY
        span = float(points.max() - points.min())
        moved = points[rng.integers(n_base, size=n_pairs)] + rng.normal(
            scale=S.INSERT_NOISE * span, size=(n_pairs, points.shape[1])
        )
        return {
            "warm": stream[: S.CHURN_WARMUP_QUERIES],
            "queries": stream[S.CHURN_WARMUP_QUERIES :],
            "inserts": self.built.mutable.quantize(moved),
            "deletes": rng.permutation(n_base)[:n_pairs].astype(np.int64),
        }

    def run(self, inputs: dict, tracer: ledger.Tracer | None = None, pause=_no_pause) -> Run:
        built = self.built
        mp = built.mutable
        n_base = len(built.dataset.points)
        for query in inputs["warm"]:
            mp.search(query)
        if tracer is not None:
            _instrument(tracer, built)
        out = Run()
        log = []  # replay log: ("q", i, result) | ("ins", ids) | ("del", ids)
        insert_s, delete_s, pair_s, fence_s = [], [], [], []
        admits = 0
        queries = inputs["queries"]
        blocks = -(-len(queries) // S.CHURN_BLOCK)
        breaks = {S.CHURN_BLOCK * (blocks * b // (BREAKS + 1)) for b in range(1, BREAKS + 1)}
        block_start = perf()
        for i, query in enumerate(queries):
            if tracer is not None:
                tracer.serving((i,))
            start = perf()
            try:
                log.append(("q", i, mp.search(query)))
                out.latency_s.append(perf() - start)
            except Exception:
                out.latency_s.append(perf() - start)
                _raised(out.tally)
            done = i + 1
            if done % S.MUTATE_EVERY == 0:
                j = done // S.MUTATE_EVERY - 1
                if tracer is not None:
                    tracer.serving((f"insert-{j}",))
                start = perf()
                try:
                    log.append(("ins", mp.insert(inputs["inserts"][j : j + 1])))
                    out.tally.ok()
                except Exception:
                    _raised(out.tally)
                middle = perf()
                if tracer is not None:
                    tracer.serving((f"delete-{j}",))
                try:
                    log.append(("del", mp.delete(inputs["deletes"][j : j + 1])))
                    out.tally.ok()
                except Exception:
                    _raised(out.tally)
                end = perf()
                insert_s.append(middle - start)
                delete_s.append(end - middle)
                pair_s.append(end - start)
            if done % S.FENCE_EVERY == 0:
                if tracer is not None:
                    tracer.serving((f"fence-{done // S.FENCE_EVERY}",))
                start = perf()
                try:
                    admits += mp.patch_fence()
                    out.tally.ok()
                except Exception:
                    _raised(out.tally)
                fence_s.append(perf() - start)
            if done % S.CHURN_BLOCK == 0 or done == len(queries):
                now = perf()
                out.rates.append(((done - 1) % S.CHURN_BLOCK + 1) / (now - block_start))
                if done in breaks:
                    pause()
                block_start = perf()
        out.call_wall_s = sum(out.latency_s) + sum(pair_s) + sum(fence_s)

        # Replay the write log against brute force over the live rows.
        points = mp.data.points
        live = np.zeros(len(points), dtype=bool)
        live[:n_base] = True
        for entry in log:
            if entry[0] == "ins":
                live[entry[1]] = True
            elif entry[0] == "del":
                live[entry[1]] = False
            else:
                _, i, result = entry
                ref = exact_reference(points, live, queries[i], S.K)
                out.tally.record(verdict(result, queries[i], ref, points, live))
                out.add_stats(result.stats)

        pairs = ledger.summarize_ms(pair_s)
        out.extra["mutation_p50_ms"] = (pairs.get("p50_ms"), "ms", f"insert+delete pairs, n={pairs['n']}")
        if "tail" in pairs:
            out.extra[f"mutation_{pairs['tail']}_ms"] = (pairs["tail_ms"], "ms", f"n={pairs['n']}")
        for name, samples in (("insert", insert_s), ("delete", delete_s), ("fence", fence_s)):
            summary = ledger.summarize_ms(samples)
            out.extra[f"mutate.{name}_ms_p50"] = (summary.get("p50_ms"), "ms", f"n={summary['n']}")
        out.layer = {
            "mutate.cache_admits": admits,
            "mutate.patched_rows": mp.counters.cache_patched_total,
        }
        return out


RUNNERS = {S.SERVE.name: Serve, S.BATCH.name: Batch, S.CHURN.name: Churn}


# ----------------------------------------------------------------------
# Reported metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, setup_s: float) -> dict:
    """The gated end-to-end metrics: name -> (value, unit)."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_p50_ms": (ledger.median(run.latency_s) * 1e3, "ms"),
        "throughput_qps": (ledger.median(run.rates), "1/s"),
        "refine_pages_per_query": (run.stats["refine_page_reads"] / run.queries, "pages"),
    }


#: Per-layer counts of a workload that does not use the layer (a closed
#: loop hands the engine one request per call).
LAYER_DEFAULTS = {
    "serve.batch_size_mean": 1.0,
    "serve.backlog_max": 0,
    "serve.shed": 0,
    "serve.degraded": 0,
    "mutate.cache_admits": 0,
    "mutate.patched_rows": 0,
}


def per_layer(run: Run, tracer: ledger.Tracer, split: dict, overhead: float) -> dict:
    """The traced pass's per-layer metrics: name -> (value, unit)."""
    n = run.queries
    busy, span_counts = ledger.layer_self_seconds(tracer.threads(), LAYER_OF)
    work = tracer.counts()
    st = run.stats
    ms = lambda layer: busy.get(layer, 0.0) * 1e3 / n  # noqa: E731
    pairs = work["cache.lookup"] + work["cache.lookup_batch"]
    cache_calls = sum(span_counts.get(f"cache.{c}", 0) for c in ("lookup", "lookup_batch", "admit"))
    attributed = sum(v for layer, v in busy.items() if layer != "serve")
    out = {f"setup.{phase}_s": (split[phase], "s") for phase in ("import", "data", "index", "train", "populate")}
    out.update(
        {
            "index.busy_ms_per_query": (ms("index"), "ms"),
            "index.candidates_per_query": (st["num_candidates"] / n, "count"),
            "index.pages_per_query": (st["gen_page_reads"] / n, "pages"),
            "cache.busy_ms_per_query": (ms("cache"), "ms"),
            "cache.calls_per_query": (cache_calls / n, "count"),
            "cache.pairs_computed_per_query": (pairs / n, "count"),
            "cache.pairs_used_ratio": (st["cache_hits"] / pairs if pairs else 0.0, "ratio"),
            "cache.hit_ratio": (st["cache_hits"] / st["num_candidates"], "ratio"),
            "reduce.busy_ms_per_query": (ms("reduce"), "ms"),
            "reduce.pruned_frac": (st["pruned"] / st["num_candidates"], "ratio"),
            "reduce.confirmed_frac": (st["confirmed"] / st["num_candidates"], "ratio"),
            "reduce.c_refine_per_query": (st["c_refine"] / n, "count"),
            "refine.busy_ms_per_query": (ms("refine"), "ms"),
            "storage.busy_ms_per_query": (ms("storage"), "ms"),
            "storage.fetch_calls_per_query": (span_counts.get("storage.fetch", 0) / n, "count"),
            "storage.points_fetched_per_query": (work["storage.fetch"] / n, "count"),
            "engine.self_ms_per_query": (ms("engine"), "ms"),
        }
    )
    out.update({name: (value, "count") for name, value in dict(LAYER_DEFAULTS, **run.layer).items()})
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.accounted_frac"] = (attributed / run.call_wall_s, "ratio")
    return out


def dump_trace(path, tracer: ledger.Tracer) -> None:
    """Write every thread's spans as JSON (ranges as [first, stop])."""

    def requests(value):
        if isinstance(value, range):
            return [value.start, value.stop]
        return list(value)

    threads = [
        [[s[0], s[1], s[2], s[3], requests(s[4])] for s in spans]
        for spans in tracer.threads()
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "requests"], "threads": threads}, fh)
