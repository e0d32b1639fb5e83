"""Frozen workload definitions (plain data, importable before any timing).

The corpus and the index geometry are fixed: every workload builds the
``nus-wide-sim`` generator's points from ``CORPUS_SEED`` at its own
scale, and trains its index and cache with that seed.  The ``--seed``
argument draws what the system is asked to do: the request streams, the
batch query set, and the churn workload's query pool and mutations.
"""

from __future__ import annotations

from dataclasses import dataclass

CORPUS = "nus-wide-sim"
CORPUS_SEED = 0
K = 10
METHOD = "HC-O"
TAU = 8

#: Added to ``--seed`` wherever a stream seed must differ from training.
STREAM_SALT = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    index: str  # repro index family
    packages: tuple  # imported during the set-up's import phase
    scale: float  # corpus scale (0.1 = 3 000 points of 150 dims)
    cache_frac: float  # cache budget as a share of the data file's bytes


SERVE = Workload("serve-c2lsh-hot", "c2lsh", ("repro.lsh", "repro.serve"), 0.2, 0.30)
BATCH = Workload("batch-linear-kernel", "linear", ("repro.index",), 0.1, 1.0)
CHURN = Workload("churn-vafile-cold", "vafile", ("repro.index", "repro.mutate"), 0.1, 0.05)
WORKLOADS = {w.name: w for w in (SERVE, BATCH, CHURN)}

# -- serve-c2lsh-hot: open loop through Server + ThreadedExecutor ---------
#: Offered rates (requests/s): 1/4, 1/2 and 3/4 of 100 q/s, the
#: dispatcher capacity this configuration measured (median over seeded
#: runs, 104-111 q/s, rounded down) before the rates were frozen.
SERVE_RATES = (25.0, 50.0, 75.0)
#: Share of ``--seconds`` spent at each rate.  latency_p50_ms is gated at
#: the lowest rate: on a host whose speed drifts by a third, queueing at the
#: middle rate amplified the drift into run-to-run latency spreads near the
#: bound, while the lowest rate's latency tracks service time.
SERVE_SHARES = (0.6, 0.2, 0.2)
SERVE_ZIPF = 1.1
#: Latency limit on each rate's tail percentile, for max_qps_under_slo.
SLO_MS = 50.0
#: Batches per window of the dispatcher's service rate (throughput_qps).
SERVE_WINDOW_BATCHES = 32
#: Untimed warm-up at the lowest rate before the measured phases.
SERVE_WARMUP_S = 1.0

# -- batch-linear-kernel: offline search_many over a fixed query set -----
BATCH_QUERIES = 1024
BATCH_WARMUP_QUERIES = 256
BATCH_MIN_PASSES = 2

# -- churn-vafile-cold: one closed-loop client with writes ----------------
CHURN_POOL = 2000
CHURN_ZIPF = 0.6
#: The query script holds max(CHURN_MIN_QUERIES, CHURN_QPS * seconds)
#: queries, so a run's counts are fixed by (seed, seconds).
CHURN_QPS = 80
CHURN_MIN_QUERIES = 1000
CHURN_WARMUP_QUERIES = 100
#: Queries per block of the loop's throughput (writes in the block included).
CHURN_BLOCK = 100
MUTATE_EVERY = 10  # one insert + one delete per this many queries
FENCE_EVERY = 50  # patch_fence per this many queries
#: Inserted rows are base rows moved by Gaussian noise of this share of
#: the value span, then snapped onto the trained value domain.
INSERT_NOISE = 0.02

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
