"""The metrics a run prints are exactly the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import ledger
import workloads as W

DECLARED = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def fake_run():
    run = W.Run(latency_s=[0.002, 0.001, 0.003], rates=[90.0, 110.0, 100.0], call_wall_s=1.0)
    for name in W.STAT_FIELDS:
        run.stats[name] = 2
    run.queries = 2
    return run


def test_end_to_end_names_and_units():
    metrics = W.end_to_end(fake_run(), setup_s=1.5)
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["latency_p50_ms"][0] == 2.0
    assert metrics["throughput_qps"][0] == 100.0
    assert metrics["refine_pages_per_query"][0] == 1.0


def test_per_layer_names_and_units():
    split = dict.fromkeys(("import", "data", "index", "train", "populate", "total"), 0.5)
    metrics = W.per_layer(fake_run(), ledger.Tracer(), split, overhead=0.01)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_workloads_match():
    import settings

    assert [w["name"] for w in DECLARED["workloads"]] == list(settings.WORKLOADS)
