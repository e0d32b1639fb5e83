"""One ``Pipeline`` record for both index families.

Trees and candidate-path indexes go through the same record, the same
experiment runner and the same snapshot code; the record always reports
(and ``save_snapshot`` always writes) the cache that is serving.  Specs
recorded from a registry dataset rebuild the very same points, and
manifests written before ``dataset.path`` was removed still load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts.snapshot import load_snapshot, save_snapshot, verify_snapshot
from repro.artifacts.state import cache_state
from repro.artifacts.store import read_manifest, write_manifest
from repro.cli import main
from repro.data.datasets import load_dataset
from repro.eval.methods import build_caching_pipeline
from repro.eval.runner import Experiment
from repro.faults import parse_fault_spec
from repro.mutate import MutablePipeline
from repro.spec.build import build_pipeline, spec_from_kwargs
from repro.spec.sections import (
    AdaptSection,
    CacheSection,
    DatasetSection,
    PipelineSpec,
)


@pytest.fixture(scope="module")
def small_tiny():
    return load_dataset("tiny", scale=0.3)


# ----------------------------------------------------------------------
# Trees through the shared record
# ----------------------------------------------------------------------
class TestTreeExperiments:
    @pytest.mark.parametrize("index_name", ["idistance", "vptree"])
    def test_run_returns_result(self, small_tiny, index_name):
        result = Experiment(
            small_tiny, index_name=index_name, cache_bytes=1 << 13
        ).run()
        assert result.num_queries == len(small_tiny.query_log.test)
        assert result.avg_refine_io > 0
        assert result.refine_time_s == pytest.approx(
            result.avg_refine_io * 5e-3
        )

    @pytest.mark.parametrize("index_name", ["idistance", "vptree"])
    def test_metrics_snapshot_without_drift_view(self, small_tiny, index_name):
        result = Experiment(
            small_tiny, index_name=index_name, metrics=True
        ).run()
        assert result.metrics is not None
        assert "observed_vs_predicted" not in result.metrics
        names = {metric["name"] for metric in result.metrics["metrics"]}
        assert "cache_capacity_bytes" in names

    def test_faults_rejected(self, small_tiny):
        experiment = Experiment(
            small_tiny,
            index_name="idistance",
            faults=parse_fault_spec("rate=0.5,seed=1"),
        )
        with pytest.raises(ValueError, match="point file"):
            experiment.run()

    def test_search_defaults_k_to_the_record(self, micro_dataset):
        pipeline = build_caching_pipeline(
            micro_dataset, method="EXACT", index_name="vptree", k=4,
            cache_bytes=1 << 14,
        )
        assert pipeline.k == 4
        query = micro_dataset.query_log.test[0]
        assert len(pipeline.search(query).ids) == 4
        assert [len(r.ids) for r in pipeline.search_many(query[None, :])] == [4]

    def test_mutable_tree_takes_k_from_the_record(self, micro_dataset):
        inner = build_caching_pipeline(
            micro_dataset, method="EXACT", index_name="idistance", k=3,
            cache_bytes=1 << 14,
        )
        mutable = MutablePipeline(inner)
        assert mutable.k == 3
        assert mutable.cache is inner.cache is not None


def test_snapshot_serve_adapt_on_tree_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "tree-snap"
    assert main([
        "snapshot", "build", str(path), "--dataset", "tiny", "--scale",
        "0.3", "--index", "idistance",
    ]) == 0
    capsys.readouterr()
    rc = main(["snapshot", "serve", str(path), "--adapt-every", "5"])
    assert rc == 2
    assert "error: --adapt-every" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The record reports the serving cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def adapted():
    spec = PipelineSpec(
        dataset=DatasetSection(name="tiny", scale=0.5),
        cache=CacheSection(method="HC-O", tau=6, cache_bytes=1 << 14),
        adapt=AdaptSection(enabled=True, every=5),
    )
    pipeline = build_pipeline(spec)
    original = pipeline.cache
    for query in pipeline.context.dataset.query_log.test:
        pipeline.search(query)
    return pipeline, original


def test_cache_follows_hot_swaps(adapted):
    pipeline, original = adapted
    assert pipeline.drift_controller.retrains == 4
    assert pipeline.cache is pipeline.engine.cache
    assert pipeline.cache is not original


def test_snapshot_after_retrain_restores_swapped_codes(adapted, tmp_path):
    pipeline, original = adapted
    save_snapshot(tmp_path / "snap", pipeline)
    restored = load_snapshot(tmp_path / "snap")
    _, served = cache_state(pipeline.engine.cache)
    _, stale = cache_state(original)
    _, loaded = cache_state(restored.cache)
    assert served.keys() == loaded.keys()
    for name in served:
        assert np.array_equal(np.asarray(loaded[name]), served[name]), name
    assert any(
        not np.array_equal(stale[name], served[name]) for name in served
    )
    query = pipeline.context.dataset.query_log.test[0]
    a, b = pipeline.search(query), restored.search(query)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)


# ----------------------------------------------------------------------
# Specs record the dataset that was built from
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "load_kwargs", [{"scale": 0.5}, {"seed": 3}], ids=["scale", "seed"]
)
def test_registry_dataset_round_trips_through_verify(tmp_path, load_kwargs):
    dataset = load_dataset("tiny", **load_kwargs)
    pipeline = build_caching_pipeline(
        dataset, method="HC-O", tau=6, cache_bytes=1 << 14
    )
    save_snapshot(tmp_path / "snap", pipeline)
    report = verify_snapshot(tmp_path / "snap", limit=5)
    assert report["ok"], report["mismatches"]


def test_spec_from_kwargs_copies_dataset_origin():
    dataset = load_dataset("tiny", seed=3, scale=0.5)
    section = spec_from_kwargs(dataset=dataset, seed=0).dataset
    assert section == DatasetSection(name="tiny", seed=3, scale=0.5)


def test_non_registry_dataset_keeps_pipeline_seed(micro_dataset):
    section = spec_from_kwargs(dataset=micro_dataset, seed=7).dataset
    assert section == DatasetSection(name="micro", seed=7, scale=1.0)


# ----------------------------------------------------------------------
# dataset.path: removed, but older manifests still load
# ----------------------------------------------------------------------
class TestRemovedDatasetPath:
    def test_null_path_from_older_manifests_loads(self):
        data = PipelineSpec().to_dict()
        data["dataset"]["path"] = None
        assert PipelineSpec.from_dict(data) == PipelineSpec()

    def test_non_null_path_is_rejected(self):
        data = PipelineSpec().to_dict()
        data["dataset"]["path"] = "data.npz"
        with pytest.raises(ValueError, match="dataset.path"):
            PipelineSpec.from_dict(data)

    def test_spec_no_longer_writes_path(self):
        assert "path" not in PipelineSpec().to_dict()["dataset"]

    def test_older_snapshot_loads_serves_and_verifies(self, tmp_path):
        dataset = load_dataset("tiny", scale=0.3)
        pipeline = build_caching_pipeline(
            dataset, method="HC-O", tau=6, cache_bytes=1 << 14
        )
        path = save_snapshot(tmp_path / "snap", pipeline)
        manifest = read_manifest(path)
        manifest["spec"]["dataset"]["path"] = None  # the older layout
        write_manifest(path, manifest)
        restored = load_snapshot(path)
        assert restored.spec == pipeline.spec
        query = dataset.query_log.test[0]
        assert np.array_equal(
            restored.search(query).ids, pipeline.search(query).ids
        )
        assert verify_snapshot(path, limit=5)["ok"]
