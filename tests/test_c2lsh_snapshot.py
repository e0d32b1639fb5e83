"""A snapshot-restored C2LSH index is the live index, down to its pages.

Build and restore share ``C2LSHIndex``'s one setup path, so a restored
index carries every attribute a built one has (``seed`` included, which
the from-scratch reference twin reads).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts.errors import ArtifactError
from repro.artifacts.snapshot import load_snapshot, save_snapshot
from repro.artifacts.state import index_state, restore_index
from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams
from repro.mutate import MutablePipeline, reference_twin
from repro.mutate.dataset import MutableDataset
from repro.spec.build import build_pipeline
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
)
from repro.storage.iostats import QueryIOTracker

K = 5


@pytest.fixture()
def built_and_loaded(tiny_dataset, tmp_path):
    spec = PipelineSpec(
        dataset=DatasetSection(name="tiny"),
        index=IndexSection(name="c2lsh"),
        cache=CacheSection(method="HC-O", tau=6, cache_bytes=1 << 15),
        k=K,
        seed=3,
    )
    built = build_pipeline(spec, dataset=tiny_dataset)
    save_snapshot(tmp_path / "snap", built)
    return built, load_snapshot(tmp_path / "snap")


def restored_mutable(loaded, dataset) -> MutablePipeline:
    return MutablePipeline(
        loaded,
        data=MutableDataset(np.array(dataset.points)),
        workload=dataset.query_log.workload,
    )


def assert_same_candidates(a: C2LSHIndex, b: C2LSHIndex, queries) -> None:
    for q in queries:
        ta, tb = QueryIOTracker(), QueryIOTracker()
        assert np.array_equal(a.candidates(q, K, ta), b.candidates(q, K, tb))
        assert ta.pages_seen == tb.pages_seen
        assert ta.page_reads == tb.page_reads


def test_restored_index_matches_live(built_and_loaded, tiny_dataset):
    built, loaded = built_and_loaded
    live = built.context.index
    restored = restored_mutable(loaded, tiny_dataset).index
    assert isinstance(restored, C2LSHIndex)
    assert restored.seed == live.seed == 3
    queries = tiny_dataset.query_log.test[:10]
    assert_same_candidates(live, restored, queries)

    rng = np.random.default_rng(0)
    rows = tiny_dataset.points[rng.choice(len(tiny_dataset.points), 25)] + 0.5
    live.insert_many(rows)
    restored.insert_many(rows)
    assert restored.n_points == live.n_points
    assert_same_candidates(live, restored, np.concatenate([queries, rows[:3]]))


def assert_matches_twin(pipeline: MutablePipeline, queries) -> None:
    twin = reference_twin(pipeline)
    got = pipeline.search_many(queries, K)
    want = twin.search_many(queries, K)
    for g, w in zip(got, want):
        assert np.array_equal(g.ids, w.ids)
        assert np.array_equal(g.distances, w.distances)
        assert np.array_equal(g.exact_mask, w.exact_mask)


def test_reference_twin_on_restored_pipeline(built_and_loaded, tiny_dataset):
    _, loaded = built_and_loaded
    pipeline = restored_mutable(loaded, tiny_dataset)
    assert_matches_twin(pipeline, tiny_dataset.query_log.test[:8])


def test_reference_twin_after_churn(built_and_loaded, tiny_dataset, tmp_path):
    # A mapped snapshot's cache is read-only; churn needs private copies.
    pipeline = restored_mutable(
        load_snapshot(tmp_path / "snap", mmap=False), tiny_dataset
    )
    rng = np.random.default_rng(1)
    base = pipeline.data.points[: pipeline.data.base_count]
    pipeline.insert(pipeline.quantize(base[rng.choice(len(base), 8)] + 1.0))
    pipeline.delete(rng.choice(pipeline.data.live_ids(), 4, replace=False))
    pipeline.revalidate()
    assert_matches_twin(pipeline, tiny_dataset.query_log.test[:8])


@pytest.mark.parametrize(
    "member, shape_of",
    [
        ("sorted_ids", lambda a: a[:, :-1]),
        ("sorted_hashes", lambda a: a[:-1]),
        ("family_a", lambda a: a[:, :-1]),
    ],
)
def test_restore_rejects_tables_of_the_wrong_shape(member, shape_of):
    points = np.random.default_rng(2).normal(size=(80, 5))
    index = C2LSHIndex(points, C2LSHParams(n_hashes=16), seed=4)
    meta, arrays = index_state(index, seed=4)
    assert restore_index(meta, arrays, points).seed == 4
    bad = dict(arrays, **{member: shape_of(arrays[member])})
    with pytest.raises(ArtifactError):
        restore_index(meta, bad, points)
