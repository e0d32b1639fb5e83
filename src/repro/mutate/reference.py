"""Reference twin: the from-scratch rebuild a mutated pipeline must match.

The churn differential suite compares a mutated pipeline against a twin
rebuilt from scratch over the *full* id space (appended rows native,
tombstoned rows still allocated but masked), sharing the mutated index's
trained geometry:

* LSH families re-draw their hash functions from the stored seed and the
  injected ``width`` / ``base_radius`` (the hash geometry is a pure
  function of ``(dim, seed, width)``);
* the VA-file reuses the trained equi-depth encoder;
* tree families (exact answers, structure-independent under the
  ``lexsort((ids, dists))`` tie-break) are rebuilt fresh over all points
  — in particular this covers the delta-overlay families, whose appended
  rows the twin serves natively.

The twin computes its own candidate frequencies and HFF selection with
the same shared helpers the mutated pipeline's ``revalidate()`` uses, so
at every fence both caches hold the same (id -> code) content and even
confirmed-by-bound answers agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.cache import (
    ApproximateCache,
    ExactCache,
    LeafNodeCache,
    NoCache,
)
from repro.engine.engine import QueryEngine
from repro.index.idistance import IDistanceIndex
from repro.index.linear_scan import LinearScanIndex
from repro.index.vafile import VAFileIndex
from repro.lsh.c2lsh import C2LSHIndex
from repro.lsh.e2lsh import E2LSHIndex
from repro.lsh.multiprobe import MultiProbeLSHIndex
from repro.mutate.pipeline import (
    MutablePipeline,
    candidate_frequencies,
    hff_selection,
)
from repro.mutate.predicate import Predicate
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.ordering import make_order
from repro.storage.pointfile import PointFile


def _twin_index(index, points: np.ndarray):
    """Rebuild the index from scratch over ``points``, sharing geometry."""
    if isinstance(index, LinearScanIndex):
        return LinearScanIndex(len(points))
    if isinstance(index, VAFileIndex):
        return VAFileIndex(
            points,
            bits=index.bits,
            approximations_on_disk=index.approximations_on_disk,
            page_size=index.page_size,
            encoder=index.encoder,
        )
    if isinstance(index, E2LSHIndex):
        return E2LSHIndex(
            points,
            n_tables=index.n_tables,
            n_bits=index.n_bits,
            seed=index.seed,
            page_size=index.page_size,
            width=index.width,
        )
    if isinstance(index, MultiProbeLSHIndex):
        return MultiProbeLSHIndex(
            points,
            n_tables=index.n_tables,
            n_bits=index.n_bits,
            n_probes=index.n_probes,
            seed=index.seed,
            page_size=index.page_size,
            width=index.width,
        )
    if isinstance(index, C2LSHIndex):
        return C2LSHIndex(
            points,
            params=index.params,
            seed=index.seed,
            page_size=index.page_size,
            base_radius=index.base_radius,
        )
    if isinstance(index, IDistanceIndex):
        return IDistanceIndex(
            points,
            n_refs=len(index.centers),
            page_size=index.page_size,
            value_bytes=index.value_bytes,
            btree_order=index.btree_order,
        )
    # Remaining tree families (VP-tree, M-tree) answer exactly, so any
    # correct rebuild matches; reuse the registry's construction.
    from repro.spec.registry import build_index

    name = type(index).__name__.replace("Index", "").lower()
    return build_index(name, points)


class ReferenceTwin:
    """A from-scratch rebuild answering the same filtered queries."""

    def __init__(self, pipeline: MutablePipeline) -> None:
        data = pipeline.data
        self.data = data
        self.k = pipeline.k
        points = data.points.copy()
        self.index = _twin_index(pipeline.index, points)
        if pipeline.is_tree:
            old = pipeline.cache
            leaf_cache = None
            if old is not None:
                leaf_cache = LeafNodeCache(
                    old.encoder,
                    old.capacity_bytes,
                    exact=old.exact,
                    value_bytes=old.value_bytes,
                    kernel=getattr(old, "_kernel_choice", None),
                )
                if pipeline.workload is not None:
                    leaf_cache.populate_by_frequency(
                        self.index.leaf_access_frequencies(
                            pipeline.workload, self.k
                        ),
                        self.index.leaf_contents,
                    )
            self.engine = QueryEngine.for_tree(self.index, leaf_cache)
        else:
            value_bytes = pipeline.point_file.value_bytes
            point_file = PointFile(
                points,
                disk=SimulatedDisk(DiskConfig()),
                order=make_order("raw", points),
                value_bytes=value_bytes,
            )
            cache = self._twin_cache(pipeline, points)
            self.engine = QueryEngine.for_index(
                self.index,
                point_file,
                cache,
                eager_miss_fetch=pipeline.engine.eager_miss_fetch,
            )
        self.engine.set_live_mask(data.live.copy())

    def _twin_cache(self, pipeline: MutablePipeline, points: np.ndarray):
        old = pipeline.cache
        if isinstance(old, NoCache):
            return NoCache()
        if isinstance(old, ApproximateCache):
            cache = ApproximateCache(
                old.encoder,
                old.capacity_bytes,
                len(points),
                policy=old.policy,
                kernel=getattr(old, "_kernel_choice", None),
            )
        elif isinstance(old, ExactCache):
            cache = ExactCache(
                old.dim,
                old.capacity_bytes,
                len(points),
                value_bytes=old.value_bytes,
                policy=old.policy,
            )
        else:
            raise TypeError(f"cannot twin cache type {type(old).__name__}")
        # Selection length is capped by the *mutated* cache's capacity:
        # its slot table was sized at build time (min(budget, n_base)),
        # while the twin's allows min(budget, n_total) — the comparison
        # must hold both to the smaller, shared selection.
        max_items = min(cache.max_items, old.max_items)
        if max_items and pipeline.workload is not None:
            freq = candidate_frequencies(
                self.index,
                pipeline.workload,
                self.k,
                len(points),
                self.data.live,
            )
            selection = hff_selection(freq, max_items, self.data.live)
            cache.populate(selection, points[selection])
        return cache

    # ------------------------------------------------------------------
    def _predicate_mask(self, predicate: Predicate | None):
        if predicate is None:
            return None
        return predicate.mask(self.data.attributes, self.data.num_total)

    def search(self, query, k: int | None = None, predicate: Predicate | None = None):
        return self.engine.search(
            query, k or self.k, predicate_mask=self._predicate_mask(predicate)
        )

    def search_many(
        self, queries, k: int | None = None, predicate: Predicate | None = None
    ):
        return self.engine.search_many(
            queries, k or self.k, predicate_mask=self._predicate_mask(predicate)
        )


def reference_twin(pipeline: MutablePipeline) -> ReferenceTwin:
    """Build the from-scratch twin of a mutated pipeline at a fence."""
    return ReferenceTwin(pipeline)
