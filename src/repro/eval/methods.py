"""The paper's method lineup and pipeline assembly.

Methods (Section 5.1):

=========  ==========================================================
NO-CACHE   no cache; every candidate is refined from disk
EXACT      cache of exact points (fewest items, exact distances)
C-VA       the whole VA-file in cache; bits tuned so all points fit
HC-W/D/V/O global histogram cache (equi-width / equi-depth /
           V-optimal / the paper's optimal kNN histogram)
iHC-W/D/O  one histogram per dimension
mHC-R      multi-dimensional (R-tree bucket) histogram
=========  ==========================================================

``WorkloadContext`` prepares everything derived from (dataset, index,
workload): candidate sets, candidate frequencies for HFF, the QR multiset
and ``F'`` arrays, and the cost model.  Pipelines for different methods
share one context so comparisons are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.builders import (
    build_equidepth,
    build_equiwidth,
    build_knn_optimal,
    build_voptimal,
)
from repro.core.cache import CachePolicy, LeafNodeCache, PointCache
from repro.core.cost_model import CostModel
from repro.core.encoder import (
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
    PointEncoder,
)
from repro.core.frequency import (
    QRSet,
    fprime_global,
    fprime_per_dimension,
)
from repro.core.histogram import Histogram
from repro.core.multidim import RTreeBucketEncoder
from repro.data.datasets import Dataset
from repro.engine.engine import QueryEngine
from repro.engine.stats import SearchResult
from repro.spec.registry import INDEX_NAMES, build_index
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.ordering import make_order
from repro.storage.pointfile import PointFile

METHOD_NAMES = (
    "NO-CACHE",
    "EXACT",
    "C-VA",
    "HC-W",
    "HC-D",
    "HC-V",
    "HC-O",
    "iHC-W",
    "iHC-D",
    "iHC-O",
    "mHC-R",
)


@dataclass
class WorkloadContext:
    """Everything derived from (dataset, index, workload, k).

    Build once per configuration with ``WorkloadContext.prepare`` and share
    across all methods being compared.
    """

    dataset: Dataset
    index: object
    point_file: PointFile
    k: int
    distinct_queries: np.ndarray
    query_weights: np.ndarray
    candidate_sets: list[np.ndarray]
    frequencies: np.ndarray
    qr: QRSet
    d_max: float
    avg_candidates: float
    distance_profiles: tuple = ()
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def prepare(
        cls,
        dataset: Dataset,
        index_name: str = "c2lsh",
        ordering: str = "raw",
        k: int = 10,
        seed: int = 0,
        disk: DiskConfig | None = None,
        index_params: dict | None = None,
    ) -> "WorkloadContext":
        """Build the index, run the workload and collect cache inputs."""
        if dataset.query_log is None:
            raise ValueError("dataset needs a query log")
        if index_name not in INDEX_NAMES:
            raise ValueError(
                f"unknown index {index_name!r}; choices: {INDEX_NAMES}"
            )
        index = build_index(
            index_name,
            dataset.points,
            seed=seed,
            value_bytes=dataset.value_bytes,
            params=index_params,
        )
        order = make_order(ordering, dataset.points, seed=seed)
        point_file = PointFile(
            dataset.points,
            disk=SimulatedDisk(disk or DiskConfig()),
            order=order,
            value_bytes=dataset.value_bytes,
        )
        from repro.workload.train import derive_workload

        deriv = derive_workload(
            dataset.points, index, dataset.query_log.workload, k
        )
        return cls(
            dataset=dataset,
            index=index,
            point_file=point_file,
            k=k,
            distinct_queries=deriv.distinct,
            query_weights=deriv.weights,
            candidate_sets=deriv.candidate_sets,
            frequencies=deriv.frequencies,
            qr=deriv.qr,
            d_max=deriv.d_max,
            avg_candidates=deriv.avg_candidates,
            distance_profiles=deriv.distance_profiles,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @cached_property
    def fprime(self) -> np.ndarray:
        """Global workload frequency array ``F'``."""
        return fprime_global(self.dataset.domain, self.dataset.points, self.qr)

    @cached_property
    def fprime_dims(self) -> list[np.ndarray]:
        """Per-dimension ``F'_j`` arrays (for iHC-* methods)."""
        domains = [self.dataset.dimension_domain(j) for j in range(self.dataset.dim)]
        return fprime_per_dimension(domains, self.dataset.points, self.qr)

    @cached_property
    def qr_points(self) -> np.ndarray:
        """The k-th near candidate of each workload query (for Theorem 2)."""
        rows = []
        for row in self.qr.point_ids:
            members = row[row >= 0]
            if members.size:
                rows.append(self.dataset.points[members[-1]])
        if not rows:
            return self.dataset.points[:1]
        return np.stack(rows)

    def cost_model(self) -> CostModel:
        """Cost model (Section 4) instantiated from this workload."""
        return CostModel(
            dim=self.dataset.dim,
            value_span=self.dataset.domain.span,
            d_max=self.d_max,
            candidate_frequencies=self.frequencies,
            avg_candidates=self.avg_candidates,
            lvalue_bits=self.dataset.value_bytes * 8,
            distance_profiles=self.distance_profiles,
        )

    # ------------------------------------------------------------------
    def histogram(self, kind: str, tau: int) -> Histogram:
        """Build (and memoize) a global histogram of the given kind."""
        key = (kind, tau)
        if key not in self._cache:
            domain = self.dataset.domain
            n_buckets = 2**tau
            if kind == "equiwidth":
                hist = build_equiwidth(domain, n_buckets)
            elif kind == "equidepth":
                hist = build_equidepth(domain, n_buckets)
            elif kind == "voptimal":
                hist = build_voptimal(domain, n_buckets)
            elif kind == "knn-optimal":
                hist = build_knn_optimal(domain, self.fprime, n_buckets)
            else:
                raise ValueError(f"unknown histogram kind {kind!r}")
            self._cache[key] = hist
        return self._cache[key]

    def dimension_histograms(self, kind: str, tau: int) -> list[Histogram]:
        """Per-dimension histograms (memoized).

        The per-dimension DPs use a reduced candidate-split grid: one
        Algorithm-2 run per dimension is exactly the construction cost the
        paper's Table 3 flags as prohibitive (23.8 days for iHC-O), so the
        reproduction trades a little optimality for tractability.
        """
        key = ("dims", kind, tau)
        if key not in self._cache:
            out = []
            n_buckets = 2**tau
            for j in range(self.dataset.dim):
                domain = self.dataset.dimension_domain(j)
                if kind == "equiwidth":
                    out.append(build_equiwidth(domain, n_buckets))
                elif kind == "equidepth":
                    out.append(build_equidepth(domain, n_buckets))
                elif kind == "knn-optimal":
                    out.append(
                        build_knn_optimal(
                            domain,
                            self.fprime_dims[j],
                            n_buckets,
                            max_positions=256,
                        )
                    )
                else:
                    raise ValueError(f"unknown per-dimension kind {kind!r}")
            self._cache[key] = out
        return self._cache[key]

    def encoder(self, method: str, tau: int) -> PointEncoder:
        """The point encoder of a caching method (memoized per tau)."""
        key = ("enc", method, tau)
        if key in self._cache:
            return self._cache[key]
        dim = self.dataset.dim
        if method == "HC-W":
            enc = GlobalHistogramEncoder(self.histogram("equiwidth", tau), dim)
        elif method == "HC-D":
            enc = GlobalHistogramEncoder(self.histogram("equidepth", tau), dim)
        elif method == "HC-V":
            enc = GlobalHistogramEncoder(self.histogram("voptimal", tau), dim)
        elif method == "HC-O":
            enc = GlobalHistogramEncoder(self.histogram("knn-optimal", tau), dim)
        elif method == "iHC-W":
            enc = IndividualHistogramEncoder(self.dimension_histograms("equiwidth", tau))
        elif method == "iHC-D":
            enc = IndividualHistogramEncoder(self.dimension_histograms("equidepth", tau))
        elif method == "iHC-O":
            enc = IndividualHistogramEncoder(
                self.dimension_histograms("knn-optimal", tau)
            )
        elif method == "mHC-R":
            enc = RTreeBucketEncoder(self.dataset.points, tau)
        else:
            raise ValueError(f"no encoder for method {method!r}")
        self._cache[key] = enc
        return enc


@dataclass
class Pipeline:
    """A ready-to-query configuration of either index family.

    Built by :func:`repro.spec.build.build_pipeline` and reopened by
    :func:`repro.artifacts.snapshot.load_snapshot`; nothing else
    constructs one.  Candidate-path indexes answer through Algorithm 1
    over ``point_file`` with a point cache; tree indexes (Section 3.6.1)
    answer through the engine's leaf source with a leaf cache and have
    no point file.  Either way ``search`` returns the unified
    ``SearchResult``, identical to the uncached index's answers, and
    ``search_many`` routes a batch through the engine's batched path.
    """

    engine: QueryEngine
    index: object
    #: The data file refinement reads (None for tree indexes, whose
    #: leaves hold the points).
    point_file: PointFile | None
    method: str
    tau: int | None
    #: Default result size: the ``k`` the cache was trained for.
    k: int
    #: The ``PipelineSpec`` this pipeline was built from (None when
    #: restored from a snapshot that embeds none); embedded in
    #: snapshot manifests.
    spec: object | None = None
    #: The ``repro.workload.DriftController`` driving online adaptation
    #: (None unless the spec's adapt section is enabled).
    drift_controller: object | None = None
    #: The ``WorkloadContext`` the caches were trained from (None when
    #: restored from a snapshot, or for tree caches that need none).
    context: WorkloadContext | None = None

    @property
    def cache(self) -> PointCache | LeafNodeCache | None:
        """The cache actually serving (it may have been hot-swapped)."""
        if self.engine.is_tree:
            return self.engine.source.leaf_cache
        return self.engine.cache

    @property
    def points(self) -> np.ndarray:
        """The stored points; row ``i`` is the point with id ``i``."""
        holder = self.point_file if self.point_file is not None else self.index
        return holder.points

    @property
    def disk_config(self) -> DiskConfig:
        """The device model behind the modeled read latencies."""
        if self.point_file is None:
            return DiskConfig()
        return self.point_file.disk.config

    @property
    def read_latency_s(self) -> float:
        return self.disk_config.read_latency_s

    @property
    def seq_read_latency_s(self) -> float:
        return self.disk_config.seq_read_latency_s

    def search(self, query: np.ndarray, k: int | None = None) -> SearchResult:
        return self.engine.search(query, k or self.k)

    def search_many(
        self, queries: np.ndarray, k: int | None = None
    ) -> list[SearchResult]:
        return self.engine.search_many(queries, k or self.k)


def build_caching_pipeline(
    dataset: Dataset,
    method: str = "HC-O",
    tau: int = 8,
    cache_bytes: int = 1 << 20,
    index_name: str = "c2lsh",
    ordering: str = "raw",
    k: int = 10,
    policy: CachePolicy = CachePolicy.HFF,
    seed: int = 0,
    context: WorkloadContext | None = None,
    metrics=None,
    resilience=None,
) -> Pipeline:
    """One-call assembly of a complete cached-search configuration.

    Tree index names (``idistance``, ``vptree``, ...) get the
    Section-3.6.1 leaf cache, every other index a point cache.  Thin
    adapter: folds the keyword arguments into a declarative
    :class:`~repro.spec.PipelineSpec` and delegates to the single build
    path (:func:`repro.spec.build.build_pipeline`).
    Pass a pre-built ``context`` to reuse the index and workload scans
    across methods (recommended in benchmarks).  ``metrics`` is an optional
    ``MetricsRegistry`` (see ``repro.obs``) the engine will aggregate
    phase timings and per-query stats into.  ``resilience`` is an
    optional ``repro.faults.ResiliencePolicy`` guarding the refinement
    I/O (retries, breaker, deadline, degraded answers).
    """
    from repro.spec.build import build_pipeline, spec_from_kwargs

    spec = spec_from_kwargs(
        dataset=dataset,
        method=method,
        tau=tau,
        cache_bytes=cache_bytes,
        index_name=index_name,
        ordering=ordering,
        k=k,
        policy=policy,
        seed=seed,
    )
    return build_pipeline(
        spec,
        dataset=dataset,
        context=context,
        metrics=metrics,
        resilience=resilience,
    )
