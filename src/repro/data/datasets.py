"""Named dataset registry mirroring the paper's experimental corpora.

The registry exposes simulated stand-ins for the paper's three datasets
(Table 2) plus a ``tiny`` config used throughout the test suite:

====================  =====  =========  ==========================
name                  d      n (sim)    paper original
====================  =====  =========  ==========================
tiny                  16     2,000      (testing only)
nus-wide-sim          150    30,000     NUS-WIDE, 267,415 pts
imgnet-sim            150    80,000     IMGNET, 2,213,937 pts
sogou-sim             960    20,000     SOGOU, 8,304,965 pts
====================  =====  =========  ==========================

Cardinalities are laptop-scale; pass ``scale`` to ``load_dataset`` to grow
or shrink them proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.domain import ValueDomain, discretize
from repro.data.synthetic import clustered_dataset
from repro.data.workload import QueryLog, generate_query_log


@dataclass(frozen=True)
class Dataset:
    """A point set plus its query log and value-domain metadata.

    Attributes:
        name: registry name or user-given label.
        points: ``(n, d)`` float64 array of grid-valued coordinates.
        value_bits: ``Lvalue`` — bits of the discretized value domain.
        query_log: workload/test query split (None until attached).
        seed, scale: the ``load_dataset`` arguments that regenerate this
            dataset under ``name`` (``seed`` is None when it does not
            come from the registry).
    """

    name: str
    points: np.ndarray
    value_bits: int = 12
    query_log: QueryLog | None = None
    value_bytes: int = 4
    seed: int | None = None
    scale: float = 1.0
    _domain_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        object.__setattr__(self, "points", points)

    @classmethod
    def from_points(
        cls,
        name: str,
        points: np.ndarray,
        value_bits: int = 12,
        query_log: QueryLog | None = None,
        already_discrete: bool = False,
        **log_kwargs,
    ) -> "Dataset":
        """Wrap arbitrary float points, discretizing onto the value grid.

        A default Zipf query log is generated when none is supplied;
        ``log_kwargs`` are forwarded to ``generate_query_log``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if not already_discrete:
            pts = discretize(pts, value_bits)
        if query_log is None:
            query_log = generate_query_log(pts, **log_kwargs)
        return cls(name=name, points=pts, value_bits=value_bits, query_log=query_log)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def point_bytes(self) -> int:
        """Stored record size (paper Table 2: 600 B at d=150, 3840 B at 960)."""
        return self.dim * self.value_bytes

    @property
    def file_bytes(self) -> int:
        return self.num_points * self.point_bytes

    @property
    def domain(self) -> ValueDomain:
        """Global value domain ``V`` over all coordinates (cached)."""
        if "global" not in self._domain_cache:
            self._domain_cache["global"] = ValueDomain.from_points(self.points)
        return self._domain_cache["global"]

    def dimension_domain(self, j: int) -> ValueDomain:
        """Value domain of dimension ``j`` (for individual histograms)."""
        key = ("dim", j)
        if key not in self._domain_cache:
            self._domain_cache[key] = ValueDomain.from_column(self.points[:, j])
        return self._domain_cache[key]

    def with_query_log(self, query_log: QueryLog) -> "Dataset":
        """Copy of this dataset with a different query log attached."""
        return Dataset(
            name=self.name,
            points=self.points,
            value_bits=self.value_bits,
            query_log=query_log,
            value_bytes=self.value_bytes,
        )


@dataclass(frozen=True)
class _Config:
    n_points: int
    dim: int
    n_clusters: int
    value_bits: int
    pool_size: int
    workload_size: int
    test_size: int
    zipf_s: float


REGISTRY: dict[str, _Config] = {
    "tiny": _Config(2_000, 16, 4, 8, 60, 400, 20, 1.1),
    "nus-wide-sim": _Config(30_000, 150, 12, 12, 400, 2_000, 50, 1.1),
    "imgnet-sim": _Config(80_000, 150, 16, 12, 400, 2_000, 50, 1.1),
    "sogou-sim": _Config(20_000, 960, 10, 12, 400, 2_000, 50, 1.1),
}


def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> Dataset:
    """Materialize a registry dataset deterministically.

    Args:
        name: one of ``REGISTRY``.
        seed: RNG seed for both data and query log.
        scale: multiplies the cardinality and workload size (e.g. 0.1 for a
            fast smoke run); dimensionality is never scaled.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; choices: {sorted(REGISTRY)}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    cfg = REGISTRY[name]
    n = max(200, int(cfg.n_points * scale))
    points = clustered_dataset(
        n_points=n,
        dim=cfg.dim,
        n_clusters=cfg.n_clusters,
        value_bits=cfg.value_bits,
        seed=seed,
    )
    log = generate_query_log(
        points,
        pool_size=min(cfg.pool_size, max(20, n // 5)),
        workload_size=max(50, int(cfg.workload_size * scale)),
        test_size=cfg.test_size,
        zipf_s=cfg.zipf_s,
        seed=seed + 1,
    )
    return Dataset(
        name=name,
        points=points,
        value_bits=cfg.value_bits,
        query_log=log,
        seed=seed,
        scale=scale,
    )
