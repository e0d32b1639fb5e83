"""p-stable LSH hash functions (Datar et al., SoCG 2004).

A hash is ``h(p) = floor((a . p + b) / w)`` with ``a`` standard Gaussian
(2-stable) and ``b`` uniform in ``[0, w)``.  Two points at Euclidean
distance ``r`` collide with probability ``p(r)`` given by
``collision_probability`` — monotonically decreasing in ``r``, which is
what both E2LSH and C2LSH exploit.
"""

from __future__ import annotations

import math

import numpy as np


def collision_probability(distance: float, width: float) -> float:
    """``Pr[h(p) = h(q)]`` for two points at the given distance.

    The standard 2-stable formula:
    ``p(r) = 1 - 2 Phi(-w/r) - (2r / (sqrt(2 pi) w)) (1 - exp(-w^2 / 2r^2))``.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance == 0:
        return 1.0
    ratio = width / distance
    # 1 - 2 Phi(-r) == 1 - erfc(r / sqrt 2)
    term1 = 1.0 - math.erfc(ratio / math.sqrt(2.0))
    term2 = (
        2.0 / (np.sqrt(2.0 * np.pi) * ratio) * (1.0 - np.exp(-(ratio**2) / 2.0))
    )
    return float(term1 - term2)


class PStableHashFamily:
    """A batch of ``m`` independent p-stable hash functions.

    Args:
        dim: input dimensionality.
        n_hashes: number of functions ``m``.
        width: bucket width ``w`` (in data distance units).
        seed: RNG seed.
    """

    def __init__(self, dim: int, n_hashes: int, width: float, seed: int = 0) -> None:
        if dim <= 0 or n_hashes <= 0:
            raise ValueError("dim and n_hashes must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.n_hashes = n_hashes
        self.width = float(width)
        self._a = rng.normal(size=(n_hashes, dim))
        self._b = rng.uniform(0.0, self.width, size=n_hashes)

    def project(self, points: np.ndarray) -> np.ndarray:
        """Raw projections ``a . p + b`` of shape ``(n, m)``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}")
        return points @ self._a.T + self._b[None, :]

    def hash(self, points: np.ndarray) -> np.ndarray:
        """Bucket numbers ``floor((a . p + b) / w)`` of shape ``(n, m)``."""
        return np.floor(self.project(points) / self.width).astype(np.int64)
