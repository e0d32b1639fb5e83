"""VA+-file: vector approximation after a KLT rotation (Ferhatosmanoglu
et al., CIKM 2000).

The VA+-file improves the VA-file on non-uniform data in three steps:

1. decorrelate the data with the Karhunen-Loeve transform (PCA rotation);
2. allocate the bit budget *non-uniformly* across the transformed
   dimensions, proportionally to their variance (high-energy dimensions
   get more cells);
3. quantize each dimension with a Lloyd-Max-style scalar quantizer
   (equi-depth cells approximate it here, matching the paper's equi-depth
   framing of approximation files).

The original paper's authors skipped the VA+-file because the KLT "is not
scalable for huge matrices on our datasets" (footnote 10); at this
reproduction's scale the eigendecomposition is cheap, so the substrate is
included for completeness.  Like ``VAFileIndex`` it acts as an exact
candidate generator: phase-1 survivors contain every true kNN member.
"""

from __future__ import annotations

import numpy as np

from repro.core.builders import build_equidepth
from repro.core.domain import ValueDomain
from repro.core.encoder import IndividualHistogramEncoder
from repro.index.vafile import ApproximationScan


class VAPlusFileIndex(ApproximationScan):
    """VA+-file candidate generator.

    Args:
        points: ``(n, d)`` dataset (original space).
        total_bits: bit budget per point, distributed across transformed
            dimensions by variance (the classic ``b_j ~ log2 variance``
            water-filling allocation, floored at 0 bits for near-constant
            dimensions).
        page_size: for the on-disk scan variant.
        approximations_on_disk: charge sequential scan pages per query.
    """

    def __init__(
        self,
        points: np.ndarray,
        total_bits: int | None = None,
        page_size: int = 4096,
        approximations_on_disk: bool = False,
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.n_points, self.dim = points.shape
        if total_bits is None:
            total_bits = 6 * self.dim
        if total_bits < self.dim:
            raise ValueError("need at least one bit per dimension on average")
        self.page_size = page_size
        self.approximations_on_disk = approximations_on_disk

        # 1. KLT: rotate onto the data's principal axes.
        self.mean = points.mean(axis=0)
        centered = points - self.mean
        cov = centered.T @ centered / max(self.n_points - 1, 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        self.basis = eigvecs[:, order]  # columns = principal directions
        self.variances = np.maximum(eigvals[order], 0.0)
        transformed = centered @ self.basis

        # 2. Variance-proportional bit allocation (greedy water-filling).
        self.bits = self._allocate_bits(self.variances, total_bits)

        # 3. Per-dimension equi-depth quantizers in the rotated space.
        self.encoder = IndividualHistogramEncoder(
            [
                build_equidepth(ValueDomain.from_column(column), 2 ** int(b))
                for column, b in zip(transformed.T, self.bits)
            ]
        )
        # Unequal cell counts pad the decode tables to the widest dimension.
        self._set_codes(self.encoder.encode(transformed))
        self.approximation_bytes = int(np.sum(self.bits)) * self.n_points // 8

    @staticmethod
    def _allocate_bits(variances: np.ndarray, total_bits: int) -> np.ndarray:
        """Greedy allocation: each extra bit goes to the dimension whose
        current quantization error (variance / 4**bits) is largest."""
        d = len(variances)
        bits = np.zeros(d, dtype=np.int64)
        errors = variances.astype(np.float64).copy()
        for _ in range(total_bits):
            j = int(np.argmax(errors))
            bits[j] += 1
            errors[j] /= 4.0  # one more bit quarters the squared error
        return bits

    @property
    def scan_pages(self) -> int:
        return max(1, -(-self.approximation_bytes // self.page_size))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map original-space points into the KLT basis."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (points - self.mean) @ self.basis

    def bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phase-1 bounds in the rotated space (rotation preserves L2)."""
        return self._scan_bounds(self.transform(query)[0])
