"""VA-file / VA+ phase-1 bounds through the shared table-gather kernel.

Both scan indexes hold their codes as flat gather indices into the
encoder's ``(d, cells)`` decode tables and compute bounds with
:func:`repro.core.kernels.gather_bounds`.  The contract is bit-identity
with the decode oracle (rectangles + ``batch_rectangle_bounds``) in
every pairwise-summation regime of ``np.sum`` (d < 8, 8 <= d <= 128,
d > 128), and the same state whether an index is built or restored
from a snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.artifacts.state import index_state, restore_index
from repro.artifacts.store import ObjectStore
from repro.core.kernels import DecodeKernel, TableGatherKernel
from repro.data.datasets import load_dataset
from repro.index.vafile import VAFileIndex
from repro.index.vaplus import VAPlusFileIndex

DIMS = (5, 40, 150)  # one per pairwise-summation regime


def _grid(d: int, n: int = 240, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, d])
    return np.rint(rng.uniform(0, 255, size=(n, d)))


def _shuffled(points: np.ndarray, n: int) -> np.ndarray:
    """New rows whose every value already occurs in its column."""
    return np.random.default_rng(n).permuted(points, axis=0)[:n]


def _queries(d: int, seed: int = 1) -> np.ndarray:
    return np.random.default_rng([seed, d]).uniform(-20, 275, size=(4, d))


def _assert_matches_oracle(index, queries, rotate=lambda q: q):
    for q in queries:
        lb, ub = index.bounds(q)
        for kernel in (DecodeKernel(), TableGatherKernel()):
            want_lb, want_ub = kernel.bounds(rotate(q), index.codes, index.encoder)
            assert np.array_equal(lb, want_lb[0])
            assert np.array_equal(ub, want_ub[0])


class TestDecodeOracle:
    @pytest.mark.parametrize("bits", [2, 5, 6])
    @pytest.mark.parametrize("d", DIMS)
    def test_vafile_bounds_bit_identical(self, d, bits):
        points = _grid(d)
        index = VAFileIndex(points, bits=bits)
        _assert_matches_oracle(index, _queries(d))
        # Rows appended under the preserved geometry stay on the contract.
        index.insert_many(_shuffled(points, 30))
        assert index.n_points == len(points) + 30
        _assert_matches_oracle(index, _queries(d, seed=2))

    @pytest.mark.parametrize("bits", [2, 5, 6])
    def test_vafile_on_nus_wide_sim(self, bits):
        data = load_dataset("nus-wide-sim", scale=0.02)
        index = VAFileIndex(data.points, bits=bits)
        _assert_matches_oracle(index, data.query_log.test[:3])

    @pytest.mark.parametrize("d", DIMS)
    def test_vaplus_unequal_cells_bit_identical(self, d):
        # Unequal column spreads give unequal per-dimension bit budgets.
        index = VAPlusFileIndex(_grid(d, n=300) * np.geomspace(0.05, 1.0, d))
        cells = {h.num_buckets for h in index.encoder.histograms}
        assert len(cells) > 1  # padded decode tables are exercised
        _assert_matches_oracle(
            index, _queries(d), rotate=lambda q: index.transform(q)[0]
        )

    def test_codes_round_trip_through_gather_index(self):
        points = _grid(40)
        index = VAFileIndex(points, bits=5)
        assert np.array_equal(index.codes, index.encoder.encode(points))
        assert index.codes.dtype == np.int64


class TestSnapshotRestore:
    def _restored(self, index, points, tmp_path):
        meta, arrays = index_state(index)
        store = ObjectStore(tmp_path)
        loaded = store.load_members(store.put_members(arrays), mmap=True)
        return restore_index(meta, loaded, points)

    @staticmethod
    def _assert_same(a, b, queries):
        assert (a.n_points, a.dim) == (b.n_points, b.dim)
        assert np.array_equal(a.codes, b.codes)
        for q in queries:
            for x, y in zip(a.bounds(q), b.bounds(q)):
                assert x.tobytes() == y.tobytes()
            assert a.candidates(q, 5).tobytes() == b.candidates(q, 5).tobytes()

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_restored_index_matches_live(self, tmp_path, on_disk):
        points = _grid(40)
        live = VAFileIndex(points, bits=5, approximations_on_disk=on_disk)
        restored = self._restored(live, points, tmp_path)
        assert restored.approximations_on_disk is on_disk
        assert restored.scan_pages == live.scan_pages
        self._assert_same(live, restored, _queries(40))
        extra = _shuffled(points, 25)
        live.insert_many(extra)
        restored.insert_many(extra)
        self._assert_same(live, restored, _queries(40, seed=3))

    def test_snapshot_still_stores_codes(self):
        points = _grid(5)
        index = VAFileIndex(points, bits=6)
        meta, arrays = index_state(index)
        assert np.array_equal(arrays["codes"], index.encoder.encode(points))
        assert meta["n_points"] == len(points)

    def test_from_codes_rejects_bad_codes(self):
        index = VAFileIndex(_grid(5), bits=2)
        codes = index.codes
        codes[0, 0] = 4  # only 2**2 cells
        with pytest.raises(IndexError):
            VAFileIndex.from_codes(codes, index.encoder, bits=2)
        with pytest.raises(ValueError):
            VAFileIndex.from_codes(codes[:, :3], index.encoder, bits=2)
