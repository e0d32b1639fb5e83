"""LSH substrate: hash families, collision probabilities, C2LSH, E2LSH."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lsh.c2lsh import (
    C2LSHIndex,
    C2LSHParams,
    calibrate_base_radius,
    derive_collision_threshold,
)
from repro.lsh.e2lsh import E2LSHIndex
from repro.lsh.hashes import PStableHashFamily, collision_probability
from repro.storage.iostats import QueryIOTracker


@pytest.fixture(scope="module")
def clustered():
    rng = np.random.default_rng(21)
    centers = rng.uniform(0, 200, size=(4, 12))
    pts = np.concatenate(
        [c + rng.normal(scale=5, size=(250, 12)) for c in centers]
    )
    rng.shuffle(pts)
    return pts


class TestCollisionProbability:
    def test_zero_distance(self):
        assert collision_probability(0.0, 4.0) == 1.0

    def test_monotone_decreasing_in_distance(self):
        probs = [collision_probability(r, 4.0) for r in (0.5, 1, 2, 4, 8, 16)]
        assert probs == sorted(probs, reverse=True)

    def test_monotone_increasing_in_width(self):
        probs = [collision_probability(2.0, w) for w in (0.5, 1, 2, 4, 8)]
        assert probs == sorted(probs)

    def test_bounds(self):
        for r in (0.1, 1, 10):
            p = collision_probability(r, 3.0)
            assert 0.0 <= p <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_probability(1.0, 0.0)
        with pytest.raises(ValueError):
            collision_probability(-1.0, 1.0)


class TestPStableFamily:
    def test_shapes(self):
        fam = PStableHashFamily(8, 16, 4.0, seed=0)
        pts = np.zeros((5, 8))
        assert fam.hash(pts).shape == (5, 16)

    def test_deterministic(self):
        a = PStableHashFamily(4, 8, 2.0, seed=3)
        b = PStableHashFamily(4, 8, 2.0, seed=3)
        pts = np.random.default_rng(0).normal(size=(10, 4))
        assert np.array_equal(a.hash(pts), b.hash(pts))

    def test_nearby_points_collide_more(self):
        rng = np.random.default_rng(1)
        fam = PStableHashFamily(16, 64, 8.0, seed=0)
        base = rng.normal(size=16) * 10
        near = base + rng.normal(size=16) * 0.1
        far = base + rng.normal(size=16) * 10
        h = fam.hash(np.vstack([base, near, far]))
        near_coll = np.sum(h[0] == h[1])
        far_coll = np.sum(h[0] == h[2])
        assert near_coll > far_coll

    def test_validation(self):
        with pytest.raises(ValueError):
            PStableHashFamily(0, 4, 1.0)
        with pytest.raises(ValueError):
            PStableHashFamily(4, 4, -1.0)


class TestC2LSHParams:
    def test_threshold_between_p1_and_p2(self):
        params = C2LSHParams()
        m, l, p1, p2 = derive_collision_threshold(params)
        assert p2 < l / m <= p1 + 1e-9
        assert 16 <= m <= 192

    def test_default_geometry_is_pinned(self):
        """The C2LSH geometry every LSH benchmark runs on, bit for bit."""
        assert derive_collision_threshold(C2LSHParams()) == (
            192, 55, 0.3687463803725072, 0.19541710799949333
        )

    def test_explicit_m(self):
        m, l, _, _ = derive_collision_threshold(C2LSHParams(n_hashes=50))
        assert m == 50
        assert 1 <= l <= 50

    def test_validation(self):
        with pytest.raises(ValueError):
            C2LSHParams(c=1)
        with pytest.raises(ValueError):
            C2LSHParams(delta=0.0)
        with pytest.raises(ValueError):
            C2LSHParams(width_factor=0.0)


class TestCalibration:
    def test_base_radius_positive(self, clustered):
        assert calibrate_base_radius(clustered) > 0

    def test_scale_tracks_data(self, clustered):
        small = calibrate_base_radius(clustered)
        big = calibrate_base_radius(clustered * 10)
        assert 5 < big / small < 20


class TestC2LSHIndex:
    def test_recall_of_true_neighbors(self, clustered):
        """The candidate set should contain most true kNN (the LSH
        quality guarantee, checked statistically)."""
        index = C2LSHIndex(clustered, seed=0)
        rng = np.random.default_rng(5)
        hits, total = 0, 0
        for qi in rng.choice(len(clustered), size=12, replace=False):
            q = clustered[qi] + 0.1
            cands = set(index.candidates(q, 10).tolist())
            d = np.linalg.norm(clustered - q, axis=1)
            truth = set(np.argsort(d)[:10].tolist())
            hits += len(truth & cands)
            total += 10
        assert hits / total >= 0.8

    def test_candidate_count_near_target(self, clustered):
        index = C2LSHIndex(clustered, seed=0)
        cands = index.candidates(clustered[0], 10)
        assert 10 <= len(cands) <= len(clustered)

    def test_io_charged(self, clustered):
        index = C2LSHIndex(clustered, seed=0)
        t = QueryIOTracker()
        index.candidates(clustered[0], 5, t)
        assert t.page_reads > 0

    def test_deterministic(self, clustered):
        a = C2LSHIndex(clustered, seed=4)
        b = C2LSHIndex(clustered, seed=4)
        q = clustered[7]
        assert np.array_equal(a.candidates(q, 5), b.candidates(q, 5))

    def test_index_bytes(self, clustered):
        index = C2LSHIndex(clustered, seed=0)
        assert index.index_bytes == index.n_hashes * len(clustered) * 12

    def test_validation(self, clustered):
        index = C2LSHIndex(clustered, seed=0)
        with pytest.raises(ValueError):
            index.candidates(clustered[0], 0)
        with pytest.raises(ValueError):
            C2LSHIndex(np.empty((0, 4)))


class TestE2LSHIndex:
    def test_candidates_are_plausible(self, clustered):
        index = E2LSHIndex(clustered, n_tables=8, n_bits=4, seed=0)
        q = clustered[3] + 0.05
        cands = index.candidates(q, 5)
        assert 3 in cands  # the near-identical point collides

    def test_unique_sorted_output(self, clustered):
        index = E2LSHIndex(clustered, seed=0)
        cands = index.candidates(clustered[0], 5)
        assert np.array_equal(cands, np.unique(cands))

    def test_io_charged(self, clustered):
        index = E2LSHIndex(clustered, seed=0)
        t = QueryIOTracker()
        index.candidates(clustered[0], 5, t)
        assert t.page_reads >= 1

    def test_validation(self, clustered):
        with pytest.raises(ValueError):
            E2LSHIndex(clustered, n_tables=0)
        index = E2LSHIndex(clustered, seed=0)
        with pytest.raises(ValueError):
            index.candidates(clustered[0], 0)


def test_lsh_and_mutate_import_without_scipy():
    """numpy is the only numeric dependency of the LSH and mutation paths."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, repro.lsh, repro.mutate; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
