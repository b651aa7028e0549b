"""Clustering and metric tests against pair-counting and entropy oracles."""

import math

import numpy as np
import pytest

from stmfg.clustering import Partition, _lloyd, _sq_distances, ari, kmeans, nmi
from stmfg.errors import ContractError, DomainError


def ari_pair_counting_oracle(a, b):
    """ARI from a direct scan over all point pairs."""
    n = len(a)
    together_both = together_a = together_b = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            together_a += sa
            together_b += sb
            together_both += sa and sb
    expected = together_a * together_b / total
    max_index = 0.5 * (together_a + together_b)
    if max_index == expected:
        return 1.0
    return (together_both - expected) / (max_index - expected)


def nmi_entropy_oracle(a, b):
    n = len(a)
    from collections import Counter

    pa = {k: v / n for k, v in Counter(a).items()}
    pb = {k: v / n for k, v in Counter(b).items()}
    pab = {k: v / n for k, v in Counter(zip(a, b)).items()}
    ha = -sum(p * math.log(p) for p in pa.values())
    hb = -sum(p * math.log(p) for p in pb.values())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = sum(p * math.log(p / (pa[x] * pb[y])) for (x, y), p in pab.items())
    return mi / (0.5 * (ha + hb))


def recomputing_lloyd(points, centers, max_iter=300):
    """_lloyd as it was before it reused the last assignment's distances: it
    recomputes them for the final inertia after every exit."""
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    history = []
    for _ in range(max_iter):
        d2 = _sq_distances(points, centers)
        new_labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(points.shape[0]), new_labels].sum())
        history.append(inertia)
        revived = set()
        for c in range(k):
            if not (new_labels == c).any():
                assigned = d2[np.arange(points.shape[0]), new_labels].copy()
                if revived:
                    assigned[list(revived)] = -np.inf
                worst = int(assigned.argmax())
                new_labels[worst] = c
                revived.add(worst)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
    d2 = _sq_distances(points, centers)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia, history


class TestKmeans:
    def test_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        part = kmeans(pts, 2, seed=0, restarts=5)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] == part.labels[3]
        assert part.labels[0] != part.labels[2]

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        part = kmeans(pts, 6, seed=1, restarts=10)
        assert sorted(part.labels.tolist()) == list(range(6))
        centers = np.array([pts[part.labels == c].mean(axis=0) for c in range(6)])
        inertia = sum(((pts[i] - centers[part.labels[i]]) ** 2).sum() for i in range(6))
        assert inertia == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_separated_gaussians(self, seed):
        rng = np.random.default_rng(900 + seed)
        truth = np.repeat([0, 1, 2], [70, 70, 60])
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        pts = centers[truth] + rng.normal(scale=0.8, size=(200, 2))
        part = kmeans(pts, 3, seed=seed, restarts=10)
        assert ari(part, Partition(truth, 3)) >= 0.95

    def test_k_contract(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ContractError):
            kmeans(pts, 4)
        with pytest.raises(ContractError):
            kmeans(pts, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match="seed must be >= 0"):
            kmeans(np.eye(3), 2, seed=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(6).normal(size=(10, 2))
        pts[3, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            kmeans(pts, 2)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 4))
        a = kmeans(pts, 4, seed=9, restarts=8)
        b = kmeans(pts, 4, seed=9, restarts=8)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("case", ["random", "integer-ties", "revival", "max-iter"])
    def test_lloyd_matches_recomputing_reference(self, case):
        """Labels, final inertia, history and centres are bitwise those of
        the reference that recomputes the distances after the loop."""
        rng = np.random.default_rng(12)
        max_iter = 300
        if case == "random":
            pts = rng.normal(size=(120, 3))
            centers = pts[rng.choice(120, size=5, replace=False)]
        elif case == "integer-ties":
            pts = rng.integers(0, 3, size=(60, 2)).astype(float)
            centers = pts[:4]
        elif case == "revival":
            # a duplicated centre loses every tie, so its cluster starts empty
            pts = rng.normal(size=(50, 2))
            centers = pts[[0, 0, 7]]
            assert 1 not in _sq_distances(pts, centers).argmin(axis=1)
        else:
            pts = rng.normal(size=(200, 4))
            centers = pts[:6]
            max_iter = 2
            assert len(recomputing_lloyd(pts, centers.copy())[2]) > max_iter
        got_centers, ref_centers = centers.copy(), centers.copy()
        labels, inertia, history = _lloyd(pts, got_centers, max_iter)
        ref_labels, ref_inertia, ref_history = recomputing_lloyd(pts, ref_centers, max_iter)
        np.testing.assert_array_equal(labels, ref_labels)
        assert inertia == ref_inertia and history == ref_history
        np.testing.assert_array_equal(got_centers, ref_centers)

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(80, 3))
        centers = pts[rng.choice(80, size=4, replace=False)].copy()
        _, _, history = _lloyd(pts, centers)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


class TestAri:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert ari(labels, labels) == 1.0

    def test_permutation_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])
        assert ari(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_small_example_matches_pair_counting(self):
        a = [0, 0, 1, 1]
        b = [0, 0, 0, 1]
        assert ari(a, b) == pytest.approx(ari_pair_counting_oracle(a, b), abs=1e-12)

    def test_random_pairs_match_pair_counting(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            a = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            b = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            assert ari(a, b) == pytest.approx(ari_pair_counting_oracle(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 3, size=30)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)

    def test_strictly_below_one_when_partitions_differ(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.integers(0, 3, size=25)
            b = a.copy()
            moved = int(rng.integers(25))
            b[moved] = (b[moved] + 1) % 3  # move one point to another block
            assert ari(a, b) < 1.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            ari([0, 1], [0, 1, 2])


class TestNmi:
    def test_identical_partitions(self):
        labels = np.array([0, 1, 1, 2, 2, 2])
        assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 2, size=10000)
        b = rng.integers(0, 2, size=10000)
        assert nmi(a, b) < 0.01

    def test_single_cluster_convention(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0

    def test_random_pairs_match_entropy_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            a = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            b = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            assert nmi(a, b) == pytest.approx(nmi_entropy_oracle(a, b), abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 4, size=40)
        b = rng.integers(0, 3, size=40)
        remap = np.array([2, 0, 3, 1])
        assert nmi(remap[a], b) == pytest.approx(nmi(a, b), abs=1e-12)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


class TestPartition:
    def test_label_range_enforced(self):
        with pytest.raises(ContractError):
            Partition(np.array([0, 3]), 2)

    def test_unlabeled_entries_excluded(self):
        a = np.array([0, 0, 1, 1, -1])
        b = np.array([0, 0, 1, 1, 1])
        assert ari(a, b) == 1.0
