"""Graph construction tests against brute-force pair-scan, exhaustive
top-k, full-argsort and dense-formula oracles."""

import math

import numpy as np
import pytest

from stmfg import graphs
from stmfg.autodiff import NORM_EPS
from stmfg.data import generate_synthetic, preprocess
from stmfg.errors import ContractError
from stmfg.graphs import (
    _binary_symmetric,
    build_feature_graph,
    build_graph_pair,
    build_spatial_graph,
    normalize_adjacency,
)

from conftest import traced_peak


def edge_set(sparse):
    coo = sparse.csr().tocoo()
    return {(int(r), int(c)) for r, c in zip(coo.row, coo.col)}


def brute_force_radius_edges(coords, radius):
    n = len(coords)
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            if dx * dx + dy * dy <= radius * radius:
                edges.add((i, j))
    return edges


def brute_force_knn_edges(feats, k):
    """Exhaustive cosine ranking per row, union-symmetrized."""
    n = len(feats)
    edges = set()
    for i in range(n):
        sims = []
        for j in range(n):
            if j == i:
                continue
            ni = math.sqrt(sum(v * v for v in feats[i]))
            nj = math.sqrt(sum(v * v for v in feats[j]))
            dot = sum(a * b for a, b in zip(feats[i], feats[j]))
            sims.append((-(dot / (ni * nj)), j))
        sims.sort()
        for _, j in sims[:k]:
            edges.add((i, j))
            edges.add((j, i))
    return edges


def unit_rows(feats):
    """The rows of ``feats`` scaled to unit length, as the build scales them."""
    norms = np.sqrt((feats * feats).sum(axis=1, keepdims=True) + NORM_EPS)
    return feats / norms


def argsort_graph(sims, k):
    """The KNN graph by a full stable argsort of every row of the n-by-n
    similarity matrix ``sims``, its diagonal left out."""
    n = sims.shape[0]
    sims = sims.copy()
    np.fill_diagonal(sims, -np.inf)
    # Stable sort on descending similarity keeps ascending-index tie order.
    ranked = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return _binary_symmetric(n, np.repeat(np.arange(n), k), ranked.ravel())


def argsort_feature_graph(feats, k):
    """The KNN graph by a full stable argsort of every similarity row: the
    selection ``build_feature_graph`` must reproduce exactly."""
    unit = unit_rows(feats)
    return argsort_graph(unit @ unit.T, k)


def assert_same_csr(a, b):
    a, b = a.csr(), b.csr()
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


class TestSpatialGraph:
    def test_single_edge_within_radius(self):
        a = build_spatial_graph([(0, 0), (0, 500), (0, 1200)], 550)
        assert edge_set(a) == {(0, 1), (1, 0)}

    def test_single_spot_has_no_edges(self):
        a = build_spatial_graph([(3.0, 4.0)], 550)
        assert a.nnz == 0

    def test_empty_coordinates_rejected(self):
        with pytest.raises(ContractError):
            build_spatial_graph(np.zeros((0, 2)), 550)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ContractError):
            build_spatial_graph([(0, 0), (1, 1)], 0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
    def test_non_finite_or_negative_radius_rejected(self, radius):
        # a NaN radius used to give an empty graph, an infinite one to link every pair
        with pytest.raises(ContractError, match="radius must be positive and finite"):
            build_spatial_graph([(0, 0), (1, 1), (5, 5)], radius)

    def test_matches_brute_force_pair_scan(self):
        rng = np.random.default_rng(42)
        coords = rng.uniform(0, 1000, (100, 2))
        a = build_spatial_graph(coords, 550)
        assert edge_set(a) == brute_force_radius_edges(coords.tolist(), 550)

    def test_exact_ties_and_duplicate_coordinates(self):
        # integer grid: 3-4-5 triangles sit exactly on radius 5, and the
        # first points repeat as duplicate coordinates
        grid = [(x, y) for x in range(0, 13, 3) for y in range(0, 13, 4)]
        coords = np.array(grid + grid[:4] + [(3, 4), (3, 4)], dtype=float)
        a = build_spatial_graph(coords, 5.0)
        edges = brute_force_radius_edges(coords.tolist(), 5.0)
        assert edge_set(a) == edges
        assert (0, 5) in edges  # (0, 0) to (3, 4): distance exactly 5
        assert a.nnz == len(edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_radius_equal_to_a_pair_distance(self, seed):
        rng = np.random.default_rng(90 + seed)
        coords = rng.uniform(0, 100, (40, 2))
        for i, j in rng.integers(0, 40, (5, 2)):
            dist = float(np.hypot(*(coords[i] - coords[j])))
            for radius in (np.nextafter(dist, 0.0), dist, np.nextafter(dist, np.inf)):
                if radius > 0:
                    assert edge_set(build_spatial_graph(coords, radius)) == \
                        brute_force_radius_edges(coords.tolist(), radius)

    def test_translation_and_rotation_invariance(self):
        rng = np.random.default_rng(17)
        coords = rng.uniform(0, 1000, (60, 2))
        base = edge_set(build_spatial_graph(coords, 420))
        shifted = edge_set(build_spatial_graph(coords + [123.0, -77.0], 420))
        theta = math.radians(30)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        rotated = edge_set(build_spatial_graph(coords @ rot.T, 420))
        assert base == shifted == rotated


class TestFeatureGraph:
    def test_three_spot_nearest_links(self):
        feats = [[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]]
        a = build_feature_graph(np.array(feats), 1)
        assert edge_set(a) == brute_force_knn_edges(feats, 1)
        # spots 0 and 1 are mutually closest; spot 2 must still link somewhere
        assert (0, 1) in edge_set(a)
        assert any(e[0] == 2 or e[1] == 2 for e in edge_set(a))

    def test_identical_features_tie_case(self):
        a = build_feature_graph(np.ones((5, 3)), 1)
        degrees = np.diff(a.csr().indptr)
        assert (degrees >= 1).all()
        assert edge_set(a) == {(c, r) for r, c in edge_set(a)}

    def test_matches_brute_force_top_k(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(50, 8))
        a = build_feature_graph(feats, 5)
        assert edge_set(a) == brute_force_knn_edges(feats.tolist(), 5)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            build_feature_graph(np.ones((4, 2)), 4)
        with pytest.raises(ContractError):
            build_feature_graph(np.ones((4, 2)), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
    def test_non_integer_k_rejected(self, k):
        # 2.5 used to reach numpy's partition as a TypeError, True to act as k = 1
        with pytest.raises(ContractError, match="k must be an integer"):
            build_feature_graph(np.eye(4), k)

    def test_numpy_integer_k_accepted(self):
        feats = np.random.default_rng(3).normal(size=(12, 4))
        assert_same_csr(build_feature_graph(feats, np.int64(3)),
                        argsort_feature_graph(feats, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        # a NaN row used to link to itself at k = 1, an inf row to give a graph
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
        feats[0] = bad
        with pytest.raises(ContractError, match="features must be finite"):
            build_feature_graph(feats, 1)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(31)
        feats = rng.normal(size=(40, 6))
        base = edge_set(build_feature_graph(feats, 4))
        scales = rng.uniform(0.5, 4.0, size=(40, 1))
        assert edge_set(build_feature_graph(feats * scales, 4)) == base
        assert edge_set(build_feature_graph(feats * 3.0, 4)) == base

    def test_no_self_loops(self):
        rng = np.random.default_rng(8)
        a = build_feature_graph(rng.normal(size=(20, 4)), 3)
        assert not any(r == c for r, c in edge_set(a))

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_matches_argsort_across_row_chunks(self, k, monkeypatch):
        """With a budget of 256 rows a block, 600 spots run in three row
        blocks; runs of tied and zero rows straddle both block edges, and
        every row still selects what the full stable argsort selects."""
        rng = np.random.default_rng(13)
        n = 600
        monkeypatch.setattr(graphs, "KNN_BLOCK_ENTRIES", 256 * n)
        block = graphs.KNN_BLOCK_ENTRIES // n
        assert n > 2 * block
        x = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
        for edge in (block, 2 * block):
            x[edge - 3:edge + 3] = x[edge - 4]
            x[[edge - 5, edge + 4]] = 0.0
        assert_same_csr(build_feature_graph(x, k), argsort_feature_graph(x, k))

    def test_peak_holds_one_similarity_matrix(self):
        """At 1500 spots the build's traced peak stays under 1.5 n-by-n
        float64 arrays; it runs in three row blocks and forms no whole
        n-by-n array."""
        rng = np.random.default_rng(12)
        n = 1500
        feats = rng.normal(size=(n, 16))
        _, peak = traced_peak(lambda: build_feature_graph(feats, 15))
        assert peak <= 1.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n-by-n arrays"

    def test_peak_well_under_one_similarity_matrix_across_blocks(self):
        """At 3000 spots the build runs in nine row blocks; its traced
        peak, a block's product and partition copy, stays under 0.3 n-by-n
        float64 arrays."""
        rng = np.random.default_rng(14)
        n = 3000
        assert n > graphs.KNN_BLOCK_ENTRIES // n
        feats = rng.normal(size=(n, 16))
        _, peak = traced_peak(lambda: build_feature_graph(feats, 15))
        assert peak <= 0.3 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n-by-n arrays"

    def test_matches_argsort_on_synthetic_2500_spots(self, synthetic_2500):
        assert_same_csr(build_feature_graph(synthetic_2500, 15),
                        argsort_feature_graph(synthetic_2500, 15))

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_synthetic_2500_spots_at_any_block_size(self, synthetic_2500, block_rows,
                                                    monkeypatch):
        n = synthetic_2500.shape[0]
        monkeypatch.setattr(graphs, "KNN_BLOCK_ENTRIES", block_rows * n)
        assert_same_csr(build_feature_graph(synthetic_2500, 15),
                        argsort_feature_graph(synthetic_2500, 15))


@pytest.fixture(scope="module")
def synthetic_2500():
    """The preprocessed features of a 50 x 50 synthetic tissue, 200 genes."""
    return preprocess(generate_synthetic(50, 5, 200, seed=1, dropout=0.3,
                                         dispersion=2.0)).preprocessed


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        from stmfg.autodiff import SparseMatrix

        norm = normalize_adjacency(SparseMatrix(1, [], [], []))
        np.testing.assert_array_equal(norm.to_dense(), [[1.0]])

    def test_two_nodes_one_edge(self):
        from stmfg.autodiff import SparseMatrix

        a = SparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0])
        np.testing.assert_allclose(normalize_adjacency(a).to_dense(),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(23)
        coords = rng.uniform(0, 100, (10, 2))
        a = build_spatial_graph(coords, 40)
        out = normalize_adjacency(a).to_dense()

        dense = a.to_dense() + np.eye(10)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(dense.sum(axis=1)))
        oracle = d_inv_sqrt @ dense @ d_inv_sqrt
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        np.testing.assert_allclose(out, out.T, atol=1e-15)

    def test_asymmetric_input_rejected(self):
        from stmfg.autodiff import SparseMatrix

        with pytest.raises(ContractError, match="symmetric"):
            normalize_adjacency(SparseMatrix(2, [0], [1], [1.0]))
        with pytest.raises(ContractError, match="symmetric"):
            normalize_adjacency(SparseMatrix(2, [0, 1], [1, 0], [1.0, 0.5]))

    def test_nonzero_diagonal_rejected(self):
        from stmfg.autodiff import SparseMatrix

        a = SparseMatrix(2, [0], [0], [1.0])
        with pytest.raises(ContractError):
            normalize_adjacency(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_spectral_radius_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 65))
        coords = rng.uniform(0, 100, (n, 2))
        dense = normalize_adjacency(build_spatial_graph(coords, 30)).to_dense()
        # power iteration
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(500):
            w = dense @ v
            lam = np.linalg.norm(w)
            if lam == 0:
                break
            v = w / lam
        assert lam <= 1.0 + 1e-9


class TestGraphPair:
    def test_pair_is_consistent(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 1000, (30, 2))
        feats = rng.normal(size=(30, 7))
        pair = build_graph_pair(coords, feats, radius=400, k=3)
        assert edge_set(pair.spatial) == edge_set(build_spatial_graph(coords, 400))
        assert edge_set(pair.feature) == edge_set(build_feature_graph(feats, 3))
        np.testing.assert_array_equal(
            pair.spatial_norm.to_dense(), normalize_adjacency(pair.spatial).to_dense()
        )
