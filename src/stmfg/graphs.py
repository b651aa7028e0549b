"""Spatial radius graph, expression-similarity KNN graph, and the
symmetric GCN normalization of both.

The radius graph comes from a k-d tree (``scipy.spatial.cKDTree``), so
no n-by-n distance array is formed. The KNN graph is exact: one GEMM
gives the n-by-n cosine similarity matrix, a partition finds each row's
k-th largest similarity, and only the columns at or above it are sorted.
That matrix is the one n-by-n array the build holds: the partition and
its survivor mask run over ``KNN_ROW_CHUNK`` rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .autodiff import NORM_EPS, SparseMatrix
from .errors import ContractError

DEFAULT_RADIUS = 550.0
DEFAULT_KNN_K = 15

# Rows per step of the KNN selection: a step's partition copy and
# survivor mask are KNN_ROW_CHUNK-by-n.
KNN_ROW_CHUNK = 256


@dataclass(frozen=True)
class GraphPair:
    """Binary spatial/feature adjacencies plus their normalized operators."""

    spatial: SparseMatrix
    feature: SparseMatrix
    spatial_norm: SparseMatrix
    feature_norm: SparseMatrix


def _as_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractError(f"coordinates must be (n, 2), got {arr.shape}")
    if arr.shape[0] < 1:
        raise ContractError("coordinates are empty")
    if not np.isfinite(arr).all():
        raise ContractError("coordinates must be finite")
    return arr


def _binary_symmetric(n: int, rows: np.ndarray, cols: np.ndarray) -> SparseMatrix:
    """Binary adjacency with every edge (rows[e], cols[e]) and its mirror."""
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return SparseMatrix(n, keys // n, keys % n, np.ones(keys.size))


def build_spatial_graph(coords, radius: float) -> SparseMatrix:
    """Connect spots whose Euclidean distance is at most ``radius``."""
    pts = _as_coords(coords)
    if radius <= 0:
        raise ContractError(f"radius must be positive, got {radius}")
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    return _binary_symmetric(pts.shape[0], pairs[:, 0], pairs[:, 1])


def build_feature_graph(x, k: int) -> SparseMatrix:
    """Union-symmetrized cosine KNN over the rows of ``x``.

    Ties in similarity are broken by ascending spot index; a spot is never
    its own candidate.
    """
    feats = np.asarray(x, dtype=np.float64)
    if feats.ndim != 2:
        raise ContractError(f"features must be a matrix, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise ContractError("features must be finite")
    n = feats.shape[0]
    if not 1 <= k < n:
        raise ContractError(f"need 1 <= k < n, got k={k}, n={n}")

    norms = np.sqrt((feats * feats).sum(axis=1, keepdims=True) + NORM_EPS)
    unit = feats / norms
    neg = unit @ unit.T
    np.negative(neg, out=neg)
    np.fill_diagonal(neg, np.inf)
    # Every column at or below a row's k-th smallest negated similarity
    # survives (boundary ties included, so each row keeps at least k);
    # sorting survivors by (row, value, column) and keeping the first k
    # per row picks what a stable sort of the whole row picks.
    rows, cols = [], []
    for r0 in range(0, n, KNN_ROW_CHUNK):
        chunk = neg[r0:r0 + KNN_ROW_CHUNK]
        kth = np.partition(chunk, k - 1, axis=1)[:, [k - 1]]
        r, c = np.nonzero(chunk <= kth)
        rows.append(r + r0)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, neg[rows, cols], rows))
    per_row = np.bincount(rows, minlength=n)
    first = np.cumsum(per_row) - per_row
    picked = cols[order[(first[:, None] + np.arange(k)).ravel()]]
    return _binary_symmetric(n, np.repeat(np.arange(n), k), picked)


def normalize_adjacency(a: SparseMatrix) -> SparseMatrix:
    """Symmetric GCN normalization of a symmetric adjacency with no
    stored diagonal entries.

    Adds self-loops, then rescales entry (i, j) by the inverse square roots
    of the self-loop-augmented degrees of i and j.
    """
    if not a.structure()[1]:
        raise ContractError("adjacency must be symmetric")
    csr = a.csr()
    rows = np.repeat(np.arange(a.n), np.diff(csr.indptr))
    if np.any(rows == csr.indices):
        raise ContractError("adjacency must have a zero diagonal")

    degree = np.bincount(rows, weights=csr.data, minlength=a.n) + 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)

    # Grouped so mirror entries are bitwise equal (scalar * is commutative).
    off_vals = csr.data * (inv_sqrt[rows] * inv_sqrt[csr.indices])
    diag = np.arange(a.n)
    return SparseMatrix(a.n, np.concatenate([rows, diag]),
                        np.concatenate([csr.indices, diag]),
                        np.concatenate([off_vals, inv_sqrt * inv_sqrt]))


def build_graph_pair(coords, features, radius: float = DEFAULT_RADIUS,
                     k: int = DEFAULT_KNN_K) -> GraphPair:
    spatial = build_spatial_graph(coords, radius)
    feature = build_feature_graph(features, k)
    return GraphPair(
        spatial=spatial,
        feature=feature,
        spatial_norm=normalize_adjacency(spatial),
        feature_norm=normalize_adjacency(feature),
    )
