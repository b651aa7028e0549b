"""Spatial radius graph, expression-similarity KNN graph, and the
symmetric GCN normalization of both.

The radius graph is found on a grid of square cells at least a radius
wide: only spots in the same or adjacent cells are compared, each
compared pair becomes an edge by the exact rule ``dx*dx + dy*dy <=
radius*radius``, and no n-by-n array is formed. The KNN graph is exact
brute force over row blocks of at most ``KNN_BLOCK_ENTRIES``
similarities: a block's product with every spot, a partition to each
row's k-th largest similarity, and only the columns at or above it kept,
with their values, before the next block; one sort of the survivors
finishes. No n-by-n array is formed once n exceeds one block's rows.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import NORM_EPS, SparseMatrix
from .errors import ContractError

DEFAULT_RADIUS = 550.0
DEFAULT_KNN_K = 15

# Similarities per block of the KNN build: a block holds
# max(1, KNN_BLOCK_ENTRIES // n) rows, so up to 2**20 spots its product
# and partition copy are at most 8 MiB each and its survivor mask 1 MiB.
# Up to 1024 spots one block covers every row, and its product
# ``unit[0:n] @ unit.T`` is the same symmetric (SYRK) call as
# ``unit @ unit.T``. Past that the blocks are GEMMs, whose values can
# differ from the symmetric product's in the last place; the selection is
# exact on the values each block holds.
KNN_BLOCK_ENTRIES = 2**20

# No axis of the radius grid has more than GRID_CELLS cells, and each pass
# of the radius build tests fewer than (RADIUS_PAIRS_PER_SPOT + 1) * n
# candidate pairs.
GRID_CELLS = 2**20
RADIUS_PAIRS_PER_SPOT = 8


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
    """Connect spots i != j with ``dx*dx + dy*dy <= radius*radius``, where
    dx and dy are their coordinate differences in float64.

    Square cells ``max(radius * (1 + 2**-20), span / GRID_CELLS)`` wide
    (``span`` the larger coordinate range) tile the slide, so that a pair
    the rule links is never more than one cell apart under any rounding,
    and no axis has more than ``GRID_CELLS`` cells. Each spot is compared
    with the spots after it in its own cell and the one above, and with the
    three cells to its right: every pair in adjacent cells once. Where spots
    span more than ``GRID_CELLS`` radii the cells are wider than the radius
    and the candidate work grows; otherwise it is a fixed multiple of the
    spots plus the edges. Candidates are tested in passes of about
    ``RADIUS_PAIRS_PER_SPOT`` per spot, so no n-by-n array is formed.
    """
    pts = _as_coords(coords)
    if not 0 < radius < math.inf:
        raise ContractError(f"radius must be positive and finite, got {radius}")
    radius = float(radius)
    r2 = radius * radius
    if not sys.float_info.min <= r2 < math.inf:
        raise ContractError(f"radius must be from about 1.49e-154 to 1.34e154, so that "
                            f"its square is a finite normal float64; got {radius}")
    lo = pts.min(axis=0)
    x_range, y_range = (float(v) for v in pts.max(axis=0) - lo)
    if not x_range * x_range + y_range * y_range < math.inf:
        raise ContractError(f"coordinates span {x_range:g} by {y_range:g}, and the square "
                            f"of that box's diagonal overflows float64: the diagonal must "
                            f"be below about 1.34e154")
    n = pts.shape[0]
    width = max(radius * (1 + 2**-20), max(x_range, y_range) / GRID_CELLS)
    cell = np.floor((pts - lo) / width).astype(np.int64)
    stride = int(cell[:, 1].max()) + 2  # an empty row of cells above the top one
    keys = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # Range s < n holds the sorted spots after spot s in its cell and in the
    # cell above; range n + s those in the three cells to its right, whose
    # keys are consecutive. Candidate e of the concatenated ranges is
    # sorted spot e + shift[r] of range r.
    after = np.arange(1, n + 1)
    right = np.searchsorted(keys, keys + stride - 1)
    starts = np.concatenate([after, right])
    lengths = np.concatenate([np.searchsorted(keys, keys + 2) - after,
                              np.searchsorted(keys, keys + stride + 2) - right])
    ends = np.cumsum(lengths)
    shift = starts - (ends - lengths)
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], RADIUS_PAIRS_PER_SPOT * n),
                                     side="right"))
    rows, cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for r0, r1 in zip(cuts, [*cuts[1:], 2 * n]):
        count = lengths[r0:r1]
        i = order[np.repeat(np.arange(r0, r1) % n, count)]
        j = order[np.arange(ends[r0] - count[0], ends[r1 - 1]) + np.repeat(shift[r0:r1], count)]
        d = pts[i] - pts[j]
        d *= d
        keep = d[:, 0] + d[:, 1] <= r2
        rows.append(i[keep])
        cols.append(j[keep])
    return _binary_symmetric(n, np.concatenate(rows), np.concatenate(cols))


def build_feature_graph(x, k: int) -> SparseMatrix:
    """Union-symmetrized cosine KNN over the rows of ``x``.

    Among equal computed similarities the lower spot index wins; a spot is
    never its own candidate. Equal exact similarities need not compute
    equal: up to 1024 spots the one block is a symmetric product (SYRK),
    which can give two duplicate spots similarities one ulp apart, and then
    the larger wins whatever the index.
    """
    feats = np.asarray(x, dtype=np.float64)
    if feats.ndim != 2:
        raise ContractError(f"features must be a matrix, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise ContractError("features must be finite")
    n = feats.shape[0]
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ContractError(f"k must be an integer, got {k!r}")
    if not 1 <= k < n:
        raise ContractError(f"need 1 <= k < n, got k={k}, n={n}")

    norms = np.sqrt((feats * feats).sum(axis=1, keepdims=True) + NORM_EPS)
    unit = feats / norms
    # Every column at or below a row's k-th smallest negated similarity
    # survives (boundary ties included, so each row keeps at least k);
    # sorting survivors by (row, value, column) and keeping the first k
    # per row picks what a stable sort of the whole row picks.
    step = max(1, KNN_BLOCK_ENTRIES // n)
    rows, cols, vals = [], [], []
    for r0 in range(0, n, step):
        neg = unit[r0:r0 + step] @ unit.T
        np.negative(neg, out=neg)
        np.fill_diagonal(neg[:, r0:], np.inf)  # block row i is spot r0 + i
        kth = np.partition(neg, k - 1, axis=1)[:, [k - 1]]
        r, c = np.nonzero(neg <= kth)
        rows.append(r + r0)
        cols.append(c)
        vals.append(neg[r, c])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, np.concatenate(vals), rows))
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
