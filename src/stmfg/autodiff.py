"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is rank-2: scalars are 1x1, row vectors 1xd. The op set is
exactly what the package calls: each encoder layer's two view
convolutions are one ``graph_conv_views`` node whose output stacks the
two n-by-d views into one 2n-by-d tensor, spatial rows first, which the
attention step and the contrastive loss read as it is; the decoder's ReLU
hidden layer is one ``graph_conv`` node, the attention step, the pairwise
losses and the ZINB decoder heads with their likelihood are fused nodes,
and ``add`` and ``scale`` weigh and sum the 1x1 loss terms. Every node has
one output and a closed-form gradient, and forms no n-by-n or n-by-genes
intermediate.
Graph adjacency enters as a constant sparse operator (`SparseMatrix`)
and the ZINB counts as a constant `ZinbTarget`, built once per run, so no
gradient ever flows into graph structure or counts. Each op checks its
own operands: shapes (the counts against the decoded shape too),
domains, and that the link loss's adjacency is symmetric with a zero
diagonal. The ZINB target keeps each tile's positive entries as a packed
bit mask and their counts; the ZINB node allocates one workspace per lane
per call, sized by its largest tile, runs every tile in it in place, in
five tile planes, with the mask expanded into entry positions in one of
them, and drops it on return; each head entry takes a single exp, shared
by an activation and the derivative it needs.

Each fused loss node forms its value and gradients in one pass; its
backward hands the gradients on, scaled by the upstream gradient. Work
that splits without regrouping a sum runs on two fixed lanes (``_lanes``):
the pairwise nodes walk fixed row tiles, tile i in lane i mod 2; the ZINB
node walks its target's row blocks, each cut into two halves, one per
lane: by rows when the target has fewer than a third as many genes as
rows, by genes otherwise; the two-view convolution runs view v's dense
products in lane v, forward and backward, and its sparse products on the
calling thread; and training's Adam step updates the first half of each
parameter in lane 0 and the rest in lane 1. Each lane sums its own steps
and lane 0's sums are added to lane 1's, so the bits do not depend on
whether lane 1 runs on the process's one worker thread, which it does
whenever both lanes have work and the process may use two CPUs.

`backward` computes one gradient total per tensor per pass. It folds a
leaf's total (a tensor that requires gradients and is no op's output)
into ``.grad`` with a single addition, which keeps repeated passes
exactly additive; an op output's total is dropped once its closure has
used it, so a kept trace holds its activations and no gradients.
Resetting gradients is explicit (``zero_grad``).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln

from .errors import ContractError, DataError, DimensionError, DomainError

# Guard added inside row norms (l2 normalization, cosine similarity) so
# zero rows map to zero instead of NaN. Gradients go through the guarded
# expression.
NORM_EPS = 1e-12

# Rows per step of the fused pairwise ops: one step holds a
# PAIRWISE_TILE-by-n block of similarities (by 2n for the contrastive op),
# never the whole matrix. The tile is fixed, whatever the worker count, so
# the bits of a result never depend on that count.
PAIRWISE_TILE = 96

# Threads the two lanes run on, the calling thread included: at most two,
# and no more than the process may use. The lanes take the fused loss
# nodes' tiles, an encoder layer's two views' dense products and the
# halves of each Adam update; lane 1 runs on the second thread whenever
# both lanes have work, at any block width or parameter size: for the
# loss nodes alone, at 900 spots and 200 genes, that took the median epoch
# on a 2-vCPU VM from 98 to 79 ms. At d = 64 two 96-row pairwise
# workspaces hold what one 256-row workspace did.
LANE_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

# Rows per step of the fused ZINB decoder node: a block holds at most
# ZINB_ROW_BLOCK rows and at most ZINB_BLOCK_ENTRIES entries (at least one
# row), so its workspace is bounded at any gene width and never holds a
# whole n-by-genes array. Up to 1024 genes the row cap is the binding one.
ZINB_ROW_BLOCK = 256
ZINB_BLOCK_ENTRIES = 2**18

# Floor on the zero-count mixture probability before its log: a floored
# entry contributes log(ZINB_PROB_FLOOR) and no gradient.
ZINB_PROB_FLOOR = 1e-300

# Guards on the decoder heads: the dropout logit is clamped so its sigmoid
# stays strictly inside (0, 1), the mean's pre-activation is clamped before
# exponentiation, and dispersion gets an additive floor.
DROPOUT_LOGIT_CLAMP = 30.0
MEAN_LOGIT_CLAMP = 12.0
DISPERSION_FLOOR = 1e-4

__all__ = [
    "NORM_EPS",
    "Tensor",
    "SparseMatrix",
    "graph_conv",
    "graph_conv_views",
    "add",
    "scale",
    "view_attention",
    "cross_view_contrastive",
    "cosine_link_loss",
    "zinb_decoder_nll",
    "backward",
    "zero_grad",
]


def _as_matrix(data, copy: bool = True) -> np.ndarray:
    arr = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"tensors are rank-2, got ndim={arr.ndim}")
    return arr


class Tensor:
    """Dense float64 matrix participating in the differentiation graph.
    The constructor copies ``data``; with ``copy=False`` a float64 matrix
    is held as is, for constants that nothing writes."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, copy: bool = True):
        arr = _as_matrix(data, copy)
        if not np.isfinite(arr).all():
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray, Callable], None] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ContractError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _from_op(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    needs = any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        # Constant subgraphs are pruned so masks and fixed inputs cost nothing.
        out._parents = ()
        out._backward = None
    return out


def _fused_loss(value: float, leaves: Sequence[Tensor],
                grads: Sequence[np.ndarray]) -> Tensor:
    """The 1x1 node of a fused loss whose gradients in ``leaves`` were
    formed with its value: backward hands each leaf that requires one its
    stored gradient times the upstream gradient, as is when that is exactly
    one (backward never writes it)."""

    def backward_fn(g, accum):
        for tensor, grad in zip(leaves, grads):
            if tensor.requires_grad:
                accum(tensor, grad if g[0, 0] == 1.0 else g[0, 0] * grad)

    return _from_op(np.array([[value]]), leaves, backward_fn)


# ---------------------------------------------------------------------------
# graph convolution


def _product_grads(g: np.ndarray, x: np.ndarray, w: Tensor, x_grad: bool,
                   g_w: np.ndarray | None = None, g_x: np.ndarray | None = None) -> tuple:
    """The gradients of ``w`` and of ``x`` from the gradient ``g`` of the
    product x w: None for ``w`` when it requires none and for ``x`` unless
    ``x_grad``, and each written into ``g_w`` or ``g_x`` when given."""
    return (np.matmul(x.T, g, out=g_w) if w.requires_grad else None,
            np.matmul(g, w.data.T, out=g_x) if x_grad else None)


def graph_conv(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """One dense ReLU layer relu(x w + bias) as one node. The ReLU runs in
    place and backward reads its mask from the output (out > 0 exactly
    where the pre-activation is), so the node holds its output and nothing
    more."""
    if x.cols != w.rows:
        raise DimensionError(f"graph_conv: {x.data.shape} @ {w.data.shape}")
    if bias.data.shape != (1, w.cols):
        raise DimensionError(f"graph_conv: bias {bias.data.shape} for width {w.cols}")
    out_data = x.data @ w.data
    out_data += bias.data
    np.maximum(out_data, 0.0, out=out_data)

    def backward_fn(g, accum):
        g = g * (out_data > 0.0)
        if bias.requires_grad:
            accum(bias, g.sum(axis=0, keepdims=True))
        for tensor, grad in zip((w, x), _product_grads(g, x.data, w, x.requires_grad)):
            if grad is not None:
                accum(tensor, grad)

    return _from_op(out_data, (x, w, bias), backward_fn)


def graph_conv_views(x: Tensor, spatial: tuple, feature: tuple) -> Tensor:
    """The two view convolutions of an encoder layer, each ``(w, adj)`` the
    layer relu(adj (x w)) over n spots, as one node whose output stacks
    the views: a 2n-by-d array, the spatial view's rows first and the
    feature view's after them. ``x`` has n rows, which both views read
    (per-layer fusion), or is such a 2n-row stack, each view reading its
    own half (late fusion).

    Lane v runs view v's dense products (``_lanes``), into arrays the
    calling thread allocated (a second thread keeps what it allocates in a
    heap of its own, which the calling thread never reuses), and the
    calling thread runs every sparse product: the propagations and ReLUs
    after the lanes in forward, the unpropagations before them in
    backward. A shared input's gradient is
    the spatial view's term plus the feature view's. The dense product
    comes first, so the sparse one runs on the narrow side and no array as
    wide as ``x`` is formed; each view's rows are bitwise those of its
    relu(adj (x w)) chain."""
    (w_s, adj_s), (w_f, adj_f) = spatial, feature
    n = adj_s.n
    if adj_f.n != n or x.rows not in (n, 2 * n):
        raise DimensionError(f"graph_conv_views: operators n={adj_s.n} and n={adj_f.n} "
                             f"vs input rows={x.rows}")
    if not x.cols == w_s.rows == w_f.rows or w_s.cols != w_f.cols:
        raise DimensionError(f"graph_conv_views: {x.data.shape} @ {w_s.data.shape} "
                             f"and {w_f.data.shape}")
    stacked = x.rows == 2 * n
    xs = (x.data[:n], x.data[n:]) if stacked else (x.data, x.data)
    ws, csrs = (w_s, w_f), (adj_s.csr(), adj_f.csr())
    rows = (slice(0, n), slice(n, 2 * n))
    out_data = np.empty((2 * n, w_s.cols))
    pre = [np.empty((n, w_s.cols)), np.empty((n, w_f.cols))]

    def products(total, v, lane):
        np.matmul(xs[v], ws[v].data, out=pre[v])
        return total

    _lanes(([0], [1]), tuple, products)
    for v in (0, 1):
        np.maximum(csrs[v] @ pre[v], 0.0, out=out_data[rows[v]])
        pre[v] = None

    def backward_fn(g, accum):
        x_grad = x.requires_grad
        g_x = np.empty(x.data.shape) if x_grad and stacked else None
        g_pre, g_w, g_xv = [None, None], [None, None], [None, None]
        for v in (1, 0):
            g_pre[v] = csrs[v].T @ (g[rows[v]] * (out_data[rows[v]] > 0.0))
            g_w[v] = np.empty(ws[v].data.shape) if ws[v].requires_grad else None
            if x_grad:
                g_xv[v] = g_x[rows[v]] if stacked else np.empty(x.data.shape)

        def grads(total, v, lane):
            _product_grads(g_pre[v], xs[v], ws[v], x_grad, g_w[v], g_xv[v])
            return total

        _lanes(([0], [1]), tuple, grads)
        if x_grad and not stacked:
            g_x = np.add(*g_xv, out=g_xv[0])  # the shared input's two terms
        for tensor, grad in ((w_s, g_w[0]), (w_f, g_w[1]), (x, g_x)):
            if grad is not None:
                accum(tensor, grad)

    return _from_op(out_data, (x, w_s, w_f), backward_fn)


# ---------------------------------------------------------------------------
# loss arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data + b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g)
        if b.requires_grad:
            accum(b, g)

    return _from_op(out_data, (a, b), backward_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out_data = a.data * factor

    def backward_fn(g, accum):
        accum(a, g * factor)

    return _from_op(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# guarded row norms


def _guarded_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=1, keepdims=True) + NORM_EPS)


def _through_row_norm(g: np.ndarray, x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient with respect to ``x`` given gradient ``g`` with respect to
    ``x / norm``, with ``norm`` the guarded row norms of ``x``: g / norm -
    x gx / norm^3 for the row sums gx of g x, written into ``g``."""
    gx = (g * x).sum(axis=1, keepdims=True)
    radial = np.multiply(x, gx)
    radial /= norm ** 3
    g /= norm
    g -= radial
    return g


# ---------------------------------------------------------------------------
# fused view attention


def view_attention(z: Tensor, w: Tensor, slope: float, l2: bool) -> tuple[Tensor, Tensor]:
    """Row-wise attention over the two n-by-d views stacked in ``z`` (the
    output of ``graph_conv_views``), zs its top n rows and zf the rest: the
    weights m are a row softmax of LeakyReLU(``slope``) logits [zs, zf] w,
    then divided by their guarded row norms when ``l2``, and the fused rows
    are m_0 zs + m_1 zf. Returns (fused, m); m is a constant with no
    backward, so gradients reach ``z`` and ``w`` through the fused output
    only. The logits take one n-by-2d column concatenation of the views, as
    a split product would regroup its sums. The node holds n-by-2 arrays
    besides its output; backward rebuilds the concatenation for the weight
    gradient instead of keeping it.
    """
    if z.rows % 2:
        raise DimensionError(f"view_attention: {z.rows} rows do not stack two views")
    if w.data.shape != (2 * z.cols, 2):
        raise DimensionError(f"view_attention: weight {w.data.shape} for width {z.cols}")
    slope = float(slope)
    n = z.rows // 2
    zs, zf = z.data[:n], z.data[n:]
    logits = np.concatenate([zs, zf], axis=1) @ w.data
    act = np.where(logits > 0.0, logits, slope * logits)
    e = np.exp(act - act.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    if l2:
        norm = _guarded_norms(soft)
        m = soft / norm
    else:
        m = soft
    out_data = m[:, 0:1] * zs + m[:, 1:2] * zf

    def backward_fn(g, accum):
        gm = np.concatenate([(g * zs).sum(axis=1, keepdims=True),
                             (g * zf).sum(axis=1, keepdims=True)], axis=1)
        if l2:
            gm = _through_row_norm(gm, soft, norm)
        g_logits = soft * (gm - (gm * soft).sum(axis=1, keepdims=True))
        g_logits *= np.where(logits > 0.0, 1.0, slope)
        if w.requires_grad:
            accum(w, np.concatenate([zs, zf], axis=1).T @ g_logits)
        if z.requires_grad:
            g_both = g_logits @ w.data.T
            g_z = np.empty(z.data.shape)
            for k, rows in enumerate((slice(0, n), slice(n, 2 * n))):
                g_view = np.multiply(g, m[:, k:k + 1], out=g_z[rows])
                g_view += g_both[:, k * z.cols:(k + 1) * z.cols]
            accum(z, g_z)

    return _from_op(out_data, (z, w), backward_fn), _from_op(m, (), None)


# ---------------------------------------------------------------------------
# sparse constant operator


class SparseMatrix:
    """Constant n-by-n sparse matrix from unique (row, col, value) entries,
    held as a canonical scipy CSR (sorted indices, stored zeros kept).

    Used for graph adjacency and its normalized form; never differentiated.
    """

    __slots__ = ("n", "_csr", "_structure")

    def __init__(self, n: int, rows, cols, values):
        if n < 1:
            raise ContractError(f"SparseMatrix: n must be >= 1, got {n}")
        row_idx = np.asarray(rows, dtype=np.int64).ravel()
        col_idx = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(values, dtype=np.float64).ravel()
        if not (row_idx.size == col_idx.size == vals.size):
            raise ContractError("SparseMatrix: index/value lengths differ")
        if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= n
                             or col_idx.min() < 0 or col_idx.max() >= n):
            raise ContractError("SparseMatrix: index out of range")
        if not np.isfinite(vals).all():
            raise DomainError("SparseMatrix: values must be finite")
        self.n = int(n)
        # the conversion sums duplicate entries, so a merged entry shows as a lost one
        self._csr = scipy.sparse.csr_matrix((vals, (row_idx, col_idx)), shape=(n, n))
        if self._csr.nnz != vals.size:
            raise ContractError("SparseMatrix: duplicate (row, col) entries")
        self._structure = None

    def structure(self) -> tuple[bool, bool]:
        """Whether every diagonal entry is zero, and whether the matrix
        equals its transpose; worked out on the first call and kept, as
        the matrix never changes."""
        if self._structure is None:
            csr = self._csr
            self._structure = (not csr.diagonal().any(), (csr != csr.T).nnz == 0)
        return self._structure

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def csr(self) -> scipy.sparse.csr_matrix:
        return self._csr

    def __repr__(self) -> str:
        return f"SparseMatrix(n={self.n}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# two fixed lanes


def _start_lane_pool() -> None:
    """Lane 1's worker, one for the process; its thread starts on the first
    pooled call. A forked child has no copy of it and takes a new one."""
    global _LANE_POOL
    _LANE_POOL = ThreadPoolExecutor(1)


_start_lane_pool()
os.register_at_fork(after_in_child=_start_lane_pool)


def _lanes(work: tuple[Sequence, Sequence], workspace: Callable[[], tuple],
           body: Callable, start=0.0):
    """Run each lane's ``work`` in order, lane k over ``work[k]``, as
    ``total = body(total, item, k, *space)`` from ``start``, and return
    lane 0's total plus lane 1's: a sum of floats, or lane 0's results
    followed by lane 1's when ``start`` is an empty tuple.

    With LANE_WORKERS above one and work in both lanes, lane 1 is one task
    on the lane-1 worker, run in a copy of the caller's context (so numpy's
    error state holds there too), and each lane owns a ``workspace()``;
    otherwise the calling thread runs lane 0 and then lane 1 in one.
    ``body`` writes only its own outputs or its lane's own sums, so every
    bit is the same at any worker count. Lane 1 writes into the caller's
    arrays, so the call ends only once lane 1 has; a lane-1 body that
    called ``_lanes`` would wait on itself.
    """

    def lane(k, space):
        total = start
        for item in work[k]:
            total = body(total, item, k, *space)
        return total

    if LANE_WORKERS > 1 and all(work):
        second = _LANE_POOL.submit(contextvars.copy_context().run, lane, 1, workspace())
        try:
            first = lane(0, workspace())
        finally:
            wait((second,))
        return first + second.result()
    space = workspace()
    return lane(0, space) + lane(1, space)


# ---------------------------------------------------------------------------
# fused pairwise losses
#
# Both ops reduce all-pairs cosine similarities of row-normalized
# embeddings to a 1x1 loss, walking PAIRWISE_TILE rows at a time. The
# closed-form gradient is formed in the same pass, so memory stays
# O(tile * n) and backward is one scaling.


def _row_tiles(rows: int) -> tuple[list[slice], list[slice]]:
    """The PAIRWISE_TILE-row spans of ``rows`` rows in their two lanes,
    span i in lane i mod 2."""
    spans = [slice(r0, min(r0 + PAIRWISE_TILE, rows)) for r0 in range(0, rows, PAIRWISE_TILE)]
    return spans[0::2], spans[1::2]


def cross_view_contrastive(z: Tensor, tau: float) -> Tensor:
    """Inter-view contrastive loss of the two n-by-d views stacked in ``z``
    (the output of ``graph_conv_views``): row r of the top half and row
    n + r are the same spot's two views.

    With y = ``z`` row-normalized (guarded norms) and s = y y^T, item r of
    the 2n items has the other view's row of the same spot as its positive
    p(r), and every other item as a negative:

        loss = -1/(2n) sum_r log(exp(s_rp / tau) / sum_{k != r} exp(s_rk / tau)).

    Each row is evaluated in log space relative to its largest similarity
    m_r over k != r, so no temperature overflows and no underflowed sum
    reaches a log; every item contributes log(sum) - (s_rp/tau - m_r) >= 0,
    and a single spot gives exactly zero. ``tau`` and 1/``tau`` must be
    finite and positive.

    The tiles run in ``_lanes``, a lane's workspace one PAIRWISE_TILE-by-2n
    block and one d-by-2n product; the gradient tail runs in place, over
    all 2n rows at once. Each step keeps the operation order of the plain
    array expressions, grouped by lane, so values and gradients are bitwise
    the same.
    """
    if z.rows % 2:
        raise DimensionError(f"cross_view_contrastive: {z.rows} rows do not stack two views")
    tau = float(tau)
    if not (0.0 < tau < np.inf and np.isfinite(1.0 / tau)):
        raise DomainError(f"cross_view_contrastive: tau must be finite and positive, got {tau}")
    items = z.rows
    n = items // 2
    inv_tau = 1.0 / tau
    coef = 1.0 / items
    norms = _guarded_norms(z.data)
    y = z.data / norms
    y_t = np.ascontiguousarray(y.T)
    pos = np.roll(np.arange(items), n)  # p(r), an involution
    # dL/dy = G y + G^T y for G = dL/ds; each lane sums both halves of its
    # tiles transposed, into a d-by-2n array of its own, which keeps the
    # G^T y product on contiguous operands.
    gy_t = [np.zeros_like(y_t), np.zeros_like(y_t)]

    def tile(total, span, lane, block_buf, prod):
        rows = np.arange(span.stop - span.start)
        own = rows + span.start
        part = y[span]
        block = np.matmul(part * inv_tau, y_t, out=block_buf[:rows.size])  # s / tau
        s_pos = block[rows, pos[own]]
        block[rows, own] = -np.inf  # k = r drops out of the sum
        m = block.max(axis=1)
        block -= m[:, None]
        np.exp(block, out=block)
        den = block.sum(axis=1)  # sum_{k != r} exp(s_rk/tau) / exp(m_r)
        # dL/ds_rk = coef * (exp(s_rk/tau) / (tau den_r) - [k = p(r)] / tau);
        # the positive entries are subtracted below.
        w = inv_tau / den
        g = gy_t[lane]
        g[:, span] += (w[:, None] * (block @ y)).T
        g += np.matmul((part * w[:, None]).T, block, out=prod)
        return total + np.sum(np.log(den) - (s_pos - m))

    size = min(PAIRWISE_TILE, items)
    total = _lanes(_row_tiles(items), lambda: (np.empty((size, items)), np.empty_like(y_t)),
                   tile)
    del y_t
    gy_t[0] += gy_t[1]
    gy = np.ascontiguousarray(gy_t[0].T)
    del gy_t
    # s_rp enters as the positive of both r and p(r) = p^-1(r)
    gy[:n] -= (2.0 * inv_tau) * y[n:]
    gy[n:] -= (2.0 * inv_tau) * y[:n]
    _through_row_norm(gy, z.data, norms)
    gy *= coef
    return _fused_loss(coef * total, (z,), (gy,))


def cosine_link_loss(z: Tensor, adj: "SparseMatrix") -> Tensor:
    """Logistic link loss of the guarded cosine similarities s of the rows
    of ``z`` against the constant weights ``adj``, which must be symmetric
    with a zero diagonal:

        sum_{i != j} [-adj_ij log sigmoid(s_ij) - (1 - adj_ij) log(1 - sigmoid(s_ij))]
        = sum_{i != j} softplus(s_ij) - sum_ij adj_ij s_ij.

    |s| < 1, so softplus(s) = log1p(exp(s)) needs no guard; the edge sum
    runs over the stored entries of ``adj``. As ``adj`` is symmetric, the
    one product adj u serves both edge terms of the gradient.

    The tiles run in ``_lanes``: each lane's workspace is one
    PAIRWISE_TILE-by-n block and one scratch of the same size (for log1p
    and 1 + block); the gradient tail runs in place. Every step keeps the
    operation order of the plain array expressions, the loss sum grouped
    by lane, so values and gradients are bitwise the same.
    """
    if adj.n != z.rows:
        raise DimensionError(f"cosine_link_loss: operator n={adj.n} vs rows={z.rows}")
    zero_diagonal, symmetric = adj.structure()
    if not zero_diagonal:
        raise ContractError("cosine_link_loss: adjacency must have a zero diagonal")
    if not symmetric:
        raise ContractError("cosine_link_loss: adjacency must be symmetric")
    n = z.rows
    norm = _guarded_norms(z.data)
    u = z.data / norm
    u_t = np.ascontiguousarray(u.T)
    gu = np.zeros_like(u)

    def tile(total, span, lane, block_buf, scratch_buf):
        rows = np.arange(span.stop - span.start)
        block = np.matmul(u[span], u_t, out=block_buf[:rows.size])
        scratch = scratch_buf[:rows.size]
        np.exp(block, out=block)
        block[rows, rows + span.start] = 0.0  # log1p(0) = 0: self pairs drop out
        part = np.log1p(block, out=scratch).sum()
        block /= np.add(1.0, block, out=scratch)  # sigmoid(s), still zero on the diagonal
        gu[span] += block @ u
        return total + part

    size = min(PAIRWISE_TILE, n)
    total = _lanes(_row_tiles(n), lambda: (np.empty((size, n)), np.empty((size, n))), tile)
    del u_t

    adj_u = adj.csr() @ u
    total -= np.sum(u * adj_u)
    # sigmoid(s) and adj are symmetric, so dL/du is 2 sigmoid(s) u - 2 adj u
    gu *= 2.0
    gu -= adj_u
    gu -= adj_u
    return _fused_loss(total, (z,), (_through_row_norm(gu, z.data, norm),))


# ---------------------------------------------------------------------------
# fused ZINB decoder and likelihood


# Kept out of __all__, the registry of tensor operations: it holds
# constants, built once per run, and is no operation.
class ZinbTarget:
    """The constant counts of ``zinb_decoder_nll``, checked finite and
    nonnegative, and integer when ``require_integer`` (without it the
    factorial term generalizes to lgamma(x + 1), which admits the
    non-integer targets produced by preprocessing). It holds the matrix's
    ``shape``; its ``lanes``, the tiles of the node's two fixed lanes; and
    ``log_x_fact``, sum lgamma(x + 1), which a zero count adds nothing to.

    A row block holds ZINB_ROW_BLOCK rows, or fewer so that it holds at
    most ZINB_BLOCK_ENTRIES entries, and is cut into two tiles, lane 0's
    the first half rounded up and lane 1's the rest. ``by_rows`` tells the
    cut: by rows when 3 genes < n, where lane 1 keeps its own copy of the
    head weight and bias gradients (3 x hidden x genes values), and by
    genes otherwise, where it keeps its own n-by-hidden hidden-row
    gradient, so that the copy is the smaller of the two. An empty half (a
    one-row block, a single gene) is no tile. A lane lists its tiles in row
    order, each ``(start, stop, lo, hi, mask, x_pos)`` with the positive
    entries of rows start:stop and
    genes lo:hi as a packed bit mask (``np.packbits``, one bit per entry in
    row-major order) and the positive counts themselves, in that order.
    The constants take about 0.44 count-sized buffers at 58% zeros; the
    decoder node expands a tile's mask into entry positions when it reaches
    the tile.
    """

    __slots__ = ("shape", "by_rows", "lanes", "log_x_fact")

    def __init__(self, counts, require_integer: bool = True):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 2:
            raise DataError(f"counts must be a matrix, got shape {counts.shape}")
        if counts.size == 0:
            raise DataError(f"counts must have at least one entry, got shape {counts.shape}")
        if not np.isfinite(counts).all():
            raise DataError("counts must be finite")
        if np.any(counts < 0):
            raise DataError("counts must be nonnegative")
        if require_integer and not np.all(counts == np.floor(counts)):
            raise DataError("counts must be integers")
        self.shape = counts.shape
        n, genes = counts.shape
        rows = min(ZINB_ROW_BLOCK, max(1, ZINB_BLOCK_ENTRIES // genes))
        self.by_rows = 3 * genes < n
        self.lanes = ([], [])
        self.log_x_fact = 0.0
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            if self.by_rows:
                mid = (r0 + r1 + 1) // 2
                halves = ((r0, mid, 0, genes), (mid, r1, 0, genes))
            else:
                mid = (genes + 1) // 2
                halves = ((r0, r1, 0, mid), (r0, r1, mid, genes))
            for tiles, (start, stop, lo, hi) in zip(self.lanes, halves):
                if start == stop or lo == hi:
                    continue
                flat = np.ravel(counts[start:stop, lo:hi])
                positive = flat != 0
                x_pos = flat[positive]
                self.log_x_fact += _gammaln(x_pos + 1.0).sum()
                tiles.append((start, stop, lo, hi, np.packbits(positive), x_pos))


# Bits of a count mask unpacked at a time, a multiple of 8 so that every
# chunk starts on a byte: the positions of a chunk's set and clear bits are
# its only temporaries.
_MASK_CHUNK = 2**15


def _mask_positions(mask: np.ndarray, size: int, n_set: int, out: np.ndarray) -> None:
    """Write into ``out`` (``size`` intp) the ascending positions of the
    set bits among the first ``size`` bits of the packed ``mask``, ``n_set``
    of them, and then the ascending positions of its clear bits."""
    set_at, clear_at = 0, n_set
    for lo in range(0, size, _MASK_CHUNK):
        bits = np.unpackbits(mask[lo // 8:(lo + _MASK_CHUNK) // 8],
                             count=min(_MASK_CHUNK, size - lo)).view(bool)
        found = np.flatnonzero(bits)
        np.add(found, lo, out=out[set_at:set_at + found.size])
        set_at += found.size
        found = np.flatnonzero(np.logical_not(bits, out=bits))
        np.add(found, lo, out=out[clear_at:clear_at + found.size])
        clear_at += found.size


def _exp_neg_abs(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-|x|) written into ``out``."""
    np.abs(x, out=out)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def _sigmoid_into(out: np.ndarray, e: np.ndarray, nonneg: np.ndarray) -> np.ndarray:
    """sigmoid(x) = where(x >= 0, 1, e) / (1 + e) written into ``out``,
    from e = exp(-|x|) and the mask ``nonneg`` of x >= 0; as e <= 1 the
    numerator is max(e, nonneg). ``e`` is left holding 1 + e."""
    np.maximum(e, nonneg, out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


def _zinb_block(total: float, planes: Sequence[np.ndarray], pos: np.ndarray, x: np.ndarray,
                zero: np.ndarray, coef: float, sub: np.ndarray, flags: np.ndarray) -> float:
    """Add the log-likelihood of one block of rows to ``total`` and return
    it: ``planes`` holds the block's pi, mu and theta and ``pos``, ``x``,
    ``zero`` are its count constants. Each plane is overwritten with coef
    times the gradient: in pi times pi (1 - pi), in mu times mu and in
    theta, that is, chained through the dropout logit and log mu. ``sub``
    is scratch of seven rows at least as long as ``pos`` and ``zero``,
    ``flags`` a boolean scratch at least as long as ``zero``. With
    r = log(theta / (theta + mu)) an entry's log-likelihood is

        x = 0:  log max(pi + (1 - pi) exp(theta r), ZINB_PROB_FLOOR)
        x > 0:  log(1 - pi) + lgamma(x + theta) - lgamma(theta) - lgamma(x + 1)
                + theta r + x log(mu / (theta + mu)),

    summed without the lgamma(x + 1) terms, a run constant. lgamma and
    digamma run on positive entries only, the mixture on zero entries only;
    a floored entry has zero gradient. A branch gathers its entries before
    it scatters their gradients, and the two branches' entries are
    disjoint, so the planes can take the gradients in place; each chain
    factor multiplies a gradient before its scatter, as it would the whole
    plane after.
    """
    p, m, t = (np.ravel(a) for a in planes)

    def gather(idx):
        # indices are in range; mode="raise" would copy through a temporary
        return [np.take(a, idx, out=row[:idx.size], mode="clip") for a, row in zip((p, m, t), sub)]

    pp, mp, tp = gather(pos)
    r, xt, s1, s2 = (row[:pos.size] for row in sub[3:])
    np.divide(mp, tp, out=r)
    np.log1p(r, out=r)
    np.negative(r, out=r)
    np.add(x, tp, out=xt)
    _gammaln(xt, out=s1)
    s1 -= _gammaln(tp, out=s2)
    s1 += np.multiply(tp, r, out=s2)
    np.divide(tp, mp, out=s2)
    np.log1p(s2, out=s2)
    s1 -= np.multiply(x, s2, out=s2)  # x log(mu / (theta + mu))
    np.negative(pp, out=s2)
    s1 += np.log1p(s2, out=s2)
    total += s1.sum()
    inv_tm = np.add(tp, mp, out=s1)
    np.divide(1.0, inv_tm, out=inv_tm)
    np.subtract(1.0, pp, out=s2)
    np.divide(-coef, s2, out=s2)
    s2 *= pp
    p[pos] = np.multiply(s2, np.subtract(1.0, pp, out=pp), out=s2)
    np.divide(x, mp, out=s2)
    s2 -= np.multiply(xt, inv_tm, out=pp)
    np.multiply(coef, s2, out=s2)
    m[pos] = np.multiply(s2, mp, out=s2)
    _digamma(xt, out=s2)
    s2 -= _digamma(tp, out=pp)
    s2 += r
    s2 += np.multiply(np.subtract(mp, x, out=pp), inv_tm, out=pp)
    t[pos] = np.multiply(coef, s2, out=s2)

    pz, mz, tz = gather(zero)
    r, p0, s1, s2 = (row[:zero.size] for row in sub[3:])
    kept = flags[:zero.size]
    np.divide(mz, tz, out=r)
    np.log1p(r, out=r)
    np.negative(r, out=r)
    np.multiply(tz, r, out=p0)
    np.exp(p0, out=p0)  # NB probability of a zero
    np.subtract(1.0, pz, out=s1)
    s1 *= p0  # (1 - pi) p0
    mix = np.add(pz, s1, out=pz)
    np.greater_equal(mix, ZINB_PROB_FLOOR, out=kept)
    floored = np.maximum(mix, ZINB_PROB_FLOOR, out=mix)
    total += np.log(floored, out=s2).sum()
    w = np.divide(coef, floored, out=s2)
    w *= kept  # a floored entry has no gradient
    np.take(p, zero, out=pz, mode="clip")  # pi again: its row held the mixture
    np.multiply(w, np.subtract(1.0, p0, out=p0), out=p0)
    p0 *= pz
    p[zero] = np.multiply(p0, np.subtract(1.0, pz, out=pz), out=p0)
    w *= s1
    inv_tm = np.add(tz, mz, out=s1)
    np.divide(1.0, inv_tm, out=inv_tm)
    t[zero] = np.multiply(w, np.add(r, np.multiply(mz, inv_tm, out=p0), out=p0), out=p0)
    np.negative(w, out=p0)
    p0 *= tz
    p0 *= inv_tm
    m[zero] = np.multiply(p0, mz, out=p0)
    return total


def zinb_decoder_nll(hidden: Tensor, heads: Sequence[tuple[Tensor, Tensor]],
                     target: ZinbTarget) -> Tensor:
    """Mean negative log-likelihood of the constant counts ``target``
    under the ZINB decoder: the dropout, mean and dispersion ``heads``
    ((w, b) each) over the hidden layer give

        pi    = sigmoid(clamp(hidden w + b, +-DROPOUT_LOGIT_CLAMP))
        mu    = exp(clamp(hidden w + b, +-MEAN_LOGIT_CLAMP))
        theta = softplus(hidden w + b) + DISPERSION_FLOOR.

    Each tile of the target's lanes forms its pre-activations, the
    likelihood and its gradients chained through the activations (zero
    where the unclamped pre-activation is past a clamp), folded into the
    hidden-row, weight and bias gradients: no n-by-genes array is ever
    formed.

    The tiles run in ``_lanes``, each lane's in row order, and each lane
    sums its own loss. Under a row cut a lane writes only its own rows of
    the hidden-row gradient and sums its own head weight and bias
    gradients; under a gene cut it writes only its own genes' columns of
    the head gradients and sums its own hidden-row gradient. Lane 1 keeps
    the sums of its own in arrays that are then added to lane 0's, so the
    bits depend on the target's lanes, never on the worker count. A lane's
    workspace is sized by the largest tile, half a block, and every tile
    writes into it in place: five tile planes, seven rows of scratch for
    the positive and zero entries (which also take each head's
    hidden-by-genes weight-gradient term once the likelihood is done), and
    three boolean planes. The dropout and mean
    planes each hold a pre-activation, then the activation, then the
    gradient, with the entries inside the clamp kept as a boolean plane;
    the dispersion's pre-activation plane ends as sigmoid(pre-activation),
    softplus's derivative, while theta and then its gradient take a plane
    of their own. The fifth plane is the exp scratch; once the activations
    are formed it takes the tile's entry positions, expanded from its count
    mask, positive ones first. The workspaces are dropped on return; the
    backward closure holds only the leaf gradients. Each head entry takes
    one exp: with e = exp(-|c|), sigmoid(c) is where(c >= 0, 1, e) / (1 + e),
    and softplus(c) = log1p(e) + max(c, 0) keeps its e for sigmoid(c), its
    derivative. The in-place steps keep the operation order of the plain
    array expressions, grouped by lane, so values and gradients are bitwise
    the same.
    """
    for w, b in heads:
        if w.rows != hidden.cols or b.data.shape != (1, w.cols) or w.cols != heads[0][0].cols:
            raise DimensionError(f"zinb_decoder_nll: head {w.data.shape} + {b.data.shape} "
                                 f"on hidden {hidden.data.shape}")
    (w_p, _), (w_m, _), (w_t, _) = heads
    genes = w_p.cols
    if target.shape != (hidden.rows, genes):
        raise DimensionError(f"zinb_decoder_nll: decoded ({hidden.rows}, {genes}) "
                             f"vs counts {target.shape}")
    lanes = target.lanes
    coef = -1.0 / (hidden.rows * genes)
    leaves = (hidden,) + tuple(tensor for head in heads for tensor in head)
    g_leaves = [np.zeros(tensor.data.shape) for tensor in leaves]
    # lane 1 keeps its own copy of the gradients both lanes write to: the
    # head gradients under a row cut, the hidden-row gradient under a gene cut
    own = [bool(lanes[1]) and (i > 0) == target.by_rows for i in range(len(leaves))]
    g_lanes = (g_leaves, [np.zeros_like(g) if mine else g for g, mine in zip(g_leaves, own)])

    tiles = lanes[0] + lanes[1]
    size = max((stop - start) * (hi - lo) for start, stop, lo, hi, *_ in tiles)
    branch = max(max(x.size, (stop - start) * (hi - lo) - x.size)
                 for start, stop, lo, hi, _, x in tiles)
    width = max(hi - lo for _, _, lo, hi, *_ in tiles)

    def workspace():
        return (np.empty((5, size)), np.empty(max(7 * branch, hidden.cols * width)),
                np.empty((3, size), dtype=bool))

    def tile(total, item, lane, planes, scratch, bool_planes):
        start, stop, lo, hi, mask, x = item
        cols = slice(lo, hi)
        h = hidden.data[start:stop]
        shape = (stop - start, hi - lo)
        p, m, t, pre_t, e = planes[:, :shape[0] * shape[1]].reshape(5, *shape)
        flags, keep_p, keep_m = (b[:p.size].reshape(shape) for b in bool_planes)
        for (w, b), pre in zip(heads, (p, m, pre_t)):
            np.matmul(h, w.data[:, cols], out=pre)
            pre += b.data[:, cols]
        # the gradient passes where the pre-activation is within its clamp
        np.less_equal(np.abs(p, out=e), DROPOUT_LOGIT_CLAMP, out=keep_p)
        np.less_equal(np.abs(m, out=e), MEAN_LOGIT_CLAMP, out=keep_m)
        np.clip(p, -DROPOUT_LOGIT_CLAMP, DROPOUT_LOGIT_CLAMP, out=p)
        _exp_neg_abs(p, e)
        _sigmoid_into(p, e, np.greater_equal(p, 0.0, out=flags))
        np.clip(m, -MEAN_LOGIT_CLAMP, MEAN_LOGIT_CLAMP, out=m)
        np.exp(m, out=m)
        _exp_neg_abs(pre_t, e)
        np.log1p(e, out=t)
        np.greater_equal(pre_t, 0.0, out=flags)
        # softplus = log1p(e) + max(pre_t, 0): adding zero where pre_t <= 0
        # is exact, so this is where(pre_t > 0, pre_t + log1p(e), log1p(e))
        t += np.maximum(pre_t, 0.0, out=pre_t)
        t += DISPERSION_FLOOR
        _sigmoid_into(pre_t, e, flags)  # sigmoid(pre_t), softplus's derivative
        # e is free from here on and holds exactly the tile's entries
        positions = e.reshape(-1).view(np.intp)
        _mask_positions(mask, p.size, x.size, positions)
        total = _zinb_block(total, (p, m, t), positions[:x.size], x, positions[x.size:],
                            coef, scratch[:7 * branch].reshape(7, branch), bool_planes[0])
        p *= keep_p
        m *= keep_m
        t *= pre_t  # now sigmoid(pre_t)
        gram = scratch[:hidden.cols * shape[1]].reshape(hidden.cols, shape[1])
        g_hidden, *g_heads = g_lanes[lane]
        for g_w, g_b, g in zip(g_heads[0::2], g_heads[1::2], (p, m, t)):
            g_w[:, cols] += np.matmul(h.T, g, out=gram)
            g_b[:, cols] += g.sum(axis=0, keepdims=True)
        # summed in place: a half-block product is too small for numpy to
        # reuse its temporaries, and both lanes hold theirs at once
        g_rows = np.matmul(p, w_p.data[:, cols].T, out=g_hidden[start:stop])
        g_rows += m @ w_m.data[:, cols].T
        g_rows += t @ w_t.data[:, cols].T
        return total

    total = _lanes(lanes, workspace, tile)
    for g, g_second, mine in zip(g_leaves, g_lanes[1], own):
        if mine:
            g += g_second
    return _fused_loss(coef * (total - target.log_x_fact), leaves, g_leaves)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate gradients of ``loss`` into the ``.grad`` of every reachable
    leaf, a requires_grad tensor that no op produced; op outputs keep none.
    Each op's closure runs once, with its output's gradient total."""
    if loss.data.shape != (1, 1):
        raise ContractError(f"backward: loss must be scalar, got {loss.data.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}

    def accum(t: Tensor, contribution: np.ndarray) -> None:
        # Out of place: a contribution may be an op's own array or a view,
        # so no array handed in here is ever written.
        key = id(t)
        buf = pending.get(key)
        pending[key] = contribution if buf is None else buf + contribution

    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, accum)
        elif node.requires_grad:
            # Single += per pass: two passes double the gradient exactly.
            node.grad = g if node.grad is None else node.grad + g


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
