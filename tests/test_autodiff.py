"""Engine tests: frozen closed-form values, finite-difference oracles,
unfused references that the fused ops must reproduce, and the
densify-and-multiply oracle for the sparse product."""

import ast
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln

from stmfg import autodiff as ad
from stmfg.autodiff import SparseMatrix, Tensor
from stmfg.errors import ContractError, DimensionError, DomainError

from conftest import grad_check, run_on_workers, stack, traced_held, traced_peak


def tensor(data, grad=True):
    return Tensor(data, requires_grad=grad)


def _scaled(g, grad):
    """A fused node's stored gradient times its 1x1 upstream gradient ``g``."""
    return grad if g[0, 0] == 1.0 else g[0, 0] * grad


def zinb_of(counts, pi, mu, theta):
    """The reference ZINB likelihood in (pi, mu, theta) on a constant count matrix."""
    return zinb_mean_nll(pi, mu, theta, ad.ZinbTarget(counts, require_integer=False))


def random_sparse_symmetric(n, rng, density=0.3):
    """Random symmetric sparse matrix with zero diagonal."""
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = rng.uniform(-2, 2)
                rows += [i, j]
                cols += [j, i]
                vals += [v, v]
    return SparseMatrix(n, rows, cols, vals)


# ---------------------------------------------------------------------------
# Unfused reference of ad.graph_conv: the generic ops a ReLU layer was built
# from before it became one engine node. The fused op must reproduce the
# chains relu(spmm(A, matmul(z, w))), relu(matmul(z, w)) and
# relu(broadcast_add(matmul(z, w), b)) bitwise, value and gradients, and
# agree within 1e-12 with the propagate-first order relu(matmul(spmm(A, z), w))
# that it used before.


def matmul(a, b):
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g @ b.data.T)
        if b.requires_grad:
            accum(b, a.data.T @ g)

    return ad._from_op(out_data, (a, b), backward_fn)


def spmm(s, d):
    """Sparse-operator times dense tensor; the operator is a constant."""
    if s.n != d.rows:
        raise DimensionError(f"spmm: operator n={s.n} vs tensor rows={d.rows}")
    out_data = s.csr() @ d.data

    def backward_fn(g, accum):
        accum(d, s.csr().T @ g)

    return ad._from_op(out_data, (d,), backward_fn)


def relu(a):
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g, accum):
        accum(a, g * (a.data > 0.0))

    return ad._from_op(out_data, (a,), backward_fn)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def broadcast_add(a, b):
    """The engine's add before it required equal shapes: a row vector or a
    1x1 operand is broadcast, and its gradient summed back."""
    if a.data.shape != b.data.shape and not all(
            x == y or x == 1 or y == 1 for x, y in zip(a.data.shape, b.data.shape)):
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data + b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accum(b, _unbroadcast(g, b.data.shape))

    return ad._from_op(out_data, (a, b), backward_fn)


def reference_graph_conv(x, w, adj=None, bias=None):
    """The generic-op chain that ad.graph_conv replaces: relu(A (x w) + b)."""
    pre = matmul(x, w)
    if adj is not None:
        pre = spmm(adj, pre)
    return relu(pre if bias is None else broadcast_add(pre, bias))


def propagate_first_graph_conv(x, w, adj=None, bias=None):
    """The same layer in the order relu((A x) w + b): equal in exact
    arithmetic, and within rounding of the other order."""
    pre = matmul(x if adj is None else spmm(adj, x), w)
    return relu(pre if bias is None else broadcast_add(pre, bias))


# Harness ops: scalar-valued losses for the gradient checks.


def hadamard(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"hadamard: shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data * b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g * b.data)
        if b.requires_grad:
            accum(b, g * a.data)

    return ad._from_op(out_data, (a, b), backward_fn)


def sum_all(a):
    out_data = np.array([[a.data.sum()]])

    def backward_fn(g, accum):
        accum(a, np.broadcast_to(g, a.data.shape))

    return ad._from_op(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# Unfused reference of ad.view_attention: the six generic ops the attention
# step was built from before it became one engine node. They are grad-checked
# like the engine ops, and the ten-node graph they build is the oracle that
# the fused op reproduces bitwise in the forward pass.


def leaky_relu(a, slope=0.2):
    slope = float(slope)
    out_data = np.where(a.data > 0.0, a.data, slope * a.data)

    def backward_fn(g, accum):
        accum(a, g * np.where(a.data > 0.0, 1.0, slope))

    return ad._from_op(out_data, (a,), backward_fn)


def concat_cols(a, b):
    out_data = np.concatenate([a.data, b.data], axis=1)
    split = a.cols

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g[:, :split])
        if b.requires_grad:
            accum(b, g[:, split:])

    return ad._from_op(out_data, (a, b), backward_fn)


def stack_rows(a, b):
    """The rows of ``a`` and then those of ``b``: two views stacked as the
    engine's view ops take them."""
    if a.cols != b.cols:
        raise DimensionError(f"stack_rows: widths {a.cols} and {b.cols} differ")
    out_data = np.concatenate([a.data, b.data])
    split = a.rows

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g[:split])
        if b.requires_grad:
            accum(b, g[split:])

    return ad._from_op(out_data, (a, b), backward_fn)


def slice_cols(a, start, stop):
    out_data = a.data[:, start:stop].copy()

    def backward_fn(g, accum):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        accum(a, full)

    return ad._from_op(out_data, (a,), backward_fn)


def col_broadcast_mul(col, mat):
    """Scale every row of ``mat`` by the matching entry of column ``col``."""
    out_data = col.data * mat.data

    def backward_fn(g, accum):
        if col.requires_grad:
            accum(col, (g * mat.data).sum(axis=1, keepdims=True))
        if mat.requires_grad:
            accum(mat, g * col.data)

    return ad._from_op(out_data, (col, mat), backward_fn)


def row_l2_normalize(a):
    """Divide each row by its guarded Euclidean norm; zero rows stay zero."""
    norm = ad._guarded_norms(a.data)
    out_data = a.data / norm

    def backward_fn(g, accum):
        accum(a, ad._through_row_norm(g, a.data, norm))

    return ad._from_op(out_data, (a,), backward_fn)


def softmax_rows(a):
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g, accum):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        accum(a, out_data * (g - dot))

    return ad._from_op(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# Allocating reference of ad.zinb_decoder_nll: the fused node as it was
# before it took a call-scoped workspace, with fresh temporaries in every
# block and separate transcendentals per activation. The workspace op must
# reproduce its value and gradients bitwise.


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def count_tiles(target):
    """Each tile of ``target``, lane 0's and then lane 1's, in row order,
    as (lane, start, stop, lo, hi, pos, x, zero): the flat positions within
    the tile of its positive and of its zero counts, ascending, and the
    positive counts. The tiles are those of ``zinb_lanes``."""
    assert ([[tile[:4] for tile in tiles] for tiles in target.lanes]
            == zinb_lanes(*target.shape))
    for lane, tiles in enumerate(target.lanes):
        for start, stop, lo, hi, mask, x in tiles:
            positive = np.unpackbits(mask, count=(stop - start) * (hi - lo)).astype(bool)
            yield lane, start, stop, lo, hi, np.flatnonzero(positive), x, np.flatnonzero(~positive)


def _zinb_block(total: float, pi: np.ndarray, mu: np.ndarray, theta: np.ndarray,
                pos: np.ndarray, x: np.ndarray, zero: np.ndarray, coef: float,
                want_grad: bool) -> tuple[float, list[np.ndarray] | None]:
    """Add the log-likelihood of one block of rows to ``total``: ``pi``,
    ``mu``, ``theta`` are the block's parameters and ``pos``, ``x``, ``zero``
    its count constants. Returns the new total and, when ``want_grad``,
    coef times the gradients in pi, mu and theta, shaped like ``pi``.
    With r = log(theta / (theta + mu)) an entry's log-likelihood is

        x = 0:  log max(pi + (1 - pi) exp(theta r), ZINB_PROB_FLOOR)
        x > 0:  log(1 - pi) + lgamma(x + theta) - lgamma(theta) - lgamma(x + 1)
                + theta r + x log(mu / (theta + mu)),

    summed without the lgamma(x + 1) terms, a run constant. lgamma and
    digamma run on positive entries only, the mixture on zero entries only;
    a floored entry has zero gradient.
    """
    p, m, t = (np.ravel(a) for a in (pi, mu, theta))
    if want_grad:
        grads = [np.empty(pi.shape) for _ in range(3)]
        g_p, g_m, g_t = (g.reshape(-1) for g in grads)
    pp, mp, tp = p[pos], m[pos], t[pos]
    r = -np.log1p(mp / tp)
    xt = x + tp
    ll = _gammaln(xt)
    ll -= _gammaln(tp)
    ll += tp * r
    ll -= x * np.log1p(tp / mp)  # x log(mu / (theta + mu))
    ll += np.log1p(-pp)
    total += ll.sum()
    if want_grad:
        inv_tm = 1.0 / (tp + mp)
        g_p[pos] = -coef / (1.0 - pp)
        g_m[pos] = coef * (x / mp - xt * inv_tm)
        g_t[pos] = coef * (_digamma(xt) - _digamma(tp) + r + (mp - x) * inv_tm)

    pz, mz, tz = p[zero], m[zero], t[zero]
    r = -np.log1p(mz / tz)
    p0 = np.exp(tz * r)  # NB probability of a zero
    mix = pz + (1.0 - pz) * p0
    floored = np.maximum(mix, ad.ZINB_PROB_FLOOR)
    total += np.log(floored).sum()
    if not want_grad:
        return total, None
    w = coef / floored
    w *= mix >= ad.ZINB_PROB_FLOOR  # a floored entry has no gradient
    g_p[zero] = w * (1.0 - p0)
    w *= (1.0 - pz) * p0
    inv_tm = 1.0 / (tz + mz)
    g_t[zero] = w * (r + mz * inv_tm)
    g_m[zero] = -w * tz * inv_tm
    return total, grads


def allocating_zinb_decoder_nll(hidden, heads, target):
    for w, b in heads:
        if w.rows != hidden.cols or b.data.shape != (1, w.cols) or w.cols != heads[0][0].cols:
            raise DimensionError(f"zinb_decoder_nll: head {w.data.shape} + {b.data.shape} "
                                 f"on hidden {hidden.data.shape}")
    (w_p, _), (w_m, _), (w_t, _) = heads
    coef = -1.0 / (hidden.rows * w_p.cols)
    leaves = (hidden,) + tuple(tensor for head in heads for tensor in head)
    want_grad = any(tensor.requires_grad for tensor in leaves)
    g_leaves = [np.zeros(tensor.data.shape) for tensor in leaves] if want_grad else None

    sums = [0.0, 0.0]
    # every lane sums its own gradients, lane 0's then plus lane 1's
    g_lanes = [[np.zeros(tensor.data.shape) for tensor in leaves] for _ in range(2)]
    for lane, start, stop, lo, hi, pos, x, zero in count_tiles(target):
        h = hidden.data[start:stop]
        pre_p, pre_m, pre_t = (h @ w.data[:, lo:hi] + b.data[:, lo:hi] for w, b in heads)
        p = _sigmoid(np.clip(pre_p, -ad.DROPOUT_LOGIT_CLAMP, ad.DROPOUT_LOGIT_CLAMP))
        m = np.exp(np.clip(pre_m, -ad.MEAN_LOGIT_CLAMP, ad.MEAN_LOGIT_CLAMP))
        t = np.where(pre_t > 0.0, pre_t + np.log1p(np.exp(-np.abs(pre_t))),
                     np.log1p(np.exp(-np.abs(pre_t)))) + ad.DISPERSION_FLOOR
        sums[lane], grads = _zinb_block(sums[lane], p, m, t, pos, x, zero, coef, want_grad)
        if not want_grad:
            continue
        g_p, g_m, g_t = grads
        g_p *= p
        g_p *= 1.0 - p
        g_p *= np.abs(pre_p) <= ad.DROPOUT_LOGIT_CLAMP
        g_m *= m
        g_m *= np.abs(pre_m) <= ad.MEAN_LOGIT_CLAMP
        g_t *= _sigmoid(pre_t)
        g_hidden, *g_heads = g_lanes[lane]
        for g_w, g_b, g in zip(g_heads[0::2], g_heads[1::2], grads):
            g_w[:, lo:hi] += h.T @ g
            g_b[:, lo:hi] += g.sum(axis=0, keepdims=True)
        g_hidden[start:stop] = (g_p @ w_p.data[:, lo:hi].T + g_m @ w_m.data[:, lo:hi].T
                                + g_t @ w_t.data[:, lo:hi].T)
    total = sums[0] + sums[1]
    if want_grad:
        g_leaves = [mine + theirs for mine, theirs in zip(*g_lanes)]

    def backward_fn(g, accum):
        for tensor, grad in zip(leaves, g_leaves):
            if tensor.requires_grad:
                accum(tensor, _scaled(g, grad))

    return ad._from_op(np.array([[coef * (total - target.log_x_fact)]]), leaves, backward_fn)


# ---------------------------------------------------------------------------
# Unfused reference of ad.zinb_decoder_nll: the decoder-head ops and the
# likelihood node in (pi, mu, theta) that the decoder was built from before
# it became one engine node. The likelihood runs the allocating reference's
# per-block math (_zinb_block above), so it is the same formula over whole
# parameter matrices; it also reaches inputs the heads cannot produce (pi = 0).


def sigmoid(a):
    out_data = _sigmoid(a.data)

    def backward_fn(g, accum):
        accum(a, g * out_data * (1.0 - out_data))

    return ad._from_op(out_data, (a,), backward_fn)


def exp(a):
    out_data = np.exp(a.data)

    def backward_fn(g, accum):
        accum(a, g * out_data)

    return ad._from_op(out_data, (a,), backward_fn)


def softplus(a):
    x = a.data
    out_data = np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))),
                        np.log1p(np.exp(-np.abs(x))))

    def backward_fn(g, accum):
        accum(a, g * _sigmoid(x))

    return ad._from_op(out_data, (a,), backward_fn)


def clip(a, lo, hi):
    out_data = np.clip(a.data, lo, hi)

    def backward_fn(g, accum):
        accum(a, g * ((a.data >= lo) & (a.data <= hi)))

    return ad._from_op(out_data, (a,), backward_fn)


def zinb_mean_nll(pi, mu, theta, target):
    """Mean ZINB negative log-likelihood of the counts ``target`` under
    per-entry (pi, mu, theta), differentiable in all three."""
    coef = -1.0 / pi.data.size
    want_grad = pi.requires_grad or mu.requires_grad or theta.requires_grad
    grads = [np.empty(pi.data.shape) for _ in range(3)] if want_grad else None
    sums = [0.0, 0.0]
    for lane, start, stop, lo, hi, pos, x, zero in count_tiles(target):
        sums[lane], block_grads = _zinb_block(
            sums[lane], *(t.data[start:stop, lo:hi] for t in (pi, mu, theta)), pos, x, zero,
            coef, want_grad)
        if want_grad:
            for grad, block_grad in zip(grads, block_grads):
                grad[start:stop, lo:hi] = block_grad
    total = sums[0] + sums[1]

    def backward_fn(g, accum):
        for t, grad in zip((pi, mu, theta), grads):
            if t.requires_grad:
                accum(t, _scaled(g, grad))

    return ad._from_op(np.array([[coef * (total - target.log_x_fact)]]), (pi, mu, theta),
                       backward_fn)


def unfused_heads(hidden, heads):
    """(pi, mu, theta) of the decoder heads ((w, b) for dropout, mean and
    dispersion) as the eleven generic nodes the fused op replaces."""
    (w_p, b_p), (w_m, b_m), (w_t, b_t) = heads
    pi = sigmoid(clip(broadcast_add(matmul(hidden, w_p), b_p),
                      -ad.DROPOUT_LOGIT_CLAMP, ad.DROPOUT_LOGIT_CLAMP))
    mu = exp(clip(broadcast_add(matmul(hidden, w_m), b_m),
                  -ad.MEAN_LOGIT_CLAMP, ad.MEAN_LOGIT_CLAMP))
    theta = broadcast_add(softplus(broadcast_add(matmul(hidden, w_t), b_t)),
                          Tensor([[ad.DISPERSION_FLOOR]]))
    return pi, mu, theta


def unfused_zinb_decoder_nll(hidden, heads, target):
    return zinb_mean_nll(*unfused_heads(hidden, heads), target)


def head_params(pi, mu, theta, grad=False):
    """Decoder heads that map hidden = I_n to about (pi, mu, theta): the
    inverse activations as weights, zero biases. Only the six head tensors
    of a ModelParams are set; ``head_values`` gives the exact outputs."""
    width = np.shape(pi)[1]
    pre = (np.log(pi / (1.0 - pi)), np.log(mu),
           np.log(np.expm1(np.asarray(theta) - ad.DISPERSION_FLOOR)))
    params = SimpleNamespace()
    for name, w in zip(("dropout", "mean", "dispersion"), pre):
        setattr(params, f"{name}_w", Tensor(w, requires_grad=grad))
        setattr(params, f"{name}_b", Tensor(np.zeros((1, width)), requires_grad=grad))
    return params


def heads_of(params):
    return ((params.dropout_w, params.dropout_b), (params.mean_w, params.mean_b),
            (params.dispersion_w, params.dispersion_b))


def head_values(hidden, params):
    """(pi, mu, theta) arrays of the reference heads."""
    return tuple(t.data for t in unfused_heads(hidden, heads_of(params)))


REFERENCE_OPS = ("matmul", "spmm", "relu", "broadcast_add", "sum_all", "hadamard",
                 "leaky_relu", "concat_cols", "stack_rows", "slice_cols", "col_broadcast_mul",
                 "row_l2_normalize", "softmax_rows", "sigmoid", "exp", "softplus", "clip",
                 "zinb_mean_nll")


def unfused_view_attention(zs, zf, w, slope, l2):
    """The ten-node graph that ad.view_attention replaces."""
    weights = softmax_rows(leaky_relu(matmul(concat_cols(zs, zf), w), slope))
    if l2:
        weights = row_l2_normalize(weights)
    fused = ad.add(col_broadcast_mul(slice_cols(weights, 0, 1), zs),
                   col_broadcast_mul(slice_cols(weights, 1, 2), zf))
    return fused, weights


def _allocating_through_row_norm(g, x, norm):
    gx = (g * x).sum(axis=1, keepdims=True)
    return g / norm - x * gx / (norm ** 3)


def lane_order(rows):
    """(lane, first row) of each ad.PAIRWISE_TILE-row tile of ``rows`` rows:
    tile i is in lane i mod 2, and lane 0's tiles come first, in order."""
    starts = list(range(0, rows, ad.PAIRWISE_TILE))
    return [(lane, r0) for lane in (0, 1) for r0 in starts[lane::2]]


def zinb_lanes(n, genes):
    """The tiles (start, stop, lo, hi) of an ``n``-by-``genes`` ZINB target
    in its two lanes: each row block (ad.ZINB_ROW_BLOCK rows, or fewer to
    hold at most ad.ZINB_BLOCK_ENTRIES entries) is cut in two, lane 0
    taking the first half rounded up; by rows when 3 genes < n, by genes
    otherwise. An empty half is no tile."""
    rows = min(ad.ZINB_ROW_BLOCK, max(1, ad.ZINB_BLOCK_ENTRIES // genes))
    lanes = [[], []]
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        if 3 * genes < n:
            cut = r0 + math.ceil((r1 - r0) / 2)
            halves = [(r0, cut, 0, genes), (cut, r1, 0, genes)]
        else:
            cut = math.ceil(genes / 2)
            halves = [(r0, r1, 0, cut), (r0, r1, cut, genes)]
        for tiles, (start, stop, lo, hi) in zip(lanes, halves):
            if start < stop and lo < hi:
                tiles.append((start, stop, lo, hi))
    return lanes


def allocating_cross_view_contrastive(z, tau):
    """ad.cross_view_contrastive with a fresh block per tile, a fresh
    product per tile and an allocating gradient tail; every sum across
    tiles is grouped by lane, and lane 0's sum comes first."""
    items = z.rows
    n = items // 2
    inv_tau = 1.0 / tau
    coef = 1.0 / items
    norms = ad._guarded_norms(z.data)
    y = z.data / norms
    y_t = np.ascontiguousarray(y.T)
    pos = np.roll(np.arange(items), n)
    gy_t = [np.zeros_like(y_t), np.zeros_like(y_t)]
    sums = [0.0, 0.0]
    for lane, r0 in lane_order(items):
        rows = np.arange(min(ad.PAIRWISE_TILE, items - r0))
        own = rows + r0
        span = slice(r0, r0 + rows.size)
        tile = y[span]
        block = (tile * inv_tau) @ y_t
        s_pos = block[rows, pos[own]]
        block[rows, own] = -np.inf
        m = block.max(axis=1)
        block -= m[:, None]
        np.exp(block, out=block)
        den = block.sum(axis=1)
        sums[lane] += np.sum(np.log(den) - (s_pos - m))
        w = inv_tau / den
        gy_t[lane][:, span] += (w[:, None] * (block @ y)).T
        gy_t[lane] += (tile * w[:, None]).T @ block
    total = sums[0] + sums[1]
    gy = (gy_t[0] + gy_t[1]).T
    gy -= (2.0 * inv_tau) * y[pos]
    grad = coef * _allocating_through_row_norm(gy, z.data, norms)

    def backward_fn(g, accum):
        accum(z, _scaled(g, grad))

    return ad._from_op(np.array([[coef * total]]), (z,), backward_fn)


def allocating_cosine_link_loss(z, adj):
    """ad.cosine_link_loss with fresh block, log1p and 1 + block arrays
    per tile and an allocating gradient tail; the loss sum is grouped by
    lane, lane 0 then lane 1."""
    csr = adj.csr()
    n = z.rows
    norm = ad._guarded_norms(z.data)
    u = z.data / norm
    u_t = np.ascontiguousarray(u.T)
    gu = np.zeros_like(u)
    sums = [0.0, 0.0]
    for lane, r0 in lane_order(n):
        rows = np.arange(min(ad.PAIRWISE_TILE, n - r0))
        block = np.exp(u[r0:r0 + rows.size] @ u_t)
        block[rows, rows + r0] = 0.0
        sums[lane] += np.log1p(block).sum()
        block /= 1.0 + block
        gu[r0:r0 + rows.size] += block @ u
    total = sums[0] + sums[1]
    adj_u = csr @ u
    total -= np.sum(u * adj_u)
    grad = _allocating_through_row_norm(2.0 * gu - adj_u - csr.T @ u, z.data, norm)

    def backward_fn(g, accum):
        accum(z, _scaled(g, grad))

    return ad._from_op(np.array([[total]]), (z,), backward_fn)


class TestMatmul:
    def test_identity(self):
        out = matmul(tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_scalar(self):
        out = matmul(tensor([[2.0]]), tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = tensor(rng.uniform(-2, 2, (4, 3)))
        b_const = Tensor(rng.uniform(-2, 2, (3, 2)))
        w = Tensor(rng.uniform(-2, 2, (4, 2)))
        err_a = grad_check(lambda x: sum_all(hadamard(w, matmul(x, b_const))), a, 1e-5)
        assert err_a < 1e-6

        b = tensor(rng.uniform(-2, 2, (3, 2)))
        a_const = Tensor(rng.uniform(-2, 2, (4, 3)))
        err_b = grad_check(lambda x: sum_all(hadamard(w, matmul(a_const, x))), b, 1e-5)
        assert err_b < 1e-6


class TestSpmm:
    def test_identity_operator(self):
        s = SparseMatrix(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        d = tensor(np.arange(6.0).reshape(3, 2))
        out = spmm(s, d)
        np.testing.assert_array_equal(out.data, d.data)

    def test_empty_operator_gives_zero(self):
        s = SparseMatrix(3, [], [], [])
        d = tensor(np.ones((3, 2)))
        out = spmm(s, d)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_densified_matmul(self):
        rng = np.random.default_rng(11)
        s = random_sparse_symmetric(10, rng)
        d = tensor(rng.uniform(-2, 2, (10, 4)))
        out = spmm(s, d)
        oracle = s.to_dense() @ d.data
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_densified_matmul_up_to_n64(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        s = random_sparse_symmetric(n, rng, density=0.2)
        d = tensor(rng.uniform(-2, 2, (n, 3)))
        np.testing.assert_allclose(spmm(s, d).data, s.to_dense() @ d.data, atol=1e-12)

    def test_dimension_error(self):
        s = SparseMatrix(3, [], [], [])
        with pytest.raises(DimensionError):
            spmm(s, tensor(np.ones((4, 2))))


class TestElementwise:
    def test_relu_signs(self):
        out = relu(tensor([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_sigmoid_at_zero(self):
        x = tensor([[0.0]])
        out = sigmoid(x)
        assert out.item() == 0.5
        ad.backward(out)
        assert x.grad[0, 0] == 0.25

    def test_softmax_uniform(self):
        out = softmax_rows(tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(tensor(rng.uniform(-2, 2, (20, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data > 0).all()

    def test_row_l2_normalize_keeps_zero_rows(self):
        out = row_l2_normalize(tensor([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
        np.testing.assert_allclose(np.linalg.norm(out.data[1]), 1.0, atol=1e-12)


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        x = tensor(np.ones((2, 2)))
        with pytest.raises(ContractError):
            ad.backward(relu(x))

    def test_accumulation_doubles_exactly(self):
        rng = np.random.default_rng(9)
        x = tensor(rng.uniform(-2, 2, (3, 4)))
        y = tensor(rng.uniform(-2, 2, (4, 2)))
        loss = sum_all(hadamard(matmul(x, y), matmul(x, y)))
        ad.backward(loss)
        first = (x.grad.copy(), y.grad.copy())
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * first[0])
        np.testing.assert_array_equal(y.grad, 2.0 * first[1])
        ad.zero_grad([x, y])
        assert x.grad is None and y.grad is None

    def test_constant_graph_is_pruned(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((2, 2)))
        out = ad.add(a, b)
        assert out._parents == () and not out.requires_grad

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(DomainError):
            Tensor([[np.nan, 1.0]])
        with pytest.raises(DomainError):
            Tensor([[np.inf]])


class TestGradCheck:
    def test_sum_of_squares(self):
        x = tensor([[1.0, 2.0]])
        err = grad_check(lambda t: sum_all(hadamard(t, t)), x, 1e-5)
        assert err < 1e-6

    def test_relu_away_from_kink(self):
        x = tensor([[1.5, -0.7, 2.0, -1.2]])
        err = grad_check(lambda t: sum_all(relu(t)), x, 1e-5)
        assert err < 1e-6


def _away_from(arr, points, margin=0.05):
    """Push entries of arr away from the given kink locations."""
    out = arr.copy()
    for p in points:
        close = np.abs(out - p) < margin
        out[close] = p + margin * np.where(out[close] >= p, 1.0, -1.0) * 2
    return out


def _op_cases():
    """One scalar-valued builder per registered differentiable op.

    Inputs are drawn in [-2, 2] and nudged away from non-differentiable
    points; domain-restricted ops map their operand into the domain first.
    """
    cases = {}

    def case(name):
        def wrap(fn):
            cases[name] = fn
            return fn
        return wrap

    def wsum(rng, t):
        w = Tensor(rng.uniform(-1, 1, t.data.shape))
        return sum_all(hadamard(w, t))

    case("matmul")(lambda rng, x: wsum(rng, matmul(x, Tensor(rng.uniform(-2, 2, (x.cols, 3))))))
    case("add")(lambda rng, x: wsum(rng, ad.add(x, hadamard(x, x))))
    case("broadcast_add")(
        lambda rng, x: wsum(rng, broadcast_add(x, Tensor(rng.uniform(-2, 2, (1, x.cols))))))
    case("hadamard")(lambda rng, x: wsum(rng, hadamard(x, Tensor(rng.uniform(-2, 2, x.data.shape)))))
    case("scale")(lambda rng, x: wsum(rng, ad.scale(x, -1.7)))
    case("relu")(lambda rng, x: wsum(rng, relu(x)))
    case("sigmoid")(lambda rng, x: wsum(rng, sigmoid(x)))
    case("exp")(lambda rng, x: wsum(rng, exp(x)))
    case("softplus")(lambda rng, x: wsum(rng, softplus(x)))
    case("clip")(lambda rng, x: wsum(rng, clip(x, -1.5, 1.5)))
    case("sum_all")(lambda rng, x: sum_all(hadamard(x, x)))
    case("leaky_relu")(lambda rng, x: wsum(rng, leaky_relu(x, 0.2)))
    case("concat_cols")(lambda rng, x: wsum(rng, concat_cols(x, hadamard(x, x))))
    case("slice_cols")(lambda rng, x: wsum(rng, slice_cols(x, 1, x.cols)))
    case("col_broadcast_mul")(
        lambda rng, x: wsum(rng, col_broadcast_mul(slice_cols(x, 0, 1), x)))
    case("row_l2_normalize")(lambda rng, x: wsum(rng, row_l2_normalize(x)))
    case("softmax_rows")(lambda rng, x: wsum(rng, softmax_rows(x)))
    case("stack_rows")(lambda rng, x: wsum(rng, stack_rows(x, hadamard(x, x))))
    # both views depend on x, so the checks cover both gradient paths
    case("view_attention")(lambda rng, x: wsum(rng, ad.view_attention(
        stack_rows(x, hadamard(x, x)), Tensor(rng.uniform(-2, 2, (2 * x.cols, 2))), 0.2,
        True)[0]))
    case("cross_view_contrastive")(
        lambda rng, x: ad.cross_view_contrastive(stack_rows(x, hadamard(x, x)), 0.5))
    case("cosine_link_loss")(
        lambda rng, x: ad.cosine_link_loss(x, random_sparse_symmetric(x.rows, rng)))
    # pi, mu and theta all depend on x; the counts mix zeros and positives
    case("zinb_mean_nll")(lambda rng, x: zinb_of(rng.poisson(1.5, x.data.shape),
                                                 sigmoid(x), exp(x), softplus(x)))

    # the hidden layer and every head weight and bias depend on x
    def zinb_decoder_case(rng, x):
        heads = [tuple(matmul(Tensor(rng.uniform(-0.5, 0.5, (rows, x.rows))), x)
                       for rows in (x.cols, 1)) for _ in range(3)]
        target = ad.ZinbTarget(rng.poisson(1.5, x.data.shape))
        return ad.zinb_decoder_nll(x, heads, target)

    case("zinb_decoder_nll")(zinb_decoder_case)

    def spmm_case(rng, x):
        s = random_sparse_symmetric(x.rows, rng)
        return wsum(rng, spmm(s, x))

    case("spmm")(spmm_case)

    # x is the layer input and also sets the weight and the bias
    def graph_conv_case(rng, x):
        w = matmul(Tensor(rng.uniform(-1, 1, (x.cols, x.rows))), x)
        bias = matmul(Tensor(rng.uniform(-1, 1, (1, x.rows))), x)
        return wsum(rng, ad.graph_conv(x, w, random_sparse_symmetric(x.rows, rng), bias))

    case("graph_conv")(graph_conv_case)

    # both weights depend on x; the views read x, whose rows are the spots
    # (per-layer fusion) or stack two views of half as many (late fusion)
    def graph_conv_views_case(stacked, rng, x):
        spots = x.rows // 2 if stacked else x.rows
        w_s, w_f = (matmul(Tensor(rng.uniform(-1, 1, (x.cols, x.rows))), x) for _ in range(2))
        return wsum(rng, ad.graph_conv_views(x, (w_s, random_sparse_symmetric(spots, rng)),
                                             (w_f, random_sparse_symmetric(spots, rng))))

    case("graph_conv_views")(lambda rng, x: graph_conv_views_case(False, rng, x))
    case("graph_conv_views-stacked")(lambda rng, x: graph_conv_views_case(True, rng, x))
    return cases


OP_CASES = _op_cases()

KINKS = {"relu": [0.0], "graph_conv": [0.0], "graph_conv_views": [0.0],
         "graph_conv_views-stacked": [0.0], "leaky_relu": [0.0], "clip": [-1.5, 1.5]}


def test_every_registered_op_is_covered():
    registered = set(ad.__all__) - {
        "NORM_EPS", "Tensor", "SparseMatrix", "backward", "zero_grad",
    }
    assert not registered & set(REFERENCE_OPS)
    # a case name is its op's, or the op's and a variant after a hyphen
    assert registered == {name.split("-")[0] for name in OP_CASES} - set(REFERENCE_OPS)


def test_every_registered_name_has_a_package_caller():
    """Every name in ad.__all__ is used by another module of the package, as
    ``ad.<name>`` or imported from ``.autodiff``: an op that only tests call
    lives in the tests, not in the engine. Likewise every module-level ``_``
    function of autodiff.py is used in the package, autodiff.py included."""
    used, referenced = set(), set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                referenced.add(node.id if isinstance(node, ast.Name) else node.attr)
            if path.name == "autodiff.py":
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "ad"):
                used.add(node.attr)
    assert set(ad.__all__) - used == set()
    engine = ast.parse(Path(ad.__file__).read_text(encoding="utf-8"))
    private = {node.name for node in engine.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    assert "_fused_loss" in private
    assert private - referenced == set()


def _constant_inputs(rng):
    """A call of each fused loss node on inputs that require no gradient."""
    a, b = Tensor(rng.normal(size=(7, 3))), Tensor(rng.normal(size=(7, 3)))
    adj = random_sparse_symmetric(7, rng)
    hidden = Tensor(rng.uniform(0, 2, (5, 3)))
    heads = [(Tensor(rng.uniform(-1, 1, (3, 4))), Tensor(rng.uniform(-1, 1, (1, 4))))
             for _ in range(3)]
    target = ad.ZinbTarget(rng.poisson(1.5, (5, 4)))
    return {
        "contrastive": (ad.cross_view_contrastive, allocating_cross_view_contrastive,
                        (stack(a.data, b.data), 0.4)),
        "link": (ad.cosine_link_loss, allocating_cosine_link_loss, (a, adj)),
        "zinb": (ad.zinb_decoder_nll, allocating_zinb_decoder_nll, (hidden, heads, target)),
    }


@pytest.mark.parametrize("node", ["contrastive", "link", "zinb"])
def test_value_without_gradients_matches_allocating_reference(node):
    """On constant inputs a fused node is a constant: it keeps no backward
    and its value is bitwise the allocating reference's."""
    op, reference, args = _constant_inputs(np.random.default_rng(36))[node]
    loss = op(*args)
    assert not loss.requires_grad and loss._backward is None
    np.testing.assert_array_equal(loss.data, reference(*args).data)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    """Every registered op and every reference op: FD check on 10 random
    seeds stays under 1e-4."""
    builder = OP_CASES[name]
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        base = rng.uniform(-2, 2, (4, 3))
        base = _away_from(base, KINKS.get(name, []))
        x = tensor(base)
        # Weight stream decorrelated from the input stream so the probe
        # direction never aligns with a scale-invariance null direction.
        err = grad_check(lambda t: builder(np.random.default_rng(5177 + seed), t), x, 1e-5)
        assert err < 1e-4, f"{name} seed {seed}: max relative error {err}"


class TestGraphConv:
    """The fused ReLU layer against its generic-op chain: bitwise value and
    gradients with the propagation and the bias each given or omitted, and
    within 1e-12 of the propagate-first chain."""

    @staticmethod
    def run_conv(conv, z, w, b, adj, with_bias, weight):
        leaves = [tensor(z), tensor(w)] + ([tensor(b)] if with_bias else [])
        out = conv(leaves[0], leaves[1], adj, leaves[2] if with_bias else None)
        ad.backward(sum_all(hadamard(weight, out)))
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("propagate,with_bias", [(True, False), (False, False),
                                                     (False, True), (True, True)])
    def test_matches_reference_chain_bitwise(self, propagate, with_bias):
        rng = np.random.default_rng(41)
        z = rng.normal(size=(9, 4))
        z[2] = 0.0  # without propagation or bias a zero row sits on the kink
        w, b = rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        adj = random_sparse_symmetric(9, rng) if propagate else None
        weight = Tensor(rng.uniform(-1, 1, (9, 3)))
        (out, grads), (ref, ref_grads), (old, old_grads) = (
            self.run_conv(conv, z, w, b, adj, with_bias, weight)
            for conv in (ad.graph_conv, reference_graph_conv, propagate_first_graph_conv))
        assert (out == 0.0).any() and (out > 0.0).any()
        np.testing.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(out, old, rtol=1e-12, atol=1e-14)
        for got, want in zip(grads, old_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_wide_input_forms_no_wide_array(self):
        """At 400 x 4096 into 8 columns, a propagated layer's forward and
        backward allocate under a fifth of the input's bytes: the sparse
        products run on the 8 output columns, never on the 4096 input ones."""
        rng = np.random.default_rng(43)
        n, width = 400, 4096
        adj = random_sparse_symmetric(n, rng, density=0.02)
        x = Tensor(np.asfortranarray(rng.normal(size=(n, width))))
        w = tensor(rng.normal(size=(width, 8)))

        def layer():
            ad.backward(sum_all(ad.graph_conv(x, w, adj)))

        _, peak = traced_peak(layer)
        assert peak < x.data.nbytes / 5, f"peak {peak / x.data.nbytes:.3f} inputs"

    def test_holds_only_its_output(self):
        """At 2500 spots the node keeps its output and nothing beside it:
        the ReLU runs in place and backward masks on the output."""
        rng = np.random.default_rng(44)
        n = 2500
        ring = np.arange(n)
        adj = SparseMatrix(n, np.concatenate([ring, (ring + 1) % n]),
                           np.concatenate([(ring + 1) % n, ring]), np.full(2 * n, 0.5))
        x, w, b = (tensor(rng.normal(size=s)) for s in ((n, 32), (32, 64), (1, 64)))
        out, held = traced_held(lambda: ad.graph_conv(x, w, adj, b))
        assert held <= 1.1 * out.data.nbytes, f"held {held / out.data.nbytes:.2f} outputs"

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(42)
        x, w = Tensor(rng.normal(size=(5, 3))), tensor(rng.normal(size=(3, 2)))
        out = ad.graph_conv(x, w)
        assert out._parents == (x, w)
        ad.backward(sum_all(out))
        assert x.grad is None and w.grad is not None
        assert not ad.graph_conv(x, Tensor(w.data)).requires_grad

    def test_dimension_errors(self):
        x, w = tensor(np.ones((4, 3))), tensor(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            ad.graph_conv(x, w, SparseMatrix(5, [], [], []))
        with pytest.raises(DimensionError):
            ad.graph_conv(x, tensor(np.ones((2, 2))))
        for shape in ((2, 2), (1, 3), (2, 1)):
            with pytest.raises(DimensionError):
                ad.graph_conv(x, w, bias=tensor(np.ones(shape)))


class TestGraphConvViews:
    """The two-view node against two reference chains, one per view."""

    @staticmethod
    def problem(stacked, seed=45):
        """Leaves of a layer over 30 spots, the views reading one 30-row
        input (per-layer fusion) or each its half of a 60-row stack (late
        fusion), two graphs and the upstream weights of the stacked
        output."""
        rng = np.random.default_rng(seed)
        x_s = rng.normal(size=(30, 5))
        x_s[3] = 0.0  # a zero row: some outputs sit on the kink
        x_f = rng.normal(size=(30, 5)) if stacked else x_s
        return SimpleNamespace(
            x_s=x_s, x_f=x_f, stacked=stacked, w_s=rng.normal(size=(5, 4)),
            w_f=rng.normal(size=(5, 4)), adj_s=random_sparse_symmetric(30, rng),
            adj_f=random_sparse_symmetric(30, rng),
            up=stack(rng.uniform(-1, 1, (30, 4)), rng.uniform(-1, 1, (30, 4))))

    @staticmethod
    def run(pr, fused):
        """The stacked output and the leaves' gradients of a loss over it;
        ``fused`` runs the two-view node on the input, else two reference
        chains on the input's halves, their outputs row-stacked."""
        x_s = tensor(pr.x_s)
        x_f = tensor(pr.x_f) if pr.stacked else x_s
        w_s, w_f = tensor(pr.w_s), tensor(pr.w_f)
        if fused:
            x = stack_rows(x_s, x_f) if pr.stacked else x_s
            z = ad.graph_conv_views(x, (w_s, pr.adj_s), (w_f, pr.adj_f))
        else:
            z = stack_rows(reference_graph_conv(x_s, w_s, pr.adj_s),
                           reference_graph_conv(x_f, w_f, pr.adj_f))
        ad.backward(sum_all(hadamard(pr.up, z)))
        leaves = [x_s, w_s, w_f] + ([x_f] if pr.stacked else [])
        return z.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one-input", "two-inputs"])
    def test_matches_two_reference_chains_bitwise(self, stacked, workers, monkeypatch):
        """The stacked output and every gradient are bitwise those of one
        reference chain per view, at 1, 2 and 3 workers, with the views
        reading one n-row input (its gradient a sum over both views) or
        each its half of a 2n-row stack (its gradient the two halves). On
        more than one worker the forward and the backward each submit lane
        1 once."""
        pr = self.problem(stacked)
        (out, grads), submitted = run_on_workers(
            monkeypatch, workers, lambda: self.run(pr, fused=True))
        ref_out, ref_grads = self.run(pr, fused=False)
        assert out.shape == (60, 4) and out.flags.c_contiguous
        assert (out[:30] == 0.0).any() and (out[:30] > 0.0).any()
        np.testing.assert_array_equal(out, ref_out)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        assert len(submitted) == (2 if workers > 1 else 0)

    def test_dimension_errors(self):
        """Operators over different spot counts, a weight that does not
        take the input's width, views of different widths, and an input
        whose rows are neither n nor 2n are refused, naming the op."""
        x, w = tensor(np.ones((4, 3))), tensor(np.ones((3, 2)))
        eye = SparseMatrix(4, range(4), range(4), np.ones(4))
        for bad in ((w, SparseMatrix(5, [], [], [])), (tensor(np.ones((2, 2))), eye),
                    (tensor(np.ones((3, 1))), eye)):
            for views in ((bad, (w, eye)), ((w, eye), bad)):
                with pytest.raises(DimensionError, match="graph_conv_views"):
                    ad.graph_conv_views(x, *views)
        for rows in (3, 5, 12):
            with pytest.raises(DimensionError, match="graph_conv_views"):
                ad.graph_conv_views(tensor(np.ones((rows, 3))), (w, eye), (w, eye))


class TestViewAttention:
    """Grad check of each input of the fused attention op on its own, with
    the other two held constant, with and without the l2 step."""

    @pytest.mark.parametrize("l2", [True, False])
    @pytest.mark.parametrize("which", ["zs", "zf", "w"])
    def test_gradients_match_finite_differences(self, which, l2):
        rng = np.random.default_rng(31)
        inputs = {"zs": rng.normal(size=(6, 3)), "zf": rng.normal(size=(6, 3)),
                  "w": rng.normal(size=(6, 2))}
        weight = Tensor(rng.uniform(-1, 1, (6, 3)))

        def loss(x):
            args = {k: x if k == which else Tensor(v) for k, v in inputs.items()}
            fused, _ = ad.view_attention(stack_rows(args["zs"], args["zf"]), args["w"], 0.2, l2)
            return sum_all(hadamard(weight, fused))

        assert grad_check(loss, tensor(inputs[which]), 1e-6) < 1e-5

    @pytest.mark.parametrize("l2", [True, False])
    def test_matches_unfused_reference_graph(self, l2):
        rng = np.random.default_rng(33)
        inputs = [rng.normal(size=s) for s in ((7, 3), (7, 3), (6, 2))]
        weight = Tensor(rng.uniform(-1, 1, (7, 3)))
        outs, grads = [], []
        fused_attention = (lambda zs, zf, w, slope, l2:
                           ad.view_attention(stack_rows(zs, zf), w, slope, l2))
        for attend in (fused_attention, unfused_view_attention):
            leaves = [tensor(v) for v in inputs]
            fused, m = attend(*leaves, 0.2, l2)
            ad.backward(sum_all(hadamard(weight, fused)))
            outs.append((fused.data, m.data))
            grads.append([t.grad for t in leaves])
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("l2", [True, False])
    def test_holds_little_beyond_its_output(self, l2):
        """At 2500 x 64 the node keeps its output and n-by-2 arrays; the
        n-by-128 concatenated views are rebuilt in backward, not held."""
        rng = np.random.default_rng(35)
        n, d = 2500, 64
        z = stack(rng.normal(size=(n, d)), rng.normal(size=(n, d)), requires_grad=True)
        w = tensor(rng.normal(size=(2 * d, 2)))
        (fused, _), held = traced_held(lambda: ad.view_attention(z, w, 0.2, l2))
        assert held <= 1.2 * fused.data.nbytes, f"held {held / fused.data.nbytes:.2f} outputs"

    def test_weights_are_constant(self):
        rng = np.random.default_rng(32)
        z = stack(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), requires_grad=True)
        w = tensor(rng.normal(size=(4, 2)))
        fused, m = ad.view_attention(z, w, 0.2, True)
        assert fused.requires_grad and fused._parents == (z, w)
        assert not m.requires_grad and m._parents == () and m._backward is None


class TestZinbDecoderNll:
    @pytest.mark.parametrize("block", [3, 256])
    @pytest.mark.parametrize("hidden_kind", ["random", "identity"])
    def test_matches_unfused_reference_graph(self, hidden_kind, block, monkeypatch):
        """Bitwise forward and 1e-12 gradients against the reference heads and
        likelihood, with pre-activations past both clamps. With hidden = I_n
        the dropout and mean weights are the pre-activations themselves, so
        their clamped entries must get exactly zero gradient."""
        monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", block)
        rng = np.random.default_rng(34)
        n, genes = 8, 6  # no one-row block: a one-row product may round differently
        if hidden_kind == "identity":
            hidden = np.eye(n)
            ws = [rng.uniform(-3, 3, (n, genes)) for _ in range(3)]
            ws[0][0, :3] = [31.0, -30.5, 29.0]
            ws[1][1, :3] = [12.5, -13.0, 11.5]
        else:
            hidden = rng.uniform(0, 2, (n, 4))
            ws = [rng.uniform(-1, 1, (4, genes)) for _ in range(3)]
            ws[0][:, 0] *= 60.0
            ws[1][:, 1] *= 30.0
        bs = [rng.uniform(-0.5, 0.5, (1, genes)) for _ in range(3)]
        target = ad.ZinbTarget(rng.poisson(1.5, (n, genes)))
        outs, grads = [], []
        for nll in (ad.zinb_decoder_nll, unfused_zinb_decoder_nll):
            leaves = [tensor(hidden)] + [tensor(v) for pair in zip(ws, bs) for v in pair]
            heads = list(zip(leaves[1::2], leaves[2::2]))
            loss = nll(leaves[0], heads, target)
            ad.backward(ad.scale(loss, 0.7))
            outs.append(loss.data)
            grads.append([t.grad for t in leaves])
        pre = [hidden @ w + b for w, b in zip(ws, bs)]
        assert (np.abs(pre[0]) > ad.DROPOUT_LOGIT_CLAMP).any()
        assert (np.abs(pre[1]) > ad.MEAN_LOGIT_CLAMP).any()
        np.testing.assert_array_equal(outs[0], outs[1])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        if hidden_kind == "identity":
            g_dropout, g_mean = grads[0][1], grads[0][3]
            assert (g_dropout[0, :2] == 0.0).all() and g_dropout[0, 2] != 0.0
            assert (g_mean[1, :2] == 0.0).all() and g_mean[1, 2] != 0.0

    @pytest.mark.parametrize("block, chunk, target_kind", [
        pytest.param(3, None, "counts", id="3"),
        pytest.param(256, None, "counts", id="256"),
        pytest.param(2, 8, "counts", id="2-chunk8"),
        pytest.param(3, None, "preprocessed", id="3-preprocessed"),
        pytest.param(256, 16, "preprocessed", id="256-chunk16-preprocessed"),
    ])
    @pytest.mark.parametrize("hidden_kind", ["random", "identity"])
    def test_matches_allocating_reference_bitwise(self, hidden_kind, block, chunk, target_kind,
                                                  monkeypatch):
        """Value and all seven gradients bitwise equal to the allocating
        reference. No block holds a multiple of 8 entries, so each count
        mask ends in padding bits. With block 3 the seven rows are an
        all-zero block, an all-positive block and a one-row tail; with block
        2 a mixed block comes between those two, and masks are expanded 8
        bits at a time, so a block's last chunk is partial. Both targets
        are covered: integer counts (``--zinb-target counts``) and
        non-integer preprocessed values. With hidden = I_n the
        pre-activations are the weights plus biases, set past and exactly on
        both clamps and exactly to 0, where sigmoid takes its ``>=`` branch
        and softplus its ``>`` one."""
        monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", block)
        if chunk is not None:
            monkeypatch.setattr(ad, "_MASK_CHUNK", chunk)
        rng = np.random.default_rng(35)
        n, genes = 7, 5
        bs = [rng.uniform(-0.5, 0.5, (1, genes)) for _ in range(3)]
        if hidden_kind == "identity":
            hidden = np.eye(n)
            ws = [rng.uniform(-3, 3, (n, genes)) for _ in range(3)]
            ws[0][0] = [31.0, -30.5, 30.0, -30.0, 0.0]
            ws[1][3] = [12.5, -13.0, 12.0, -12.0, 0.0]
            ws[0][0] -= bs[0][0]
            ws[1][3] -= bs[1][0]
            for w, b in zip(ws, bs):
                w[6, 1:3] = -b[0, 1:3]  # pre-activation exactly 0
        else:
            hidden = rng.uniform(0, 2, (n, 4))
            ws = [rng.uniform(-1, 1, (4, genes)) for _ in range(3)]
            ws[0][:, 0] *= 60.0
            ws[1][:, 1] *= 30.0
        counts = rng.poisson(3.0, (n, genes)).astype(float)
        counts[:3] = 0.0
        counts[3:6] += 1.0
        counts[6, ::2] = 0.0
        if target_kind == "counts":
            target = ad.ZinbTarget(counts)
        else:
            target = ad.ZinbTarget(np.log1p(0.37 * counts), require_integer=False)
        layout = [(pos.size, zero.size) for *_, pos, _, zero in count_tiles(target)]
        assert all((a + b) % 8 for a, b in layout)
        if block < 4:
            assert layout[0][0] == 0 and layout[-2][1] == 0
        outs, grads = [], []
        for nll in (ad.zinb_decoder_nll, allocating_zinb_decoder_nll):
            leaves = [tensor(hidden)] + [tensor(v) for pair in zip(ws, bs) for v in pair]
            loss = nll(leaves[0], list(zip(leaves[1::2], leaves[2::2])), target)
            ad.backward(ad.scale(loss, 0.7))
            outs.append(loss.data)
            grads.append([t.grad for t in leaves])
        pre = [hidden @ w + b for w, b in zip(ws, bs)]
        assert (np.abs(pre[0]) > ad.DROPOUT_LOGIT_CLAMP).any()
        assert (np.abs(pre[1]) > ad.MEAN_LOGIT_CLAMP).any()
        if hidden_kind == "identity":
            assert (np.abs(pre[0]) == ad.DROPOUT_LOGIT_CLAMP).sum() == 2
            assert (np.abs(pre[1]) == ad.MEAN_LOGIT_CLAMP).sum() == 2
            assert all((p == 0.0).sum() >= 2 for p in pre)
        np.testing.assert_array_equal(outs[0], outs[1])
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_likelihood_helper_matches_reference_with_floored_entries(self):
        """The engine's per-block likelihood against the reference's, in
        (pi, mu, theta) directly: with pi = 0, mu = 1e6, theta = 1000 the
        zero-count mixture underflows to the floor, which the heads never
        reach. The engine's helper overwrites (pi, mu, theta) with the
        gradients chained through pi's logit and log mu: the reference's
        times pi (1 - pi), times mu, and as is."""
        rng = np.random.default_rng(37)
        shape = (4, 6)
        pi = rng.uniform(0.05, 0.9, shape)
        mu = rng.uniform(0.2, 6.0, shape)
        theta = rng.uniform(0.3, 4.0, shape)
        pi[0, :3], mu[0, :3], theta[0, :3] = 0.0, 1e6, 1000.0
        counts = rng.poisson(1.5, shape).astype(float)
        counts[0, :3] = 0.0
        flat = counts.ravel()
        pos, zero = np.flatnonzero(flat != 0), np.flatnonzero(flat == 0)
        x = flat[pos]
        coef = -1.0 / pi.size
        want_total, want = _zinb_block(0.5, pi, mu, theta, pos, x, zero, coef, True)
        want[0] *= pi
        want[0] *= 1.0 - pi
        want[1] *= mu
        got = [pi.copy(), mu.copy(), theta.copy()]
        sub = np.full((7, max(pos.size, zero.size) + 2), np.nan)
        flags = np.ones(pi.size + 3, dtype=bool)
        total = ad._zinb_block(0.5, got, pos, x, zero, coef, sub, flags)
        assert total == want_total
        assert (want[0][0, :3] == 0.0).all()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @staticmethod
    def wide_problem():
        """900 x 3000 counts (58% zeros) with their ZinbTarget, a 128-wide
        hidden layer and three heads, all requiring gradients."""
        rng = np.random.default_rng(642)
        n, genes, width = 900, 3000, 128
        counts = rng.poisson(2.0, size=(n, genes)).astype(float)
        counts[rng.random((n, genes)) < 0.514] = 0.0
        assert abs((counts == 0).mean() - 0.58) < 0.01
        target = ad.ZinbTarget(counts)
        hidden = tensor(rng.uniform(0.0, 1.0, size=(n, width)))
        heads = [(tensor(rng.normal(0.0, 0.05, (width, genes))), tensor(np.zeros((1, genes))))
                 for _ in range(3)]
        return counts, target, hidden, heads

    def test_count_constants_are_compact(self):
        """Each tile keeps one bit per entry and its positive counts, so the
        constants held for a run take at most half a count-sized buffer
        (about 0.44 at 58% zeros; 0.92 with int32 indices of both kinds).
        The counts rebuilt from the two gene lanes' tiles are the counts."""
        counts, target, _, _ = self.wide_problem()
        held = sum(mask.nbytes + x.nbytes for tiles in target.lanes for *_, mask, x in tiles)
        assert held <= 0.5 * counts.nbytes, f"constants {held / counts.nbytes:.2f} buffers"
        assert [len(tiles) for tiles in target.lanes] == [11, 11]
        rebuilt = np.full(counts.shape, np.nan)
        for _, start, stop, lo, hi, pos, x, zero in count_tiles(target):
            tile = np.full((stop - start) * (hi - lo), np.nan)
            tile[pos], tile[zero] = x, 0.0
            rebuilt[start:stop, lo:hi] = tile.reshape(stop - start, hi - lo)
        np.testing.assert_array_equal(rebuilt, counts)

    def test_wide_problem_matches_allocating_reference_bitwise(self):
        """At 900 x 3000 (87-row blocks of two 1500-gene tiles, each mask
        expanded in four chunks, the last one partial) the value and all
        seven gradients are bitwise the reference's, grouped by gene lane."""
        _, target, hidden, heads = self.wide_problem()
        leaves = [hidden] + [t for head in heads for t in head]
        results = []
        for nll in (ad.zinb_decoder_nll, allocating_zinb_decoder_nll):
            ad.zero_grad(leaves)
            loss = nll(hidden, heads, target)
            ad.backward(loss)
            results.append((loss.data, [t.grad for t in leaves]))
        (out, grads), (ref, ref_grads) = results
        np.testing.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    def test_forward_memory_is_one_call_scoped_workspace(self):
        """One forward at 900 x 3000 (58% zeros, 128-wide hidden layer, the
        count constants prepared beforehand): the peak stays within 5.5
        count-sized buffers (6.25 with fresh temporaries in every block),
        and after the call only the leaf gradients are held."""
        counts, target, hidden, heads = self.wide_problem()
        leaf_bytes = hidden.data.nbytes + sum(t.data.nbytes for head in heads for t in head)
        tracemalloc.start()
        try:
            loss = ad.zinb_decoder_nll(hidden, heads, target)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        assert peak <= 5.5 * counts.nbytes, f"peak {peak / counts.nbytes:.2f} buffers"
        assert held <= leaf_bytes + 2**20, f"held {held / counts.nbytes:.2f} buffers"

    def test_forward_peak_under_the_entry_budget(self, monkeypatch):
        """At 3000 genes the entry budget makes 87-row blocks of two
        1500-gene tiles, so one forward with gradients on two workers, a
        workspace of five tile planes per lane, lane 1's hidden-row
        gradient and the leaf gradients, stays within 1.7 count-sized
        buffers (1.99 with ten block planes and a fresh weight-gradient term
        per block; 1.40 with one lane of 3000-gene blocks)."""
        monkeypatch.setattr(ad, "LANE_WORKERS", 2)
        counts, target, hidden, heads = self.wide_problem()
        for tiles in target.lanes:
            assert {stop - start for start, stop, *_ in tiles[:-1]} == {87}
            assert {hi - lo for _, _, lo, hi, *_ in tiles} == {1500}
        loss, peak = traced_peak(lambda: ad.zinb_decoder_nll(hidden, heads, target))
        assert np.isfinite(loss.item())
        assert peak <= 1.7 * counts.nbytes, f"peak {peak / counts.nbytes:.2f} buffers"

    def test_blocks_hold_at_most_the_entry_budget(self, monkeypatch):
        """At 150 x 4096 the budget gives 64-row blocks where the row cap
        alone gives one 150-row block: the value is within 1e-14 and the
        seven gradients within rtol 1e-12 of that 256-row layout."""
        rng = np.random.default_rng(643)
        n, genes, width = 150, 4096, 8
        counts = rng.poisson(1.0, (n, genes)).astype(float)
        hidden = rng.uniform(0.0, 1.0, (n, width))
        ws = [rng.normal(0.0, 0.3, (width, genes)) for _ in range(3)]
        bs = [rng.normal(0.0, 0.3, (1, genes)) for _ in range(3)]
        outs, grads, layouts = [], [], []
        for entries in (ad.ZINB_BLOCK_ENTRIES, 2**40):
            monkeypatch.setattr(ad, "ZINB_BLOCK_ENTRIES", entries)
            target = ad.ZinbTarget(counts)
            layouts.append([stop - start for start, stop, *_ in target.lanes[0]])
            leaves = [tensor(hidden)] + [tensor(v) for pair in zip(ws, bs) for v in pair]
            loss = ad.zinb_decoder_nll(leaves[0], list(zip(leaves[1::2], leaves[2::2])),
                                       target)
            ad.backward(loss)
            outs.append(loss.item())
            grads.append([t.grad for t in leaves])
        assert layouts == [[64, 64, 22], [150]]
        assert max(layouts[0]) * genes <= 2**18
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-14, atol=0)
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)

    def test_block_rows_follow_the_entry_budget(self):
        """Rows per block: the 256-row cap up to 1024 genes, then the
        budget over the gene count, and one row past the budget."""
        for n, genes, rows in ((300, 200, 256), (300, 1024, 256), (300, 1025, 255),
                               (300, 3000, 87), (2, 2**18, 1), (2, 2**18 + 1, 1)):
            blocks = ad.ZinbTarget(np.zeros((n, genes))).lanes[0]
            assert [stop - start for start, stop, *_ in blocks][0] == rows, genes

    def test_shape_contracts(self):
        hidden = tensor(np.ones((3, 2)))
        target = ad.ZinbTarget(np.ones((3, 4)))
        good = ((2, 4), (1, 4))
        for bad in (((3, 4), (1, 4)),   # weight rows vs hidden width
                    ((2, 5), (1, 5)),   # width differs from the other heads
                    ((2, 4), (2, 4))):  # bias is not a row
            heads = [tuple(tensor(np.ones(s)) for s in shapes) for shapes in (good, bad, good)]
            with pytest.raises(DimensionError):
                ad.zinb_decoder_nll(hidden, heads, target)

    @pytest.mark.parametrize("shape", [(6, 9), (4, 5), (8, 5)], ids=["wide", "short", "tall"])
    def test_target_shape_contract(self, shape):
        """Counts of another shape than the decoded (6, 5) are refused by the
        op itself: row blocks of a wide or short target would otherwise be
        read against the wrong entries and give a wrong finite loss."""
        rng = np.random.default_rng(38)
        hidden = Tensor(rng.uniform(0, 1, (6, 4)))
        heads = [(Tensor(rng.uniform(-1, 1, (4, 5))), Tensor(np.zeros((1, 5))))
                 for _ in range(3)]
        assert np.isfinite(ad.zinb_decoder_nll(
            hidden, heads, ad.ZinbTarget(rng.poisson(1.5, (6, 5)))).item())
        with pytest.raises(DimensionError, match="vs counts"):
            ad.zinb_decoder_nll(hidden, heads, ad.ZinbTarget(rng.poisson(1.5, shape)))


def _digamma_reference(x):
    """Independent digamma: recurrence below 10, asymptotic series above."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (1.0 / 240 - inv2 / 132))))
    return acc + math.log(x) - 0.5 / x - tail


class TestDigammaBackstop:
    """The fused ZINB op's theta gradient relies on digamma; pin its
    accuracy on (0, 1e6). With x = mu the gradient of the summed
    log-likelihood is psi(x + theta) - psi(theta) + log(theta / (theta + mu))."""

    @staticmethod
    def theta_grad(x, theta):
        counts = np.full(theta.shape, float(x))
        t = tensor(theta)
        loss = zinb_of(counts, Tensor(np.zeros(theta.shape)), Tensor(counts), t)
        ad.backward(ad.scale(loss, -float(theta.size)))  # undo the mean NLL
        return t.grad

    def test_known_value_at_one(self):
        # psi(2) - psi(1) = 1
        grad = self.theta_grad(1.0, np.array([[1.0]]))
        assert grad[0, 0] == pytest.approx(1.0 - math.log(2.0), abs=1e-12)

    def test_against_series_reference(self):
        rng = np.random.default_rng(21)
        pts = 10.0 ** rng.uniform(-6, 6, 200)
        grad = self.theta_grad(2.0, pts.reshape(1, -1))
        ref = np.array([_digamma_reference(2.0 + p) - _digamma_reference(p)
                        - math.log1p(2.0 / p) for p in pts]).reshape(1, -1)
        np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-12)


class TestPairwiseWorkspace:
    """Both pairwise ops against their allocating bodies, and the peak of
    one call with its workspace."""

    @staticmethod
    def pairwise_problem(n, d, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        a[1] = 0.0  # a zero row takes the guarded norm
        b[n // 2] = a[n // 2]  # an exactly aligned pair
        return a, b, random_sparse_symmetric(n, rng, density=0.05)

    @staticmethod
    def run_pair(op, a, b, adj, upstream):
        if op in (ad.cosine_link_loss, allocating_cosine_link_loss):
            leaves = [tensor(a), tensor(b)]
            out = ad.add(op(leaves[0], adj), op(leaves[1], adj))
        else:
            leaves = [stack(a, b, requires_grad=True)]
            out = op(leaves[0], 0.3)
        ad.backward(ad.scale(out, upstream))
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("upstream", [1.0, 0.7])
    @pytest.mark.parametrize("tile", [3, 256])
    @pytest.mark.parametrize("op,reference", [
        (ad.cross_view_contrastive, allocating_cross_view_contrastive),
        (ad.cosine_link_loss, allocating_cosine_link_loss),
    ], ids=["contrastive", "link"])
    def test_matches_allocating_body_bitwise(self, op, reference, tile, upstream,
                                             monkeypatch):
        """Value and gradients are bitwise those of the allocating body, at
        300 spots: 2n = 600 items end in a partial tile at either size."""
        monkeypatch.setattr(ad, "PAIRWISE_TILE", tile)
        a, b, adj = self.pairwise_problem(300, 8, 51)
        (out, grads), (ref, ref_grads) = (self.run_pair(f, a, b, adj, upstream)
                                          for f in (op, reference))
        np.testing.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["uneven", "single-tile", "below-gate", "above-gate"])
    @pytest.mark.parametrize("op,reference", [
        (ad.cross_view_contrastive, allocating_cross_view_contrastive),
        (ad.cosine_link_loss, allocating_cosine_link_loss),
    ], ids=["contrastive", "link"])
    def test_bitwise_at_any_worker_count(self, op, reference, case, workers, monkeypatch):
        """Value and gradients are bitwise those of the serial allocating
        body at 1, 2 and 3 workers: with a last tile shorter than the rest,
        with a single tile, and 24 rows either side of a 2048-column block
        (2n for the contrastive op, n for the link op), the width below
        which both lanes once ran on the calling thread. The worker count is
        set here, so the pooled path runs on any host; it runs exactly when
        the call has more than one tile and more than one worker, and then
        submits exactly one task per call (the link pair makes two calls)."""
        per_row = 2 if op is ad.cross_view_contrastive else 1  # block columns per row
        n = {"uneven": 300, "single-tile": 40, "below-gate": 2048 // per_row - 24,
             "above-gate": 2048 // per_row + 24}[case]
        a, b, adj = self.pairwise_problem(n, 8, 53)
        (out, grads), submitted = run_on_workers(
            monkeypatch, workers, lambda: self.run_pair(op, a, b, adj, 0.7))
        ref, ref_grads = self.run_pair(reference, a, b, adj, 0.7)
        np.testing.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        pooled = workers > 1 and case != "single-tile"
        calls = 1 if op is ad.cross_view_contrastive else 2
        assert len(submitted) == (calls if pooled else 0)

    @pytest.mark.parametrize("op,bound_mib", [
        ("contrastive", 24.0),
        ("link", 15.0),
    ])
    def test_peak_of_forward_and_backward(self, op, bound_mib, monkeypatch):
        """At 2500 x 64 on two workers a forward and backward peaks at two
        tile blocks (a 96 x 2n block is 3.7 MiB, 96 x n is 1.8 MiB), a
        scratch of the same size per lane for the link loss or a 2n x d
        product and a 2n x d sum per lane for the contrastive one, and a
        few embedding-sized arrays. With one 256-row workspace the peaks
        were 22.4 and 13.6 MiB; with a fresh block per tile (the previous
        one still bound) and allocating tails, 29.5 and 18.3 MiB."""
        monkeypatch.setattr(ad, "LANE_WORKERS", 2)
        a, b, _ = self.pairwise_problem(2500, 64, 52)
        n = 2500
        ring = np.arange(n)
        adj = SparseMatrix(n, np.concatenate([ring, (ring + 1) % n]),
                           np.concatenate([(ring + 1) % n, ring]), np.ones(2 * n))
        z = {"contrastive": stack(a, b, requires_grad=True), "link": tensor(a)}[op]
        loss = {"contrastive": lambda: ad.cross_view_contrastive(z, 0.5),
                "link": lambda: ad.cosine_link_loss(z, adj)}[op]
        _, peak = traced_peak(lambda: ad.backward(loss()))
        assert z.grad is not None
        assert peak <= bound_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestZinbLanes:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["one-gene", "below-gate", "at-gate", "above-gate",
                                      "single-block", "rows-below-edge", "genes-at-edge",
                                      "one-row-tail", "lane-1-empty"])
    def test_bitwise_at_any_worker_count(self, case, workers, monkeypatch):
        """Value and the seven gradients of the ZINB node are bitwise those
        of the allocating reference grouped by lane, at 1, 2 and 3 workers.
        Row cuts: one gene over three row blocks, 3 genes one less than the
        rows, and a one-row last block that gives lane 1 nothing. Gene cuts:
        3 genes exactly the rows, and 2047, 2048 and 2051 genes (2048 is the
        width from which targets were once cut in two) over three row blocks
        and over a single one. A single gene on two rows leaves lane 1
        empty. The pool runs exactly when lane 1 has tiles and there is more
        than one worker, and then takes one task per call."""
        n, genes, by_rows = {
            "one-gene": (600, 1, True), "below-gate": (300, 2047, False),
            "at-gate": (300, 2048, False), "above-gate": (300, 2051, False),
            "single-block": (40, 2051, False), "rows-below-edge": (301, 100, True),
            "genes-at-edge": (300, 100, False), "one-row-tail": (257, 20, True),
            "lane-1-empty": (2, 1, False)}[case]
        rng = np.random.default_rng(54)
        target = ad.ZinbTarget(rng.poisson(1.5, (n, genes)))
        assert target.by_rows == by_rows
        assert bool(target.lanes[1]) == (case != "lane-1-empty")
        hidden = rng.uniform(0.0, 1.0, (n, 8))
        params = [rng.normal(0.0, 0.3, shape)
                  for _ in range(3) for shape in ((8, genes), (1, genes))]

        def run(nll):
            leaves = [tensor(hidden)] + [tensor(v) for v in params]
            loss = nll(leaves[0], list(zip(leaves[1::2], leaves[2::2])), target)
            ad.backward(ad.scale(loss, 0.7))
            return loss.data, [t.grad for t in leaves]

        (out, grads), submitted = run_on_workers(monkeypatch, workers,
                                                 lambda: run(ad.zinb_decoder_nll))
        ref, ref_grads = run(allocating_zinb_decoder_nll)
        np.testing.assert_array_equal(out, ref)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)
        assert len(submitted) == (1 if workers > 1 and target.lanes[1] else 0)

    @pytest.mark.parametrize("n, genes, by_rows", [
        (301, 100, True), (300, 100, False), (299, 100, False), (4, 1, True), (3, 1, False),
        (900, 200, True), (2500, 200, True), (900, 3000, False), (7, 5, False),
    ])
    def test_tiles_cover_each_entry_once_in_half_blocks(self, n, genes, by_rows):
        """The cut is by rows exactly when 3 genes < n. The tiles cover
        every entry exactly once, and each is half its row block along the
        cut, lane 0's rounded up: ceil(rows / 2) or floor(rows / 2) rows of
        every gene, or every row of ceil(genes / 2) or floor(genes / 2)
        genes."""
        target = ad.ZinbTarget(np.ones((n, genes)))
        assert target.by_rows == by_rows
        block = min(ad.ZINB_ROW_BLOCK, max(1, ad.ZINB_BLOCK_ENTRIES // genes))
        cover = np.zeros((n, genes), dtype=int)
        for lane, tiles in enumerate(target.lanes):
            for start, stop, lo, hi, _, x in tiles:
                cover[start:stop, lo:hi] += 1
                assert x.size == (stop - start) * (hi - lo)
                r0 = start // block * block
                rows = min(block, n - r0)
                half = [(stop - start, rows), (hi - lo, genes)]
                cut, whole = half if by_rows else half[::-1]
                assert whole[0] == whole[1]
                assert cut[0] == (cut[1] + 1 - lane) // 2
                assert (start == r0) == (lane == 0 or not by_rows)
        np.testing.assert_array_equal(cover, 1)

    def test_two_worker_peak_at_900_by_200(self, monkeypatch):
        """At 900 x 200 with a 128-wide hidden layer the target is cut by
        rows and each lane's workspace is half a 256-row block, so one
        forward on two workers peaks within the single lane's peak on whole
        blocks (5.58 MiB on this problem before the row cut) plus lane 1's
        own head weight and bias gradients (0.59 MiB); measured 5.90-6.03
        MiB. Lane 1 sums its hidden-row products in place: with fresh
        half-block temporaries in both lanes the peak was 6.11-6.42 MiB."""
        rng = np.random.default_rng(7)
        n, genes, width = 900, 200, 128
        counts = rng.poisson(1.5, (n, genes)).astype(float)
        counts[rng.random((n, genes)) < 0.3] = 0.0
        target = ad.ZinbTarget(counts)
        assert target.by_rows
        hidden = tensor(rng.uniform(0.0, 1.0, (n, width)))
        heads = [(tensor(rng.normal(0.0, 0.05, (width, genes))), tensor(np.zeros((1, genes))))
                 for _ in range(3)]
        lane_copy = 3 * (width * genes + genes) * 8
        (loss, peak), submitted = run_on_workers(
            monkeypatch, 2, lambda: traced_peak(lambda: ad.zinb_decoder_nll(hidden, heads,
                                                                            target)))
        assert np.isfinite(loss.item()) and len(submitted) == 1
        assert peak <= 5.58 * 2**20 + lane_copy, f"peak {peak / 2**20:.2f} MiB"


class TestCosineLinkLoss:
    def test_self_edge_rejected(self):
        """The op refuses a stored nonzero diagonal entry: its edge sum
        would count the self pair that its tile sum leaves out."""
        adj = SparseMatrix(2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ContractError, match="zero diagonal"):
            ad.cosine_link_loss(tensor([[1.0, 0.5], [0.2, 1.0]]), adj)


    def test_asymmetric_adjacency_rejected(self):
        """The op refuses an adjacency that differs from its transpose,
        even with a zero diagonal: its gradient uses adj u for adj^T u."""
        adj = SparseMatrix(3, [0, 1, 1, 2], [1, 0, 2, 0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ContractError, match="cosine_link_loss: adjacency must be symmetric"):
            ad.cosine_link_loss(tensor(np.eye(3)), adj)
        weighted = SparseMatrix(2, [0, 1], [1, 0], [1.0, 0.5])
        with pytest.raises(ContractError, match="symmetric"):
            ad.cosine_link_loss(tensor([[1.0, 0.5], [0.2, 1.0]]), weighted)


class TestSparseMatrixContracts:
    @pytest.mark.parametrize("entries,expected", [
        (([0, 1], [1, 0], [1.0, 1.0]), (True, True)),
        (([0, 0, 1], [0, 1, 0], [0.0, 1.0, 1.0]), (True, True)),  # a stored zero
        (([0, 0, 1], [0, 1, 0], [2.0, 1.0, 1.0]), (False, True)),
        (([0], [1], [1.0]), (True, False)),
        (([0, 1], [1, 0], [1.0, 0.5]), (True, False)),
        (([], [], []), (True, True)),
    ], ids=["edge", "stored-zero", "self-edge", "one-way", "unequal", "empty"])
    def test_structure_worked_out_once(self, entries, expected, monkeypatch):
        s = SparseMatrix(2, *entries)
        assert s.structure() == expected
        # kept: a second call does not look at the matrix again
        monkeypatch.setattr(s, "_csr", None)
        assert s.structure() == expected


    def test_duplicate_entries_rejected(self):
        with pytest.raises(ContractError):
            SparseMatrix(2, [0, 0], [1, 1], [1.0, 1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            SparseMatrix(2, [0], [2], [1.0])

    def test_csr_is_canonical(self):
        s = SparseMatrix(3, [2, 0, 2, 1], [0, 2, 1, 1], [1.0, 2.0, 0.0, 3.0])
        csr = s.csr()
        assert csr.has_canonical_format and s.nnz == 4  # the stored zero is kept
        np.testing.assert_array_equal(csr.indptr, [0, 1, 2, 4])
        np.testing.assert_array_equal(csr.indices, [2, 1, 0, 1])
        np.testing.assert_array_equal(csr.data, [2.0, 3.0, 1.0, 0.0])

    def test_round_trip_dense(self):
        rng = np.random.default_rng(2)
        s = random_sparse_symmetric(6, rng)
        dense = s.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
