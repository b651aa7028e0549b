"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is rank-2: scalars are 1x1, row vectors 1xd. The op set is
exactly what the dual-view encoder, the ZINB decoder and the loss terms
need; there is no broadcasting beyond scalar and row-vector patterns.
Graph adjacency enters as a constant sparse operator (`SparseMatrix`),
so no gradient ever flows into graph structure. The attention step, the
pairwise losses and the ZINB decoder heads with their likelihood are
fused nodes with closed-form gradients that form no n-by-n or n-by-genes
intermediate.

`backward` computes one gradient total per tensor per pass and folds it
into ``.grad`` with a single addition, which keeps repeated passes
exactly additive. Resetting gradients is explicit (``zero_grad``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse
from scipy.special import digamma as _digamma
from scipy.special import gammaln as _gammaln

from .errors import ContractError, DimensionError, DomainError

# Guard added inside row norms (l2 normalization, cosine similarity) so
# zero rows map to zero instead of NaN. Gradients go through the guarded
# expression.
NORM_EPS = 1e-12

# Rows per step of the fused pairwise ops: one step holds a
# PAIRWISE_TILE-by-n block of similarities (by 2n for the contrastive op),
# never the whole matrix.
PAIRWISE_TILE = 256

# Rows per step of the fused ZINB decoder node: its temporaries hold at
# most ZINB_ROW_BLOCK rows of genes, never a whole n-by-genes array.
ZINB_ROW_BLOCK = 256

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
    "matmul",
    "spmm",
    "add",
    "sub",
    "hadamard",
    "scale",
    "neg",
    "relu",
    "sum_all",
    "mean_all",
    "view_attention",
    "cross_view_contrastive",
    "cosine_link_loss",
    "zinb_decoder_nll",
    "backward",
    "zero_grad",
    "grad_check",
]


def _as_matrix(data) -> np.ndarray:
    arr = np.array(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise DimensionError(f"tensors are rank-2, got ndim={arr.ndim}")
    return arr


class Tensor:
    """Dense float64 matrix participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = _as_matrix(data)
        if not np.isfinite(arr).all():
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray, Callable], None] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

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

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    # Operator sugar; the module-level functions are the canonical API.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return hadamard(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)


def _from_op(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = ""
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


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def _scaled(g: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """A fused op's stored gradient times its 1x1 upstream gradient; handed
    over as is when that is exactly one (backward never writes it)."""
    return grad if g[0, 0] == 1.0 else g[0, 0] * grad


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g @ b.data.T)
        if b.requires_grad:
            accum(b, a.data.T @ g)

    return _from_op(out_data, (a, b), backward_fn)


def spmm(s: "SparseMatrix", d: Tensor) -> Tensor:
    """Sparse-operator times dense tensor; the operator is a constant."""
    if s.n != d.rows:
        raise DimensionError(f"spmm: operator n={s.n} vs tensor rows={d.rows}")
    out_data = s.csr() @ d.data

    def backward_fn(g, accum):
        accum(d, s.csr().T @ g)

    return _from_op(out_data, (d,), backward_fn)


# ---------------------------------------------------------------------------
# pointwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape and not _broadcastable(a.data.shape, b.data.shape):
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data + b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(out_data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape and not _broadcastable(a.data.shape, b.data.shape):
        raise DimensionError(f"sub: shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data - b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            accum(b, _unbroadcast(-g, b.data.shape))

    return _from_op(out_data, (a, b), backward_fn)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "hadamard")
    out_data = a.data * b.data

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, g * b.data)
        if b.requires_grad:
            accum(b, g * a.data)

    return _from_op(out_data, (a, b), backward_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out_data = a.data * factor

    def backward_fn(g, accum):
        accum(a, g * factor)

    return _from_op(out_data, (a,), backward_fn)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g, accum):
        accum(a, g * (a.data > 0.0))

    return _from_op(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array([[a.data.sum()]])

    def backward_fn(g, accum):
        accum(a, np.broadcast_to(g, a.data.shape))

    return _from_op(out_data, (a,), backward_fn)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# guarded row norms


def _guarded_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=1, keepdims=True) + NORM_EPS)


def _through_row_norm(g: np.ndarray, x: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Gradient with respect to ``x`` given gradient ``g`` with respect to
    ``x / norm``, with ``norm`` the guarded row norms of ``x``."""
    gx = (g * x).sum(axis=1, keepdims=True)
    return g / norm - x * gx / (norm ** 3)


# ---------------------------------------------------------------------------
# fused view attention


def view_attention(zs: Tensor, zf: Tensor, w: Tensor, slope: float,
                   l2: bool) -> tuple[Tensor, Tensor]:
    """Row-wise attention over two n-by-d views: the weights m are a row
    softmax of LeakyReLU(``slope``) logits [zs, zf] w, then divided by their
    guarded row norms when ``l2``, and the fused rows are
    m_0 zs + m_1 zf. Returns (fused, m); m is a constant tensor, so
    gradients reach ``zs``, ``zf`` and ``w`` through the fused output only.
    """
    _same_shape(zs, zf, "view_attention")
    if w.data.shape != (2 * zs.cols, 2):
        raise DimensionError(f"view_attention: weight {w.data.shape} for width {zs.cols}")
    slope = float(slope)
    both = np.concatenate([zs.data, zf.data], axis=1)
    logits = both @ w.data
    act = np.where(logits > 0.0, logits, slope * logits)
    e = np.exp(act - act.max(axis=1, keepdims=True))
    soft = e / e.sum(axis=1, keepdims=True)
    if l2:
        norm = _guarded_norms(soft)
        m = soft / norm
    else:
        m = soft
    out_data = m[:, 0:1] * zs.data + m[:, 1:2] * zf.data

    def backward_fn(g, accum):
        gm = np.concatenate([(g * zs.data).sum(axis=1, keepdims=True),
                             (g * zf.data).sum(axis=1, keepdims=True)], axis=1)
        if l2:
            gm = _through_row_norm(gm, soft, norm)
        g_logits = soft * (gm - (gm * soft).sum(axis=1, keepdims=True))
        g_logits *= np.where(logits > 0.0, 1.0, slope)
        if w.requires_grad:
            accum(w, both.T @ g_logits)
        if zs.requires_grad or zf.requires_grad:
            g_both = g_logits @ w.data.T
            d = zs.cols
            if zs.requires_grad:
                accum(zs, g * m[:, 0:1] + g_both[:, :d])
            if zf.requires_grad:
                accum(zf, g * m[:, 1:2] + g_both[:, d:])

    return _from_op(out_data, (zs, zf, w), backward_fn), _from_op(m, (), None)


# ---------------------------------------------------------------------------
# sparse constant operator


class SparseMatrix:
    """Constant n-by-n sparse matrix from unique (row, col, value) entries,
    held as a canonical scipy CSR (sorted indices, stored zeros kept).

    Used for graph adjacency and its normalized form; never differentiated.
    """

    __slots__ = ("n", "_csr")

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
# fused pairwise losses
#
# Both ops reduce all-pairs cosine similarities of row-normalized
# embeddings to a 1x1 loss, walking PAIRWISE_TILE rows at a time. The
# closed-form gradient is formed in the same pass (only when an input
# requires it), so memory stays O(tile * n) and backward is one scaling.


def cross_view_contrastive(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Inter-view contrastive loss of the paired rows of ``a`` and ``b``.

    With y = [a; b] row-normalized (guarded norms) and s = y y^T, item r
    of the 2n items has the other view's row of the same spot as its
    positive p(r), and

        loss = -1/(2n) sum_r log(exp(s_rp / tau) / max(den_r, exp(s_rp / tau)))
        den_r = sum_k exp(s_rk / tau) - exp(1 / tau),

    which removes the self-similarity exp(1/tau) of a unit row; a floored
    item contributes zero value and zero gradient. Each row is evaluated
    in log space relative to its largest non-self similarity m_r, so no
    temperature overflows and no underflowed sum reaches a log. The self
    term exp(s_rr/tau) - exp(1/tau) = exp(1/tau) * expm1(-gap_r/tau) uses
    the closed form gap_r = 1 - s_rr = NORM_EPS / (|y_r|^2 + NORM_EPS) of
    the guarded norm, not the rounded product y_r . y_r.
    """
    _same_shape(a, b, "cross_view_contrastive")
    n = a.rows
    items = 2 * n
    inv_tau = 1.0 / float(tau)
    coef = 1.0 / items
    norms = np.concatenate([_guarded_norms(a.data), _guarded_norms(b.data)])
    y = np.concatenate([a.data, b.data]) / norms
    y_t = np.ascontiguousarray(y.T)
    gap = NORM_EPS / norms[:, 0] ** 2
    pos = np.roll(np.arange(items), n)  # p(r)
    want_grad = a.requires_grad or b.requires_grad
    # dL/dy = G y + G^T y for G = dL/ds off the diagonal; the G^T y half is
    # accumulated transposed, which keeps both products on contiguous
    # operands. dL/ds_rr goes through gap_r instead.
    gy = np.zeros_like(y) if want_grad else None
    gy_t = np.zeros_like(y_t) if want_grad else None
    kept = np.zeros(items, dtype=bool)  # False: floored at the numerator
    self_weight = np.zeros(items)  # exp(s_rr / tau) / (tau den_r) if kept

    total = 0.0
    for r0 in range(0, items, PAIRWISE_TILE):
        rows = np.arange(min(PAIRWISE_TILE, items - r0))
        own = rows + r0
        span = slice(r0, r0 + rows.size)
        tile = y[span]
        block = (tile * inv_tau) @ y_t  # s / tau
        s_pos = block[rows, pos[own]]
        block[rows, own] = -np.inf
        m = block.max(axis=1)
        log_num = s_pos - m
        block -= m[:, None]
        np.exp(block, out=block)
        log_rest = np.log(block.sum(axis=1))
        # the self term relative to exp(m) is -exp(log_self)
        with np.errstate(divide="ignore"):
            log_self = inv_tau - m + np.log(-np.expm1(-gap[own] * inv_tau))
        log_den = np.full(rows.size, -np.inf)  # -inf: den <= 0
        positive = log_self < log_rest
        log_den[positive] = log_rest[positive] + np.log1p(
            -np.exp(log_self[positive] - log_rest[positive]))
        keep = log_den > log_num
        kept[span] = keep
        total += np.sum(log_den[keep] - log_num[keep])

        if want_grad:
            # dL/ds_rk = coef * (exp(s_rk/tau) / (tau den_r) - [k = p(r)] / tau);
            # block holds exp(s_rk/tau) / exp(m_r), so the row scale is
            # exp(-log_den_r) / tau; the positive entries are added below.
            w = np.zeros(rows.size)
            w[keep] = inv_tau * np.exp(-log_den[keep])
            self_weight[own[keep]] = inv_tau * np.exp(
                inv_tau - m[keep] - gap[own[keep]] * inv_tau - log_den[keep])
            gy[span] += w[:, None] * (block @ y)
            gy_t += (tile * w[:, None]).T @ block

    out_data = np.array([[coef * total]])
    if want_grad:
        gy += gy_t.T
        gy[kept] -= inv_tau * y[pos[kept]]
        gy[pos[kept]] -= inv_tau * y[kept]
        x = np.concatenate([a.data, b.data])
        # s_rr = 1 - NORM_EPS / norm_r^2, so ds_rr/dx_r = 2 NORM_EPS x_r / norm_r^4
        grad = coef * (_through_row_norm(gy, x, norms)
                       + (2.0 * NORM_EPS * self_weight)[:, None] * x / norms ** 4)

    def backward_fn(g, accum):
        if a.requires_grad:
            accum(a, _scaled(g, grad[:n]))
        if b.requires_grad:
            accum(b, _scaled(g, grad[n:]))

    return _from_op(out_data, (a, b), backward_fn)


def cosine_link_loss(z: Tensor, adj: "SparseMatrix") -> Tensor:
    """Logistic link loss of the guarded cosine similarities s of the rows
    of ``z`` against the constant weights ``adj`` (zero diagonal):

        sum_{i != j} [-adj_ij log sigmoid(s_ij) - (1 - adj_ij) log(1 - sigmoid(s_ij))]
        = sum_{i != j} softplus(s_ij) - sum_ij adj_ij s_ij.

    |s| < 1, so softplus(s) = log1p(exp(s)) needs no guard; the edge sum
    runs over the stored entries of ``adj``.
    """
    if adj.n != z.rows:
        raise DimensionError(f"cosine_link_loss: operator n={adj.n} vs rows={z.rows}")
    n = z.rows
    norm = _guarded_norms(z.data)
    u = z.data / norm
    u_t = np.ascontiguousarray(u.T)
    gu = np.zeros_like(u) if z.requires_grad else None

    total = 0.0
    for r0 in range(0, n, PAIRWISE_TILE):
        rows = np.arange(min(PAIRWISE_TILE, n - r0))
        block = np.exp(u[r0:r0 + rows.size] @ u_t)
        block[rows, rows + r0] = 0.0  # log1p(0) = 0: self pairs drop out
        total += np.log1p(block).sum()
        if gu is not None:
            block /= 1.0 + block  # sigmoid(s), still zero on the diagonal
            gu[r0:r0 + rows.size] += block @ u

    csr = adj.csr()
    adj_u = csr @ u
    total -= np.sum(u * adj_u)
    out_data = np.array([[total]])
    if gu is not None:
        # sigmoid(s) is symmetric, so its half of dL/du is 2 sigmoid(s) u
        grad = _through_row_norm(2.0 * gu - adj_u - csr.T @ u, z.data, norm)

    def backward_fn(g, accum):
        accum(z, _scaled(g, grad))

    return _from_op(out_data, (z,), backward_fn)


# ---------------------------------------------------------------------------
# fused ZINB decoder and likelihood


ZinbBlock = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


# Kept out of __all__, the registry of tensor operations: it builds
# constants once per run and returns no tensor.
def zinb_count_blocks(counts: np.ndarray) -> tuple[list[ZinbBlock], float]:
    """The count constants of ``zinb_decoder_nll`` for a finite, nonnegative
    count matrix: per run of ZINB_ROW_BLOCK rows, ``(start, stop, pos,
    x_pos, zero)`` with the flat indices within rows start:stop of the
    positive and of the zero counts and the positive counts themselves;
    and sum lgamma(x + 1), which a zero count adds nothing to."""
    blocks = []
    log_x_fact = 0.0
    for start in range(0, counts.shape[0], ZINB_ROW_BLOCK):
        stop = min(start + ZINB_ROW_BLOCK, counts.shape[0])
        flat = np.ravel(counts[start:stop])
        pos = np.flatnonzero(flat)
        x_pos = flat[pos]
        log_x_fact += _gammaln(x_pos + 1.0).sum()
        blocks.append((start, stop, pos, x_pos, np.flatnonzero(flat == 0)))
    return blocks, log_x_fact


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


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
    floored = np.maximum(mix, ZINB_PROB_FLOOR)
    total += np.log(floored).sum()
    if not want_grad:
        return total, None
    w = coef / floored
    w *= mix >= ZINB_PROB_FLOOR  # a floored entry has no gradient
    g_p[zero] = w * (1.0 - p0)
    w *= (1.0 - pz) * p0
    inv_tm = 1.0 / (tz + mz)
    g_t[zero] = w * (r + mz * inv_tm)
    g_m[zero] = -w * tz * inv_tm
    return total, grads


def zinb_decoder_nll(hidden: Tensor, heads: Sequence[tuple[Tensor, Tensor]],
                     blocks: Sequence[ZinbBlock], log_x_fact: float) -> Tensor:
    """Mean negative log-likelihood of constant counts x (given as
    ``zinb_count_blocks(x)``) under the ZINB decoder: the dropout, mean and
    dispersion ``heads`` ((w, b) each) over the hidden layer give

        pi    = sigmoid(clamp(hidden w + b, +-DROPOUT_LOGIT_CLAMP))
        mu    = exp(clamp(hidden w + b, +-MEAN_LOGIT_CLAMP))
        theta = softplus(hidden w + b) + DISPERSION_FLOOR.

    Each block of rows forms its pre-activations, the likelihood and, when
    needed, its gradients chained through the activations (zero where the
    unclamped pre-activation is past a clamp), folded into the hidden-row,
    weight and bias gradients: no n-by-genes array is ever formed.
    """
    for w, b in heads:
        if w.rows != hidden.cols or b.data.shape != (1, w.cols) or w.cols != heads[0][0].cols:
            raise DimensionError(f"zinb_decoder_nll: head {w.data.shape} + {b.data.shape} "
                                 f"on hidden {hidden.data.shape}")
    (w_p, _), (w_m, _), (w_t, _) = heads
    coef = -1.0 / (hidden.rows * w_p.cols)
    leaves = (hidden,) + tuple(tensor for head in heads for tensor in head)
    want_grad = any(tensor.requires_grad for tensor in leaves)
    g_leaves = [np.zeros(tensor.data.shape) for tensor in leaves] if want_grad else None

    total = 0.0
    for start, stop, pos, x, zero in blocks:
        h = hidden.data[start:stop]
        pre_p, pre_m, pre_t = (h @ w.data + b.data for w, b in heads)
        p = _sigmoid(np.clip(pre_p, -DROPOUT_LOGIT_CLAMP, DROPOUT_LOGIT_CLAMP))
        m = np.exp(np.clip(pre_m, -MEAN_LOGIT_CLAMP, MEAN_LOGIT_CLAMP))
        t = np.where(pre_t > 0.0, pre_t + np.log1p(np.exp(-np.abs(pre_t))),
                     np.log1p(np.exp(-np.abs(pre_t)))) + DISPERSION_FLOOR
        total, grads = _zinb_block(total, p, m, t, pos, x, zero, coef, want_grad)
        if not want_grad:
            continue
        g_p, g_m, g_t = grads
        g_p *= p
        g_p *= 1.0 - p
        g_p *= np.abs(pre_p) <= DROPOUT_LOGIT_CLAMP
        g_m *= m
        g_m *= np.abs(pre_m) <= MEAN_LOGIT_CLAMP
        g_t *= _sigmoid(pre_t)
        for g_w, g_b, g in zip(g_leaves[1::2], g_leaves[2::2], grads):
            g_w += h.T @ g
            g_b += g.sum(axis=0, keepdims=True)
        g_leaves[0][start:stop] = g_p @ w_p.data.T + g_m @ w_m.data.T + g_t @ w_t.data.T

    def backward_fn(g, accum):
        for tensor, grad in zip(leaves, g_leaves):
            if tensor.requires_grad:
                accum(tensor, _scaled(g, grad))

    return _from_op(np.array([[coef * (total - log_x_fact)]]), leaves, backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate gradients of ``loss`` into every reachable requires_grad tensor."""
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
        if node.requires_grad:
            # Single += per pass: two passes double the gradient exactly.
            node.grad = g if node.grad is None else node.grad + g


def zero_grad(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float) -> float:
    """Max relative error between AD and central-difference gradients of f at x.

    The relative error uses an absolute floor of 1e-8 in the denominator.
    ``x.data`` is perturbed in place and restored.
    """
    if not x.requires_grad:
        raise ContractError("grad_check: x must require gradients")
    out = f(x)
    if out.data.shape != (1, 1):
        raise ContractError("grad_check: f must be scalar-valued")
    x.grad = None
    backward(out)
    ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    fd = np.zeros_like(x.data)
    base = x.data
    for i, j in np.ndindex(*base.shape):
        orig = base[i, j]
        base[i, j] = orig + eps
        hi = f(x).data[0, 0]
        base[i, j] = orig - eps
        lo = f(x).data[0, 0]
        base[i, j] = orig
        fd[i, j] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(ad - fd) / denom))
