"""Engine tests: frozen closed-form values, finite-difference oracles, and
the densify-and-multiply oracle for the sparse product."""

import math

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg.autodiff import SparseMatrix, Tensor
from stmfg.errors import ContractError, DimensionError, DomainError


def tensor(data, grad=True):
    return Tensor(data, requires_grad=grad)


def zinb_of(counts, pi, mu, theta):
    """The fused ZINB op on a constant count matrix."""
    return ad.zinb_mean_nll(pi, mu, theta, *ad.zinb_count_blocks(np.asarray(counts, float)))


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


REFERENCE_OPS = ("leaky_relu", "concat_cols", "slice_cols", "col_broadcast_mul",
                 "row_l2_normalize", "softmax_rows")


def unfused_view_attention(zs, zf, w, slope, l2):
    """The ten-node graph that ad.view_attention replaces."""
    weights = softmax_rows(leaky_relu(ad.matmul(concat_cols(zs, zf), w), slope))
    if l2:
        weights = row_l2_normalize(weights)
    fused = ad.add(col_broadcast_mul(slice_cols(weights, 0, 1), zs),
                   col_broadcast_mul(slice_cols(weights, 1, 2), zf))
    return fused, weights


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_scalar(self):
        out = ad.matmul(tensor([[2.0]]), tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = tensor(rng.uniform(-2, 2, (4, 3)))
        b_const = Tensor(rng.uniform(-2, 2, (3, 2)))
        w = Tensor(rng.uniform(-2, 2, (4, 2)))
        err_a = ad.grad_check(lambda x: ad.sum_all(ad.hadamard(w, ad.matmul(x, b_const))), a, 1e-5)
        assert err_a < 1e-6

        b = tensor(rng.uniform(-2, 2, (3, 2)))
        a_const = Tensor(rng.uniform(-2, 2, (4, 3)))
        err_b = ad.grad_check(lambda x: ad.sum_all(ad.hadamard(w, ad.matmul(a_const, x))), b, 1e-5)
        assert err_b < 1e-6


class TestSpmm:
    def test_identity_operator(self):
        s = SparseMatrix(3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        d = tensor(np.arange(6.0).reshape(3, 2))
        out = ad.spmm(s, d)
        np.testing.assert_array_equal(out.data, d.data)

    def test_empty_operator_gives_zero(self):
        s = SparseMatrix(3, [], [], [])
        d = tensor(np.ones((3, 2)))
        out = ad.spmm(s, d)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_densified_matmul(self):
        rng = np.random.default_rng(11)
        s = random_sparse_symmetric(10, rng)
        d = tensor(rng.uniform(-2, 2, (10, 4)))
        out = ad.spmm(s, d)
        oracle = s.to_dense() @ d.data
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_densified_matmul_up_to_n64(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        s = random_sparse_symmetric(n, rng, density=0.2)
        d = tensor(rng.uniform(-2, 2, (n, 3)))
        np.testing.assert_allclose(ad.spmm(s, d).data, s.to_dense() @ d.data, atol=1e-12)

    def test_dimension_error(self):
        s = SparseMatrix(3, [], [], [])
        with pytest.raises(DimensionError):
            ad.spmm(s, tensor(np.ones((4, 2))))


class TestElementwise:
    def test_relu_signs(self):
        out = ad.relu(tensor([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_sigmoid_at_zero(self):
        x = tensor([[0.0]])
        out = ad.sigmoid(x)
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
            ad.backward(ad.relu(x))

    def test_accumulation_doubles_exactly(self):
        rng = np.random.default_rng(9)
        x = tensor(rng.uniform(-2, 2, (3, 4)))
        y = tensor(rng.uniform(-2, 2, (4, 2)))
        loss = ad.sum_all(ad.hadamard(ad.matmul(x, y), ad.matmul(x, y)))
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
        err = ad.grad_check(lambda t: ad.sum_all(ad.hadamard(t, t)), x, 1e-5)
        assert err < 1e-6

    def test_relu_away_from_kink(self):
        x = tensor([[1.5, -0.7, 2.0, -1.2]])
        err = ad.grad_check(lambda t: ad.sum_all(ad.relu(t)), x, 1e-5)
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
        return ad.sum_all(ad.hadamard(w, t))

    case("matmul")(lambda rng, x: wsum(rng, ad.matmul(x, Tensor(rng.uniform(-2, 2, (x.cols, 3))))))
    case("add")(lambda rng, x: wsum(rng, ad.add(x, Tensor(rng.uniform(-2, 2, (1, x.cols))))))
    case("sub")(lambda rng, x: wsum(rng, ad.sub(Tensor([[1.5]]), x)))
    case("hadamard")(lambda rng, x: wsum(rng, ad.hadamard(x, Tensor(rng.uniform(-2, 2, x.data.shape)))))
    case("scale")(lambda rng, x: wsum(rng, ad.scale(x, -1.7)))
    case("neg")(lambda rng, x: wsum(rng, ad.neg(x)))
    case("relu")(lambda rng, x: wsum(rng, ad.relu(x)))
    case("sigmoid")(lambda rng, x: wsum(rng, ad.sigmoid(x)))
    case("exp")(lambda rng, x: wsum(rng, ad.exp(x)))
    case("softplus")(lambda rng, x: wsum(rng, ad.softplus(x)))
    case("clip")(lambda rng, x: wsum(rng, ad.clip(x, -1.5, 1.5)))
    case("sum_all")(lambda rng, x: ad.sum_all(ad.hadamard(x, x)))
    case("mean_all")(lambda rng, x: ad.mean_all(ad.hadamard(x, x)))
    case("leaky_relu")(lambda rng, x: wsum(rng, leaky_relu(x, 0.2)))
    case("concat_cols")(lambda rng, x: wsum(rng, concat_cols(x, ad.hadamard(x, x))))
    case("slice_cols")(lambda rng, x: wsum(rng, slice_cols(x, 1, x.cols)))
    case("col_broadcast_mul")(
        lambda rng, x: wsum(rng, col_broadcast_mul(slice_cols(x, 0, 1), x)))
    case("row_l2_normalize")(lambda rng, x: wsum(rng, row_l2_normalize(x)))
    case("softmax_rows")(lambda rng, x: wsum(rng, softmax_rows(x)))
    # both views depend on x, so the checks cover both gradient paths
    case("view_attention")(lambda rng, x: wsum(rng, ad.view_attention(
        x, ad.hadamard(x, x), Tensor(rng.uniform(-2, 2, (2 * x.cols, 2))), 0.2, True)[0]))
    case("cross_view_contrastive")(
        lambda rng, x: ad.cross_view_contrastive(x, ad.hadamard(x, x), 0.5))
    case("cosine_link_loss")(
        lambda rng, x: ad.cosine_link_loss(x, random_sparse_symmetric(x.rows, rng)))
    # pi, mu and theta all depend on x; the counts mix zeros and positives
    case("zinb_mean_nll")(lambda rng, x: zinb_of(rng.poisson(1.5, x.data.shape),
                                                 ad.sigmoid(x), ad.exp(x), ad.softplus(x)))

    def spmm_case(rng, x):
        s = random_sparse_symmetric(x.rows, rng)
        return wsum(rng, ad.spmm(s, x))

    case("spmm")(spmm_case)
    return cases


OP_CASES = _op_cases()

KINKS = {"relu": [0.0], "leaky_relu": [0.0], "clip": [-1.5, 1.5]}


def test_every_registered_op_is_covered():
    registered = set(ad.__all__) - {
        "NORM_EPS", "Tensor", "SparseMatrix", "backward", "zero_grad", "grad_check",
    }
    assert not registered & set(REFERENCE_OPS)
    assert registered == set(OP_CASES) - set(REFERENCE_OPS)


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
        err = ad.grad_check(lambda t: builder(np.random.default_rng(5177 + seed), t), x, 1e-5)
        assert err < 1e-4, f"{name} seed {seed}: max relative error {err}"


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
            fused, _ = ad.view_attention(args["zs"], args["zf"], args["w"], 0.2, l2)
            return ad.sum_all(ad.hadamard(weight, fused))

        assert ad.grad_check(loss, tensor(inputs[which]), 1e-6) < 1e-5

    @pytest.mark.parametrize("l2", [True, False])
    def test_matches_unfused_reference_graph(self, l2):
        rng = np.random.default_rng(33)
        inputs = [rng.normal(size=s) for s in ((7, 3), (7, 3), (6, 2))]
        weight = Tensor(rng.uniform(-1, 1, (7, 3)))
        outs, grads = [], []
        for attend in (ad.view_attention, unfused_view_attention):
            leaves = [tensor(v) for v in inputs]
            fused, m = attend(*leaves, 0.2, l2)
            ad.backward(ad.sum_all(ad.hadamard(weight, fused)))
            outs.append((fused.data, m.data))
            grads.append([t.grad for t in leaves])
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_weights_are_constant(self):
        rng = np.random.default_rng(32)
        zs, zf, w = (tensor(rng.normal(size=s)) for s in ((5, 2), (5, 2), (4, 2)))
        fused, m = ad.view_attention(zs, zf, w, 0.2, True)
        assert fused.requires_grad and fused._parents == (zs, zf, w)
        assert not m.requires_grad and m._parents == ()


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


class TestSparseMatrixContracts:
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
