"""Loss-term tests against closed forms and brute-force double-loop
oracles, plus finite-difference gradient checks."""

import math
import tracemalloc

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg.autodiff import SparseMatrix, Tensor, ZinbTarget
from stmfg.errors import ContractError, DataError, DimensionError, DomainError
from stmfg.losses import (
    LossBreakdown,
    contrastive_loss,
    spatial_reg_loss,
    total_loss,
    zinb_nll,
)
from stmfg.model import ModelParams

from conftest import grad_check, stack, zinb_pmf
from test_autodiff import hadamard, head_params, head_values, heads_of, sum_all, zinb_of


def cosine(u, v, eps=0.0):
    """Textbook cosine (eps=0) or the library's guarded variant (eps>0)."""
    nu = math.sqrt(sum(a * a for a in u) + eps)
    nv = math.sqrt(sum(b * b for b in v) + eps)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def contrastive_oracle(zs, zf, tau, eps=0.0):
    """Literal double-loop evaluation of the inter-view objective: item r of
    the 2n rows [zs; zf] has the same spot's other-view row as its
    positive, and its denominator sums over every item k != r."""
    items = list(zs) + list(zf)
    n = len(zs)
    total = 0.0
    for r in range(2 * n):
        num = math.exp(cosine(items[r], items[(r + n) % (2 * n)], eps) / tau)
        den = 0.0
        for k in range(2 * n):
            if k != r:
                den += math.exp(cosine(items[r], items[k], eps) / tau)
        total += math.log(num / den)
    return -total / (2.0 * n)


def contrastive_oracle_exact(zs, zf, tau, eps, digits=50):
    """The masked double loop in 50-digit arithmetic on the same float
    inputs, with the guarded cosine: a reference whose own rounding stays
    negligible at small tau, where exp(s/tau) spans e^(+-1/tau)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        def unit(rows):
            out = []
            for row in rows:
                norm = mpmath.sqrt(sum(mpmath.mpf(v) ** 2 for v in row) + mpmath.mpf(eps))
                out.append([mpmath.mpf(v) / norm for v in row])
            return out

        items = unit(zs) + unit(zf)
        n = len(zs)
        inv_tau = 1 / mpmath.mpf(tau)
        total = mpmath.mpf(0)
        for r, anchor in enumerate(items):
            dot = lambda v: sum(a * b for a, b in zip(anchor, v))
            num = mpmath.exp(dot(items[(r + n) % (2 * n)]) * inv_tau)
            den = sum(mpmath.exp(dot(v) * inv_tau) for k, v in enumerate(items) if k != r)
            total += mpmath.log(num / den)
        return float(-total / (2 * n))


def spatial_reg_oracle(z, adj):
    n = len(z)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = 1.0 / (1.0 + math.exp(-cosine(z[i], z[j])))
            total += math.log(p) if adj[i][j] else math.log(1.0 - p)
    return -total


def random_adjacency(n, rng, p=0.3, weighted=False):
    """Random symmetric adjacency with zero diagonal: binary, or with
    weights drawn from [0.1, 2) when ``weighted``."""
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                dense[i, j] = dense[j, i] = rng.uniform(0.1, 2.0) if weighted else 1.0
    rows, cols = np.nonzero(dense)
    return SparseMatrix(n, rows, cols, dense[rows, cols]), dense


def weighted_spatial_reg_oracle(z, adj):
    """Double loop over ordered pairs with weighted neighbor terms:
    -a log p - (1 - a) log(1 - p), the form the regularizer takes for
    non-binary adjacency."""
    n = len(z)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = 1.0 / (1.0 + math.exp(-cosine(z[i], z[j])))
            total -= adj[i][j] * math.log(p) + (1.0 - adj[i][j]) * math.log(1.0 - p)
    return total


class TestContrastiveLoss:
    def test_single_spot_collapses_to_exactly_zero(self):
        rng = np.random.default_rng(0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            loss = contrastive_loss(stack(rng.normal(size=(1, 5)), rng.normal(size=(1, 5))), tau)
            assert loss.item() == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 33))
        d = int(rng.integers(2, 9))
        zs = rng.normal(size=(n, d))
        zf = rng.normal(size=(n, d))
        loss = contrastive_loss(stack(zs, zf), 0.5)
        assert loss.item() == pytest.approx(
            contrastive_oracle(zs.tolist(), zf.tolist(), 0.5), abs=1e-10)

    @pytest.mark.parametrize("tau", [0.01, 0.02, 0.05])
    def test_small_temperature_matches_exact_oracle(self, tau):
        rng = np.random.default_rng(int(1000 * tau))
        for _ in range(3):
            n = int(rng.integers(2, 9))
            zs = rng.normal(size=(n, 4))
            zf = rng.normal(size=(n, 4))
            got = contrastive_loss(stack(zs, zf), tau).item()
            want = contrastive_oracle_exact(zs.tolist(), zf.tolist(), tau, ad.NORM_EPS)
            assert got == pytest.approx(want, abs=1e-10)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(3)
        zs = rng.normal(size=(10, 4))
        zf = rng.normal(size=(10, 4))
        base = contrastive_loss(stack(zs, zf), 0.5).item()
        scaled = zs.copy()
        scaled[4] *= 3.0
        assert contrastive_loss(stack(scaled, zf), 0.5).item() == pytest.approx(
            base, abs=1e-10)

    def test_symmetry_under_view_swap(self):
        rng = np.random.default_rng(4)
        zs = rng.normal(size=(12, 5))
        zf = rng.normal(size=(12, 5))
        a = contrastive_loss(stack(zs, zf), 0.7).item()
        b = contrastive_loss(stack(zf, zs), 0.7).item()
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(200 + seed)
        loss = contrastive_loss(stack(rng.normal(size=(6, 3)), rng.normal(size=(6, 3))), 0.5)
        assert loss.item() >= 0.0

    def test_invalid_temperature(self):
        z = stack(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ContractError):
            contrastive_loss(z, 0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.5, math.inf, -math.inf, math.nan, 5e-324])
    def test_op_rejects_temperature_outside_domain(self, tau):
        # 5e-324 is positive, but its reciprocal overflows
        z = stack(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(DomainError, match="tau"):
            ad.cross_view_contrastive(z, tau)

    def test_view_shape_mismatch(self):
        """Views of 3 and 2 rows stack into an odd row count, which pairs no
        two views: refused, naming the op."""
        with pytest.raises(DimensionError, match="cross_view_contrastive"):
            contrastive_loss(stack(np.ones((3, 2)), np.ones((2, 2))), 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = stack(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), requires_grad=True)
        err = grad_check(lambda t: contrastive_loss(t, 0.5), z, 1e-5)
        assert err < 1e-5


class TestSpatialRegLoss:
    def test_two_spots_one_edge_closed_form(self):
        z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        adj = SparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0])
        assert spatial_reg_loss(z, adj).item() == pytest.approx(-2 * math.log(0.5), abs=1e-12)

    def test_two_spots_no_edge_same_value(self):
        z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        adj = SparseMatrix(2, [], [], [])
        assert spatial_reg_loss(z, adj).item() == pytest.approx(-2 * math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(3, 21))
        z = rng.normal(size=(n, 4))
        adj, dense = random_adjacency(n, rng)
        loss = spatial_reg_loss(Tensor(z), adj)
        assert loss.item() == pytest.approx(
            spatial_reg_oracle(z.tolist(), dense.tolist()), abs=1e-10)

    def test_orthogonal_embedding_closed_form(self):
        rng = np.random.default_rng(9)
        n = 7
        adj, _ = random_adjacency(n, rng)
        loss = spatial_reg_loss(Tensor(np.eye(n)), adj)
        assert loss.item() == pytest.approx(-(n * n - n) * math.log(0.5), abs=1e-9)

    def test_adjacency_size_mismatch(self):
        with pytest.raises(ContractError, match="n=3 vs rows=2"):
            spatial_reg_loss(Tensor(np.eye(2)), SparseMatrix(3, [], [], []))

    def test_nonnegative_and_gradient(self):
        rng = np.random.default_rng(10)
        z = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        adj, _ = random_adjacency(6, rng)
        assert spatial_reg_loss(z, adj).item() >= 0.0
        err = grad_check(lambda t: spatial_reg_loss(t, adj), z, 1e-5)
        assert err < 1e-5


class TestCosineSimilarity:
    """The pairwise terms see guarded cosine similarities; with no edges a
    pair's regularizer value is 2 softplus(s), which exposes s."""

    @staticmethod
    def pair_similarity(z):
        reg = spatial_reg_loss(Tensor(z), SparseMatrix(2, [], [], []))
        return math.log(math.expm1(reg.item() / 2.0))

    def test_orthogonal_rows(self):
        assert abs(self.pair_similarity([[1.0, 0.0], [0.0, 1.0]])) < 1e-15

    def test_positive_scale_invariance(self):
        assert self.pair_similarity([[1.0, 0.0], [2.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_range_and_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert abs(self.pair_similarity(rng.uniform(-2, 2, (2, 3)))) <= 1.0 + 1e-12
        z = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        adj, _ = random_adjacency(5, rng, p=0.5, weighted=True)
        assert grad_check(lambda t: spatial_reg_loss(t, adj), z, 1e-5) < 1e-5


class TestFusedPairwiseLosses:
    """The fused nodes walk row tiles; tile edges, small temperatures,
    both gradient paths and the memory bound are checked here."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
    def test_tile_boundaries_match_oracles(self, n, monkeypatch):
        monkeypatch.setattr(ad, "PAIRWISE_TILE", 3)
        rng = np.random.default_rng(600 + n)
        zs = rng.normal(size=(n, 4))
        zf = rng.normal(size=(n, 4))
        for tau in (0.1, 0.5):
            got = contrastive_loss(stack(zs, zf), tau).item()
            want = contrastive_oracle(zs.tolist(), zf.tolist(), tau, eps=ad.NORM_EPS)
            if n == 1:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, abs=1e-10)
        adj, dense = random_adjacency(n, rng, p=0.4)
        assert spatial_reg_loss(Tensor(zs), adj).item() == pytest.approx(
            spatial_reg_oracle(zs.tolist(), dense.tolist()), abs=1e-10)

    def test_tiled_gradients_match_single_tile(self, monkeypatch):
        rng = np.random.default_rng(8)
        z = stack(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)), requires_grad=True)
        zs = Tensor(z.data[:10], requires_grad=True)
        adj, _ = random_adjacency(10, rng, weighted=True)
        grads = []
        for tile in (3, 256):
            monkeypatch.setattr(ad, "PAIRWISE_TILE", tile)
            ad.zero_grad([z, zs])
            ad.backward(ad.add(contrastive_loss(z, 0.5), spatial_reg_loss(zs, adj)))
            grads.append((z.grad, zs.grad))
        for tiled, whole in zip(*grads):
            np.testing.assert_allclose(tiled, whole, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_contrastive_gradient_in_both_views(self, tau):
        rng = np.random.default_rng(9)
        z = stack(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), requires_grad=True)
        assert grad_check(lambda t: contrastive_loss(t, tau), z, 1e-5) < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_adjacency_oracle_and_gradient(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = 8
        z = rng.normal(size=(n, 3))
        adj, dense = random_adjacency(n, rng, p=0.4, weighted=True)
        assert spatial_reg_loss(Tensor(z), adj).item() == pytest.approx(
            weighted_spatial_reg_oracle(z.tolist(), dense.tolist()), abs=1e-10)
        zt = Tensor(z, requires_grad=True)
        assert grad_check(lambda t: spatial_reg_loss(t, adj), zt, 1e-5) < 1e-5

    def test_nonzero_diagonal_rejected(self):
        adj = SparseMatrix(2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ContractError):
            spatial_reg_loss(Tensor(np.eye(2)), adj)
        # an explicitly stored zero on the diagonal is no self edge
        stored_zero = SparseMatrix(2, [0, 0, 1], [0, 1, 0], [0.0, 1.0, 1.0])
        plain = SparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0])
        z = Tensor([[1.0, 0.5], [0.2, 1.0]])
        assert spatial_reg_loss(z, stored_zero).item() == spatial_reg_loss(z, plain).item()

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 2e-3, 5e-3])
    def test_small_temperature_is_finite(self, tau):
        rng = np.random.default_rng(11)
        for n in (1, 2, 10):
            z = stack(rng.normal(size=(n, 4)), rng.normal(size=(n, 4)), requires_grad=True)
            loss = contrastive_loss(z, tau)
            ad.backward(loss)
            assert np.isfinite(loss.item()) and loss.item() >= 0.0
            assert np.isfinite(z.grad).all()

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 2e-3, 5e-3])
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_small_temperature_with_underflowing_terms(self, tau, scale):
        # Orthogonal rows: every similarity but the masked self term is 0,
        # so each anchor's denominator is 2n - 1 unit terms and its
        # numerator 1, at any temperature. Measured from one, every term
        # exp((s - 1)/tau) = exp(-1/tau) would underflow; the op shifts by
        # the largest unmasked similarity instead.
        n = 3
        basis = scale * np.eye(2 * n)
        z = stack(basis[:n], basis[n:], requires_grad=True)
        loss = contrastive_loss(z, tau)
        ad.backward(loss)
        assert loss.item() == pytest.approx(math.log(2 * n - 1), rel=1e-15, abs=0.0)
        assert np.isfinite(z.grad).all()

    @pytest.mark.parametrize("which", ["contrastive", "spatial_reg"])
    def test_memory_stays_linear_in_n(self, which):
        # Dense n x n intermediates at n = 2500 would take ~1 GiB.
        rng = np.random.default_rng(12)
        n, d = 2500, 64
        z = stack(rng.normal(size=(n, d)), rng.normal(size=(n, d)), requires_grad=True)
        zs = Tensor(z.data[:n], requires_grad=True)
        side = np.arange(n)
        adj = SparseMatrix(n, np.r_[side[:-1], side[1:]], np.r_[side[1:], side[:-1]],
                           np.ones(2 * n - 2))
        tracemalloc.start()
        try:
            if which == "contrastive":
                loss = contrastive_loss(z, 0.5)
            else:
                loss = spatial_reg_loss(zs, adj)
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestZinbPmf:
    def test_zero_count_closed_form(self):
        assert zinb_pmf(0, 0.5, 1.0, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_positive_count_halves_nb(self):
        nb_only = zinb_pmf(3, 0.0, 2.0, 1.5)
        assert zinb_pmf(3, 0.5, 2.0, 1.5) == pytest.approx(0.5 * nb_only, abs=1e-12)

    def test_pure_nb_sums_to_one(self):
        total = sum(zinb_pmf(x, 0.0, 5.0, 2.0) for x in range(10001))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_zero_inflated_sums_to_one(self):
        total = sum(zinb_pmf(x, 0.3, 4.0, 1.0) for x in range(10001))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ContractError):
            zinb_pmf(-1, 0.1, 1.0, 1.0)
        with pytest.raises(ContractError):
            zinb_pmf(0, 1.0, 1.0, 1.0)
        with pytest.raises(ContractError):
            zinb_pmf(0, 0.1, 0.0, 1.0)


# The decoder heads are applied inside zinb_nll. With hidden = I_n the head
# weights are the pre-activations themselves, so ``head_params`` chooses the
# per-entry (pi, mu, theta) and ``head_values`` reads back what the heads
# give, which the oracles use.


def eye(n, grad=False):
    return Tensor(np.eye(n), requires_grad=grad)


def decoder(rng, hidden_width, genes):
    """Random decoder heads (Glorot weights, zero biases) as a ModelParams."""
    return ModelParams.initialize(rng, [2, 2], genes, hidden_width)


def leaves_of(hidden, params):
    return [hidden] + [t for head in heads_of(params) for t in head]


class TestZinbNll:
    def test_single_entry_closed_form(self):
        params = head_params(np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]))
        loss = zinb_nll(ZinbTarget([[0.0]]), eye(1), params)
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pmf_composition(self, seed):
        rng = np.random.default_rng(400 + seed)
        counts = rng.poisson(3.0, size=(5, 4)).astype(float)
        params = zinb_params(rng, (5, 4))
        loss = zinb_nll(ZinbTarget(counts), eye(5), params)
        oracle = zinb_oracle(counts, *head_values(eye(5), params))
        assert loss.item() == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(500 + seed)
        counts = rng.poisson(2.0, size=(4, 3)).astype(float)
        params = head_params(rng.uniform(0.05, 0.9, size=(4, 3)),
                             rng.uniform(0.2, 5.0, size=(4, 3)),
                             rng.uniform(0.3, 3.0, size=(4, 3)))
        assert zinb_nll(ZinbTarget(counts), eye(4), params).item() >= 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        counts = rng.poisson(3.0, size=(4, 5)).astype(float)
        hidden = Tensor(rng.uniform(0.0, 2.0, size=(4, 3)), requires_grad=True)
        params = decoder(rng, 3, 5)
        target = ZinbTarget(counts)
        for t in leaves_of(hidden, params):
            assert grad_check(lambda _: zinb_nll(target, hidden, params), t, 1e-5) < 1e-4

    def test_count_validation(self):
        good = (eye(1), head_params(np.array([[0.2]]), np.array([[1.0]]), np.array([[1.0]])))
        with pytest.raises(DataError):
            ZinbTarget(np.array([[-1.0]]))
        with pytest.raises(DataError):
            ZinbTarget(np.array([[1.5]]))
        # continuous targets allowed when integer validation is waived
        loss = zinb_nll(ZinbTarget(np.array([[1.5]]), require_integer=False), *good)
        assert np.isfinite(loss.item())


def zinb_oracle(counts, pi, mu, theta):
    """Mean NLL by composing the scalar pmf entry by entry."""
    return float(np.mean([
        -math.log(zinb_pmf(int(counts[i, j]), pi[i, j], mu[i, j], theta[i, j]))
        for i in range(counts.shape[0]) for j in range(counts.shape[1])]))


def zinb_params(rng, shape, grad=False):
    """Heads giving about pi in (0.05, 0.9), mu in (0.2, 6), theta in (0.3, 4)
    on hidden = I_n."""
    return head_params(rng.uniform(0.05, 0.9, shape), rng.uniform(0.2, 6.0, shape),
                       rng.uniform(0.3, 4.0, shape), grad=grad)


def zinb_grads(counts, hidden, params):
    leaves = leaves_of(hidden, params)
    for t in leaves:
        t.grad = None
    loss = zinb_nll(ZinbTarget(counts), hidden, params)
    ad.backward(loss)
    return loss.item(), [t.grad.copy() for t in leaves]


class TestFusedZinb:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
    def test_row_blocks_match_oracle(self, n, monkeypatch):
        monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", 3)
        rng = np.random.default_rng(600 + n)
        counts = rng.poisson(1.5, size=(n, 5)).astype(float)
        params = zinb_params(rng, (n, 5))
        got = zinb_nll(ZinbTarget(counts), eye(n), params).item()
        assert got == pytest.approx(zinb_oracle(counts, *head_values(eye(n), params)),
                                    abs=1e-10)

    def test_blocked_gradients_match_single_block(self, monkeypatch):
        rng = np.random.default_rng(610)
        counts = rng.poisson(1.5, size=(10, 6)).astype(float)
        hidden = Tensor(rng.uniform(0.0, 2.0, size=(10, 4)), requires_grad=True)
        params = decoder(rng, 4, 6)
        results = []
        for block in (3, 256):
            monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", block)
            results.append(zinb_grads(counts, hidden, params))
        (v_small, g_small), (v_big, g_big) = results
        assert v_small == pytest.approx(v_big, abs=1e-14)
        for a, b in zip(g_small, g_big):
            np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("fill", ["zeros", "positives"])
    def test_single_branch_targets(self, fill):
        rng = np.random.default_rng(620)
        shape = (4, 3)
        counts = (np.zeros(shape) if fill == "zeros"
                  else rng.integers(1, 6, size=shape).astype(float))
        params = zinb_params(rng, shape, grad=True)
        target = ZinbTarget(counts)
        got = zinb_nll(target, eye(4), params).item()
        assert got == pytest.approx(zinb_oracle(counts, *head_values(eye(4), params)),
                                    abs=1e-10)
        for w, _ in heads_of(params):
            assert grad_check(lambda _: zinb_nll(target, eye(4), params), w, 1e-6) < 1e-4

    def test_probability_floor(self):
        # NB zero probability (1000 / 1001000)^1000 underflows and pi = 0.
        # The heads keep pi >= sigmoid(-30), so only the reference in
        # (pi, mu, theta), on the engine's own per-block math, gets here.
        shape = (2, 3)
        pi = Tensor(np.zeros(shape), requires_grad=True)
        mu = Tensor(np.full(shape, 1e6), requires_grad=True)
        theta = Tensor(np.full(shape, 1000.0), requires_grad=True)
        loss = zinb_of(np.zeros(shape), pi, mu, theta)
        assert loss.item() == pytest.approx(-math.log(1e-300), rel=1e-15)
        ad.backward(loss)
        for t in (pi, mu, theta):
            np.testing.assert_array_equal(t.grad, np.zeros(shape))

    def test_parameter_contracts(self):
        rng = np.random.default_rng(631)
        target = ZinbTarget([[0.0, 2.0], [1.0, 0.0]])
        for hidden_shape, width, head_width in (((3, 4), 4, 2), ((2, 4), 4, 3),
                                                ((2, 4), 5, 2)):
            params = decoder(rng, width, head_width)
            with pytest.raises(ContractError):
                zinb_nll(target, Tensor(np.ones(hidden_shape)), params)
        params = decoder(rng, 4, 2)
        params.mean_b = Tensor(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            zinb_nll(target, Tensor(np.ones((2, 4))), params)

    def test_target_contracts(self):
        for bad in (np.array([[np.nan]]), np.array([[np.inf]]), np.zeros((0, 1)),
                    np.zeros(3)):
            with pytest.raises(DataError):
                ZinbTarget(bad, require_integer=False)

    def test_memory_stays_within_eight_count_buffers(self):
        # 900 x 3000, 58% zeros: forward plus backward into the leaves
        rng = np.random.default_rng(640)
        n, genes = 900, 3000
        counts = rng.poisson(2.0, size=(n, genes)).astype(float)
        counts[rng.random((n, genes)) < 0.514] = 0.0
        assert abs((counts == 0).mean() - 0.58) < 0.01
        hidden = Tensor(rng.uniform(0.0, 1.0, size=(n, 32)), requires_grad=True)
        params = decoder(rng, 32, genes)
        tracemalloc.start()
        try:
            ad.backward(zinb_nll(ZinbTarget(counts), hidden, params))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * counts.nbytes, f"peak {peak / 2**20:.1f} MiB"

    def test_backward_holds_no_gradient_copies(self):
        # a prepared target (1.42 buffers here) and the op's gradients, which
        # backward hands to the leaves without copying them
        rng = np.random.default_rng(641)
        n, genes = 900, 3000
        counts = rng.poisson(2.0, size=(n, genes)).astype(float)
        counts[rng.random((n, genes)) < 0.514] = 0.0
        hidden = Tensor(rng.uniform(0.0, 1.0, size=(n, 32)), requires_grad=True)
        params = decoder(rng, 32, genes)
        tracemalloc.start()
        try:
            target = ZinbTarget(counts)
            loss = zinb_nll(target, hidden, params)
            ad.backward(loss)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 5 * counts.nbytes, f"held {held / counts.nbytes:.2f} buffers"


class TestTotalLoss:
    def _scalars(self):
        return Tensor([[0.8]]), Tensor([[0.3]]), Tensor([[2.5]])

    def test_masking(self):
        z, c, r = self._scalars()
        total, breakdown = total_loss(z, c, r, 1.0, 0.0, 0.0)
        assert total.item() == z.item()
        assert breakdown.total == breakdown.zinb

    def test_all_zero_weights(self):
        z, c, r = self._scalars()
        total, _ = total_loss(z, c, r, 0.0, 0.0, 0.0)
        assert total.item() == 0.0

    def test_weighted_sum_oracle(self):
        z, c, r = self._scalars()
        total, breakdown = total_loss(z, c, r, 1.0, 0.001, 0.01)
        expected = 1.0 * 0.8 + 0.001 * 0.3 + 0.01 * 2.5
        assert total.item() == pytest.approx(expected, abs=1e-12)
        assert breakdown.total == pytest.approx(
            breakdown.alpha * breakdown.zinb + breakdown.lam * breakdown.cl
            + breakdown.gamma * breakdown.reg, abs=1e-12)

    def test_disabled_components_record_zero(self):
        z, _, _ = self._scalars()
        total, breakdown = total_loss(z, None, None, 1.0, 0.001, 0.01)
        assert breakdown.cl == 0.0 and breakdown.reg == 0.0
        assert total.item() == z.item()

    def test_negative_weights_rejected(self):
        z, c, r = self._scalars()
        with pytest.raises(ContractError):
            total_loss(z, c, r, -1.0, 0.0, 0.0)

    def test_gradient_flows_through_weights(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        z = ad.scale(sum_all(hadamard(x, x)), 0.5)  # the mean of x * x
        total, _ = total_loss(z, None, None, 2.0, 0.0, 0.0)
        ad.backward(total)
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]], atol=1e-12)
