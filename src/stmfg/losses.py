"""The three loss terms and their weighted combination.

All terms are engine nodes, so gradients flow to the model parameters.
The two pairwise terms are single fused nodes
(``cross_view_contrastive``, ``cosine_link_loss``) that walk row tiles of
the similarity matrix and form their closed-form gradients in the same
pass: memory is O(tile * n), never n by n. Cosine similarities use the
engine's guarded row norms, so a spot's self-similarity can sit
marginally below one; the contrastive denominator is floored at its
numerator to keep every log argument positive (and to make the
single-spot case collapse to exactly zero). It is evaluated in log space,
shifted by each anchor's largest similarity, with the self-similarity
term through ``expm1`` of its closed-form distance from one, so small
temperatures neither overflow nor take the log of an underflowed sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor
from .errors import ContractError, DataError

DEFAULT_TAU = 0.5


def contrastive_loss(z_spatial: Tensor, z_feature: Tensor, tau: float) -> Tensor:
    """Inter-view contrastive loss over paired spot embeddings.

    Each spot's two view embeddings form the positive pair; every other
    embedding in either view is a negative. The denominator sums the
    exponentiated similarities of the anchor against both views and
    removes the anchor's self-similarity term exp(1/tau).
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if z_spatial.data.shape != z_feature.data.shape:
        raise ContractError(
            f"view shapes differ: {z_spatial.data.shape} vs {z_feature.data.shape}")
    return ad.cross_view_contrastive(z_spatial, z_feature, tau)


def spatial_reg_loss(z: Tensor, spatial_adj: SparseMatrix) -> Tensor:
    """Push latent similarity toward the spatial neighbor structure.

    Neighbor pairs pay -log sigmoid(similarity), non-neighbor ordered
    pairs (excluding self) pay -log(1 - sigmoid(similarity)), summed over
    all n^2 - n ordered pairs. Cosine similarities lie in (-1, 1), so this
    equals sum softplus(similarity) over the pairs minus the
    adjacency-weighted similarity sum over the graph's edges, which is how
    it is evaluated.
    """
    if spatial_adj.n != z.rows:
        raise ContractError(f"adjacency n={spatial_adj.n} vs embedding rows={z.rows}")
    on_diagonal = spatial_adj.row_idx == spatial_adj.col_idx
    if np.any(spatial_adj.values[on_diagonal] != 0):
        raise ContractError("spatial adjacency must have a zero diagonal")
    return ad.cosine_link_loss(z, spatial_adj)


def zinb_pmf(x: int, pi: float, mu: float, theta: float) -> float:
    """Probability of count ``x`` under the zero-inflated negative binomial.

    A point mass at zero with weight ``pi`` mixed with NB(mu, theta).
    Scalar reference form, evaluated in log space.
    """
    if x < 0 or x != int(x):
        raise ContractError(f"count must be a nonnegative integer, got {x}")
    if not 0.0 <= pi < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {pi}")
    if mu <= 0 or theta <= 0:
        raise ContractError(f"mean and dispersion must be positive, got {mu}, {theta}")
    x = int(x)
    log_nb = (math.lgamma(x + theta) - math.lgamma(theta) - math.lgamma(x + 1)
              + theta * math.log(theta / (theta + mu))
              + x * (math.log(mu) - math.log(theta + mu)))
    nb = math.exp(log_nb)
    return pi * (1.0 if x == 0 else 0.0) + (1.0 - pi) * nb


def zinb_nll(x, pi: Tensor, mu: Tensor, theta: Tensor,
             require_integer: bool = True) -> Tensor:
    """Mean negative log-likelihood of counts ``x`` under per-entry ZINB
    parameters, differentiable in all three parameter tensors.

    ``x`` is a constant. With ``require_integer=False`` the factorial term
    generalizes to lgamma(x + 1), which admits the non-integer
    reconstruction targets produced by preprocessing.
    """
    counts = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if counts.ndim != 2:
        raise DataError(f"counts must be a matrix, got shape {counts.shape}")
    if np.any(counts < 0):
        raise DataError("counts must be nonnegative")
    if require_integer and np.any(counts != np.floor(counts)):
        raise DataError("counts must be integers")
    for name, t, lo_ok in (("pi", pi, lambda v: (v >= 0).all() and (v < 1).all()),
                           ("mu", mu, lambda v: (v > 0).all()),
                           ("theta", theta, lambda v: (v > 0).all())):
        if t.data.shape != counts.shape:
            raise ContractError(f"{name} shape {t.data.shape} vs counts {counts.shape}")
        if not lo_ok(t.data):
            raise ContractError(f"{name} outside its domain")

    n_entries = counts.size
    x_t = Tensor(counts)
    is_zero = Tensor((counts == 0).astype(np.float64))
    is_pos = Tensor((counts > 0).astype(np.float64))
    # constant lgamma(x + 1); no gradient needed
    log_x_fact = Tensor(gammaln(counts + 1.0))
    one = Tensor([[1.0]])

    log_ratio_theta = ad.sub(ad.log(theta), ad.log(ad.add(theta, mu)))
    log_ratio_mu = ad.sub(ad.log(mu), ad.log(ad.add(theta, mu)))
    log_nb = ad.add(
        ad.sub(ad.sub(ad.lgamma(ad.add(x_t, theta)), ad.lgamma(theta)), log_x_fact),
        ad.add(ad.hadamard(theta, log_ratio_theta), ad.hadamard(x_t, log_ratio_mu)),
    )

    nb_zero_prob = ad.exp(ad.hadamard(theta, log_ratio_theta))
    zero_mix = ad.add(pi, ad.hadamard(ad.sub(one, pi), nb_zero_prob))
    zero_branch = ad.log(ad.clip(zero_mix, 1e-300, None))
    pos_branch = ad.add(ad.log(ad.sub(one, pi)), log_nb)

    log_pmf = ad.add(ad.hadamard(is_zero, zero_branch), ad.hadamard(is_pos, pos_branch))
    return ad.scale(ad.sum_all(log_pmf), -1.0 / n_entries)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss components and the weights that combined them."""

    zinb: float
    cl: float
    reg: float
    total: float
    alpha: float
    lam: float
    gamma: float


def total_loss(zinb: Tensor | None, cl: Tensor | None, reg: Tensor | None,
               alpha: float, lam: float, gamma: float) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the available components.

    A missing (disabled) component contributes zero and stays out of the
    differentiation graph entirely.
    """
    if alpha < 0 or lam < 0 or gamma < 0:
        raise ContractError("loss weights must be nonnegative")
    terms = []
    if zinb is not None:
        terms.append(ad.scale(zinb, alpha))
    if cl is not None:
        terms.append(ad.scale(cl, lam))
    if reg is not None:
        terms.append(ad.scale(reg, gamma))
    if terms:
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
    else:
        total = Tensor([[0.0]])
    breakdown = LossBreakdown(
        zinb=zinb.item() if zinb is not None else 0.0,
        cl=cl.item() if cl is not None else 0.0,
        reg=reg.item() if reg is not None else 0.0,
        total=total.item(),
        alpha=alpha,
        lam=lam,
        gamma=gamma,
    )
    return total, breakdown
