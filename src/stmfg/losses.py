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

The ZINB term is one fused node too (``zinb_decoder_nll``), from the
decoder's hidden layer on: per ``ZINB_ROW_BLOCK`` rows it applies the
three heads, runs lgamma and digamma on the positive counts only and the
mixture on the zero counts only, and chains the closed-form gradients
through the heads in the same pass. Its count constants (checks, each
block's positive and zero indices, sum lgamma(x + 1)) live in a
``ZinbTarget``, which training builds once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    if np.any(spatial_adj.csr().diagonal() != 0):
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


class ZinbTarget:
    """A validated reconstruction target and its count constants, built
    once per run: the matrix's shape, whether every count is an integer,
    and the ``ad.zinb_count_blocks`` that ``ad.zinb_decoder_nll`` reads. With
    ``require_integer=False`` the factorial term generalizes to
    lgamma(x + 1), which admits the non-integer reconstruction targets
    produced by preprocessing.
    """

    __slots__ = ("shape", "integer", "blocks", "log_x_fact")

    def __init__(self, x, require_integer: bool = True):
        counts = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if counts.ndim != 2:
            raise DataError(f"counts must be a matrix, got shape {counts.shape}")
        if counts.size == 0:
            raise DataError(f"counts must have at least one entry, got shape {counts.shape}")
        if not np.isfinite(counts).all():
            raise DataError("counts must be finite")
        if np.any(counts < 0):
            raise DataError("counts must be nonnegative")
        self.integer = bool(np.all(counts == np.floor(counts)))
        if require_integer and not self.integer:
            raise DataError("counts must be integers")
        self.shape = counts.shape
        self.blocks, self.log_x_fact = ad.zinb_count_blocks(counts)


def zinb_nll(x, hidden: Tensor, params, require_integer: bool = True) -> Tensor:
    """Mean negative log-likelihood of counts ``x`` under the dropout, mean
    and dispersion heads of ``params`` (its six head tensors are read) over
    the decoder's hidden layer, differentiable in all seven tensors.

    ``x`` is a constant: a count matrix, or a ``ZinbTarget`` prepared from
    one (the same result, without rebuilding the count constants).
    """
    target = x if isinstance(x, ZinbTarget) else ZinbTarget(x, require_integer)
    if require_integer and not target.integer:
        raise DataError("counts must be integers")
    heads = ((params.dropout_w, params.dropout_b), (params.mean_w, params.mean_b),
             (params.dispersion_w, params.dispersion_b))
    decoded = (hidden.rows, params.dropout_w.cols)
    if decoded != target.shape:
        raise ContractError(f"decoder output {decoded} vs counts {target.shape}")
    return ad.zinb_decoder_nll(hidden, heads, target.blocks, target.log_x_fact)


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
