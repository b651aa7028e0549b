"""The three loss terms and their weighted combination.

All terms are engine nodes, so gradients flow to the model parameters.
The two pairwise terms are single fused nodes
(``cross_view_contrastive``, ``cosine_link_loss``) that walk row tiles of
the similarity matrix and form their closed-form gradients in the same
pass: memory is O(tile * n), never n by n. Cosine similarities use the
engine's guarded row norms. The contrastive denominator of each anchor
sums over every other embedding (k != i), so it always holds the
positive pair and every log argument is positive. It is evaluated in
log space, shifted by each anchor's largest similarity, so small
temperatures neither overflow nor take the log of an underflowed sum, and
the single-spot case is exactly zero.

The ZINB term is one fused node too (``zinb_decoder_nll``), from the
decoder's hidden layer on: per block of rows (at most ``ZINB_ROW_BLOCK``
rows and ``ZINB_BLOCK_ENTRIES`` entries), cut into two halves, one per
engine lane, by rows when 3 genes < rows and by genes otherwise, it
applies the three heads, runs lgamma and digamma on the
positive counts only and the mixture on the zero counts only, and chains
the closed-form gradients through the heads in the same pass. Its count
constants (checks, each tile's bit mask of positive entries and their
counts, sum lgamma(x + 1)) live in an ``autodiff.ZinbTarget``, which
training builds once per run.

The engine's ops check their own operands (shapes, the temperature, the
counts against the decoded shape, the adjacency's zero diagonal), so the
functions here only name the terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor, ZinbTarget
from .errors import ContractError


def contrastive_loss(z: Tensor, tau: float) -> Tensor:
    """Inter-view contrastive loss over paired spot embeddings, the two
    views stacked in ``z``: the spatial view's n rows, then the feature
    view's.

    Each spot's two view embeddings form the positive pair; every other
    embedding in either view is a negative. Each anchor's denominator sums
    the exponentiated similarities to all embeddings but itself. The op
    checks that the rows stack two views and that ``tau`` is finite and
    positive.
    """
    return ad.cross_view_contrastive(z, tau)


def spatial_reg_loss(z: Tensor, spatial_adj: SparseMatrix) -> Tensor:
    """Push latent similarity toward the spatial neighbor structure.

    Neighbor pairs pay -log sigmoid(similarity), non-neighbor ordered
    pairs (excluding self) pay -log(1 - sigmoid(similarity)), summed over
    all n^2 - n ordered pairs. Cosine similarities lie in (-1, 1), so this
    equals sum softplus(similarity) over the pairs minus the
    adjacency-weighted similarity sum over the graph's edges, which is how
    it is evaluated. The op refuses a self edge.
    """
    return ad.cosine_link_loss(z, spatial_adj)


def zinb_nll(target: ZinbTarget, hidden: Tensor, params) -> Tensor:
    """Mean negative log-likelihood of the constant counts ``target`` under
    the dropout, mean and dispersion heads of ``params`` (its six head
    tensors are read) over the decoder's hidden layer, differentiable in
    all seven tensors. The op checks the counts against the decoded shape.
    """
    heads = ((params.dropout_w, params.dropout_b), (params.mean_w, params.mean_b),
             (params.dispersion_w, params.dispersion_b))
    return ad.zinb_decoder_nll(hidden, heads, target)


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
