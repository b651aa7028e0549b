"""Dual-view GCN encoder with per-layer attention fusion, plus the
parameters of the ZINB decoder that drives reconstruction.

The encoder alternates, for each layer: one graph convolution per view on
the shared fused input, then an attention step that mixes the two view
embeddings row-wise into the next layer's input; that step is one fused
engine op (``autodiff.view_attention``). A late-fusion variant
(each view encoded independently, one fusion at the output) backs the
"w/o mf" ablation. The first layer's propagations A X of the constant
input are run constants (``propagate_input``). The decoder's three heads
have no nodes of their own: the likelihood node applies them to the
hidden layer (``zinb_decode``) block by block, and a trace holds encoder
outputs only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor
from .errors import ContractError, DataError

DEFAULT_HIDDEN_DIMS = (128, 64)
DEFAULT_DECODER_HIDDEN = 128
DEFAULT_LEAKY_SLOPE = 0.2

CHECKPOINT_MAGIC = "stmfg-params v1"


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class ModelParams:
    """Every learnable tensor: per-layer view weights and attention weights,
    plus the shared decoder hidden layer and its three heads."""

    spatial_weights: list[Tensor]
    feature_weights: list[Tensor]
    attention_weights: list[Tensor]
    decoder_hidden_w: Tensor
    decoder_hidden_b: Tensor
    dropout_w: Tensor
    dropout_b: Tensor
    mean_w: Tensor
    mean_b: Tensor
    dispersion_w: Tensor
    dispersion_b: Tensor

    @classmethod
    def initialize(cls, rng: np.random.Generator, layer_dims: list[int],
                   recon_width: int,
                   decoder_hidden: int = DEFAULT_DECODER_HIDDEN) -> "ModelParams":
        """Seeded Glorot-uniform weights for the dimension chain
        ``layer_dims[0] -> ... -> layer_dims[-1]`` and a decoder mapping the
        final embedding to ``recon_width`` genes."""
        if len(layer_dims) < 2:
            raise ContractError("layer_dims needs an input width and at least one output width")
        spatial, feature, attention = [], [], []
        for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
            spatial.append(Tensor(glorot(rng, d_in, d_out), requires_grad=True))
            feature.append(Tensor(glorot(rng, d_in, d_out), requires_grad=True))
            attention.append(Tensor(glorot(rng, 2 * d_out, 2), requires_grad=True))
        d_final = layer_dims[-1]
        return cls(
            spatial_weights=spatial,
            feature_weights=feature,
            attention_weights=attention,
            decoder_hidden_w=Tensor(glorot(rng, d_final, decoder_hidden), requires_grad=True),
            decoder_hidden_b=Tensor(np.zeros((1, decoder_hidden)), requires_grad=True),
            dropout_w=Tensor(glorot(rng, decoder_hidden, recon_width), requires_grad=True),
            dropout_b=Tensor(np.zeros((1, recon_width)), requires_grad=True),
            mean_w=Tensor(glorot(rng, decoder_hidden, recon_width), requires_grad=True),
            mean_b=Tensor(np.zeros((1, recon_width)), requires_grad=True),
            dispersion_w=Tensor(glorot(rng, decoder_hidden, recon_width), requires_grad=True),
            dispersion_b=Tensor(np.zeros((1, recon_width)), requires_grad=True),
        )

    @property
    def n_layers(self) -> int:
        return len(self.spatial_weights)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        named = []
        for i in range(self.n_layers):
            named.append((f"spatial_weights.{i}", self.spatial_weights[i]))
            named.append((f"feature_weights.{i}", self.feature_weights[i]))
            named.append((f"attention_weights.{i}", self.attention_weights[i]))
        named += [
            ("decoder_hidden_w", self.decoder_hidden_w),
            ("decoder_hidden_b", self.decoder_hidden_b),
            ("dropout_w", self.dropout_w),
            ("dropout_b", self.dropout_b),
            ("mean_w", self.mean_w),
            ("mean_b", self.mean_b),
            ("dispersion_w", self.dispersion_w),
            ("dispersion_b", self.dispersion_b),
        ]
        return named

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]


@dataclass
class ForwardTrace:
    """All intermediates from one encoder pass."""

    embedding: Tensor
    spatial_embeddings: list[Tensor] = field(default_factory=list)
    feature_embeddings: list[Tensor] = field(default_factory=list)
    fusion_weights: list[Tensor] = field(default_factory=list)


def gcn_layer(a_norm: SparseMatrix, z: Tensor, w: Tensor) -> Tensor:
    """One graph convolution: propagate with the normalized adjacency,
    project with the layer weight, apply ReLU."""
    return ad.relu(ad.matmul(ad.spmm(a_norm, z), w))


def propagate_input(x: Tensor, spatial_norm: SparseMatrix,
                    feature_norm: SparseMatrix) -> tuple[Tensor, Tensor]:
    """A_s X and A_f X of a constant input, bitwise equal to ``spmm``."""
    x_rows = np.ascontiguousarray(x.data)
    return Tensor(spatial_norm.csr() @ x_rows), Tensor(feature_norm.csr() @ x_rows)


def attention_fuse(z_spatial: Tensor, z_feature: Tensor, w_attention: Tensor,
                   slope: float = DEFAULT_LEAKY_SLOPE,
                   l2_after_softmax: bool = True) -> tuple[Tensor, Tensor]:
    """Row-wise attention over the two views, one fused engine node with a
    closed-form gradient.

    Returns the fused embedding and the n-by-2 weight matrix, a constant.
    The weights are a row softmax of LeakyReLU logits; by default each
    weight row is then l2-normalized, which trades the sum-to-one property
    for unit norm.
    """
    if z_spatial.data.shape != z_feature.data.shape:
        raise ContractError(
            f"view shapes differ: {z_spatial.data.shape} vs {z_feature.data.shape}")
    if w_attention.data.shape != (2 * z_spatial.cols, 2):
        raise ContractError(
            f"attention weight must be ({2 * z_spatial.cols}, 2), "
            f"got {w_attention.data.shape}")
    return ad.view_attention(z_spatial, z_feature, w_attention, slope, l2_after_softmax)


def encode(x: Tensor, spatial_norm: SparseMatrix, feature_norm: SparseMatrix,
           params: ModelParams, slope: float = DEFAULT_LEAKY_SLOPE,
           l2_after_softmax: bool = True, per_layer_fusion: bool = True,
           propagated: tuple[Tensor, Tensor] | None = None) -> ForwardTrace:
    """Run the stacked dual-view encoder.

    With ``per_layer_fusion`` the fused output of each layer feeds both
    next-layer view convolutions; without it each view is encoded
    independently from the input and a single fusion joins the outputs.
    ``x`` is a constant; pass ``propagate_input`` of it as ``propagated``
    to reuse it across passes.
    """
    if propagated is None:
        propagated = propagate_input(x, spatial_norm, feature_norm)
    trace = ForwardTrace(embedding=x)
    z_s = ad.relu(ad.matmul(propagated[0], params.spatial_weights[0]))
    z_f = ad.relu(ad.matmul(propagated[1], params.feature_weights[0]))
    last = params.n_layers - 1
    for i in range(params.n_layers):
        if i > 0:
            in_s, in_f = (z, z) if per_layer_fusion else (z_s, z_f)
            z_s = gcn_layer(spatial_norm, in_s, params.spatial_weights[i])
            z_f = gcn_layer(feature_norm, in_f, params.feature_weights[i])
        trace.spatial_embeddings.append(z_s)
        trace.feature_embeddings.append(z_f)
        if per_layer_fusion or i == last:
            z, m = attention_fuse(z_s, z_f, params.attention_weights[i],
                                  slope=slope, l2_after_softmax=l2_after_softmax)
            trace.fusion_weights.append(m)
    trace.embedding = z
    return trace


def zinb_decode(z: Tensor, params: ModelParams) -> Tensor:
    """The decoder's shared ReLU hidden layer over the embedding. Its three
    heads are applied inside the likelihood node (``losses.zinb_nll``)."""
    return ad.relu(ad.add(ad.matmul(z, params.decoder_hidden_w), params.decoder_hidden_b))


# ---------------------------------------------------------------------------
# checkpointing
#
# Plain-text container: a magic line, then for each tensor a header line
# ``tensor <name> <rows> <cols>`` followed by one line per row of
# space-separated floats printed with repr (shortest round-trip), so
# 64-bit values survive save/load losslessly.


def save_checkpoint(params: ModelParams, path) -> None:
    lines = [CHECKPOINT_MAGIC]
    for name, t in params.named_tensors():
        lines.append(f"tensor {name} {t.rows} {t.cols}")
        for row in t.data.tolist():
            lines.append(" ".join(map(repr, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path) -> ModelParams:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a parameter checkpoint")
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        head = lines[i].split()
        if len(head) != 4 or head[0] != "tensor":
            raise DataError(f"{path}: bad header at line {i + 1}")
        name, rows, cols = head[1], int(head[2]), int(head[3])
        block = lines[i + 1:i + 1 + rows]
        if len(block) != rows:
            raise DataError(f"{path}: truncated tensor {name}")
        arr = np.array([[float(v) for v in line.split()] for line in block])
        if arr.shape != (rows, cols):
            raise DataError(f"{path}: tensor {name} shape mismatch")
        arrays[name] = arr
        i += 1 + rows

    def take(name):
        if name not in arrays:
            raise DataError(f"{path}: missing tensor {name}")
        return Tensor(arrays.pop(name), requires_grad=True)

    spatial, feature, attention = [], [], []
    layer = 0
    while f"spatial_weights.{layer}" in arrays:
        spatial.append(take(f"spatial_weights.{layer}"))
        feature.append(take(f"feature_weights.{layer}"))
        attention.append(take(f"attention_weights.{layer}"))
        layer += 1
    if not spatial:
        raise DataError(f"{path}: no encoder layers found")
    params = ModelParams(
        spatial_weights=spatial,
        feature_weights=feature,
        attention_weights=attention,
        decoder_hidden_w=take("decoder_hidden_w"),
        decoder_hidden_b=take("decoder_hidden_b"),
        dropout_w=take("dropout_w"),
        dropout_b=take("dropout_b"),
        mean_w=take("mean_w"),
        mean_b=take("mean_b"),
        dispersion_w=take("dispersion_w"),
        dispersion_b=take("dispersion_b"),
    )
    if arrays:
        raise DataError(f"{path}: unexpected tensors {sorted(arrays)}")
    return params
