"""Dual-view GCN encoder with per-layer attention fusion, plus the
parameters of the ZINB decoder that drives reconstruction.

The encoder alternates, for each layer: one graph convolution per view on
the shared fused input, then an attention step that mixes the two view
embeddings row-wise into the next layer's input. Each convolution is one
engine node (``autodiff.graph_conv``) computing A (Z W), so the first
layer reads the input X directly and its sparse products run on the layer
width, never on the gene width; each attention step is one node too
(``autodiff.view_attention``). A late-fusion variant
(each view encoded independently, one fusion at the output) backs the
"w/o mf" ablation. The decoder's hidden layer
is one ``graph_conv`` node without propagation; its three heads have no
nodes of their own: the likelihood node applies them to the hidden layer
(``zinb_decode``) block by block, and a trace holds encoder outputs only.
"""

from __future__ import annotations

import math
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


def encode(x: Tensor, spatial_norm: SparseMatrix, feature_norm: SparseMatrix,
           params: ModelParams, slope: float = DEFAULT_LEAKY_SLOPE,
           l2_after_softmax: bool = True, per_layer_fusion: bool = True) -> ForwardTrace:
    """Run the stacked dual-view encoder.

    With ``per_layer_fusion`` the fused output of each layer feeds both
    next-layer view convolutions; without it each view is encoded
    independently from the input and a single fusion joins the outputs.
    Each fusion is ``ad.view_attention`` with LeakyReLU ``slope``; with
    ``l2_after_softmax`` its weight rows have unit norm instead of unit sum.
    """
    trace = ForwardTrace(embedding=x)
    z = z_s = z_f = x
    last = params.n_layers - 1
    for i in range(params.n_layers):
        in_s, in_f = (z, z) if per_layer_fusion else (z_s, z_f)
        z_s = ad.graph_conv(in_s, params.spatial_weights[i], spatial_norm)
        z_f = ad.graph_conv(in_f, params.feature_weights[i], feature_norm)
        trace.spatial_embeddings.append(z_s)
        trace.feature_embeddings.append(z_f)
        if per_layer_fusion or i == last:
            z, m = ad.view_attention(z_s, z_f, params.attention_weights[i], slope,
                                     l2_after_softmax)
            trace.fusion_weights.append(m)
    trace.embedding = z
    return trace


def zinb_decode(z: Tensor, params: ModelParams) -> Tensor:
    """The decoder's shared ReLU hidden layer over the embedding. Its three
    heads are applied inside the likelihood node (``losses.zinb_nll``)."""
    return ad.graph_conv(z, params.decoder_hidden_w, bias=params.decoder_hidden_b)


# ---------------------------------------------------------------------------
# checkpointing
#
# Plain-text container: a magic line, then for each tensor a header line
# ``tensor <name> <rows> <cols>`` followed by one line per row of
# space-separated floats printed with repr (shortest round-trip), so
# 64-bit values survive save/load losslessly.


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the checkpoint one row at a time: the text of the whole
    checkpoint, or of one tensor, is never held."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        for name, t in params.named_tensors():
            fh.write(f"tensor {name} {t.rows} {t.cols}\n")
            for row in t.data:
                fh.write(" ".join(map(repr, row.tolist())) + "\n")


def _checkpoint_row(line: str, cols: int, where: str) -> list[float]:
    try:
        values = [float(v) for v in line.split()]
    except ValueError:
        raise DataError(f"{where}: not a number") from None
    if len(values) != cols:
        raise DataError(f"{where}: expected {cols} values, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise DataError(f"{where}: values must be finite")
    return values


def load_checkpoint(path) -> ModelParams:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
        name = head[1]
        try:
            rows, cols = int(head[2]), int(head[3])
        except ValueError:
            raise DataError(f"{path} line {i + 1}: tensor {name} has a non-integer shape") from None
        block = lines[i + 1:i + 1 + rows]
        if len(block) != rows:
            raise DataError(f"{path}: truncated tensor {name}")
        arr = np.array([_checkpoint_row(line, cols, f"{path} line {i + 2 + r}")
                        for r, line in enumerate(block)])
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
