"""Dual-view GCN encoder with per-layer attention fusion, plus the
parameters of the ZINB decoder that drives reconstruction.

The encoder alternates, for each layer: one graph convolution per view on
the shared fused input, then an attention step that mixes the two view
embeddings row-wise into the next layer's input. A layer's two
convolutions are one engine node (``autodiff.graph_conv_views``) whose
output stacks the views, 2n rows with the spatial view's first, each
computing A (Z W), so the first layer reads the input X directly and its
sparse products run on the layer width, never on the gene width; the
node runs each view's dense products in its own lane of the engine's
two, forward and backward, and every sparse product on the calling
thread (the lanes also take the fused loss nodes' tiles and the halves
of each Adam update). Each attention step is
one node too (``autodiff.view_attention``), and it and the contrastive
loss read the stack as it is. A late-fusion variant (each view encoded
independently, the next layer reading each view's half of the stack, one
fusion at the output) backs the "w/o mf" ablation. The decoder's hidden
layer is one dense ``graph_conv`` node; its three heads
have no nodes of their own: the likelihood node applies them to the
hidden layer (``zinb_decode``) block by block, and a trace holds encoder
outputs only.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import SparseMatrix, Tensor
from .errors import ContractError

DEFAULT_HIDDEN_DIMS = (128, 64)
DEFAULT_DECODER_HIDDEN = 128
DEFAULT_LEAKY_SLOPE = 0.2

CHECKPOINT_MAGIC = "stmfg-params v2"


@dataclass
class ModelParams:
    """Every learnable tensor, declared in checkpoint order: per encoder layer
    (the ``list[Tensor]`` fields) two view weights and the attention weight
    that fuses them; then the shared decoder hidden layer and its three ZINB
    heads, each a weight and a bias. ``LAYER_FIELDS`` and ``DECODER_FIELDS``
    name the two groups; ``named_tensors`` and the trainer walk them."""

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
        """Seeded Glorot-uniform weights, drawn in checkpoint order, for the
        dimension chain ``layer_dims[0] -> ... -> layer_dims[-1]`` and a
        decoder mapping the final embedding to ``recon_width`` genes; zero
        biases."""
        if len(layer_dims) < 2:
            raise ContractError("layer_dims needs an input width and at least one output width")

        def weight(fan_in: int, fan_out: int) -> Tensor:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)

        def bias(width: int) -> Tensor:
            return Tensor(np.zeros((1, width)), requires_grad=True)

        spatial, feature, attention = [], [], []
        for d_in, d_out in zip(layer_dims, layer_dims[1:]):
            spatial.append(weight(d_in, d_out))
            feature.append(weight(d_in, d_out))
            # the attention weight scores the concatenated view pair
            attention.append(weight(2 * d_out, 2))
        decoder = [weight(layer_dims[-1], decoder_hidden), bias(decoder_hidden)]
        for _head in ("dropout", "mean", "dispersion"):
            decoder += [weight(decoder_hidden, recon_width), bias(recon_width)]
        return cls(spatial, feature, attention, *decoder)

    @property
    def n_layers(self) -> int:
        return len(self.spatial_weights)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return ([(f"{kind}.{i}", getattr(self, kind)[i])
                 for i in range(self.n_layers) for kind in LAYER_FIELDS]
                + [(name, getattr(self, name)) for name in DECODER_FIELDS])


LAYER_FIELDS = tuple(f.name for f in fields(ModelParams) if f.type == "list[Tensor]")
DECODER_FIELDS = tuple(f.name for f in fields(ModelParams) if f.name not in LAYER_FIELDS)


@dataclass
class ForwardTrace:
    """The intermediates of one encoder pass: per layer the two views, one
    2n-by-d tensor whose top n rows are the spatial view and the rest the
    feature view, and per fusion its constant weights."""

    embedding: Tensor
    views: list[Tensor] = field(default_factory=list)
    fusion_weights: list[Tensor] = field(default_factory=list)


def encode(x: Tensor, spatial_norm: SparseMatrix, feature_norm: SparseMatrix,
           params: ModelParams, slope: float = DEFAULT_LEAKY_SLOPE,
           l2_after_softmax: bool = True, per_layer_fusion: bool = True) -> ForwardTrace:
    """Run the stacked dual-view encoder.

    With ``per_layer_fusion`` the fused output of each layer feeds both
    next-layer view convolutions; without it each view is encoded
    independently from the input, each layer's views reading their own
    halves of the previous layer's stack, and a single fusion joins the
    outputs.
    Each fusion is ``ad.view_attention`` with LeakyReLU ``slope``; with
    ``l2_after_softmax`` its weight rows have unit norm instead of unit sum.
    """
    trace = ForwardTrace(embedding=x)
    z = x
    last = params.n_layers - 1
    for i in range(params.n_layers):
        z = ad.graph_conv_views(z, (params.spatial_weights[i], spatial_norm),
                                (params.feature_weights[i], feature_norm))
        trace.views.append(z)
        if per_layer_fusion or i == last:
            z, m = ad.view_attention(z, params.attention_weights[i], slope, l2_after_softmax)
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
# A written artifact; nothing in the package reads one back, ``np.load``
# does. An uncompressed zip, the archive comment
# ``CHECKPOINT_MAGIC``, holding one ``<name>.npy`` entry per tensor of
# ``named_tensors``, in that order: each the tensor's float64 values as
# ``np.lib.format`` writes them, so every 64-bit value reads back exactly.
# Each entry's timestamp is fixed, where ``np.savez`` stamps the wall
# clock, so the same parameters always give the same bytes.

CHECKPOINT_DATE = (1980, 1, 1, 0, 0, 0)  # the earliest date a zip entry can hold


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the checkpoint one tensor at a time: beyond the parameters,
    at most one tensor's bytes are held."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        archive.comment = CHECKPOINT_MAGIC.encode("ascii")
        for name, t in params.named_tensors():
            entry = zipfile.ZipInfo(f"{name}.npy", date_time=CHECKPOINT_DATE)
            # the entry's size is unknown when it opens; zip64, as in
            # np.savez, lets it pass 2 GiB
            with archive.open(entry, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, t.data, allow_pickle=False)
