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

import math
from dataclasses import dataclass, field, fields
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
    """Every learnable tensor, declared in checkpoint order: per encoder layer
    (the ``list[Tensor]`` fields) two view weights and the attention weight
    that fuses them; then the shared decoder hidden layer and its three ZINB
    heads, each a weight and a bias. Everything else walks these fields."""

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

    @staticmethod
    def _layout(n_layers: int) -> list[tuple[str, str, int | None]]:
        """``(name, field, layer)`` of every tensor in checkpoint order;
        ``layer`` is None for a decoder tensor."""
        return ([(f"{kind}.{i}", kind, i) for i in range(n_layers) for kind in LAYER_FIELDS]
                + [(name, name, None) for name in DECODER_FIELDS])

    @classmethod
    def _build(cls, n_layers: int, make) -> "ModelParams":
        """The parameters holding ``make(name, field, layer)``, called in
        checkpoint order."""
        values: dict = {kind: [] for kind in LAYER_FIELDS}
        for name, kind, layer in cls._layout(n_layers):
            t = Tensor(make(name, kind, layer), requires_grad=True)
            if layer is None:
                values[kind] = t
            else:
                values[kind].append(t)
        return cls(**values)

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

        def make(_name, kind, layer):
            shape = cls._shape(kind, layer, layer_dims, decoder_hidden, recon_width)
            return np.zeros(shape) if kind.endswith("_b") else glorot(rng, *shape)

        return cls._build(len(layer_dims) - 1, make)

    @staticmethod
    def _shape(kind: str, layer: int | None, layer_dims: list[int], decoder_hidden: int,
               recon_width: int) -> tuple[int, int]:
        """Shape of the tensor ``(kind, layer)`` of the layout for the
        dimension chain ``layer_dims``, a decoder hidden layer
        ``decoder_hidden`` wide and ``recon_width`` genes."""
        if layer is None:  # the hidden layer, then the heads on its output
            fan_in, width = ((layer_dims[-1], decoder_hidden)
                             if kind.startswith("decoder_hidden")
                             else (decoder_hidden, recon_width))
            return (fan_in, width) if kind.endswith("_w") else (1, width)
        d_out = layer_dims[layer + 1]
        # the attention weight scores the concatenated view pair
        return (2 * d_out, 2) if kind == "attention_weights" else (layer_dims[layer], d_out)

    @property
    def n_layers(self) -> int:
        return len(self.spatial_weights)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, kind) if layer is None else getattr(self, kind)[layer])
                for name, kind, layer in self._layout(self.n_layers)]


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
        if name in arrays:
            raise DataError(f"{path} line {i + 1}: tensor {name} appears twice")
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

    n_layers = 0
    while f"{LAYER_FIELDS[0]}.{n_layers}" in arrays:
        n_layers += 1
    if not n_layers:
        raise DataError(f"{path}: no encoder layers found")

    def present(name):
        if name not in arrays:
            raise DataError(f"{path}: missing tensor {name}")
        return arrays[name]

    # The chain the shapes must follow: the spatial view weights give the
    # layer widths, the decoder hidden weight its width, the dropout head
    # the gene width; every tensor, those included, is checked against it.
    spatial = [present(f"{LAYER_FIELDS[0]}.{i}").shape for i in range(n_layers)]
    layer_dims = [spatial[0][0], *(shape[1] for shape in spatial)]
    decoder_hidden = present("decoder_hidden_w").shape[1]
    recon_width = present("dropout_w").shape[1]

    def take(name, kind, layer):
        arr = present(name)
        want = ModelParams._shape(kind, layer, layer_dims, decoder_hidden, recon_width)
        if arr.shape != want:
            raise DataError(f"{path}: tensor {name} is {arr.shape[0]}x{arr.shape[1]}, "
                            f"the layer chain needs {want[0]}x{want[1]}")
        return arrays.pop(name)

    params = ModelParams._build(n_layers, take)
    if arrays:
        raise DataError(f"{path}: unexpected tensors {sorted(arrays)}")
    return params
