"""Full-batch Adam training of the combined objective.

One run owns its model exclusively; everything is seeded and the loop is
deterministic at any lane-worker count, with BLAS threads pinned: the
engine deals its work, the Adam halves included, to two fixed lanes by
the data's shape alone. Ablation switches drop a loss term
from the graph entirely (so it contributes neither value nor gradient) or
swap per-layer fusion for a single output-level fusion.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .graphs import DEFAULT_KNN_K, DEFAULT_RADIUS, GraphPair
from .losses import (
    LossBreakdown,
    contrastive_loss,
    spatial_reg_loss,
    total_loss,
    zinb_nll,
)
from .model import (
    DECODER_FIELDS,
    DEFAULT_DECODER_HIDDEN,
    DEFAULT_HIDDEN_DIMS,
    DEFAULT_LEAKY_SLOPE,
    ForwardTrace,
    ModelParams,
    encode,
    save_checkpoint,
    zinb_decode,
)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Declared field type, as annotation text (the settings modules postpone
# annotations) -> (accepts, what it asks for). A number is never a bool;
# str fields are checked against their choices by their owners.
_TYPE_RULES = {
    "str": None,
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
}


def check_field_types(settings) -> None:
    """Values from a config file arrive untyped: check every field of the
    dataclass instance ``settings`` against the rule of its declared type."""
    for f in fields(settings):
        rule = _TYPE_RULES[f.type]
        value = getattr(settings, f.name)
        if rule is not None and not rule[0](value):
            raise ContractError(f"{f.name} must be {rule[1]}, got {value!r}")


@dataclass
class TrainConfig:
    """Hyperparameters for one training run. Defaults follow the method's
    reference setting: lr 1e-3, weight decay 5e-4, 200 epochs, loss weights
    (1, 0.001, 0.01), temperature 0.5, radius 550, 15 feature neighbors."""

    lr: float = 0.001
    weight_decay: float = 5e-4
    epochs: int = 200
    alpha: float = 1.0
    lam: float = 0.001
    gamma: float = 0.01
    tau: float = 0.5
    seed: int = 0
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    radius: float = DEFAULT_RADIUS
    knn_k: int = DEFAULT_KNN_K
    decoder_hidden: int = DEFAULT_DECODER_HIDDEN
    leaky_slope: float = DEFAULT_LEAKY_SLOPE
    fusion_l2: bool = True
    contrastive_layers: str = "last"  # or "all": sum the term over every layer
    zinb_target: str = "preprocessed"  # or "counts": raw counts of the kept genes
    disable_fusion: bool = False
    disable_cl: bool = False
    disable_reg: bool = False
    disable_zinb: bool = False

    def __post_init__(self):
        check_field_types(self)
        for name in ("lr", "weight_decay", "alpha", "lam", "gamma", "tau", "radius",
                     "leaky_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        if not math.isfinite(1.0 / self.tau):
            raise ContractError(f"tau must be positive with a finite reciprocal, got {self.tau}")
        if self.radius <= 0:
            raise ContractError(f"radius must be positive, got {self.radius}")
        if self.knn_k < 1:
            raise ContractError(f"knn_k must be >= 1, got {self.knn_k}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if min(self.alpha, self.lam, self.gamma) < 0:
            raise ContractError("loss weights must be nonnegative")
        if self.weight_decay < 0:
            raise ContractError("weight decay must be nonnegative")
        if self.contrastive_layers not in ("last", "all"):
            raise ContractError(f"contrastive_layers must be last|all, got {self.contrastive_layers}")
        if self.zinb_target not in ("preprocessed", "counts"):
            raise ContractError(f"zinb_target must be preprocessed|counts, got {self.zinb_target}")
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ContractError(f"hidden widths must be one or more integers >= 1, "
                                f"got {self.hidden_dims}")
        if self.decoder_hidden < 1:
            raise ContractError(f"decoder_hidden must be >= 1, got {self.decoder_hidden}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class EpochRecord:
    epoch: int
    losses: LossBreakdown
    seconds: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_table(self) -> str:
        """The loss columns of ``loss_table`` and each epoch's seconds."""
        header, *rows = self.loss_table().splitlines()
        lines = [f"{header},seconds"]
        lines += [f"{row},{r.seconds:.6f}" for row, r in zip(rows, self.records)]
        return "\n".join(lines) + "\n"

    def loss_table(self) -> str:
        """The deterministic columns only: what reruns must reproduce
        bitwise (wall-clock durations are inherently irreproducible)."""
        lines = ["epoch,zinb,cl,reg,total"]
        for r in self.records:
            b = r.losses
            lines.append(f"{r.epoch},{b.zinb:.17g},{b.cl:.17g},{b.reg:.17g},{b.total:.17g}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_table(), encoding="utf-8")


# Adam's moment decay rates and the guard added to the step's denominator.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Parameter values below which a step runs both halves in one lane, on the
# calling thread, where the pool task costs more than the second half
# saves. In-process sweeps at 1 BLAS thread on a 2-vCPU VM, over the
# default model's parameters at 200 to 3000 genes: one lane was faster in
# all 7 sweeps up to 670k values (1.6 against 2.0 ms at 154k, 200 genes)
# and in 7 of 9 at 990k; at 1.95M (3000 genes) the two lanes were 1.4-1.8x
# faster in 3 of 9 sweeps and 4-5% slower in 6.
ADAM_POOL_MIN_VALUES = 1_000_000


class Adam:
    """Adam with bias correction; L2 weight decay is added to the gradient
    before the moment updates (coupled form). A step runs in two phases,
    the moments of every parameter and then the steps, each on the
    engine's two lanes, or in one lane on the calling thread when the
    parameters hold fewer than ADAM_POOL_MIN_VALUES values. A second
    moment that leaves the finite range would freeze its
    parameter (every step exactly 0), so between the phases the step raises
    ``NumericError`` naming the first such parameter instead, before any
    parameter moves; ``names`` label the parameters in that message
    (default: their positions)."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0,
                 names: list[str] | None = None):
        self.params = list(params)
        self.names = [f"parameter {i}" for i in range(len(self.params))] \
            if names is None else list(names)
        if len(self.names) != len(self.params):
            raise ContractError(f"{len(self.names)} names for {len(self.params)} parameters")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        for p in self.params:
            # the step writes each parameter through a flat view of its data
            p.data = np.ascontiguousarray(p.data)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                raise ContractError("adam step before gradients were populated")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        # Every update is elementwise, so it is cut into two flat halves,
        # one per engine lane: lane 0 takes the first half of each
        # parameter's elements, rounded up, and lane 1 the rest.
        halves = ([], [])
        for p, m, v in zip(self.params, self.m, self.v):
            flat = (p.data.reshape(-1), np.ravel(p.grad), m.reshape(-1), v.reshape(-1))
            mid = (p.data.size + 1) // 2
            halves[0].append(tuple(a[:mid] for a in flat))
            halves[1].append(tuple(a[mid:] for a in flat))
        if sum(p.data.size for p in self.params) < ADAM_POOL_MIN_VALUES:
            halves = (halves[0] + halves[1], [])
        # One call-scoped scratch pair per lane, half the largest parameter,
        # holds every temporary of every update in that lane.
        size = (max((p.data.size for p in self.params), default=0) + 1) // 2

        # The in-place form of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
        # and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), operation for
        # operation, so every update is bitwise that of the expression.
        def moments(peaks, half, _lane, a, b):
            p, g, m, v = half
            a, b = a[:p.size], b[:p.size]
            if self.weight_decay != 0.0:
                g = np.add(g, np.multiply(self.weight_decay, p, out=a), out=a)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=b)
            v *= ADAM_BETA2
            v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=b), out=b)
            # v >= 0, and max propagates NaN: one reduction, no mask
            return peaks + (v.max(initial=0.0),)

        def steps(total, half, _lane, a, b):
            p, _, m, v = half
            a, b = a[:p.size], b[:p.size]
            step = np.multiply(self.lr, np.divide(m, bc1, out=a), out=a)
            denom = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
            p -= np.divide(step, denom, out=a)
            return total

        def workspace():
            return np.empty(size), np.empty(size)

        # an overflow surfaces as the typed error below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            peaks = ad._lanes(halves, workspace, moments, ())
            count = len(self.params)
            for name, first, second in zip(self.names, peaks[:count], peaks[count:]):
                if not (math.isfinite(first) and math.isfinite(second)):
                    raise NumericError(f"Adam step {self.t}: the second moment of {name} is "
                                       "not finite (its squared gradient, weight decay "
                                       "included, overflowed)")
            ad._lanes(halves, workspace, steps)

    def zero_grad(self) -> None:
        ad.zero_grad(self.params)


class TrainResult(NamedTuple):
    params: ModelParams
    trace: ForwardTrace
    log: TrainLog


def trainable_tensors(params: ModelParams, cfg: TrainConfig) -> list[Tensor]:
    """Parameters that participate in the configured objective; ablations
    drop the tensors their disabled paths would leave without gradients."""
    attention = params.attention_weights[-1:] if cfg.disable_fusion else params.attention_weights
    tensors = params.spatial_weights + params.feature_weights + attention
    if not cfg.disable_zinb:
        tensors += [getattr(params, name) for name in DECODER_FIELDS]
    return tensors


def _reconstruction_target(dataset, cfg: TrainConfig) -> tuple[np.ndarray, bool]:
    """Matrix the decoder reconstructs, and whether it is integer counts."""
    if dataset.preprocessed is None:
        raise ContractError("dataset must be preprocessed before training")
    if cfg.zinb_target == "counts":
        if dataset.selected_idx is None:
            raise ContractError("counts target needs the kept-gene index from preprocessing")
        if dataset.counts is None:
            raise ContractError("counts target needs the raw counts, which this dataset "
                                "no longer holds")
        return dataset.counts[:, dataset.selected_idx], True
    return dataset.preprocessed, False


def forward(x: Tensor, graphs: GraphPair, params: ModelParams, cfg: TrainConfig) -> ForwardTrace:
    """Encode ``x`` with the configured attention settings and fusion."""
    return encode(x, graphs.spatial_norm, graphs.feature_norm, params,
                  slope=cfg.leaky_slope, l2_after_softmax=cfg.fusion_l2,
                  per_layer_fusion=not cfg.disable_fusion)


def run_epoch(x: Tensor, target: np.ndarray | ad.ZinbTarget, target_is_counts: bool,
              graphs: GraphPair, params: ModelParams, cfg: TrainConfig,
              ) -> tuple[Tensor, LossBreakdown, ForwardTrace]:
    """One forward pass and loss assembly (no optimizer side effects).
    ``target`` and ``target_is_counts`` are what ``_reconstruction_target``
    returns, or ``target`` is the ``ZinbTarget`` already built from them."""
    trace = forward(x, graphs, params, cfg)

    zinb_term = None
    if not cfg.disable_zinb:
        if not isinstance(target, ad.ZinbTarget):
            target = ad.ZinbTarget(target, require_integer=target_is_counts)
        zinb_term = zinb_nll(target, zinb_decode(trace.embedding, params), params)

    cl_term = None
    if not cfg.disable_cl:
        views = trace.views if cfg.contrastive_layers == "all" else trace.views[-1:]
        cl_term = functools.reduce(ad.add, [contrastive_loss(z, cfg.tau) for z in views])

    reg_term = None
    if not cfg.disable_reg:
        # The regularizer is a sum over all N^2 - N ordered pairs; reduce it
        # to a per-pair mean so the configured weight is commensurate with
        # the mean-reduced reconstruction and contrastive terms.
        n = x.rows
        reg_term = ad.scale(spatial_reg_loss(trace.embedding, graphs.spatial),
                            1.0 / max(n * n - n, 1))

    total, breakdown = total_loss(zinb_term, cl_term, reg_term,
                                  cfg.alpha, cfg.lam, cfg.gamma)
    return total, breakdown, trace


def train(dataset, graphs: GraphPair, cfg: TrainConfig,
          checkpoint_dir=None, checkpoint_every: int = 0) -> TrainResult:
    """Train for ``cfg.epochs`` full-batch epochs and return the final
    parameters, a fresh post-training forward trace, and the loss log."""
    if cfg.disable_zinb and cfg.disable_cl and cfg.disable_reg:
        raise ContractError("all loss terms are disabled; nothing to train")
    target, target_is_counts = _reconstruction_target(dataset, cfg)
    # the input is a constant, so the tensor holds the dataset's own matrix
    x = Tensor(dataset.preprocessed, copy=False)
    if graphs.spatial.n != x.rows:
        raise ContractError(f"graphs built for {graphs.spatial.n} spots, data has {x.rows}")

    rng = np.random.default_rng(cfg.seed)
    dims = [x.cols, *cfg.hidden_dims]
    params = ModelParams.initialize(rng, dims, recon_width=target.shape[1],
                                    decoder_hidden=cfg.decoder_hidden)
    tensors = trainable_tensors(params, cfg)
    name_of = {id(t): name for name, t in params.named_tensors()}
    optimizer = Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay,
                     names=[name_of[id(t)] for t in tensors])
    log = TrainLog()
    if not cfg.disable_zinb:
        # count constants once per run, not once per epoch
        target = ad.ZinbTarget(target, require_integer=target_is_counts)

    # An overflow or invalid value surfaces through the typed checks (the
    # loss components, the Adam moments, the final embedding), not as a
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            # The last epoch's gradients go before this epoch allocates: the
            # parameters drop them here, and backward left none on the op
            # outputs. Its forward trace, kept in ``_``, holds activations
            # only (11 MiB at 2500 x 200) and lives until this epoch's
            # forward returns; dropping it sooner lowers the peak but lets
            # the heap shrink and regrow every epoch, which costs page
            # faults and time.
            optimizer.zero_grad()
            total, breakdown, _ = run_epoch(x, target, target_is_counts, graphs, params, cfg)
            for name, value in (("zinb", breakdown.zinb), ("cl", breakdown.cl),
                                ("reg", breakdown.reg), ("total", breakdown.total)):
                if not np.isfinite(value):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}: component '{name}' = {value}")
            ad.backward(total)
            del total  # the graph's closures hold the gradients too
            optimizer.step()
            log.records.append(EpochRecord(epoch, breakdown, time.perf_counter() - started))
            if (checkpoint_dir is not None and checkpoint_every > 0
                    and epoch % checkpoint_every == 0):
                save_checkpoint(params, Path(checkpoint_dir) / f"params_epoch{epoch:05d}.txt")

        trace = forward(x, graphs, params, cfg)
    if not np.isfinite(trace.embedding.data).all():
        raise NumericError(f"non-finite final embedding after epoch {cfg.epochs}: "
                           "the last update left the finite range")
    if checkpoint_dir is not None:
        save_checkpoint(params, Path(checkpoint_dir) / "params_final.txt")
    return TrainResult(params=params, trace=trace, log=log)
