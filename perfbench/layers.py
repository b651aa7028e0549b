"""Per-layer metrics from the spans of one traced child run.

Epoch ``i`` of a training is everything that starts after the end of its
``i-1``-th Adam step and no later than the end of its ``i``-th; what runs
after the last step (the extra final forward) is post-epoch work. Stage
times (``model.*_ms``, ``losses.*_ms``, ``autodiff.backward_ms``,
``training.adam_ms``) are inclusive span times summed per epoch, reported
as the median over the epochs in which the stage ran. Operation times are
self times: a span's duration minus that of its child spans.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

MIB = 1024.0 * 1024.0

STAGES = {
    "model.encode_ms": "model.encode",
    "model.decode_ms": "model.decode",
    "losses.zinb_ms": "losses.zinb",
    "losses.contrastive_ms": "losses.contrastive",
    "losses.spatial_reg_ms": "losses.spatial_reg",
    "autodiff.backward_ms": "autodiff.backward",
    "training.adam_ms": "training.adam_step",
}
PEAKS = {
    "losses.zinb_peak_mib": "losses.zinb",
    "losses.contrastive_peak_mib": "losses.contrastive",
    "losses.spatial_reg_peak_mib": "losses.spatial_reg",
    "autodiff.backward_peak_mib": "autodiff.backward",
}
TOTALS_S = {
    "data.load_s": ("data.load",),
    "data.preprocess_s": ("data.preprocess",),
    "data.write_s": ("data.save_embeddings", "data.save_labels", "data.save_metrics"),
    "graphs.build_s": ("graphs.build",),
    "clustering.kmeans_s": ("clustering.kmeans",),
}
# Calls into the engine that are not forward tensor operations.
NOT_FORWARD = {"autodiff.backward", "autodiff.zero_grad", "autodiff.grad_check"}
COUNTS = ("ops", "nn_outputs", "ng_outputs", "out_bytes")


def per_layer(spans: list[list], spawned_at: float) -> tuple[dict, dict]:
    """Return (metrics by name, exact counts by name). A count that is not
    identical in every epoch of a training raises ``ValueError``."""
    n_spans = len(spans)
    duration = [s[3] - s[2] for s in spans]
    child_time = [0.0] * n_spans
    has_child_op = [False] * n_spans
    root = list(range(n_spans))
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            root[i] = root[parent]
            if name.startswith("autodiff."):
                has_child_op[parent] = True

    trains = [i for i, s in enumerate(spans) if s[0] == "training.train"]
    step_ends: dict[int, list[float]] = {t: [] for t in trains}
    for i, s in enumerate(spans):
        if s[0] == "training.adam_step" and root[i] in step_ends:
            step_ends[root[i]].append(s[3])

    stage = defaultdict(float)    # (train, epoch, span name) -> inclusive seconds
    op_self = defaultdict(float)  # (train, epoch, op) -> self seconds
    peak = defaultdict(int)       # span name -> largest peak bytes in any epoch
    counts = defaultdict(lambda: dict.fromkeys(COUNTS, 0))  # (train, epoch) -> counts
    for i, (name, _parent, start, _end, peak_bytes, info) in enumerate(spans):
        train = root[i]
        if train not in step_ends or train == i:
            continue
        epoch = bisect.bisect_left(step_ends[train], start)
        if epoch >= len(step_ends[train]):
            continue  # post-epoch forward
        key = (train, epoch)
        stage[key + (name,)] += duration[i]
        if peak_bytes is not None:
            peak[name] = max(peak[name], peak_bytes)
        if name.startswith("autodiff."):
            op_self[key + (name[len("autodiff."):],)] += duration[i] - child_time[i]
            if name in NOT_FORWARD:
                continue
            tally = counts[key]
            tally["ops"] += 1
            if info and not has_child_op[i]:  # leaf op: its output is a fresh buffer
                n, genes = spans[train][5]["n"], spans[train][5]["genes"]
                rows, cols = info
                tally["nn_outputs"] += (rows, cols) == (n, n)
                tally["ng_outputs"] += (rows, cols) == (n, genes)
                tally["out_bytes"] += rows * cols * 8

    epochs = [(t, e) for t in trains for e in range(len(step_ends[t]))]
    for t in trains:
        per_epoch = {tuple(counts[(t, e)].values()) for e in range(len(step_ends[t]))}
        if len(per_epoch) > 1:
            raise ValueError(f"operation counts differ between epochs of one training: {per_epoch}")

    def median_over_epochs(table, name):
        values = [table[(t, e, name)] for t, e in epochs if (t, e, name) in table]
        return statistics.median(values) if values else 0.0

    metrics = {}
    for metric, name in STAGES.items():
        metrics[metric] = 1000.0 * median_over_epochs(stage, name)
    for metric, name in PEAKS.items():
        metrics[metric] = peak[name] / MIB
    for metric, names in TOTALS_S.items():
        metrics[metric] = sum((duration[i] for i, s in enumerate(spans) if s[0] in names), 0.0)
    ops = {key[2] for key in op_self}
    for op in ops:
        metrics[f"autodiff.op_self_ms.{op}"] = 1000.0 * median_over_epochs(op_self, op)

    exact = {}
    for s in spans:
        if s[0] == "graphs.build":
            exact["graphs.spatial_nnz"] = s[5]["spatial_nnz"]
            exact["graphs.feature_nnz"] = s[5]["feature_nnz"]
    total = {c: sum(counts[key][c] for key in epochs) for c in COUNTS}
    for c in ("ops", "nn_outputs", "ng_outputs"):
        exact[f"autodiff.{c}_per_epoch"] = total[c] / len(epochs)
    metrics.update(exact)
    metrics["autodiff.op_out_mib_per_epoch"] = total["out_bytes"] / len(epochs) / MIB

    post = 0.0
    for t in trains:
        post += duration[t] - sum(spans[t][5]["epoch_s"])
        variant = spans[t][5]["variant"]
        key = f"cli.variant_train_s.{variant}"
        metrics[key] = metrics.get(key, 0.0) + duration[t]
    metrics["training.post_epoch_s"] = post
    metrics["cli.startup_s"] = min(s[2] for s in spans) - spawned_at
    return metrics, exact
