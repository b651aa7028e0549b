"""Run ``python -m stmfg <args>`` with timing hooks installed from outside.

Usage: python child.py --mode {mark,setup,trace} --report PATH -- <stmfg args>

The hooks replace names in the program's modules (``stmfg.cli.train``,
``stmfg.autodiff.matmul``, ...) with wrappers that record a span per call:
name, parent span, start and end on the system-wide monotonic clock, and
for the memory stages (the three losses and ``backward``) the peak of the
memory allocated inside the call and still live, which ``tracemalloc``
traces for the duration of those calls only (numpy reports to it).
Nothing under ``src/`` is edited; the program computes exactly what it
computes without the hooks.

Modes:
  mark   wrap only ``stmfg.cli.train``: its entry/exit times, the epoch
         times from the returned ``TrainLog`` and digests of the loss table
         and embedding (used by the end-to-end run; one span per training)
  setup  stop the child at the first entry into ``train()`` (set-up probe)
  trace  wrap every layer boundary (traced run)

Spans are kept in memory and written to the report as JSON when the child
exits, together with the child's ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import resource
import runpy
import sys
import time
import tracemalloc

clock = time.monotonic

# (module, attribute, span name, records a memory peak); peak spans never nest
LAYER_HOOKS = [
    ("stmfg.cli", "load_dataset", "data.load", False),
    ("stmfg.cli", "preprocess", "data.preprocess", False),
    ("stmfg.cli", "build_graph_pair", "graphs.build", False),
    ("stmfg.cli", "kmeans", "clustering.kmeans", False),
    ("stmfg.cli", "save_embeddings", "data.save_embeddings", False),
    ("stmfg.cli", "save_labels", "data.save_labels", False),
    ("stmfg.cli", "save_metrics", "data.save_metrics", False),
    ("stmfg.training", "encode", "model.encode", False),
    ("stmfg.training", "zinb_decode", "model.decode", False),
    ("stmfg.training", "zinb_nll", "losses.zinb", True),
    ("stmfg.training", "contrastive_loss", "losses.contrastive", True),
    ("stmfg.training", "spatial_reg_loss", "losses.spatial_reg", True),
]
PEAK_OPS = {"backward"}


class SetupDone(BaseException):
    """Raised at the first entry into ``train()`` in setup mode."""


class Tracer:
    """Span recorder. A span is ``[name, parent, start, end, peak, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, peak: bool = False, info=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, None, None])
            stack.append(idx)
            if peak:
                tracemalloc.start(1)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if peak:
                    spans[idx][4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span = spans[idx]
            span[2], span[3] = start, end
            if info is not None:
                span[5] = info(args, out)
            return out

        setattr(owner, attr, functools.wraps(fn)(traced))


def _variant(cfg) -> str:
    from stmfg.cli import ABLATION_VARIANTS
    switches = ("disable_fusion", "disable_cl", "disable_reg", "disable_zinb")
    enabled = {key for key in switches if getattr(cfg, key)}
    for variant, overrides in ABLATION_VARIANTS.items():
        if set(overrides) == enabled:
            return variant
    return "other"


def _train_info(args, result) -> dict:
    dataset, _, cfg = args[:3]
    n, genes = dataset.preprocessed.shape
    return {
        "variant": _variant(cfg),
        "n": n,
        "genes": genes,
        "epoch_s": [r.seconds for r in result.log.records],
        "loss_sha": hashlib.sha256(result.log.loss_table().encode()).hexdigest(),
        "emb_sha": hashlib.sha256(result.trace.embedding.data.tobytes()).hexdigest(),
    }


def _graph_info(args, graphs) -> dict:
    return {"spatial_nnz": graphs.spatial.nnz, "feature_nnz": graphs.feature.nnz}


def _shape_info(args, out):
    data = getattr(out, "data", None)
    return list(data.shape) if data is not None else None


def install(mode: str, tracer: Tracer) -> None:
    import stmfg.autodiff as ad
    import stmfg.cli as cli
    import stmfg.training as training

    if mode == "setup":
        def stop_at_train(*args, **kwargs):
            tracer.spans.append(["training.train", -1, clock(), clock(), None, None])
            raise SetupDone
        cli.train = stop_at_train
        return

    tracer.wrap(cli, "train", "training.train", info=_train_info)
    if mode == "mark":
        return

    for module, attr, name, peak in LAYER_HOOKS:
        tracer.wrap(importlib.import_module(module), attr, name, peak=peak,
                    info=_graph_info if attr == "build_graph_pair" else None)
    tracer.wrap(training.Adam, "step", "training.adam_step")
    for op in ad.__all__:
        fn = getattr(ad, op)
        if callable(fn) and not isinstance(fn, type):
            tracer.wrap(ad, op, f"autodiff.{op}", peak=op in PEAK_OPS, info=_shape_info)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("mark", "setup", "trace"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tracer = Tracer()
    install(opts.mode, tracer)
    code = 0
    try:
        sys.argv = ["stmfg", *argv]
        runpy.run_module("stmfg", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except SetupDone:
        code = 0
    finally:
        report = {
            "mode": opts.mode,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans,
        }
        with open(opts.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
