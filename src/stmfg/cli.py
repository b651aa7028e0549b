"""Command-line entry point wiring the pipeline into reproducible runs.

Commands:
  synth    write a synthetic layered-tissue dataset
  run      load -> preprocess -> graphs -> train -> cluster -> evaluate
  ablate   run the component-ablation variants over shared seeds
  sweep    grid over loss weights / temperature, emitting per-cell metrics

Every command writes ``manifest.json`` into the output directory before
doing any work; ``run --from-manifest`` replays a previous run exactly.
Exit codes: 2 malformed data, 3 contract violation, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import DEFAULT_RESTARTS, ari, kmeans, nmi
from .data import (
    DEFAULT_MIN_SPOTS,
    DEFAULT_N_HVG,
    Dataset,
    generate_synthetic,
    load_dataset,
    preprocess,
    save_embeddings,
    save_labels,
    save_metrics,
    write_coords_csv,
    write_expression_csv,
    write_labels_csv,
)
from .errors import ContractError, DataError, NumericError, StmfgError
from .graphs import build_graph_pair
from .training import TrainConfig, check_field_types, train

ABLATION_VARIANTS = {
    "full": {},
    "no_mf": {"disable_fusion": True},
    "no_cl": {"disable_cl": True},
    "no_reg": {"disable_reg": True},
    "no_zinb": {"disable_zinb": True},
}


@dataclass
class PipelineSettings:
    """The settings a config file may hold beyond TrainConfig."""

    clusters: int | None = None  # None: the number of labelled domains
    restarts: int = DEFAULT_RESTARTS
    min_spots: int = DEFAULT_MIN_SPOTS
    n_hvg: int = DEFAULT_N_HVG
    checkpoint_every: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.clusters is not None and self.clusters < 2:
            raise ContractError(f"clusters must be >= 2, got {self.clusters}")
        for name, least in (("restarts", 1), ("min_spots", 1), ("n_hvg", 1),
                            ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise ContractError(f"{name} must be >= {least}, got {getattr(self, name)}")


PIPELINE_KEYS = tuple(f.name for f in fields(PipelineSettings))


def _comma_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _comma_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_io_flags(p: argparse.ArgumentParser, labels_help: str) -> None:
    p.add_argument("--expression", help="expression matrix (.csv or .mtx)")
    p.add_argument("--coords", help="spot coordinates CSV")
    p.add_argument("--labels", help=labels_help)
    p.add_argument("--out", required=True, help="output directory")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--dims", dest="hidden_dims", type=_comma_ints,
                   help="hidden layer widths, e.g. 128,64")
    p.add_argument("--radius", type=float)
    p.add_argument("--knn", dest="knn_k", type=int)
    p.add_argument("--decoder-hidden", dest="decoder_hidden", type=int)
    p.add_argument("--leaky-slope", dest="leaky_slope", type=float)
    p.add_argument("--no-fusion-l2", dest="fusion_l2", action="store_false", default=None)
    p.add_argument("--contrastive-layers", dest="contrastive_layers",
                   choices=("last", "all"))
    p.add_argument("--zinb-target", dest="zinb_target", choices=("preprocessed", "counts"))
    p.add_argument("--disable-fusion", action="store_true", default=None)
    p.add_argument("--disable-cl", dest="disable_cl", action="store_true", default=None)
    p.add_argument("--disable-reg", dest="disable_reg", action="store_true", default=None)
    p.add_argument("--disable-zinb", dest="disable_zinb", action="store_true", default=None)
    p.add_argument("--clusters", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--min-spots", dest="min_spots", type=int)
    p.add_argument("--hvg", dest="n_hvg", type=int)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)


def _load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"{path}: config file not found") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return raw


def _resolve(args, train_keys_from=None) -> tuple[TrainConfig, PipelineSettings]:
    """Merge defaults < config file < explicit flags."""
    merged: dict = {}
    if train_keys_from:
        merged.update(train_keys_from)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    train_fields = set(TrainConfig.__dataclass_fields__)
    for key in list(train_fields) + list(PIPELINE_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    pipeline = PipelineSettings(**{k: merged.pop(k) for k in PIPELINE_KEYS if k in merged})
    unknown = set(merged) - train_fields
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig.from_dict(merged), pipeline


def _write_manifest(out_dir: Path, command: str, **fields) -> None:
    manifest = {
        "tool": "stmfg",
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": command,
        "out_dir": str(out_dir.resolve()),
        **fields,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _output_dir(path) -> Path:
    """The output directory ``path``, made with its parents if missing; a
    path that names a file, or lies under one, is refused."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ContractError(f"--out {path}: not a directory (a file is in the way)") from None
    return out_dir


def _pipeline_manifest(args, cfg: TrainConfig, pipeline: PipelineSettings) -> dict:
    """The manifest fields of a command that trains: inputs and settings."""
    inputs = {"expression": args.expression, "coords": args.coords, "labels": args.labels}
    return {
        "inputs": {k: (str(Path(v).resolve()) if v else None) for k, v in inputs.items()},
        "pipeline": asdict(pipeline),
        "train": cfg.to_dict(),
    }


def _prepare(args, cfg: TrainConfig, pipeline: PipelineSettings):
    if not args.expression or not args.coords:
        raise ContractError("--expression and --coords are required")
    dataset = load_dataset(args.expression, args.coords, args.labels)
    dataset = preprocess(dataset, min_spots=pipeline.min_spots, n_hvg=pipeline.n_hvg)
    if cfg.zinb_target != "counts":
        # only the counts target reads the raw matrix after preprocessing
        dataset = replace(dataset, counts=None)
    graphs = build_graph_pair(dataset.coords, dataset.preprocessed,
                              radius=cfg.radius, k=cfg.knn_k)
    return dataset, graphs


def _resolve_clusters(dataset: Dataset, pipeline: PipelineSettings) -> int:
    """The cluster count, checked against the spots before any training."""
    k = pipeline.clusters if pipeline.clusters is not None else dataset.n_domains
    if not k:
        raise ContractError("--clusters is required when no labels file is given")
    if k < 2:
        raise ContractError(f"k must be at least 2, got {k} (the labels file has one domain)")
    if k > dataset.n_spots:
        raise ContractError(f"k={k} exceeds the number of spots {dataset.n_spots}")
    return k


def _train_and_score(dataset, graphs, cfg: TrainConfig, k: int, restarts: int,
                     out_dir: Path | None = None, checkpoint_every: int = 0):
    result = train(dataset, graphs, cfg,
                   checkpoint_dir=out_dir, checkpoint_every=checkpoint_every)
    partition = kmeans(result.trace.embedding, k, seed=cfg.seed, restarts=restarts)
    scores = {}
    if dataset.truth_labels is not None:
        scores["ari"] = ari(partition.labels, dataset.truth_labels)
        scores["nmi"] = nmi(partition.labels, dataset.truth_labels)
    return result, partition, scores


def cmd_synth(args) -> int:
    out_dir = _output_dir(args.out)
    ds = generate_synthetic(args.n_side, args.domains, args.genes,
                            seed=args.seed, dropout=args.dropout,
                            dispersion=args.dispersion)
    _write_manifest(out_dir, "synth", params={
        "n_side": args.n_side, "domains": args.domains, "genes": args.genes,
        "seed": args.seed, "dropout": args.dropout, "dispersion": args.dispersion,
    })
    write_expression_csv(ds, out_dir / "expression.csv")
    write_coords_csv(ds, out_dir / "coords.csv")
    write_labels_csv(ds, out_dir / "labels.csv")
    print(f"wrote {ds.n_spots} spots x {ds.n_genes} genes to {out_dir}")
    return 0


def _load_manifest(path) -> dict:
    """A previous run's manifest: each of its sections must be a JSON object
    and each input path a string or null."""
    previous = _load_config_file(path)
    for key in ("inputs", "train", "pipeline"):
        if not isinstance(previous.get(key, {}), dict):
            raise DataError(f"{path}: manifest key {key!r} must be a JSON object")
    for key, value in previous.get("inputs", {}).items():
        if value is not None and not isinstance(value, str):
            raise DataError(f"{path}: manifest input {key!r} must be a path or null")
    return previous


def cmd_run(args) -> int:
    if args.from_manifest:
        previous = _load_manifest(args.from_manifest)
        inputs = previous.get("inputs", {})
        args.expression = args.expression or inputs.get("expression")
        args.coords = args.coords or inputs.get("coords")
        args.labels = args.labels or inputs.get("labels")
        cfg, pipeline = _resolve(args, train_keys_from={
            **previous.get("train", {}),
            **{k: v for k, v in previous.get("pipeline", {}).items() if v is not None},
        })
    else:
        cfg, pipeline = _resolve(args)

    out_dir = _output_dir(args.out)
    _write_manifest(out_dir, "run", **_pipeline_manifest(args, cfg, pipeline))

    dataset, graphs = _prepare(args, cfg, pipeline)
    k = _resolve_clusters(dataset, pipeline)
    result, partition, scores = _train_and_score(
        dataset, graphs, cfg, k, pipeline.restarts,
        out_dir=out_dir, checkpoint_every=pipeline.checkpoint_every)

    result.log.write(out_dir / "loss_log.csv")
    save_embeddings(result.trace.embedding.data, dataset.spot_ids,
                    out_dir / "embeddings.csv")
    save_labels(partition.labels, dataset.spot_ids, out_dir / "labels.csv")
    records = [(dataset.name, cfg.seed, "k", float(k))]
    records += [(dataset.name, cfg.seed, name, value) for name, value in scores.items()]
    save_metrics(records, out_dir / "metrics.csv")

    summary = " ".join(f"{name}={value:.4f}" for name, value in scores.items())
    print(f"run complete: {dataset.n_spots} spots, k={k} {summary}".rstrip())
    return 0


def _score_grid(args, cfg: TrainConfig, pipeline: PipelineSettings,
                cells: list[dict], **manifest_extra):
    """Check every cell's config, write the manifest and prepare the data
    once; the returned iterator trains and scores one run per cell of config
    overrides, in order."""
    if not cells:
        raise ContractError(f"{args.command} needs at least one seed (--seeds)")
    if pipeline.checkpoint_every:
        raise ContractError(f"checkpoint_every must be 0 for {args.command}, which writes "
                            f"no checkpoints; got {pipeline.checkpoint_every}")
    cell_cfgs = [TrainConfig.from_dict({**cfg.to_dict(), **cell}) for cell in cells]
    out_dir = _output_dir(args.out)
    _write_manifest(out_dir, args.command, **_pipeline_manifest(args, cfg, pipeline),
                    **manifest_extra)

    dataset, graphs = _prepare(args, cfg, pipeline)
    if dataset.truth_labels is None:
        raise ContractError(f"{args.command} needs a labels file to score its runs")
    k = _resolve_clusters(dataset, pipeline)

    return (_train_and_score(dataset, graphs, cell_cfg, k, pipeline.restarts)[2]
            for cell_cfg in cell_cfgs)


def _write_table(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def cmd_ablate(args) -> int:
    cfg, pipeline = _resolve(args)
    cells = [(variant, seed) for variant in ABLATION_VARIANTS for seed in args.seeds]
    runs = _score_grid(args, cfg, pipeline,
                       [{**ABLATION_VARIANTS[v], "seed": seed} for v, seed in cells],
                       seeds=args.seeds, variants=list(ABLATION_VARIANTS))

    lines = ["variant,seed,ari,nmi"]
    per_variant = {variant: [] for variant in ABLATION_VARIANTS}
    for (variant, seed), scores in zip(cells, runs):
        per_variant[variant].append(scores)
        lines.append(f"{variant},{seed},{scores['ari']:.6f},{scores['nmi']:.6f}")
        print(f"ablate {variant} seed={seed} ari={scores['ari']:.4f} "
              f"nmi={scores['nmi']:.4f}")
    for variant, scores in per_variant.items():
        mean_ari = float(np.mean([s["ari"] for s in scores]))
        mean_nmi = float(np.mean([s["nmi"] for s in scores]))
        lines.append(f"{variant},mean,{mean_ari:.6f},{mean_nmi:.6f}")
    _write_table(Path(args.out) / "ablation.csv", lines)
    return 0


def cmd_sweep(args) -> int:
    cfg, pipeline = _resolve(args)
    grids = {
        "alpha": args.alpha_grid or [cfg.alpha],
        "lam": args.lambda_grid or [cfg.lam],
        "gamma": args.gamma_grid or [cfg.gamma],
        "tau": args.tau_grid or [cfg.tau],
    }
    cells = [dict(zip((*grids, "seed"), values))
             for values in itertools.product(*grids.values(), args.seeds)]
    runs = _score_grid(args, cfg, pipeline, cells, seeds=args.seeds, grids=grids)

    lines = ["alpha,lambda,gamma,tau,seed,ari,nmi"]
    for c, scores in zip(cells, runs):
        lines.append(f"{c['alpha']},{c['lam']},{c['gamma']},{c['tau']},{c['seed']},"
                     f"{scores['ari']:.6f},{scores['nmi']:.6f}")
        print(f"sweep a={c['alpha']} l={c['lam']} g={c['gamma']} t={c['tau']} "
              f"seed={c['seed']} ari={scores['ari']:.4f}")
    _write_table(Path(args.out) / "sweep.csv", lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """Takes an argument that starts with '-' and a digit, such as '-1e-1'
    or '-0.5,1', for a value. argparse before 3.13 takes only the '-1' and
    '-0.1' forms for values and any other for an unknown option; no option
    of this CLI starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stmfg",
        description="Spatial-domain clustering with dual-view fused graph convolution.")
    parser.add_argument("--version", action="version", version=f"stmfg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic layered dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--n-side", dest="n_side", type=int, default=30)
    p_synth.add_argument("--domains", type=int, default=5)
    p_synth.add_argument("--genes", type=int, default=200)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--dropout", type=float, default=0.3)
    p_synth.add_argument("--dispersion", type=float, default=2.0)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="train and cluster one dataset")
    _add_io_flags(p_run, "ground-truth labels CSV (optional)")
    p_run.add_argument("--from-manifest", dest="from_manifest",
                       help="replay a previous run's manifest.json")
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ablate = sub.add_parser("ablate", help="run the component ablations")
    _add_io_flags(p_ablate, "ground-truth labels CSV (required)")
    p_ablate.add_argument("--seeds", type=_comma_ints, default=[0, 1, 2, 3, 4])
    _add_config_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="grid over loss weights/temperature")
    _add_io_flags(p_sweep, "ground-truth labels CSV (required)")
    p_sweep.add_argument("--seeds", type=_comma_ints, default=[0])
    p_sweep.add_argument("--alpha-grid", dest="alpha_grid", type=_comma_floats)
    p_sweep.add_argument("--lambda-grid", dest="lambda_grid", type=_comma_floats)
    p_sweep.add_argument("--gamma-grid", dest="gamma_grid", type=_comma_floats)
    p_sweep.add_argument("--tau-grid", dest="tau_grid", type=_comma_floats)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, OverflowError, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4
    except StmfgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
