"""Output checks for the benchmark's child runs.

A run counts as failed when its exit code is not 0 or any check here
raises ``CheckFailed``. The scores are recomputed with an implementation
of ARI and NMI kept separate from the program's own.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

VARIANTS = ("full", "no_mf", "no_cl", "no_reg", "no_zinb")
SCORE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows


def _comb2(x: int) -> float:
    return x * (x - 1) / 2.0


def adjusted_rand(a: list, b: list) -> float:
    n = len(a)
    pairs = Counter(zip(a, b))
    sum_cells = sum(_comb2(c) for c in pairs.values())
    sum_a = sum(_comb2(c) for c in Counter(a).values())
    sum_b = sum(_comb2(c) for c in Counter(b).values())
    expected = sum_a * sum_b / _comb2(n)
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else (sum_cells - expected) / (top - expected)


def normalized_mutual_info(a: list, b: list) -> float:
    """Mutual information over the arithmetic mean of the two entropies."""
    n = len(a)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    count_a, count_b = Counter(a), Counter(b)
    ha, hb = entropy(count_a), entropy(count_b)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = sum(c / n * math.log(c * n / (count_a[x] * count_b[y]))
             for (x, y), c in Counter(zip(a, b)).items())
    return mi / (0.5 * (ha + hb))


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {value} is not finite")
    return value


def check_run(out: Path, data: Path, epochs: int) -> dict:
    """Check a ``stmfg run`` output directory against the synthetic truth
    and return the scores it reports."""
    truth = {sid: lab for sid, lab in _rows(data / "labels.csv")[1:]}
    labels = _rows(out / "labels.csv")
    if labels[0] != ["spot_id", "label"]:
        raise CheckFailed(f"labels.csv header {labels[0]}")
    predicted = {}
    for sid, lab in labels[1:]:
        if sid in predicted:
            raise CheckFailed(f"labels.csv: spot {sid} labelled twice")
        predicted[sid] = lab
    if set(predicted) != set(truth):
        raise CheckFailed(f"labels.csv covers {len(predicted)} spots, truth has {len(truth)}")

    reported = {row[2]: _finite(row[3], f"metrics.csv {row[2]}")
                for row in _rows(out / "metrics.csv")[1:]}
    spots = sorted(truth)
    a = [predicted[s] for s in spots]
    b = [truth[s] for s in spots]
    recomputed = {"ari": adjusted_rand(a, b), "nmi": normalized_mutual_info(a, b)}
    for name, value in recomputed.items():
        if name not in reported:
            raise CheckFailed(f"metrics.csv has no {name} row")
        if abs(reported[name] - value) > SCORE_TOLERANCE:
            raise CheckFailed(f"metrics.csv {name}={reported[name]!r}, labels.csv gives {value!r}")

    embedding = _rows(out / "embeddings.csv")
    if len(embedding) - 1 != len(truth):
        raise CheckFailed(f"embeddings.csv has {len(embedding) - 1} rows for {len(truth)} spots")
    for row in embedding[1:]:
        for cell in row[1:]:
            _finite(cell, "embeddings.csv")
    losses = _rows(out / "loss_log.csv")
    if len(losses) - 1 != epochs:
        raise CheckFailed(f"loss_log.csv has {len(losses) - 1} epochs, expected {epochs}")
    for row in losses[1:]:
        for cell in row[1:]:
            _finite(cell, "loss_log.csv")
    return {"ari": reported["ari"], "nmi": reported["nmi"]}


def check_ablate(out: Path) -> dict:
    """Check an ``stmfg ablate`` output directory (one seed) and return the
    scores averaged over the five variants."""
    rows = _rows(out / "ablation.csv")
    if rows[0] != ["variant", "seed", "ari", "nmi"]:
        raise CheckFailed(f"ablation.csv header {rows[0]}")
    scores = {}
    for variant, seed, ari, nmi in rows[1:]:
        if seed == "mean":
            continue
        scores[variant] = (_finite(ari, f"ablation.csv {variant} ari"),
                           _finite(nmi, f"ablation.csv {variant} nmi"))
    if sorted(scores) != sorted(VARIANTS):
        raise CheckFailed(f"ablation.csv variants {sorted(scores)}")
    return {"ari": sum(s[0] for s in scores.values()) / len(scores),
            "nmi": sum(s[1] for s in scores.values()) / len(scores)}


def deterministic_artifacts(out: Path) -> dict[str, bytes]:
    """The files a rerun of the same inputs must reproduce byte for byte;
    ``loss_log.csv`` without its wall-clock column."""
    artifacts = {}
    for name in ("labels.csv", "embeddings.csv", "ablation.csv"):
        if (out / name).is_file():
            artifacts[name] = (out / name).read_bytes()
    if (out / "loss_log.csv").is_file():
        rows = _rows(out / "loss_log.csv")
        artifacts["loss_log.csv[loss_table]"] = "\n".join(
            ",".join(row[:-1]) for row in rows).encode()
    return artifacts
