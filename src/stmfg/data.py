"""Dataset ingestion, preprocessing, the synthetic layered-tissue
generator, and persistence of run artifacts.

File formats (all UTF-8, LF, headers required):
  expression  dense CSV: header ``spot_id,<gene id>,...``; one row per spot
              -- or Matrix Market coordinate/array ``<name>.mtx`` (rows =
              spots) with sidecar id files ``<name>.spots.txt`` and
              ``<name>.genes.txt``, one id per line
  coords      CSV ``spot_id,x,y``
  labels      CSV ``spot_id,label``; spots absent from the file get -1
              (excluded from metric computation)
Floats in emitted files are printed with 17 significant digits so a
save/load round trip is lossless for 64-bit values. CSV cells are read
with the csv module; a written cell holding a comma, a quote or a line
break (LF or CR) is quoted, with its quotes doubled.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .errors import ContractError, DataError
from .graphs import DEFAULT_RADIUS

DEFAULT_MIN_SPOTS = 3
DEFAULT_N_HVG = 3000

# Synthetic tissue: grid spacing chosen so the default radius reaches the
# diagonal neighbors (8-neighborhood in the grid interior).
SYNTHETIC_SPACING = DEFAULT_RADIUS / 1.5
SYNTHETIC_BASE_MEAN = 1.0
SYNTHETIC_MARKER_MEAN = 20.0

# Columns per step of the HVG variance: one step's centred copy is the only
# temporary, never one as large as the kept-gene matrix.
VARIANCE_COLUMN_BLOCK = 256


@dataclass(frozen=True)
class Dataset:
    """Spot-by-gene counts with coordinates and optional ground truth.
    ``counts`` is None once a pipeline has released the raw matrix after
    preprocessing; ``preprocessed`` and the selected genes remain."""

    counts: np.ndarray | None
    coords: np.ndarray
    spot_ids: list[str]
    gene_ids: list[str]
    truth_labels: np.ndarray | None = None
    label_names: list[str] | None = None
    preprocessed: np.ndarray | None = None
    selected_genes: list[str] | None = None
    selected_idx: np.ndarray | None = None
    name: str = "dataset"

    @property
    def n_spots(self) -> int:
        return self.coords.shape[0]

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def n_domains(self) -> int | None:
        if self.truth_labels is None:
            return None
        labeled = self.truth_labels[self.truth_labels >= 0]
        return int(np.unique(labeled).size) if labeled.size else None


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _open_csv(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    return path.open(newline="", encoding="utf-8")


def _not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    """The error for a file that is not UTF-8, naming its first line that
    does not decode, blank lines not counted. A UTF-8 sequence holds no
    newline byte, so each line decodes on its own."""
    line = 0
    with Path(path).open("rb") as fh:
        for raw in fh:
            line += bool(raw.strip(b"\r\n"))
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return DataError(f"{path} line {line}: not UTF-8 text ({exc.reason})")


def _csv_rows(fh, path):
    """The non-blank rows of an open CSV file. A byte that is not UTF-8 or
    a malformed row (a cell over the csv module's field limit) is a
    ``DataError`` naming the file and the line, counted as the loaders
    count them: non-blank rows, the header being line 1."""
    line = 1
    try:
        for row in csv.reader(fh):
            if row:
                yield row
                line += 1
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except csv.Error as exc:
        raise DataError(f"{path} line {line}: {exc}") from None


def _read_rows(path) -> list[list[str]]:
    with _open_csv(path) as fh:
        return list(_csv_rows(fh, path))


def _float_cell(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{where}: not a number: {raw!r}") from None


def _load_dense_expression(path) -> tuple[list[str], list[str], np.ndarray]:
    """Stream the CSV one row at a time; each row's cells go through the
    builtin ``float`` straight into a float64 row, and only a row that
    fails is rescanned cell by cell to name the bad cell. Line numbers
    count non-blank rows, the header being line 1."""
    with _open_csv(path) as fh:
        rows = _csv_rows(fh, path)
        header = next(rows, None)
        row = next(rows, None)
        if row is None:
            raise DataError(f"{path}: expected a header and at least one spot row")
        gene_ids = [g.strip() for g in header[1:]]
        if not gene_ids:
            raise DataError(f"{path}: header has no gene columns")
        width = len(gene_ids) + 1
        spot_ids, values = [], []
        for r, row in enumerate(itertools.chain([row], rows), start=2):
            if len(row) != width:
                raise DataError(f"{path} line {r}: expected {width} cells, got {len(row)}")
            spot_ids.append(row[0].strip())
            try:
                values.append(np.fromiter(map(float, itertools.islice(row, 1, None)),
                                          np.float64, count=width - 1))
            except ValueError:
                for c in row[1:]:
                    _float_cell(c, f"{path} line {r}")
                raise
    return spot_ids, gene_ids, np.vstack(values)


def _read_ids(path) -> list[str]:
    """The stripped non-blank lines of a sidecar id file."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    return [line.strip() for line in text.splitlines() if line.strip()]


def _load_mtx_expression(path) -> tuple[list[str], list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    try:
        matrix = scipy.io.mmread(path)
    except Exception as exc:
        raise DataError(f"{path}: not a readable Matrix Market file ({exc})") from None
    if np.issubdtype(matrix.dtype, np.complexfloating):
        raise DataError(f"{path}: complex entries; expression counts must be real")
    dense = np.asarray(matrix.todense() if scipy.sparse.issparse(matrix) else matrix,
                       dtype=np.float64)
    spots_file = path.with_suffix(".spots.txt")
    genes_file = path.with_suffix(".genes.txt")
    for sidecar in (spots_file, genes_file):
        if not sidecar.exists():
            raise DataError(f"{sidecar}: sidecar id file not found")
    spot_ids, gene_ids = _read_ids(spots_file), _read_ids(genes_file)
    if dense.shape != (len(spot_ids), len(gene_ids)):
        raise DataError(f"{path}: matrix is {dense.shape}, sidecars name "
                        f"{len(spot_ids)} spots x {len(gene_ids)} genes")
    return spot_ids, gene_ids, dense


def load_dataset(expression_path, coords_path, labels_path=None,
                 name: str | None = None) -> Dataset:
    """Load and align a dataset; spot order comes from the coordinates file."""
    coord_rows = _read_rows(coords_path)
    if len(coord_rows) < 2:
        raise DataError(f"{coords_path}: expected a header and at least one spot")
    spot_ids, coords = [], []
    for r, row in enumerate(coord_rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"{coords_path} line {r}: expected spot_id,x,y")
        spot_ids.append(row[0].strip())
        xy = (_float_cell(row[1], f"{coords_path} line {r}"),
              _float_cell(row[2], f"{coords_path} line {r}"))
        if not all(map(math.isfinite, xy)):
            raise DataError(f"{coords_path} line {r}: coordinates must be finite, "
                            f"got {row[1]!r}, {row[2]!r}")
        coords.append(xy)
    if len(set(spot_ids)) != len(spot_ids):
        raise DataError(f"{coords_path}: duplicate spot ids")

    expression_path = Path(expression_path)
    if expression_path.suffix == ".mtx":
        expr_spots, gene_ids, matrix = _load_mtx_expression(expression_path)
    else:
        expr_spots, gene_ids, matrix = _load_dense_expression(expression_path)
    if len(set(expr_spots)) != len(expr_spots):
        raise DataError(f"{expression_path}: duplicate spot ids")
    if len(set(gene_ids)) != len(gene_ids):
        raise DataError(f"{expression_path}: duplicate gene ids")

    row_of = {s: i for i, s in enumerate(expr_spots)}
    order = []
    for s in spot_ids:
        if s not in row_of:
            raise DataError(f"spot {s!r} from {coords_path} is missing in {expression_path}")
        order.append(row_of[s])
    # rows already in coordinate order need no reordered copy
    counts = matrix if order == list(range(len(expr_spots))) else matrix[order]

    bad = np.argwhere(~np.isfinite(counts))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"non-finite count {counts[i, j]} at spot {spot_ids[i]!r}, "
                        f"gene {gene_ids[j]!r}")
    bad = np.argwhere(counts < 0)
    if bad.size:
        i, j = bad[0]
        raise DataError(f"negative count at spot {spot_ids[i]!r}, gene {gene_ids[j]!r}")

    truth = None
    label_names = None
    if labels_path is not None:
        label_rows = _read_rows(labels_path)
        if len(label_rows) < 2:
            raise DataError(f"{labels_path}: expected a header and at least one row")
        raw = {}
        for r, row in enumerate(label_rows[1:], start=2):
            if len(row) != 2:
                raise DataError(f"{labels_path} line {r}: expected spot_id,label")
            spot = row[0].strip()
            if spot in raw:
                raise DataError(f"{labels_path} line {r}: duplicate spot id {spot!r}")
            raw[spot] = row[1].strip()
        unknown = set(raw) - set(spot_ids)
        if unknown:
            raise DataError(f"{labels_path}: unknown spot id {sorted(unknown)[0]!r}")
        label_names = sorted(set(raw.values()))
        code = {v: i for i, v in enumerate(label_names)}
        truth = np.array([code[raw[s]] if s in raw else -1 for s in spot_ids], dtype=np.int64)

    return Dataset(
        counts=counts,
        coords=np.array(coords, dtype=np.float64),
        spot_ids=spot_ids,
        gene_ids=list(gene_ids),
        truth_labels=truth,
        label_names=label_names,
        name=name or Path(expression_path).stem,
    )


def _column_variances(arr: np.ndarray) -> np.ndarray:
    """``arr.var(axis=0)``, bitwise, computed VARIANCE_COLUMN_BLOCK columns
    at a time. numpy reduces each column on its own, in an order set by the
    layout: pairwise down a column-major array's contiguous columns, row by
    row across a row-major one. A one-column block of a wider row-major
    array would be summed pairwise down its strided column instead, so a
    one-column tail joins the block before it."""
    genes = arr.shape[1]
    starts = list(range(0, genes, VARIANCE_COLUMN_BLOCK))
    if len(starts) > 1 and genes - starts[-1] == 1:
        starts.pop()
    variances = np.empty(genes)
    for lo, hi in zip(starts, starts[1:] + [genes]):
        variances[lo:hi] = arr[:, lo:hi].var(axis=0)
    return variances


def preprocess(ds: Dataset, min_spots: int = DEFAULT_MIN_SPOTS,
               n_hvg: int = DEFAULT_N_HVG) -> Dataset:
    """Filter, normalize and select features.

    Drops genes detected in fewer than ``min_spots`` spots, scales each
    spot to the median library size, applies log1p, and keeps the
    ``n_hvg`` most variable surviving genes (capped at availability),
    re-sorted by gene id so the output is column-order canonical.
    """
    if min_spots < 1:
        raise ContractError(f"min_spots must be >= 1, got {min_spots}")
    if n_hvg < 1:
        raise ContractError(f"n_hvg must be >= 1, got {n_hvg}")
    if ds.counts is None:
        raise ContractError("preprocess needs the raw counts, which this dataset no longer holds")
    detected = (ds.counts > 0).sum(axis=0)
    keep = detected >= int(min_spots)
    if not keep.any():
        raise DataError("preprocessing removed every gene")
    kept_idx = np.nonzero(keep)[0]
    # the kept columns' copy is the one working buffer: scaled and logged in place
    logged = ds.counts[:, kept_idx]

    totals = logged.sum(axis=1, keepdims=True)
    target = np.median(totals)
    scales = np.divide(target, totals, out=np.ones_like(totals), where=totals > 0)
    logged *= scales
    np.log1p(logged, out=logged)

    variances = _column_variances(logged)
    kept_ids = [ds.gene_ids[i] for i in kept_idx]
    take = min(int(n_hvg), len(kept_ids))
    ranked = sorted(range(len(kept_ids)), key=lambda j: (-variances[j], kept_ids[j]))[:take]
    # canonical column order: by gene id
    chosen = sorted(ranked, key=lambda j: kept_ids[j])

    return replace(
        ds,
        preprocessed=logged if chosen == list(range(len(kept_ids))) else logged[:, chosen],
        selected_genes=[kept_ids[j] for j in chosen],
        selected_idx=kept_idx[chosen],
    )


def generate_synthetic(n_side: int, k_domains: int, n_genes: int, seed: int,
                       dropout: float, dispersion: float) -> Dataset:
    """Layered synthetic tissue on an n_side x n_side grid.

    Domains are horizontal bands; each gets a disjoint block of marker
    genes with elevated mean. Counts are drawn from a zero-inflated
    gamma-Poisson mixture (mean = program, dispersion as given, zero
    weight = dropout); band labels are recorded as ground truth.
    """
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if k_domains < 2:
        raise ContractError(f"need at least 2 domains, got {k_domains}")
    if n_side * n_side < 10 * k_domains:
        raise ContractError(f"grid {n_side}x{n_side} too small for {k_domains} domains")
    if n_side < k_domains:
        raise ContractError("need n_side >= k_domains for non-empty bands")
    if not 0.0 <= dropout <= 1.0:
        raise ContractError(f"dropout must be in [0, 1], got {dropout}")
    if not (0 < dispersion < math.inf and math.isfinite(SYNTHETIC_MARKER_MEAN / dispersion)):
        raise ContractError(f"dispersion must be finite and positive, and "
                            f"{SYNTHETIC_MARKER_MEAN:g} / dispersion finite, got {dispersion}")
    if n_genes < k_domains:
        raise ContractError("need at least one marker gene per domain")

    rng = np.random.default_rng(seed)
    n = n_side * n_side
    rows_grid, cols_grid = np.divmod(np.arange(n), n_side)
    coords = np.column_stack([cols_grid, rows_grid]).astype(np.float64) * SYNTHETIC_SPACING
    labels = (rows_grid * k_domains) // n_side

    markers_per_domain = max(1, n_genes // (2 * k_domains))
    mean_program = np.full((n, n_genes), SYNTHETIC_BASE_MEAN)
    for d in range(k_domains):
        block = slice(d * markers_per_domain, (d + 1) * markers_per_domain)
        mean_program[labels == d, block] = SYNTHETIC_MARKER_MEAN

    lam = rng.gamma(shape=dispersion, scale=mean_program / dispersion)
    counts = rng.poisson(lam).astype(np.float64)
    counts[rng.random(size=counts.shape) < dropout] = 0.0

    return Dataset(
        counts=counts,
        coords=coords,
        spot_ids=[f"s{i:05d}" for i in range(n)],
        gene_ids=[f"g{j:04d}" for j in range(n_genes)],
        truth_labels=labels.astype(np.int64),
        label_names=[str(d) for d in range(k_domains)],
        name=f"synthetic-{n_side}x{n_side}-k{k_domains}-seed{seed}",
    )


# ---------------------------------------------------------------------------
# persistence


def _cell(value) -> str:
    """A text cell as the loaders read it back: quoted, with its quotes
    doubled, where it holds a comma, a quote or a line break (LF or CR)."""
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n\r') else text


def _text_line(cells) -> str:
    return ",".join(map(_cell, cells))


def _numeric_lines(ids, matrix):
    """One line per row of ``matrix``, led by its id; numbers need no quoting."""
    return (",".join([_cell(sid), *map(_fmt, row)]) for sid, row in zip(ids, matrix))


def _write_csv(path, header: list[str], lines) -> None:
    """Write the ``header`` cells, then ``lines`` (rows already joined by
    ``_text_line`` or ``_numeric_lines``), each ended by LF."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_text_line(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def write_expression_csv(ds: Dataset, path) -> None:
    _write_csv(path, ["spot_id", *ds.gene_ids], _numeric_lines(ds.spot_ids, ds.counts))


def write_coords_csv(ds: Dataset, path) -> None:
    _write_csv(path, ["spot_id", "x", "y"], _numeric_lines(ds.spot_ids, ds.coords))


def write_labels_csv(ds: Dataset, path) -> None:
    if ds.truth_labels is None:
        raise ContractError("dataset has no labels to write")
    names = ds.label_names or [str(i) for i in range(int(ds.truth_labels.max()) + 1)]
    _write_csv(path, ["spot_id", "label"],
               (_text_line((sid, names[lab]))
                for sid, lab in zip(ds.spot_ids, ds.truth_labels) if lab >= 0))


def save_embeddings(embedding: np.ndarray, spot_ids: list[str], path) -> None:
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.shape[0] != len(spot_ids):
        raise ContractError(f"{emb.shape[0]} embedding rows for {len(spot_ids)} spots")
    _write_csv(path, ["spot_id", *(f"e{j}" for j in range(emb.shape[1]))],
               _numeric_lines(spot_ids, emb))


def save_labels(labels: np.ndarray, spot_ids: list[str], path) -> None:
    if len(labels) != len(spot_ids):
        raise ContractError(f"{len(labels)} labels for {len(spot_ids)} spots")
    _write_csv(path, ["spot_id", "label"],
               (_text_line((sid, int(lab))) for sid, lab in zip(spot_ids, labels)))


def save_metrics(records: list[tuple[str, int, str, float]], path) -> None:
    """Rows of (dataset id, seed, metric name, value)."""
    _write_csv(path, ["dataset", "seed", "metric", "value"],
               (_text_line((dataset, seed, metric, _fmt(value)))
                for dataset, seed, metric, value in records))
