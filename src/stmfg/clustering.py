"""Spatial-domain assignment by k-means on the fused embedding, and
partition agreement metrics (ARI, NMI).

k-means is Lloyd's algorithm with k-means++ seeding, best of ``restarts``
by inertia (ties keep the earliest restart), fully deterministic given the
seed. Rows labeled -1 in either partition are treated as unlabeled and
dropped from metric computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DomainError

DEFAULT_RESTARTS = 20
MAX_LLOYD_ITERATIONS = 300


@dataclass(frozen=True)
class Partition:
    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ContractError(f"labels must lie in [0, {self.k})")


def _kmeans_pp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n-by-k squared distances, one centre at a time: no n-by-k-by-d
    temporary, and each entry is summed as in the broadcast form."""
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for c, center in enumerate(centers):
        d2[:, c] = ((points - center) ** 2).sum(axis=1)
    return d2


def _lloyd(points: np.ndarray, centers: np.ndarray,
           max_iter: int = MAX_LLOYD_ITERATIONS) -> tuple[np.ndarray, float, list[float]]:
    """Iterate assignment/update until labels stabilize; returns labels,
    final inertia, and the per-iteration inertia history."""
    k = centers.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        d2 = _sq_distances(points, centers)
        new_labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(points.shape[0]), new_labels].sum())
        history.append(inertia)
        revived: set[int] = set()
        for c in range(k):
            if not (new_labels == c).any():
                # revive an empty cluster with the farthest unrevived point
                assigned = d2[np.arange(points.shape[0]), new_labels].copy()
                if revived:
                    assigned[list(revived)] = -np.inf
                worst = int(assigned.argmax())
                new_labels[worst] = c
                revived.add(worst)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = points[members].mean(axis=0)
    d2 = _sq_distances(points, centers)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels, inertia, history


def kmeans(z, k: int, seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> Partition:
    """Cluster embedding rows into k groups."""
    points = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    n = points.shape[0]
    if k > n:
        raise ContractError(f"k={k} exceeds the number of points {n}")
    if k < 2:
        raise ContractError(f"k must be at least 2, got {k}")
    if restarts < 1:
        raise ContractError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if not np.isfinite(points).all():
        raise DomainError("k-means needs finite points; the embedding has non-finite values")

    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best_labels, best_inertia = None, np.inf
    for child in seeds:
        rng = np.random.default_rng(child)
        centers = _kmeans_pp_centers(points, k, rng)
        labels, inertia, _ = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return Partition(labels=best_labels, k=k)


def _paired_labels(a, b) -> tuple[np.ndarray, np.ndarray]:
    la = a.labels if isinstance(a, Partition) else np.asarray(a, dtype=np.int64)
    lb = b.labels if isinstance(b, Partition) else np.asarray(b, dtype=np.int64)
    if la.shape != lb.shape:
        raise ContractError(f"partition lengths differ: {la.shape} vs {lb.shape}")
    keep = (la >= 0) & (lb >= 0)
    return la[keep], lb[keep]


def _contingency(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def ari(a, b) -> float:
    """Adjusted Rand index via the contingency table, in (-1, 1]."""
    la, lb = _paired_labels(a, b)
    if la.size == 0:
        raise ContractError("no jointly labeled entries")
    table = _contingency(la, lb)
    n = la.size

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n) if n > 1 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # both partitions trivial (all one cluster or all singletons)
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def nmi(a, b) -> float:
    """Mutual information normalized by the mean of the entropies, in [0, 1].

    Two single-cluster partitions agree perfectly by convention (1.0).
    """
    la, lb = _paired_labels(a, b)
    if la.size == 0:
        raise ContractError("no jointly labeled entries")
    table = _contingency(la, lb).astype(np.float64)
    n = la.size
    joint = table / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    nz = joint > 0
    outer = np.outer(pa, pb)
    mi = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    return mi / (0.5 * (ha + hb))
