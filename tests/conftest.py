"""Pytest set-up, and the helpers and oracles that only the tests use."""

import csv
import math
import os
import tempfile
import tracemalloc

import numpy as np

from stmfg import autodiff as ad
from stmfg.errors import ContractError


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local source files in
    # its storage directory, whatever the example database setting; keep
    # that cache out of the checkout.
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                          os.path.join(tempfile.gettempdir(), "stmfg-hypothesis"))


def traced_peak(fn):
    """Call ``fn()`` under ``tracemalloc``; return its result and the peak
    bytes traced during the call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def traced_held(fn):
    """Call ``fn()`` under ``tracemalloc``; return its result and the bytes
    allocated during the call that are still traced when it returns, that
    is, what the result keeps alive."""
    tracemalloc.start()
    try:
        out = fn()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, held


def grad_check(f, x, eps: float) -> float:
    """Max relative error between AD and central-difference gradients of
    the scalar-valued ``f`` at ``x``.

    The relative error uses an absolute floor of 1e-8 in the denominator.
    ``x.data`` is perturbed in place and restored.
    """
    if not x.requires_grad:
        raise ContractError("grad_check: x must require gradients")
    out = f(x)
    if out.data.shape != (1, 1):
        raise ContractError("grad_check: f must be scalar-valued")
    x.grad = None
    ad.backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    fd = np.zeros_like(x.data)
    base = x.data
    for i, j in np.ndindex(*base.shape):
        orig = base[i, j]
        base[i, j] = orig + eps
        hi = f(x).data[0, 0]
        base[i, j] = orig - eps
        lo = f(x).data[0, 0]
        base[i, j] = orig
        fd[i, j] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


def zinb_pmf(x: int, pi: float, mu: float, theta: float) -> float:
    """Probability of count ``x`` under the zero-inflated negative binomial.

    A point mass at zero with weight ``pi`` mixed with NB(mu, theta).
    Scalar reference form, evaluated in log space.
    """
    if x < 0 or x != int(x):
        raise ContractError(f"count must be a nonnegative integer, got {x}")
    if not 0.0 <= pi < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {pi}")
    if mu <= 0 or theta <= 0:
        raise ContractError(f"mean and dispersion must be positive, got {mu}, {theta}")
    x = int(x)
    log_nb = (math.lgamma(x + theta) - math.lgamma(theta) - math.lgamma(x + 1)
              + theta * math.log(theta / (theta + mu))
              + x * (math.log(mu) - math.log(theta + mu)))
    nb = math.exp(log_nb)
    return pi * (1.0 if x == 0 else 0.0) + (1.0 - pi) * nb


def load_embeddings(path) -> tuple[list[str], np.ndarray]:
    """Spot ids and values of an ``embeddings.csv`` written by
    ``data.save_embeddings``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([[float(v) for v in r[1:]] for r in rows])
