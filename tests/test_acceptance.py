"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured margin (run with ``pytest -s`` to see them).

The end-to-end recovery tests (criteria 7 and 8) train the full
configuration for 200 epochs on five seeds and take a few minutes each;
deselect with ``-m "not slow"`` during development.
"""

import math
import os
import time

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg.autodiff import Tensor
from stmfg.clustering import ari, kmeans, nmi
from stmfg.data import Dataset, generate_synthetic, load_dataset, preprocess
from stmfg.graphs import (
    build_feature_graph,
    build_graph_pair,
    build_spatial_graph,
    normalize_adjacency,
)
from stmfg.losses import contrastive_loss, zinb_nll
from stmfg.model import ModelParams
from stmfg.training import TrainConfig, run_epoch, train

from conftest import grad_check, stack, zinb_pmf
from test_autodiff import head_params, head_values
from test_clustering import ari_pair_counting_oracle, nmi_entropy_oracle
from test_graphs import brute_force_knn_edges, brute_force_radius_edges, edge_set
from test_losses import contrastive_oracle


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: full-loss gradient correctness on a toy instance


def test_criterion_1_full_loss_gradients():
    rng = np.random.default_rng(42)
    n, genes = 6, 8
    ds = Dataset(counts=rng.poisson(3.0, size=(n, genes)).astype(float),
                 coords=rng.uniform(0, 100, size=(n, 2)),
                 spot_ids=[f"s{i}" for i in range(n)],
                 gene_ids=[f"g{j}" for j in range(genes)])
    ds = preprocess(ds, min_spots=1, n_hvg=genes)
    graphs = build_graph_pair(ds.coords, ds.preprocessed, radius=60.0, k=2)
    cfg = TrainConfig(epochs=1, hidden_dims=(5, 4), decoder_hidden=5, seed=0)
    x = Tensor(ds.preprocessed)
    params = ModelParams.initialize(np.random.default_rng(cfg.seed),
                                    [x.cols, *cfg.hidden_dims],
                                    recon_width=genes, decoder_hidden=cfg.decoder_hidden)

    started = time.perf_counter()
    worst = 0.0
    for name, tensor in params.named_tensors():
        err = grad_check(
            lambda t: run_epoch(x, ds.preprocessed, False, graphs, params, cfg)[0],
            tensor, 1e-5)
        assert err < 1e-4, f"{name}: max relative error {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"worst relative error {worst:.2e} over all parameters in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: contrastive loss equals the brute-force double loop


def test_criterion_2_contrastive_oracle():
    # The double loop sums each anchor's denominator over every other
    # embedding (k != r), the form of the paper's objective, with the
    # library's documented guarded cosine.
    rng = np.random.default_rng(7)
    taus = (0.1, 0.5, 1.0)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(2, 9))
        tau = taus[trial % 3]
        zs = rng.normal(size=(n, d))
        zf = rng.normal(size=(n, d))
        got = contrastive_loss(stack(zs, zf), tau).item()
        want = contrastive_oracle(zs.tolist(), zf.tolist(), tau, eps=ad.NORM_EPS)
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-10
    single = contrastive_loss(stack(rng.normal(size=(1, 4)), rng.normal(size=(1, 4))),
                              0.5).item()
    assert single == 0.0
    report(2, f"50 instances within {worst:.1e} of the double loop; N=1 case exactly 0")


# ---------------------------------------------------------------------------
# criterion 3: ZINB likelihood against the scalar pmf


def test_criterion_3_zinb_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        counts = rng.poisson(3.0, size=shape).astype(float)
        # hidden = I_n: the head weights are the chosen pre-activations, and
        # the oracle takes pi, mu and theta from the reference heads
        hidden = Tensor(np.eye(shape[0]))
        params = head_params(rng.uniform(0.05, 0.9, size=shape),
                             rng.uniform(0.2, 6.0, size=shape),
                             rng.uniform(0.3, 4.0, size=shape))
        got = zinb_nll(ad.ZinbTarget(counts), hidden, params).item()
        pi, mu, theta = head_values(hidden, params)
        want = float(np.mean([
            -math.log(zinb_pmf(int(counts[i, j]), pi[i, j], mu[i, j], theta[i, j]))
            for i in range(shape[0]) for j in range(shape[1])]))
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-10

    total = sum(zinb_pmf(x, 0.0, 5.0, 2.0) for x in range(10001))
    assert abs(total - 1.0) < 1e-8
    report(3, f"NLL within {worst:.1e} of pmf composition; "
              f"pmf mass 1{total - 1.0:+.1e} for mu=5, theta=2")


# ---------------------------------------------------------------------------
# criterion 4: graph construction equals brute force; normalization exact


def test_criterion_4_graph_oracles():
    rng = np.random.default_rng(13)
    coords = rng.uniform(0, 1000, (100, 2))
    spatial = build_spatial_graph(coords, 550.0)
    assert edge_set(spatial) == brute_force_radius_edges(coords.tolist(), 550.0)

    feats = rng.normal(size=(100, 10))
    feature = build_feature_graph(feats, 7)
    assert edge_set(feature) == brute_force_knn_edges(feats.tolist(), 7)

    norm = normalize_adjacency(spatial).to_dense()
    dense = spatial.to_dense() + np.eye(100)
    inv_sqrt = np.diag(1.0 / np.sqrt(dense.sum(axis=1)))
    oracle = inv_sqrt @ dense @ inv_sqrt
    gap = np.abs(norm - oracle).max()
    assert gap < 1e-12
    assert np.abs(norm - norm.T).max() == 0.0
    report(4, f"edge sets exact for n=100; normalization within {gap:.1e} of dense formula")


# ---------------------------------------------------------------------------
# criterion 5: fusion invariants


def test_criterion_5_fusion_invariants():
    rng = np.random.default_rng(17)
    worst_sum = worst_norm = 0.0
    for _ in range(10):
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 9))
        zs = rng.normal(size=(n, d))
        zf = rng.normal(size=(n, d))
        wa = Tensor(rng.normal(size=(2 * d, 2)))
        _, pre = ad.view_attention(stack(zs, zf), wa, 0.2, False)
        worst_sum = max(worst_sum, float(np.abs(pre.data.sum(axis=1) - 1.0).max()))
        fused, m = ad.view_attention(stack(zs, zf), wa, 0.2, True)
        worst_norm = max(worst_norm,
                         float(np.abs(np.linalg.norm(m.data, axis=1) - 1.0).max()))
        expected = m.data[:, 0:1] * zs + m.data[:, 1:2] * zf
        assert np.array_equal(fused.data, expected)
    assert worst_sum <= 1e-12
    assert worst_norm <= 1e-12
    report(5, f"softmax row sums off by {worst_sum:.1e}, post-l2 norms off by "
              f"{worst_norm:.1e}, fused output exact")


# ---------------------------------------------------------------------------
# criterion 6: ARI/NMI against pair-counting and entropy oracles


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
        b = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
        worst = max(worst, abs(ari(a, b) - ari_pair_counting_oracle(a, b)),
                    abs(nmi(a, b) - nmi_entropy_oracle(a, b)))
        assert abs(ari(a, b) - ari_pair_counting_oracle(a, b)) < 1e-12
        assert abs(nmi(a, b) - nmi_entropy_oracle(a, b)) < 1e-12
    ident = rng.integers(0, 4, size=30)
    assert ari(ident, ident) == 1.0
    assert nmi(ident, ident) == pytest.approx(1.0, abs=1e-12)
    report(6, f"100 label pairs within {worst:.1e} of the oracles; identical pairs score 1")


# ---------------------------------------------------------------------------
# criteria 7 and 8: end-to-end synthetic recovery and ablation direction


@pytest.fixture(scope="module")
def synthetic_suite():
    """Full and late-fusion variants trained on the five benchmark seeds
    (30x30 grid, 5 band domains, 200 genes, dropout 0.3, default config)."""
    scores = {"full": [], "no_mf": []}
    durations = []
    loss_series = []
    for seed in range(5):
        ds = preprocess(generate_synthetic(30, 5, 200, seed=seed,
                                           dropout=0.3, dispersion=2.0))
        graphs = build_graph_pair(ds.coords, ds.preprocessed)
        for variant, overrides in (("full", {}), ("no_mf", {"disable_fusion": True})):
            started = time.perf_counter()
            result = train(ds, graphs, TrainConfig(seed=seed, **overrides))
            part = kmeans(result.trace.embedding, 5, seed=seed, restarts=20)
            scores[variant].append(ari(part.labels, ds.truth_labels))
            if variant == "full":
                durations.append(time.perf_counter() - started)
                loss_series.append([r.losses.total for r in result.log.records])
    return scores, durations, loss_series


@pytest.mark.slow
def test_criterion_7_synthetic_recovery(synthetic_suite):
    scores, durations, loss_series = synthetic_suite
    passing = sum(s >= 0.8 for s in scores["full"])
    assert passing >= 4, f"ARI per seed: {scores['full']}"
    assert max(durations) < 300.0
    for totals in loss_series:  # training makes progress on every seed
        assert np.median(totals[-10:]) < totals[0]
    report(7, f"ARI >= 0.8 on {passing}/5 seeds "
              f"(scores {[round(s, 3) for s in scores['full']]}), "
              f"slowest seed {max(durations):.0f}s < 300s")


@pytest.mark.slow
def test_criterion_8_ablation_direction(synthetic_suite):
    scores, _, _ = synthetic_suite
    full_mean = float(np.mean(scores["full"]))
    late_mean = float(np.mean(scores["no_mf"]))
    assert full_mean >= late_mean, f"full {full_mean} vs late fusion {late_mean}"
    report(8, f"mean ARI full {full_mean:.3f} >= late fusion {late_mean:.3f} over 5 seeds")


# ---------------------------------------------------------------------------
# criterion 10: bitwise determinism


def test_criterion_10_determinism():
    ds = preprocess(generate_synthetic(10, 3, 30, seed=5, dropout=0.3, dispersion=2.0),
                    min_spots=1, n_hvg=30)
    graphs = build_graph_pair(ds.coords, ds.preprocessed)
    cfg = TrainConfig(epochs=15, hidden_dims=(16, 8), decoder_hidden=16, seed=4)
    runs = []
    for _ in range(2):
        result = train(ds, graphs, cfg)
        part = kmeans(result.trace.embedding, 3, seed=cfg.seed, restarts=10)
        runs.append((result.log.loss_table(), part.labels.copy(),
                     result.trace.embedding.data.copy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])
    report(10, "loss log, labels and embedding bitwise identical across reruns")


# ---------------------------------------------------------------------------
# criterion 9 (optional): externally supplied tissue slice


def test_criterion_9_external_slice_if_present():
    root = os.environ.get("STMFG_DLPFC_DIR")
    if not root:
        pytest.skip("set STMFG_DLPFC_DIR to run the external-data criterion")
    expression = os.path.join(root, "expression.csv")
    if not os.path.exists(expression):
        expression = os.path.join(root, "expression.mtx")
    dataset = load_dataset(expression,
                           os.path.join(root, "coords.csv"),
                           os.path.join(root, "labels.csv"))
    dataset = preprocess(dataset)
    graphs = build_graph_pair(dataset.coords, dataset.preprocessed)
    cfg = TrainConfig(seed=0)
    result = train(dataset, graphs, cfg)
    part = kmeans(result.trace.embedding, dataset.n_domains, seed=0)
    score = ari(part.labels, dataset.truth_labels)
    assert np.isfinite(score)
    report(9, f"external slice ran end to end, ARI {score:.3f} (stretch goal, not a gate)")
