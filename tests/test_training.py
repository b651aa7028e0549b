"""Optimizer and training-loop tests: Adam closed forms and an independent
reference trace, loop-unrolling equality, determinism, and ablation
exactness."""

import ast
import importlib
import importlib.util
import inspect
import tracemalloc
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg import training
from stmfg.autodiff import Tensor
from stmfg.cli import ABLATION_VARIANTS
from stmfg.data import Dataset, generate_synthetic, preprocess
from stmfg.errors import ContractError, NumericError
from stmfg.graphs import build_graph_pair
from stmfg.losses import LossBreakdown
from stmfg.model import ForwardTrace, ModelParams
from stmfg.training import Adam, TrainConfig, run_epoch, train, trainable_tensors

from conftest import grad_check, read_checkpoint, run_on_workers, traced_held, traced_peak
from test_autodiff import (
    allocating_cosine_link_loss,
    allocating_cross_view_contrastive,
    allocating_zinb_decoder_nll,
    hadamard,
    propagate_first_graph_conv,
    reference_graph_conv,
    stack_rows,
)


def small_problem(seed=0, n_side=8, k=2, genes=12):
    ds = preprocess(generate_synthetic(n_side, k, genes, seed=seed,
                                       dropout=0.3, dispersion=2.0),
                    min_spots=1, n_hvg=genes)
    graphs = build_graph_pair(ds.coords, ds.preprocessed, radius=550.0, k=4)
    return ds, graphs


def small_config(**overrides):
    base = dict(epochs=3, hidden_dims=(8, 4), decoder_hidden=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def adam_reference_scalar(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent plain-float Adam for the reference trace."""
    w, m, v = w0, 0.0, 0.0
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(w)
    return trace


class AllocatingAdam:
    """The Adam step written as whole-array expressions, one temporary per
    operation: the updates the in-place ``Adam.step`` must equal bitwise."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.beta1, self.beta2, self.eps, self.t = beta1, beta2, eps, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TestAdam:
    @pytest.mark.parametrize("genes", [200, 3000])
    def test_matches_allocating_step_bitwise_at_900x3000_shapes(self, genes, monkeypatch):
        """Twenty steps on the default model's parameters at 200 genes
        (about 154k values) and at 3000 (1.95M) are bitwise the allocating
        expression's at 1, 2 and 3 lane workers, run side by side; on more
        than one worker each step submits lane 1 once per phase, at either
        size."""
        cfg = TrainConfig()
        dims = [genes, *cfg.hidden_dims]

        def tensors():
            return trainable_tensors(ModelParams.initialize(
                np.random.default_rng(0), dims, genes, cfg.decoder_hidden), cfg)

        mine = {workers: tensors() for workers in (1, 2, 3)}
        opts = {workers: Adam(params, lr=0.01, weight_decay=cfg.weight_decay)
                for workers, params in mine.items()}
        ref = tensors()
        ref_opt = AllocatingAdam(ref, lr=0.01, weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(1)
        for _ in range(20):
            for q in ref:
                q.grad = rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=q.data.shape)
            ref_opt.step()
            for workers, params in mine.items():
                for p, q in zip(params, ref):
                    p.grad = q.grad.copy()
                _, submitted = run_on_workers(monkeypatch, workers, opts[workers].step)
                assert len(submitted) == (2 if workers > 1 else 0)
                for p, q in zip(params, ref):
                    np.testing.assert_array_equal(p.data, q.data)
        for opt in opts.values():
            for m, v, q_m, q_v in zip(opt.m, opt.v, ref_opt.m, ref_opt.v):
                np.testing.assert_array_equal(m, q_m)
                np.testing.assert_array_equal(v, q_v)

    def test_first_step_is_one_learning_rate(self):
        p = Tensor([[2.0]], requires_grad=True)
        p.grad = np.array([[1.0]])
        opt = Adam([p], lr=0.001)
        opt.step()
        # bias-corrected first step normalizes the update to lr (up to eps)
        assert 2.0 - p.data[0, 0] == pytest.approx(0.001, rel=1e-7)

    def test_zero_gradient_is_fixed_point(self):
        p = Tensor([[3.0, -1.0]], requires_grad=True)
        p.grad = np.zeros((1, 2))
        opt = Adam([p], lr=0.1, weight_decay=0.0)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(p.data, [[3.0, -1.0]])

    def test_missing_gradient_rejected(self):
        p = Tensor([[1.0]], requires_grad=True)
        with pytest.raises(ContractError):
            Adam([p], lr=0.1).step()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("names,named", [(None, "parameter 1"), (["a", "b"], "b")])
    def test_non_finite_second_moment_names_parameter(self, names, named, monkeypatch):
        """g*g overflowing would leave v = inf and freeze the parameter (its
        steps exactly 0): the step refuses and moves no parameter. On one
        worker the overflow is in lane 0's half of the parameter, on two
        only in lane 1's, which the second thread updates."""
        for workers, q_grad in ((1, [[1e200, 0.0]]), (2, [[0.0, 1e200]])):
            p, q = Tensor([[1.0]], requires_grad=True), Tensor([[2.0, 3.0]], requires_grad=True)
            p.grad, q.grad = np.array([[1.0]]), np.array(q_grad)
            opt = Adam([p, q], lr=0.1, names=names)

            def step():
                with pytest.raises(NumericError,
                                   match=f"Adam step 1: the second moment of {named} "):
                    opt.step()

            _, submitted = run_on_workers(monkeypatch, workers, step)
            assert len(submitted) == workers - 1
            np.testing.assert_array_equal(p.data, [[1.0]])
            np.testing.assert_array_equal(q.data, [[2.0, 3.0]])

    def test_names_must_match_parameters(self):
        with pytest.raises(ContractError):
            Adam([Tensor([[1.0]], requires_grad=True)], lr=0.1, names=["a", "b"])

    def test_ten_steps_match_reference_trace(self):
        p = Tensor([[1.0]], requires_grad=True)
        opt = Adam([p], lr=0.05)
        mine = []
        for _ in range(10):
            opt.zero_grad()
            loss = hadamard(p, p)
            ad.backward(loss)
            opt.step()
            mine.append(p.data[0, 0])
        reference = adam_reference_scalar(lambda w: 2.0 * w, 1.0, 0.05, 10)
        np.testing.assert_allclose(mine, reference, atol=1e-12)

    def test_weight_decay_added_to_gradient(self):
        # with zero loss gradient the first update reduces to -lr * sign(w)
        p = Tensor([[4.0]], requires_grad=True)
        p.grad = np.zeros((1, 1))
        opt = Adam([p], lr=0.01, weight_decay=0.5)
        opt.step()
        assert 4.0 - p.data[0, 0] == pytest.approx(0.01, rel=1e-7)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(lr=0.0)
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)
        with pytest.raises(ContractError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ContractError):
            TrainConfig(zinb_target="nonsense")
        with pytest.raises(ContractError, match="seed must be >= 0"):
            TrainConfig(seed=-1)

    def test_zero_width_layer_rejected(self):
        # the fused pairwise losses accept zero-width embeddings, so the
        # width is checked where the configuration is built
        with pytest.raises(ContractError, match="hidden widths"):
            TrainConfig(hidden_dims=(8, 0))

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=7, hidden_dims=(16, 8), disable_reg=True)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg
        with pytest.raises(ContractError):
            TrainConfig.from_dict({"no_such_key": 1})


class TestTrain:
    def test_single_epoch_equals_manual_sequence(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=1)
        result = train(ds, graphs, cfg)

        rng = np.random.default_rng(cfg.seed)
        x = Tensor(ds.preprocessed)
        params = ModelParams.initialize(rng, [x.cols, *cfg.hidden_dims],
                                        recon_width=ds.preprocessed.shape[1],
                                        decoder_hidden=cfg.decoder_hidden)
        opt = Adam([t for _, t in params.named_tensors()], lr=cfg.lr,
                   weight_decay=cfg.weight_decay)
        total, _, _ = run_epoch(x, ds.preprocessed, False, graphs, params, cfg)
        opt.zero_grad()
        ad.backward(total)
        opt.step()

        for (name, mine), (_, theirs) in zip(params.named_tensors(),
                                             result.params.named_tensors()):
            np.testing.assert_array_equal(mine.data, theirs.data, err_msg=name)

    def test_loss_decreases_on_synthetic(self):
        for seed in (0, 1):
            ds, graphs = small_problem(seed=seed)
            result = train(ds, graphs, small_config(epochs=40, seed=seed))
            totals = [r.losses.total for r in result.log.records]
            assert np.median(totals[-10:]) < totals[0]

    def test_same_seed_is_bitwise_identical(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=4)
        a = train(ds, graphs, cfg)
        b = train(ds, graphs, cfg)
        for (_, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
            np.testing.assert_array_equal(ta.data, tb.data)
        assert a.log.loss_table() == b.log.loss_table()

    def test_log_has_one_record_per_epoch(self):
        ds, graphs = small_problem()
        result = train(ds, graphs, small_config(epochs=5))
        assert [r.epoch for r in result.log.records] == [1, 2, 3, 4, 5]
        table = result.log.to_table()
        assert table.splitlines()[0] == "epoch,zinb,cl,reg,total,seconds"
        assert len(table.splitlines()) == 6

    def test_full_table_extends_the_loss_table(self):
        """to_table's first five columns are loss_table() and the sixth is
        each epoch's seconds, as the loss_log.csv rows were formatted."""
        breakdowns = [LossBreakdown(0.1, -2.5e-300, 1.0 / 3.0, 7.0, 1.0, 0.5, 0.25),
                      LossBreakdown(12345.678, 0.0, -0.0, 1e17, 1.0, 0.5, 0.25)]
        log = training.TrainLog([training.EpochRecord(i + 1, b, s) for i, (b, s)
                                 in enumerate(zip(breakdowns, (0.0123456789, 2.5)))])
        full = log.to_table().splitlines()
        assert [row.rsplit(",", 1)[0] for row in full] == log.loss_table().splitlines()
        assert full[0] == "epoch,zinb,cl,reg,total,seconds"
        assert full[1:] == [f"{r.epoch},{r.losses.zinb:.17g},{r.losses.cl:.17g},"
                            f"{r.losses.reg:.17g},{r.losses.total:.17g},{r.seconds:.6f}"
                            for r in log.records]

    def test_trace_reflects_final_parameters(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=2)
        result = train(ds, graphs, cfg)
        x = Tensor(ds.preprocessed)
        _, _, fresh = run_epoch(x, ds.preprocessed, False, graphs, result.params, cfg)
        np.testing.assert_array_equal(result.trace.embedding.data, fresh.embedding.data)

    def test_checkpoints_written(self, tmp_path):
        ds, graphs = small_problem()
        result = train(ds, graphs, small_config(epochs=4), checkpoint_dir=tmp_path,
                       checkpoint_every=2)
        assert (tmp_path / "params_epoch00002.txt").exists()
        final = tmp_path / "params_final.txt"
        # what train() returns is what it wrote, value for value
        for (name, t), (read_name, values) in zip(result.params.named_tensors(),
                                                  read_checkpoint(final), strict=True):
            assert read_name == name
            assert values.shape == t.data.shape and values.tobytes() == t.data.tobytes(), name
        assert (tmp_path / "params_epoch00004.txt").read_bytes() == final.read_bytes()


class TestContrastiveAllLayers:
    def test_gradients_match_finite_differences(self):
        ds, graphs = small_problem(n_side=5)
        cfg = small_config(hidden_dims=(5, 4), contrastive_layers="all", lam=1.0,
                           disable_zinb=True, disable_reg=True)
        x = Tensor(ds.preprocessed)
        params = ModelParams.initialize(np.random.default_rng(cfg.seed),
                                        [x.cols, *cfg.hidden_dims], recon_width=x.cols,
                                        decoder_hidden=cfg.decoder_hidden)
        for tensor in trainable_tensors(params, cfg):
            err = grad_check(
                lambda t: run_epoch(x, ds.preprocessed, False, graphs, params, cfg)[0],
                tensor, 1e-5)
            assert err < 1e-5


class TestAblations:
    def test_disabled_terms_record_zero(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=2, disable_cl=True, disable_reg=True)
        result = train(ds, graphs, cfg)
        for record in result.log.records:
            assert record.losses.cl == 0.0
            assert record.losses.reg == 0.0
            assert record.losses.total == record.losses.zinb * cfg.alpha

    def test_disable_cl_matches_zero_weight_exactly(self):
        # dropping the term from the graph must equal weighting it by zero,
        # since a zero-weighted branch contributes exactly zero gradient
        ds, graphs = small_problem()
        a = train(ds, graphs, small_config(epochs=3, disable_cl=True))
        b = train(ds, graphs, small_config(epochs=3, lam=0.0))
        for (_, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_disable_zinb_skips_decoder(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=2, disable_zinb=True)
        result = train(ds, graphs, cfg)
        assert all(r.losses.zinb == 0.0 for r in result.log.records)
        # no gradient ever reached the decoder: it keeps its initial values
        init = ModelParams.initialize(np.random.default_rng(cfg.seed),
                                      [ds.preprocessed.shape[1], *cfg.hidden_dims],
                                      recon_width=ds.preprocessed.shape[1],
                                      decoder_hidden=cfg.decoder_hidden)
        for (name, got), (_, want) in zip(result.params.named_tensors(), init.named_tensors()):
            if name.startswith(("decoder_", "dropout_", "mean_", "dispersion_")):
                np.testing.assert_array_equal(got.data, want.data)

    def test_late_fusion_differs_from_per_layer(self):
        ds, graphs = small_problem()
        full = train(ds, graphs, small_config(epochs=2))
        late = train(ds, graphs, small_config(epochs=2, disable_fusion=True))
        assert not np.allclose(full.trace.embedding.data, late.trace.embedding.data)

    def test_contrastive_over_all_layers_runs(self):
        ds, graphs = small_problem()
        result = train(ds, graphs, small_config(epochs=2, contrastive_layers="all"))
        assert result.log.records[0].losses.cl > 0.0

    def test_counts_reconstruction_target(self):
        ds, graphs = small_problem()
        result = train(ds, graphs, small_config(epochs=2, zinb_target="counts"))
        assert np.isfinite([r.losses.total for r in result.log.records]).all()

    def test_released_counts(self):
        """Without its raw counts a dataset trains on the default target
        bitwise as before, and the counts target refuses it typed."""
        ds, graphs = small_problem()
        released = replace(ds, counts=None)
        cfg = small_config(epochs=2)
        assert (train(released, graphs, cfg).log.loss_table()
                == train(ds, graphs, cfg).log.loss_table())
        with pytest.raises(ContractError, match="raw counts"):
            train(released, graphs, small_config(epochs=2, zinb_target="counts"))


class TestNumericalAbort:
    def test_non_finite_loss_names_component(self, monkeypatch):
        ds, graphs = small_problem()

        def poisoned(*args, **kwargs):
            t = Tensor([[1.0]])
            t.data[0, 0] = np.nan
            return t

        monkeypatch.setattr("stmfg.training.spatial_reg_loss", poisoned)
        with pytest.raises(NumericError, match="reg"):
            train(ds, graphs, small_config(epochs=1))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_final_embedding_is_numeric_error(self):
        # one step at lr 1e200 leaves finite weights near 1e200 whose
        # products overflow in the final forward pass; the typed error is
        # all that surfaces, with no numpy warning before it
        ds, graphs = small_problem()
        with pytest.raises(NumericError, match="final embedding"):
            train(ds, graphs, small_config(epochs=1, lr=1e200))

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_a_worker_tile_prints_no_warning(self, monkeypatch):
        """A pooled contrastive tile runs under train()'s error state: at
        tau = 1e-308 each item's term is near 1/tau, so every tile's sum of
        them overflows, the worker's included, and the typed error is all
        that surfaces."""
        monkeypatch.setattr(ad, "PAIRWISE_TILE", 16)
        ds, graphs = small_problem()

        def run():
            with pytest.raises(NumericError, match="component 'cl'"):
                train(ds, graphs, small_config(epochs=1, tau=1e-308))

        _, submitted = run_on_workers(monkeypatch, 2, run)
        assert submitted

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_a_zinb_worker_lane_prints_no_warning(self, monkeypatch):
        """The ZINB node's lane 1 runs pooled under train()'s error state:
        the 64 x 16 target is cut by rows, and after one step at lr 1e90 the
        encoder and decoder layers stay finite (about 1e90 per layer) while
        every head product overflows, the worker lane's included; the typed
        error is all that surfaces."""
        ds, graphs = small_problem(genes=16)
        target = ad.ZinbTarget(ds.preprocessed, require_integer=False)
        assert target.by_rows and all(target.lanes)

        def run():
            with pytest.raises(NumericError, match="component 'zinb'"):
                train(ds, graphs, small_config(epochs=2, lr=1e90))

        _, submitted = run_on_workers(monkeypatch, 2, run)
        assert submitted


# One epoch's configurations: each ablation variant, and the switches and
# depth that change which fused nodes an epoch builds.
EPOCH_CONFIGS = {**ABLATION_VARIANTS, "cl_all_layers": {"contrastive_layers": "all"},
                 "no_fusion_l2": {"fusion_l2": False}, "counts_target": {"zinb_target": "counts"},
                 "three_layers": {"hidden_dims": (8, 6, 4)}}


@pytest.mark.parametrize("genes", [12, 40], ids=["zinb-row-cut", "zinb-gene-cut"])
@pytest.mark.parametrize("config", list(EPOCH_CONFIGS))
def test_epoch_bitwise_at_any_worker_count(config, genes, monkeypatch):
    """One epoch's four loss terms, every trainable gradient and the
    parameters after one Adam step are bitwise the same at 1, 2 and 3 lane
    workers, and equal to the epoch built on the serial allocating
    references of the three fused nodes. On 100 spots every fused node has
    lane-1 work: 200 contrastive items and 100 link rows are more than one
    96-row tile, and the ZINB target is cut by rows at 12 genes and by
    genes at 40. On more than one worker each fused loss node the epoch
    builds submits lane 1 once, each layer's view convolutions once
    forward and once backward, and the Adam step once per phase. Every
    node of the epoch's graph has a plain closure of its own: no op has
    several outputs."""
    ds, graphs = small_problem(n_side=10, genes=genes)
    cfg = small_config(**EPOCH_CONFIGS[config])
    target, is_counts = training._reconstruction_target(ds, cfg)
    assert ad.ZinbTarget(target, require_integer=is_counts).by_rows == (genes == 12)
    x = Tensor(ds.preprocessed)
    contrastive_calls = len(cfg.hidden_dims) if cfg.contrastive_layers == "all" else 1
    nodes = ((not cfg.disable_zinb) + (not cfg.disable_reg)
             + (0 if cfg.disable_cl else contrastive_calls))
    submits = nodes + 2 * len(cfg.hidden_dims) + 2

    def epoch():
        params = ModelParams.initialize(np.random.default_rng(cfg.seed),
                                        [x.cols, *cfg.hidden_dims], recon_width=x.cols,
                                        decoder_hidden=cfg.decoder_hidden)
        total, breakdown, _ = run_epoch(x, target, is_counts, graphs, params, cfg)
        closures = [t._backward for t in reachable([total]) if t._backward is not None]
        assert all(isinstance(fn, types.FunctionType) for fn in closures)
        assert len({id(fn) for fn in closures}) == len(closures)
        ad.backward(total)
        tensors = trainable_tensors(params, cfg)
        assert all(t.grad is not None for t in tensors)
        losses = [breakdown.zinb, breakdown.cl, breakdown.reg, breakdown.total]
        grads = [t.grad.tobytes() for t in tensors]
        Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay).step()
        return [v.hex() for v in losses], grads, [t.data.tobytes() for t in tensors]

    runs = []
    for workers in (1, 2, 3):
        result, submitted = run_on_workers(monkeypatch, workers, epoch)
        assert len(submitted) == (submits if workers > 1 else 0)
        runs.append(result)
    for name, reference in (("zinb_decoder_nll", allocating_zinb_decoder_nll),
                            ("cross_view_contrastive", allocating_cross_view_contrastive),
                            ("cosine_link_loss", allocating_cosine_link_loss)):
        monkeypatch.setattr(ad, name, reference)
    want = epoch()
    assert all(run == want for run in runs)


class TestEpochMemory:
    def test_epoch_allocates_no_genes_wide_buffer(self, monkeypatch):
        """With the first layer's propagations kept for the run and the
        decoder heads inside the blocked likelihood node, an epoch after the
        first allocates less than one n-by-genes float64 buffer (8 MiB)."""
        monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", 16)
        monkeypatch.setattr(ad, "PAIRWISE_TILE", 16)
        rng = np.random.default_rng(17)
        n, genes = 2048, 512
        grid = np.stack(np.divmod(np.arange(n), 64), axis=1) * 100.0
        ds = Dataset(counts=rng.poisson(1.0, size=(n, genes)).astype(float), coords=grid,
                     spot_ids=[f"s{i}" for i in range(n)],
                     gene_ids=[f"g{j:04d}" for j in range(genes)])
        ds = preprocess(ds, min_spots=1, n_hvg=genes)
        assert ds.preprocessed.shape == (n, genes)
        graphs = build_graph_pair(ds.coords, ds.preprocessed, radius=150.0, k=4)
        peaks = []
        step = Adam.step

        def traced_step(self):
            step(self)
            if self.t == 1:
                tracemalloc.start()
            else:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(training.Adam, "step", traced_step)
        train(ds, graphs, small_config(epochs=2, hidden_dims=(16, 8), decoder_hidden=16))
        buffer = n * genes * 8
        assert peaks and peaks[0] < buffer, f"epoch peak {peaks[0] / 2**20:.2f} MiB"


    @pytest.fixture(scope="class")
    def train_peak_buffers(self, tmp_path_factory):
        """The traced peak of a whole ``train()`` at 512 x 2048 (decoder and
        encoder narrow, a checkpoint written), in n-by-genes buffers."""
        rng = np.random.default_rng(18)
        n, genes = 512, 2048
        grid = np.stack(np.divmod(np.arange(n), 23), axis=1) * 100.0
        ds = Dataset(counts=rng.poisson(1.0, size=(n, genes)).astype(float), coords=grid,
                     spot_ids=[f"s{i}" for i in range(n)],
                     gene_ids=[f"g{j:04d}" for j in range(genes)])
        ds = preprocess(ds, min_spots=1, n_hvg=genes)
        assert ds.preprocessed.shape == (n, genes)
        graphs = build_graph_pair(ds.coords, ds.preprocessed, radius=150.0, k=4)
        cfg = small_config(epochs=2, hidden_dims=(16, 8), decoder_hidden=16)
        out = tmp_path_factory.mktemp("checkpoints")
        _, peak = traced_peak(lambda: train(ds, graphs, cfg, checkpoint_dir=out))
        return peak / ds.preprocessed.nbytes

    def test_train_peak_at_gene_width(self, train_peak_buffers):
        """The whole run peaks within 9 n-by-genes buffers (about 3.8: the
        count constants, about 0.65 as bit masks and positive counts, the
        ZINB workspace of 128-row blocks under the entry budget, and the
        rest; about 5.5 with int32 indices and ten block planes). It holds
        no copy of the input."""
        assert train_peak_buffers <= 9.0, f"train peak {train_peak_buffers:.2f} buffers"

    def test_train_holds_no_propagated_input(self, train_peak_buffers):
        """Within 7 buffers: the first layer convolves X itself, so no
        propagation A X of the input is held for the run."""
        assert train_peak_buffers <= 7.0, f"train peak {train_peak_buffers:.2f} buffers"


def storing_backward(loss):
    """ad.backward as it was before gradients went to leaves only: every
    reachable requires_grad tensor, op outputs included, keeps its total."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    pending = {id(loss): np.ones((1, 1))}

    def accum(t, contribution):
        buf = pending.get(id(t))
        pending[id(t)] = contribution if buf is None else buf + contribution

    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, accum)
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g


def reachable(roots):
    """Every tensor reachable from ``roots`` through op parents."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def trace_tensors(trace):
    return [trace.embedding, *trace.views, *trace.fusion_weights]


class TestLeafGradients:
    @staticmethod
    def epoch(ds, graphs, cfg, backward):
        """One epoch with its backward; returns the loss, the trace and the
        trainable tensors."""
        x = Tensor(ds.preprocessed, copy=False)
        params = ModelParams.initialize(np.random.default_rng(0), [x.cols, *cfg.hidden_dims],
                                        recon_width=x.cols, decoder_hidden=cfg.decoder_hidden)
        total, _, trace = run_epoch(x, ds.preprocessed, False, graphs, params, cfg)
        backward(total)
        return total, trace, trainable_tensors(params, cfg)

    @pytest.mark.parametrize("overrides", [{}, {"contrastive_layers": "all"},
                                           {"disable_fusion": True}],
                             ids=["default", "all-layers", "no-fusion"])
    def test_only_leaves_hold_gradients(self, overrides):
        """After backward no op output, trace tensors included, holds a
        gradient, and every parameter's gradient is bitwise the one the
        storing backward gives."""
        ds, graphs = small_problem()
        cfg = small_config(epochs=1, **overrides)
        total, trace, leaves = self.epoch(ds, graphs, cfg, ad.backward)
        _, stored_trace, stored_leaves = self.epoch(ds, graphs, cfg, storing_backward)
        nodes = reachable([total])
        interior = [t for t in nodes if t._backward is not None]
        assert len(interior) >= 10 and trace.embedding in interior
        assert all(t.grad is None for t in interior + trace_tensors(trace))
        assert stored_trace.embedding.grad is not None  # what the old pass kept
        assert {id(t) for t in leaves} <= {id(t) for t in nodes}
        for got, want in zip(leaves, stored_leaves):
            assert got.grad is not None
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_trace_after_backward_holds_its_activations_only(self):
        """At 400 spots x 50 genes, default widths, the trace kept from one
        epoch after backward holds within 1.1 times its activations' bytes
        (the n-by-2 attention arrays are the rest); the storing backward
        doubled it with a gradient on every activation."""
        ds, graphs = small_problem(n_side=20, k=5, genes=50)
        cfg = TrainConfig(epochs=1, seed=0)
        x = Tensor(ds.preprocessed, copy=False)
        params = ModelParams.initialize(np.random.default_rng(0), [x.cols, *cfg.hidden_dims],
                                        recon_width=x.cols, decoder_hidden=cfg.decoder_hidden)
        target = ad.ZinbTarget(ds.preprocessed, require_integer=False)
        leaves = [t for _, t in params.named_tensors()]

        def epoch():
            total, _, trace = run_epoch(x, target, False, graphs, params, cfg)
            ad.backward(total)
            ad.zero_grad(leaves)
            return trace

        trace, held = traced_held(epoch)
        constants = {id(t) for t in leaves} | {id(x)}
        activations = sum(t.data.nbytes for t in reachable(trace_tensors(trace))
                          if id(t) not in constants)
        assert held <= 1.1 * activations, f"held {held / activations:.2f} activations"


def test_entry_budget_keeps_training_bits_at_300_genes(monkeypatch):
    """At 300 genes the 256-row cap binds, so training under the entry
    budget gives the loss table and embedding bytes of the row-cap-only
    layout (the budget patched out), over 324 spots: two blocks."""
    ds, graphs = small_problem(n_side=18, genes=300)
    blocks = ad.ZinbTarget(ds.preprocessed, require_integer=False).lanes[0]
    assert [stop - start for start, stop, *_ in blocks] == [256, 68]
    runs = []
    for entries in (ad.ZINB_BLOCK_ENTRIES, 2**40):
        monkeypatch.setattr(ad, "ZINB_BLOCK_ENTRIES", entries)
        result = train(ds, graphs, small_config(epochs=4))
        runs.append((result.log.loss_table(), result.trace.embedding.data.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("block", [16, 256])
def test_training_matches_allocating_zinb_reference(block, monkeypatch):
    """Training with the workspace ZINB node and with the allocating
    reference patched in gives the same loss table and embedding bytes."""
    monkeypatch.setattr(ad, "ZINB_ROW_BLOCK", block)
    ds, graphs = small_problem(genes=300)
    runs = []
    for nll in (ad.zinb_decoder_nll, allocating_zinb_decoder_nll):
        monkeypatch.setattr(ad, "zinb_decoder_nll", nll)
        result = train(ds, graphs, small_config(epochs=4))
        runs.append((result.log.loss_table(), result.trace.embedding.data.tobytes()))
    assert runs[0] == runs[1]


def test_training_matches_graph_conv_reference(monkeypatch):
    """Training with the fused ReLU layers and with their generic-op chain
    patched in, the encoder's view pairs as two chains each, their outputs
    row-stacked, gives the same loss table and embedding bytes; with the
    propagate-first chain, losses and embedding agree within 1e-12."""
    ds, graphs = small_problem()
    runs = []
    for conv, views in ((ad.graph_conv, ad.graph_conv_views),
                        (reference_graph_conv, None), (propagate_first_graph_conv, None)):
        monkeypatch.setattr(ad, "graph_conv", conv)
        monkeypatch.setattr(ad, "graph_conv_views",
                            views or (lambda x, spatial, feature, conv=conv:
                                      stack_rows(conv(x, *spatial), conv(x, *feature))))
        runs.append(train(ds, graphs, small_config(epochs=4)))
    fused, ref, old = runs
    assert fused.log.loss_table() == ref.log.loss_table()
    assert fused.trace.embedding.data.tobytes() == ref.trace.embedding.data.tobytes()
    for mine, theirs in zip(fused.log.records, old.log.records):
        np.testing.assert_allclose(
            [mine.losses.zinb, mine.losses.cl, mine.losses.reg, mine.losses.total],
            [theirs.losses.zinb, theirs.losses.cl, theirs.losses.reg, theirs.losses.total],
            rtol=1e-12)
    np.testing.assert_allclose(fused.trace.embedding.data, old.trace.embedding.data,
                               rtol=1e-12, atol=1e-14)


def default_epoch(ds, graphs):
    """One default-config epoch on ``ds``, as ``train`` runs its first."""
    cfg = TrainConfig(epochs=1, seed=0)
    x = Tensor(ds.preprocessed)
    params = ModelParams.initialize(np.random.default_rng(0), [x.cols, *cfg.hidden_dims],
                                    recon_width=x.cols, decoder_hidden=cfg.decoder_hidden)
    return run_epoch(x, ds.preprocessed, False, graphs, params, cfg)


def load_perfbench(name):
    """A ``perfbench`` script loaded by path, its source and its module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path.read_text(encoding="utf-8"), module


def test_benchmark_layer_hooks_resolve_and_run(monkeypatch):
    """The traced benchmark run wraps the names in ``LAYER_HOOKS`` of
    ``perfbench/child.py``: each must exist, and each ``stmfg.training``
    name must be looked up through the module global by a default epoch,
    or its span silently stays empty; ``Adam.step`` is wrapped too.
    ``perfbench/plateau.py`` calls ``run_epoch``, ``Adam`` and other
    ``stmfg.training`` names: every such call must bind to the current
    signature."""
    source, plateau = load_perfbench("plateau")
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "stmfg.training"
                for alias in node.names}
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in imported]
    assert sum(call.func.id == "run_epoch" for call in calls) == 2
    assert any(call.func.id == "Adam" for call in calls)
    assert plateau.run_epoch is training.run_epoch
    for call in calls:
        signature = inspect.signature(getattr(training, call.func.id))
        bound = signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        if call.func.id == "run_epoch":
            assert len(call.args) == 6 and len(bound.arguments) == 6

    _, child = load_perfbench("child")
    for module, attr, *_ in child.LAYER_HOOKS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    assert callable(getattr(training.Adam, "step", None))

    hooked = {attr for module, attr, *_ in child.LAYER_HOOKS if module == "stmfg.training"}
    assert hooked  # the training stages are traced
    called = set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in hooked:
        monkeypatch.setattr(training, name, recorded(name, getattr(training, name)))
    default_epoch(*small_problem())
    assert called == hooked


def test_default_epoch_builds_fourteen_engine_ops(monkeypatch):
    """One default-config epoch calls the tensor ops of ad.__all__ 14 times,
    counted as the benchmark counts them: two view-convolution nodes (one
    per layer, its output the two views stacked), two attention steps, the
    decoder's hidden layer, the ZINB, contrastive and regularizer nodes,
    and six scale and add nodes that average the regularizer and weigh and
    sum the three terms."""
    ds, graphs = small_problem()
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in set(ad.__all__) - {"backward", "zero_grad"}:
        fn = getattr(ad, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(ad, name, counted(name, fn))
    default_epoch(ds, graphs)
    assert len(calls) == 14
    assert Counter(calls) == {"graph_conv_views": 2, "graph_conv": 1, "view_attention": 2,
                              "zinb_decoder_nll": 1, "cross_view_contrastive": 1,
                              "cosine_link_loss": 1, "scale": 4, "add": 2}


def test_forward_trace_holds_encoder_outputs_only():
    names = set(ForwardTrace.__dataclass_fields__)
    assert names == {"embedding", "views", "fusion_weights"}
