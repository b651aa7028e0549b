"""Optimizer and training-loop tests: Adam closed forms and an independent
reference trace, loop-unrolling equality, determinism, and ablation
exactness."""

import tracemalloc

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg import training
from stmfg.autodiff import Tensor
from stmfg.data import Dataset, generate_synthetic, preprocess
from stmfg.errors import ContractError, NumericError
from stmfg.graphs import build_graph_pair
from stmfg.model import ForwardTrace, ModelParams
from stmfg.training import Adam, TrainConfig, run_epoch, train, trainable_tensors


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


class TestAdam:
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

    def test_ten_steps_match_reference_trace(self):
        p = Tensor([[1.0]], requires_grad=True)
        opt = Adam([p], lr=0.05)
        mine = []
        for _ in range(10):
            opt.zero_grad()
            loss = ad.hadamard(p, p)
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
        opt = Adam(params.tensors(), lr=cfg.lr, weight_decay=cfg.weight_decay)
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

    def test_trace_reflects_final_parameters(self):
        ds, graphs = small_problem()
        cfg = small_config(epochs=2)
        result = train(ds, graphs, cfg)
        x = Tensor(ds.preprocessed)
        _, _, fresh = run_epoch(x, ds.preprocessed, False, graphs, result.params, cfg)
        np.testing.assert_array_equal(result.trace.embedding.data, fresh.embedding.data)

    def test_checkpoints_written(self, tmp_path):
        ds, graphs = small_problem()
        train(ds, graphs, small_config(epochs=4), checkpoint_dir=tmp_path,
              checkpoint_every=2)
        assert (tmp_path / "params_epoch00002.txt").exists()
        assert (tmp_path / "params_epoch00004.txt").exists()
        assert (tmp_path / "params_final.txt").exists()


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
            err = ad.grad_check(
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_final_embedding_is_numeric_error(self):
        # one step at lr 1e200 leaves finite weights near 1e200 whose
        # products overflow in the final forward pass
        ds, graphs = small_problem()
        with pytest.raises(NumericError, match="final embedding"):
            train(ds, graphs, small_config(epochs=1, lr=1e200))


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


def test_forward_trace_holds_encoder_outputs_only():
    names = set(ForwardTrace.__dataclass_fields__)
    assert names == {"embedding", "spatial_embeddings", "feature_embeddings", "fusion_weights"}
