"""Encoder/decoder tests: identity compositions, a hand-rolled dense loop
oracle for the full forward pass, decoder closed forms, the initial
parameters' draw order, and the checkpoint writer's archive, read back
losslessly by ``np.load``."""

import zipfile

import numpy as np
import pytest

from stmfg import autodiff as ad
from stmfg.autodiff import SparseMatrix, Tensor, ZinbTarget
from stmfg.errors import ContractError
from stmfg.losses import zinb_nll
from stmfg.model import (
    CHECKPOINT_MAGIC,
    ForwardTrace,
    ModelParams,
    encode,
    save_checkpoint,
    zinb_decode,
)

from conftest import grad_check, stack, traced_peak
from test_autodiff import head_values
from test_losses import zinb_oracle


def identity_sparse(n):
    return SparseMatrix(n, range(n), range(n), np.ones(n))


def make_params(rng, dims, recon_width, decoder_hidden=6):
    return ModelParams.initialize(rng, dims, recon_width, decoder_hidden)


def fuse_oracle(zs, zf, wa, slope=0.2, l2=True):
    """Dense re-implementation of the attention step."""
    logits = np.concatenate([zs, zf], axis=1) @ wa
    act = np.where(logits > 0, logits, slope * logits)
    e = np.exp(act - act.max(axis=1, keepdims=True))
    m = e / e.sum(axis=1, keepdims=True)
    if l2:
        m = m / np.sqrt((m * m).sum(axis=1, keepdims=True) + 1e-12)
    fused = m[:, 0:1] * zs + m[:, 1:2] * zf
    return fused, m


def encode_oracle(x, a_s, a_f, params, slope=0.2):
    """Layer-by-layer dense loop oracle for the per-layer-fusion encoder."""
    z = x
    for i in range(params.n_layers):
        zs = np.maximum(a_s @ z @ params.spatial_weights[i].data, 0.0)
        zf = np.maximum(a_f @ z @ params.feature_weights[i].data, 0.0)
        z, m = fuse_oracle(zs, zf, params.attention_weights[i].data, slope)
    return z


class TestGcnLayer:
    """The encoder's two propagated views (``ad.graph_conv_views``), the
    spatial view's rows first."""

    def test_identity_propagation(self):
        z = Tensor([[1.0, 2.0], [0.5, 3.0]])
        w = Tensor(np.eye(2))
        out = ad.graph_conv_views(z, (w, identity_sparse(2)), (w, identity_sparse(2)))
        np.testing.assert_array_equal(out.data, np.concatenate([z.data, z.data]))

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        views = [(Tensor(rng.normal(size=(4, 2))), identity_sparse(3)) for _ in range(2)]
        out = ad.graph_conv_views(Tensor(np.zeros((3, 4))), *views)
        np.testing.assert_array_equal(out.data, np.zeros((6, 2)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        from stmfg.graphs import build_spatial_graph, normalize_adjacency

        a_s, a_f = (normalize_adjacency(build_spatial_graph(rng.uniform(0, 10, (8, 2)), 4.0))
                    for _ in range(2))
        z = Tensor(rng.normal(size=(8, 5)))
        w_s, w_f = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 3)))
        oracle = np.concatenate([np.maximum(a.to_dense() @ z.data @ w.data, 0.0)
                                 for a, w in ((a_s, w_s), (a_f, w_f))])
        np.testing.assert_allclose(ad.graph_conv_views(z, (w_s, a_s), (w_f, a_f)).data,
                                   oracle, atol=1e-12)


class TestAttentionFuse:
    """``ad.view_attention`` as ``encode`` calls it, LeakyReLU slope 0.2."""

    def test_equal_views_scale_rowwise(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 3))
        wa = Tensor(rng.normal(size=(6, 2)))
        fused, m = ad.view_attention(stack(z, z), wa, 0.2, True)
        expected = (m.data[:, 0:1] + m.data[:, 1:2]) * z
        np.testing.assert_allclose(fused.data, expected, atol=1e-14)

    def test_equal_column_logits_give_equal_weights(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        col = rng.normal(size=(6, 1))
        wa = Tensor(np.concatenate([col, col], axis=1))
        _, m = ad.view_attention(stack(z, z), wa, 0.2, True)
        np.testing.assert_allclose(m.data, np.full((4, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_zero_attention_weight(self):
        rng = np.random.default_rng(3)
        z = stack(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        _, m = ad.view_attention(z, Tensor(np.zeros((6, 2))), 0.2, True)
        np.testing.assert_allclose(m.data, np.full((4, 2), 1 / np.sqrt(2)), atol=1e-12)
        _, m = ad.view_attention(z, Tensor(np.zeros((6, 2))), 0.2, False)
        np.testing.assert_array_equal(m.data, np.full((4, 2), 0.5))

    def test_matches_entrywise_loop_oracle(self):
        rng = np.random.default_rng(4)
        zs = rng.normal(size=(4, 3))
        zf = rng.normal(size=(4, 3))
        wa = Tensor(rng.normal(size=(6, 2)))
        fused, m = ad.view_attention(stack(zs, zf), wa, 0.2, True)
        for i in range(4):
            for j in range(3):
                expected = m.data[i, 0] * zs[i, j] + m.data[i, 1] * zf[i, j]
                assert fused.data[i, j] == expected  # identical arithmetic path

    def test_softmax_and_l2_invariants(self):
        rng = np.random.default_rng(5)
        z = stack(rng.normal(size=(30, 4)), rng.normal(size=(30, 4)))
        wa = Tensor(rng.normal(size=(8, 2)))
        _, m_no_l2 = ad.view_attention(z, wa, 0.2, False)
        np.testing.assert_allclose(m_no_l2.data.sum(axis=1), 1.0, atol=1e-12)
        _, m = ad.view_attention(z, wa, 0.2, True)
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), 1.0, atol=1e-12)
        assert (m.data > 0).all()

    def test_shape_contract(self):
        """A weight that is not (2d, 2), or an odd row count, which stacks
        no two views, is refused, naming the op."""
        for z, w in ((np.ones((6, 2)), np.ones((3, 2))), (np.ones((6, 2)), np.ones((4, 3))),
                     (np.ones((5, 2)), np.ones((4, 2)))):
            with pytest.raises(ContractError, match="view_attention"):
                ad.view_attention(Tensor(z), Tensor(w), 0.2, True)


class TestEncode:
    def test_identity_composition_single_layer(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.abs(rng.normal(size=(5, 3))))
        params = make_params(rng, [3, 3], 3)
        params.spatial_weights[0] = Tensor(np.eye(3), requires_grad=True)
        params.feature_weights[0] = Tensor(np.eye(3), requires_grad=True)
        params.attention_weights[0] = Tensor(np.zeros((6, 2)), requires_grad=True)
        eye = identity_sparse(5)
        trace = encode(x, eye, eye, params)
        np.testing.assert_array_equal(trace.views[0].data, np.concatenate([x.data, x.data]))
        np.testing.assert_allclose(trace.embedding.data, np.sqrt(2.0) * x.data, atol=1e-9)

    def test_two_layer_trace_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        from stmfg.graphs import build_graph_pair

        coords = rng.uniform(0, 10, (9, 2))
        feats = rng.normal(size=(9, 6))
        pair = build_graph_pair(coords, feats, radius=4.0, k=2)
        x = Tensor(feats)
        params = make_params(rng, [6, 5, 4], 6)
        trace = encode(x, pair.spatial_norm, pair.feature_norm, params)
        oracle = encode_oracle(feats, pair.spatial_norm.to_dense(),
                               pair.feature_norm.to_dense(), params)
        np.testing.assert_allclose(trace.embedding.data, oracle, atol=1e-12)
        assert len(trace.views) == 2
        assert len(trace.fusion_weights) == 2

    def test_views_differ_when_graphs_differ(self):
        rng = np.random.default_rng(8)
        from stmfg.graphs import build_graph_pair

        coords = rng.uniform(0, 10, (12, 2))
        feats = rng.normal(size=(12, 5))
        pair = build_graph_pair(coords, feats, radius=5.0, k=3)
        params = make_params(rng, [5, 4], 5)
        trace = encode(Tensor(feats), pair.spatial_norm, pair.feature_norm, params)
        assert not np.allclose(trace.views[0].data[:12], trace.views[0].data[12:])

    def test_late_fusion_uses_final_attention_once(self):
        rng = np.random.default_rng(9)
        from stmfg.graphs import build_graph_pair

        coords = rng.uniform(0, 10, (10, 2))
        feats = rng.normal(size=(10, 6))
        pair = build_graph_pair(coords, feats, radius=5.0, k=2)
        params = make_params(rng, [6, 5, 4], 6)
        trace = encode(Tensor(feats), pair.spatial_norm, pair.feature_norm, params,
                       per_layer_fusion=False)
        assert len(trace.fusion_weights) == 1
        # spatial chain never touches the feature graph
        zs = feats
        for i in range(2):
            zs = np.maximum(pair.spatial_norm.to_dense() @ zs
                            @ params.spatial_weights[i].data, 0.0)
        np.testing.assert_allclose(trace.views[-1].data[:10], zs, atol=1e-12)

    @pytest.mark.parametrize("per_layer_fusion", [True, False])
    def test_first_layer_reads_fortran_input(self, per_layer_fusion):
        """The first layer convolves the input in preprocess's Fortran
        layout, as is: bitwise relu(A (X W)), and within 1e-12 of the
        propagate-first relu((A X) W)."""
        rng = np.random.default_rng(16)
        from stmfg.graphs import build_graph_pair

        coords = rng.uniform(0, 10, (11, 2))
        feats = np.asfortranarray(rng.normal(size=(11, 6)))  # preprocess's layout
        pair = build_graph_pair(coords, feats, radius=4.0, k=2)
        params = make_params(rng, [6, 5, 4], 6)
        x = Tensor(feats, copy=False)
        trace = encode(x, pair.spatial_norm, pair.feature_norm, params,
                       per_layer_fusion=per_layer_fusion)
        for norm, w, got in ((pair.spatial_norm, params.spatial_weights[0],
                              trace.views[0].data[:11]),
                             (pair.feature_norm, params.feature_weights[0],
                              trace.views[0].data[11:])):
            assert (got > 0.0).any()
            np.testing.assert_array_equal(got, np.maximum(norm.csr() @ (feats @ w.data), 0.0))
            np.testing.assert_allclose(got, np.maximum((norm.csr() @ feats) @ w.data, 0.0),
                                       rtol=1e-12, atol=1e-14)
        assert x.data is feats

    def test_deterministic_trace(self):
        rng_a = np.random.default_rng(10)
        rng_b = np.random.default_rng(10)
        from stmfg.graphs import build_graph_pair

        coords = np.random.default_rng(0).uniform(0, 10, (8, 2))
        feats = np.random.default_rng(1).normal(size=(8, 4))
        pair = build_graph_pair(coords, feats, radius=5.0, k=2)
        t1 = encode(Tensor(feats), pair.spatial_norm, pair.feature_norm,
                    make_params(rng_a, [4, 3], 4))
        t2 = encode(Tensor(feats), pair.spatial_norm, pair.feature_norm,
                    make_params(rng_b, [4, 3], 4))
        np.testing.assert_array_equal(t1.embedding.data, t2.embedding.data)


class TestZinbDecode:
    """``zinb_decode`` is the shared hidden layer; the heads live inside the
    likelihood node, so they are checked through its value against the pmf
    composition at the heads' (pi, mu, theta)."""

    def test_zero_weights_closed_forms(self):
        rng = np.random.default_rng(11)
        params = make_params(rng, [4, 3], 5, decoder_hidden=6)
        for name in ("decoder_hidden_w", "decoder_hidden_b", "dropout_w", "dropout_b",
                     "mean_w", "mean_b", "dispersion_w", "dispersion_b"):
            t = getattr(params, name)
            setattr(params, name, Tensor(np.zeros(t.data.shape), requires_grad=True))
        z = Tensor(rng.normal(size=(7, 3)))
        hidden = zinb_decode(z, params)
        np.testing.assert_array_equal(hidden.data, np.zeros((7, 6)))
        counts = rng.poisson(1.0, size=(7, 5)).astype(float)
        pi, mu, theta = (np.full((7, 5), v) for v in (0.5, 1.0, np.log(2.0) + ad.DISPERSION_FLOOR))
        assert zinb_nll(ZinbTarget(counts), hidden, params).item() == pytest.approx(
            zinb_oracle(counts, pi, mu, theta), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_parameter_domains(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params(rng, [4, 3], 5, decoder_hidden=6)
        z = Tensor(rng.normal(size=(6, 3)))
        hidden = zinb_decode(z, params)
        assert (hidden.data >= 0).all()
        dropout, mean, dispersion = head_values(hidden, params)
        assert ((dropout > 0) & (dropout < 1)).all()
        assert (mean > 0).all()
        assert (dispersion > 0).all()
        counts = rng.poisson(2.0, size=(6, 5)).astype(float)
        assert zinb_nll(ZinbTarget(counts), hidden, params).item() == pytest.approx(
            zinb_oracle(counts, dropout, mean, dispersion), abs=1e-10)

    def test_decoder_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        params = make_params(rng, [4, 3], 5, decoder_hidden=6)
        z = Tensor(rng.normal(size=(6, 3)))
        target = ZinbTarget(rng.poisson(2.0, size=(6, 5)))

        def loss_of(_):
            return zinb_nll(target, zinb_decode(z, params), params)

        for name in ("decoder_hidden_w", "dropout_w", "mean_w", "dispersion_b"):
            err = grad_check(lambda t: loss_of(t), getattr(params, name), 1e-5)
            assert err < 1e-4, f"{name}: {err}"


class TestInitialize:
    """``initialize`` draws every weight Glorot-uniform from one generator
    in checkpoint order and leaves the biases zero."""

    # layer dims [6, 5, 4], recon width 7, decoder hidden 8
    SHAPES = [("spatial_weights.0", (6, 5)), ("feature_weights.0", (6, 5)),
              ("attention_weights.0", (10, 2)),
              ("spatial_weights.1", (5, 4)), ("feature_weights.1", (5, 4)),
              ("attention_weights.1", (8, 2)),
              ("decoder_hidden_w", (4, 8)), ("decoder_hidden_b", (1, 8)),
              ("dropout_w", (8, 7)), ("dropout_b", (1, 7)),
              ("mean_w", (8, 7)), ("mean_b", (1, 7)),
              ("dispersion_w", (8, 7)), ("dispersion_b", (1, 7))]

    def test_draws_match_reference_in_checkpoint_order(self):
        params = make_params(np.random.default_rng(20), [6, 5, 4], 7, decoder_hidden=8)
        named = params.named_tensors()
        assert [(name, t.data.shape) for name, t in named] == self.SHAPES
        rng = np.random.default_rng(20)
        for name, t in named:
            if name.endswith("_b"):
                continue
            bound = np.sqrt(6.0 / sum(t.data.shape))
            np.testing.assert_array_equal(t.data, rng.uniform(-bound, bound, t.data.shape),
                                          err_msg=name)

    def test_biases_zero_and_every_tensor_trainable(self):
        params = make_params(np.random.default_rng(21), [6, 5, 4], 7, decoder_hidden=8)
        for name, t in params.named_tensors():
            assert t.requires_grad, name
            if name.endswith("_b"):
                assert t.data.shape[0] == 1, name
                assert not t.data.any(), name

    def test_needs_an_output_width(self):
        with pytest.raises(ContractError):
            make_params(np.random.default_rng(22), [6], 7)


class TestCheckpoint:
    # bytes the writer may hold beyond its largest tensor: the zip's entry
    # records and the .npy header
    PEAK_ALLOWANCE = 64 * 1024

    def test_round_trip_is_lossless(self, tmp_path):
        params = make_params(np.random.default_rng(14), [6, 5, 4], 7, decoder_hidden=8)
        params.mean_b.data[0] = [5e-324, -0.0, 0.1, 1.0 / 3.0, 1e300, -1e-300, -2.5]
        path = tmp_path / "params.npz"
        save_checkpoint(params, path)
        with np.load(path) as loaded:
            assert [(name, loaded[name].shape) for name in loaded.files] == TestInitialize.SHAPES
            for name, t in params.named_tensors():
                kind, _, layer = name.partition(".")
                assert t is (getattr(params, kind)[int(layer)] if layer else getattr(params, kind))
                values = loaded[name]
                assert values.dtype == np.dtype("<f8") and values.flags.c_contiguous, name
                assert values.shape == t.data.shape and values.tobytes() == t.data.tobytes(), name

    def test_entries_in_tensor_order_stored_and_dated_1980(self, tmp_path):
        params = make_params(np.random.default_rng(15), [6, 3], 4, decoder_hidden=3)
        path = tmp_path / "params.npz"
        save_checkpoint(params, path)
        with zipfile.ZipFile(path) as archive:
            assert archive.comment == b"stmfg-params v2" == CHECKPOINT_MAGIC.encode()
            entries = archive.infolist()
        assert [e.filename for e in entries] == [f"{n}.npy" for n, _ in params.named_tensors()]
        for entry in entries:
            assert entry.date_time == (1980, 1, 1, 0, 0, 0), entry.filename
            assert entry.compress_type == zipfile.ZIP_STORED, entry.filename

    def test_two_writes_give_the_same_bytes(self, tmp_path):
        params = make_params(np.random.default_rng(16), [6, 5, 4], 7, decoder_hidden=8)
        save_checkpoint(params, tmp_path / "a.npz")
        save_checkpoint(params, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_peak_below_largest_tensor_plus_allowance(self, tmp_path):
        """The writer holds one tensor's bytes at a time: its traced peak
        stays below its largest tensor (a 32 x 3000 head) plus a fixed
        allowance, far below the 2.3 MB of all three heads."""
        params = make_params(np.random.default_rng(17), [20, 8, 4], 3000, decoder_hidden=32)
        _, peak = traced_peak(lambda: save_checkpoint(params, tmp_path / "params.npz"))
        largest = max(t.data.nbytes for _, t in params.named_tensors())
        assert largest == params.mean_w.data.nbytes
        assert peak < largest + self.PEAK_ALLOWANCE, f"peak {peak} B, largest tensor {largest} B"
