"""CLI tests: artifact layout, exit codes, config precedence, manifest
replay, and the ablation/sweep tables."""

import argparse
import json

import numpy as np
import pytest

from stmfg.autodiff import Tensor
from stmfg.cli import _comma_floats, build_parser, main
from stmfg.data import load_dataset, preprocess
from stmfg.graphs import build_graph_pair
from stmfg.training import TrainConfig, train

FAST = ["--epochs", "2", "--dims", "8,4", "--decoder-hidden", "8",
        "--min-spots", "1", "--restarts", "3"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--out", str(out), "--n-side", "8", "--domains", "2",
                 "--genes", "15", "--seed", "3", "--dropout", "0.2"])
    assert code == 0
    return out


def data_flags(synth_dir, labels=True):
    flags = ["--expression", str(synth_dir / "expression.csv"),
             "--coords", str(synth_dir / "coords.csv")]
    if labels:
        flags += ["--labels", str(synth_dir / "labels.csv")]
    return flags


class TestSynth:
    def test_files_written_and_loadable(self, synth_dir):
        for name in ("expression.csv", "coords.csv", "labels.csv", "manifest.json"):
            assert (synth_dir / name).exists()
        ds = load_dataset(synth_dir / "expression.csv", synth_dir / "coords.csv",
                          synth_dir / "labels.csv")
        assert ds.n_spots == 64
        assert ds.n_domains == 2

    def test_negative_seed_fails_before_manifest(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--n-side", "8", "--domains", "2",
                     "--genes", "15", "--seed", "-2"])
        assert code == 3
        assert "contract error: seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("dispersion", ["nan", "inf", "1e-320", "0"])
    def test_bad_dispersion_fails_before_manifest(self, tmp_path, capsys, dispersion):
        # 1e-320 is positive, but the marker mean over it overflows
        code = main(["synth", "--out", str(tmp_path), "--n-side", "8", "--domains", "2",
                     "--genes", "15", "--dispersion", dispersion])
        assert code == 3
        assert "contract error: dispersion must be" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestRun:
    def test_artifacts_and_single_epoch_log(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out),
                     *FAST, "--epochs", "1"])
        assert code == 0
        for name in ("manifest.json", "loss_log.csv", "embeddings.csv",
                     "labels.csv", "metrics.csv", "params_final.txt"):
            assert (out / name).exists()
        log_lines = (out / "loss_log.csv").read_text().splitlines()
        assert len(log_lines) == 2  # header + one epoch
        metrics = (out / "metrics.csv").read_text()
        assert ",ari," in metrics and ",nmi," in metrics

    def test_without_labels_no_score_rows(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir, labels=False), "--out", str(out),
                     *FAST, "--clusters", "2"])
        assert code == 0
        metrics = (out / "metrics.csv").read_text()
        assert ",k," in metrics
        assert ",ari," not in metrics and ",nmi," not in metrics

    def test_clusters_required_without_labels(self, synth_dir, tmp_path):
        code = main(["run", *data_flags(synth_dir, labels=False),
                     "--out", str(tmp_path / "x"), *FAST])
        assert code == 3

    def test_malformed_expression_is_data_error(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("spot_id,g1\ns1,not-a-number\n")
        code = main(["run", "--expression", str(bad),
                     "--coords", str(synth_dir / "coords.csv"),
                     "--out", str(tmp_path / "x"), *FAST, "--clusters", "2"])
        assert code == 2

    def test_undecodable_expression_is_data_error(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "expression.csv").read_bytes().split(b"\n")
        lines[5] += b"\xff"
        bad = tmp_path / "expression.csv"
        bad.write_bytes(b"\n".join(lines))
        code = main(["run", "--expression", str(bad), "--coords", str(synth_dir / "coords.csv"),
                     "--out", str(tmp_path / "x"), *FAST, "--clusters", "2"])
        assert code == 2
        assert "expression.csv line 6: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    def test_non_finite_count_is_data_error(self, synth_dir, tmp_path, capsys, raw):
        lines = (synth_dir / "expression.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = raw
        lines[5] = ",".join(cells)
        bad = tmp_path / "expression.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["run", "--expression", str(bad), "--coords", str(synth_dir / "coords.csv"),
                     "--out", str(tmp_path / "x"), *FAST, "--clusters", "2"])
        assert code == 2
        assert f"non-finite count {float(raw)} at spot {cells[0]!r}" in capsys.readouterr().err

    def test_non_finite_coordinate_is_data_error(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "coords.csv").read_text().splitlines()
        spot, _, y = lines[2].split(",")
        lines[2] = f"{spot},nan,{y}"
        bad = tmp_path / "coords.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["run", "--expression", str(synth_dir / "expression.csv"),
                     "--coords", str(bad), "--out", str(tmp_path / "x"), *FAST,
                     "--clusters", "2"])
        assert code == 2
        assert "line 3: coordinates must be finite" in capsys.readouterr().err

    def test_numeric_abort_exit_code_and_manifest(self, synth_dir, tmp_path, monkeypatch):
        def poisoned(*args, **kwargs):
            t = Tensor([[1.0]])
            t.data[0, 0] = np.nan
            return t

        monkeypatch.setattr("stmfg.training.spatial_reg_loss", poisoned)
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST])
        assert code == 4
        # the manifest must have been written before training started
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
    def test_stray_float_error_is_numeric_abort(self, synth_dir, tmp_path, monkeypatch, error):
        def overflowing(*args, **kwargs):
            raise error("math range error")

        monkeypatch.setattr("stmfg.training.contrastive_loss", overflowing)
        code = main(["run", *data_flags(synth_dir), "--out", str(tmp_path / "run"), *FAST])
        assert code == 4

    def test_small_temperature_runs(self, synth_dir, tmp_path):
        # exp(1/tau) overflows a float at tau = 0.001; the loss never forms it
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST,
                     "--tau", "0.001"])
        assert code == 0
        rows = (out / "loss_log.csv").read_text().splitlines()[1:]
        assert rows and all(np.isfinite(float(v)) for r in rows for v in r.split(","))

    # A numeric abort prints its one typed line and nothing else: the
    # "error" filter turns any numpy RuntimeWarning on the way into a failure.
    @pytest.mark.filterwarnings("error")
    def test_non_finite_final_embedding_exits_4(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST,
                     "--epochs", "1", "--lr", "1e200"])
        assert code == 4
        assert capsys.readouterr().err == ("numerical abort: non-finite final embedding after "
                                           "epoch 1: the last update left the finite range\n")
        assert not (out / "labels.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_adam_moment_exits_4(self, synth_dir, tmp_path, capsys):
        # the decay term's square overflows: the moment is inf and every
        # step of the parameter would be exactly 0
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST,
                     "--weight-decay", "1e308"])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical abort: Adam step 1: the second moment of spatial_weights.0 is not "
            "finite (its squared gradient, weight decay included, overflowed)\n")
        assert not (out / "loss_log.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags,message", [
        (["--lambda", "1e308"], "non-finite loss at epoch 1: component 'total' = inf"),
        (["--lr", "1e308"], "non-finite loss at epoch 2: component 'zinb' = nan"),
    ])
    def test_overflowing_loss_prints_one_line(self, synth_dir, tmp_path, capsys, flags,
                                              message):
        code = main(["run", *data_flags(synth_dir), "--out", str(tmp_path / "run"), *FAST,
                     *flags])
        assert code == 4
        assert capsys.readouterr().err == f"numerical abort: {message}\n"

    @pytest.mark.parametrize("flags,field", [
        (["--disable-cl", "--tau", "0"], "tau"),
        (["--disable-cl", "--tau", "-1"], "tau"),
        (["--lr", "nan"], "lr"),
        (["--lr", "inf"], "lr"),
        (["--weight-decay", "inf"], "weight_decay"),
        (["--gamma", "nan"], "gamma"),
        (["--tau", "inf"], "tau"),
        (["--tau", "nan"], "tau"),
        (["--alpha", "nan"], "alpha"),
        (["--lambda", "inf"], "lam"),
        (["--radius", "nan"], "radius"),
        (["--radius", "inf"], "radius"),
        (["--radius", "0"], "radius"),
        (["--radius", "-5"], "radius"),
        (["--knn", "0"], "knn_k"),
        (["--leaky-slope", "inf"], "leaky_slope"),
        (["--decoder-hidden", "0"], "decoder_hidden"),
        (["--dims", ","], "hidden widths"),
        (["--restarts", "0"], "restarts"),
        (["--clusters", "1"], "clusters"),
        (["--hvg", "0", "--disable-zinb"], "n_hvg"),
        (["--checkpoint-every", "-1"], "checkpoint_every"),
        (["--seed", "-1"], "seed"),
        (["--min-spots", "0"], "min_spots"),
        (["--min-spots", "-4"], "min_spots"),
        (["--tau", "1e-320"], "tau"),
    ])
    def test_bad_hyperparameter_fails_before_training(self, synth_dir, tmp_path, capsys,
                                                      flags, field):
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST, *flags])
        assert code == 3
        assert f"contract error: {field} must be" in capsys.readouterr().err
        assert not out.exists()  # refused before the manifest

    @pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
    def test_clusters_above_spot_count_fails_before_training(self, synth_dir, tmp_path,
                                                             capsys, command):
        out = tmp_path / command
        flags = ["--seeds", "0"] if command != "run" else []
        code = main([command, *data_flags(synth_dir), "--out", str(out), *FAST, *flags,
                     "--clusters", "65"])
        assert code == 3
        assert "k=65 exceeds the number of spots 64" in capsys.readouterr().err
        written = {p.name for p in out.iterdir()}
        assert written == {"manifest.json"}  # no loss log, checkpoint or table

    @pytest.mark.parametrize("command,flags", [
        ("ablate", ["--seeds", "-1"]),
        ("sweep", ["--seeds", "0,-1"]),
        ("sweep", ["--seeds", "0", "--tau-grid", "0.5,0"]),
        ("sweep", ["--seeds", "0", "--tau-grid", "0.5,1e-320"]),
    ], ids=["ablate-seed", "sweep-seed", "sweep-tau", "sweep-tau-reciprocal"])
    def test_bad_grid_cell_fails_before_manifest(self, synth_dir, tmp_path, capsys,
                                                 command, flags):
        # the bad cell is not the first: every cell is checked before any trains
        out = tmp_path / command
        code = main([command, *data_flags(synth_dir), "--out", str(out), *FAST, *flags])
        assert code == 3
        assert " must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_checkpoint_every_refused_where_no_checkpoint_is_written(
            self, synth_dir, tmp_path, capsys, command, source):
        if source == "flag":
            flags = ["--checkpoint-every", "1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"checkpoint_every": 1}))
            flags = ["--config", str(config)]
        out = tmp_path / command
        code = main([command, *data_flags(synth_dir), "--out", str(out), *FAST,
                     "--epochs", "1", "--seeds", "0", *flags])
        assert code == 3
        assert (f"contract error: checkpoint_every must be 0 for {command}"
                in capsys.readouterr().err)
        assert not out.exists()  # refused before the manifest

    @pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
    def test_single_domain_labels_fail_before_training(self, synth_dir, tmp_path,
                                                        capsys, command):
        rows = (synth_dir / "labels.csv").read_text().splitlines()
        labels = tmp_path / "labels.csv"
        labels.write_text("\n".join([rows[0]] + [r.split(",")[0] + ",0" for r in rows[1:]])
                          + "\n")
        out = tmp_path / command
        flags = ["--seeds", "0"] if command != "run" else []
        code = main([command, "--expression", str(synth_dir / "expression.csv"),
                     "--coords", str(synth_dir / "coords.csv"), "--labels", str(labels),
                     "--out", str(out), *FAST, *flags])
        assert code == 3
        assert "k must be at least 2, got 1" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} == {"manifest.json"}

    def test_duplicate_label_id_is_data_error(self, synth_dir, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        text = (synth_dir / "labels.csv").read_text()
        first = text.splitlines()[1].split(",")[0]
        labels.write_text(text + f"{first},1\n")
        out = tmp_path / "run"
        code = main(["run", "--expression", str(synth_dir / "expression.csv"),
                     "--coords", str(synth_dir / "coords.csv"), "--labels", str(labels),
                     "--out", str(out), *FAST])
        assert code == 2
        assert f"duplicate spot id {first!r}" in capsys.readouterr().err
        assert not (out / "loss_log.csv").exists()

    @pytest.mark.parametrize("manifest,message", [
        ({"train": [1]}, "manifest key 'train'"),
        ({"inputs": "x"}, "manifest key 'inputs'"),
        ({"pipeline": 3}, "manifest key 'pipeline'"),
        ({"inputs": None}, "manifest key 'inputs'"),
        ({"inputs": {"expression": 5}}, "manifest input 'expression'"),
        ({"inputs": {"coords": ["coords.csv"]}}, "manifest input 'coords'"),
    ], ids=["train-list", "inputs-string", "pipeline-number", "inputs-null",
            "expression-number", "coords-list"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, manifest, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        code = main(["run", "--from-manifest", str(path), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()  # refused before any output

    def test_manifest_replay_reproduces_outputs(self, synth_dir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", *data_flags(synth_dir), "--out", str(out_a), *FAST]) == 0
        assert main(["run", "--from-manifest", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()
        assert (out_a / "embeddings.csv").read_bytes() == (out_b / "embeddings.csv").read_bytes()

    def test_config_file_with_flag_precedence(self, synth_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 3, "hidden_dims": [8, 4],
                                        "decoder_hidden": 8, "min_spots": 1,
                                        "restarts": 2}))
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_dir), "--out", str(out),
                     "--config", str(cfg_file), "--epochs", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train"]["epochs"] == 1  # flag wins
        assert manifest["train"]["hidden_dims"] == [8, 4]  # from file

    @pytest.mark.parametrize("value", [{"lr": "0.1"}, {"epochs": 1.5},
                                       {"disable_cl": "false"}, {"hidden_dims": [8.7]},
                                       {"restarts": "5"}, {"clusters": "3"},
                                       {"n_hvg": 2.5}],
                             ids=["lr", "epochs", "disable_cl", "hidden_dims",
                                  "restarts", "clusters", "n_hvg"])
    def test_mistyped_config_value_is_contract_error(self, synth_dir, tmp_path, capsys,
                                                     value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 2, "hidden_dims": [8, 4], **value}))
        out = tmp_path / "run"
        # FAST minus --epochs, --dims and --restarts, which the file sets
        code = main(["run", *data_flags(synth_dir), "--out", str(out), *FAST[4:8],
                     "--config", str(cfg_file)])
        assert code == 3
        field = next(iter(value))
        assert f"contract error: {field} must be" in capsys.readouterr().err
        assert not (out / "loss_log.csv").exists()

    def test_undecodable_config_is_data_error(self, synth_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b'{"lr": 0.1\xff}')
        code = main(["run", *data_flags(synth_dir), "--out", str(tmp_path / "x"),
                     "--config", str(cfg_file), *FAST])
        assert code == 2
        assert "cfg.json: not UTF-8 text" in capsys.readouterr().err

    def test_unknown_config_key_is_contract_error(self, synth_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.1}))
        code = main(["run", *data_flags(synth_dir), "--out", str(tmp_path / "x"),
                     "--config", str(cfg_file), *FAST])
        assert code == 3


class _TrainCalled(Exception):
    pass


class TestRawCounts:
    """Which datasets reach ``train()``: the raw counts are released after
    preprocessing unless the counts target reads them."""

    @pytest.fixture(scope="class")
    def synth_30(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("synth30")
        assert main(["synth", "--out", str(out), "--seed", "1"]) == 0  # 30x30, 200 genes
        return out

    def test_counts_target_run_matches_library_training(self, synth_30, tmp_path):
        out = tmp_path / "run"
        code = main(["run", *data_flags(synth_30), "--out", str(out), *FAST,
                     "--zinb-target", "counts"])
        assert code == 0
        ds = preprocess(load_dataset(synth_30 / "expression.csv", synth_30 / "coords.csv",
                                     synth_30 / "labels.csv"), min_spots=1)
        cfg = TrainConfig(epochs=2, hidden_dims=(8, 4), decoder_hidden=8,
                          zinb_target="counts")
        graphs = build_graph_pair(ds.coords, ds.preprocessed, radius=cfg.radius, k=cfg.knn_k)
        want = train(ds, graphs, cfg).log.loss_table().splitlines()
        got = [line.rsplit(",", 1)[0]
               for line in (out / "loss_log.csv").read_text().splitlines()]
        assert got[0] == "epoch,zinb,cl,reg,total" and len(got) == 3
        assert got == want

    @pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
    @pytest.mark.parametrize("target", [None, "preprocessed", "counts"])
    def test_train_gets_counts_only_for_the_counts_target(self, synth_dir, tmp_path,
                                                          monkeypatch, command, target):
        seen = []

        def record(dataset, *args, **kwargs):
            seen.append(dataset)
            raise _TrainCalled

        monkeypatch.setattr("stmfg.cli.train", record)
        argv = [command, *data_flags(synth_dir), "--out", str(tmp_path / "out"), *FAST]
        if command != "run":
            argv += ["--seeds", "0"]
        if target is not None:
            argv += ["--zinb-target", target]
        with pytest.raises(_TrainCalled):
            main(argv)
        (dataset,) = seen
        assert dataset.preprocessed is not None
        if target == "counts":
            assert dataset.counts.shape == (64, 15)
        else:
            assert dataset.counts is None
            assert dataset.n_spots == 64


class TestBenchmarkScaleRun:
    @pytest.mark.slow
    def test_900_spot_run_under_five_minutes(self, tmp_path):
        import time

        data_dir = tmp_path / "data"
        assert main(["synth", "--out", str(data_dir)]) == 0  # 30x30 defaults
        out = tmp_path / "run"
        started = time.perf_counter()
        code = main(["run",
                     "--expression", str(data_dir / "expression.csv"),
                     "--coords", str(data_dir / "coords.csv"),
                     "--labels", str(data_dir / "labels.csv"),
                     "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 300.0
        assert ",ari," in (out / "metrics.csv").read_text()


class TestAblate:
    def test_table_shape(self, synth_dir, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", *data_flags(synth_dir), "--out", str(out),
                     "--seeds", "0,1", *FAST])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,ari,nmi"
        variants = ("full", "no_mf", "no_cl", "no_reg", "no_zinb")
        assert len(lines) == 1 + len(variants) * 2 + len(variants)
        for v in variants:
            assert any(line.startswith(f"{v},mean,") for line in lines)

    def test_empty_seeds_is_contract_error(self, synth_dir, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", *data_flags(synth_dir), "--out", str(out),
                     "--seeds", "", *FAST])
        assert code == 3
        assert not out.exists()

    def test_labels_required(self, synth_dir, tmp_path):
        code = main(["ablate", *data_flags(synth_dir, labels=False),
                     "--out", str(tmp_path / "x"), "--seeds", "0",
                     *FAST, "--clusters", "2"])
        assert code == 3


class TestSweep:
    def test_grid_rows(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", *data_flags(synth_dir), "--out", str(out),
                     "--seeds", "0", "--lambda-grid", "0.001,0.01",
                     "--tau-grid", "0.5,1", *FAST])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,lambda,gamma,tau,seed,ari,nmi"
        assert len(lines) == 1 + 2 * 2

    def test_empty_seeds_is_contract_error(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", *data_flags(synth_dir), "--out", str(out),
                     "--seeds", "", "--tau-grid", "0.5,1", *FAST])
        assert code == 3
        assert not out.exists()


class TestOutputPath:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["synth", "run", "ablate", "sweep"])
    def test_file_in_the_way_is_contract_error(self, synth_dir, tmp_path, capsys,
                                               monkeypatch, command, under):
        """An --out that names a file, or lies under one, exits 3 naming
        the path before any data is read or made, and leaves the file as is."""
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n", encoding="utf-8")
        out = blocker / "sub" if under else blocker

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output check")

        monkeypatch.setattr("stmfg.cli.load_dataset", no_work)
        monkeypatch.setattr("stmfg.cli.generate_synthetic", no_work)
        argv = [command, "--out", str(out)]
        if command != "synth":
            argv += [*data_flags(synth_dir), *FAST]
        if command in ("ablate", "sweep"):
            argv += ["--seeds", "0"]
        assert main(argv) == 3
        assert f"contract error: --out {out}: not a directory" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "kept\n"


class TestParser:
    @pytest.mark.parametrize("value", ["-1e-1", "-2e0", "-0.5", "-.5", "-3"])
    @pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
    def test_negative_number_is_a_value_on_every_float_flag(self, command, value):
        """A negative number given as a separate argument, in any float
        form, is the flag's value, not an unknown option."""
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[command]
        float_flags = [a for a in sub._actions if a.type in (float, _comma_floats)]
        assert len(float_flags) >= 8
        for action in float_flags:
            args = parser.parse_args([command, "--out", "o", action.option_strings[0], value])
            want = float(value) if action.type is float else [float(value)]
            assert getattr(args, action.dest) == want, action.option_strings[0]

    def test_unknown_option_is_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--out", "o", "--leaky-slope", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
