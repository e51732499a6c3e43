import csv
import json

import numpy as np
import pytest

from contrnp.cli import main, parse_config_file


SMALL_CONFIG = """
# desk-scale settings
window_size = 64
grid_size = 16
cnn_depth = 2
cnn_width = 8
d_r = 8
decoder_hidden = 8
cnn_kernel = 3
n_context_min = 5
n_context_max = 10
k_per_batch = 2
epochs = 2
seed = 1
"""


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    rc = main(["synth", "--classes", "2", "--segments", "4", "--window", "64",
               "--noise", "0.05", "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


@pytest.fixture
def trained(tmp_path, dataset, config):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(config), "--data", str(dataset),
               "--out", str(out)])
    assert rc == 0
    return out


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestConfigFile:
    def test_unknown_key_cites_key_and_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("epochs = 2\nbogus_key = 1\n")
        rc = main(["train", "--config", str(p), "--data", "x.csv",
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_parse_values(self, config):
        cfg = parse_config_file(config)
        assert cfg["epochs"] == 2
        assert cfg["window_size"] == 64

    def test_bad_value_cites_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("epochs = banana\n")
        with pytest.raises(Exception, match=":1"):
            parse_config_file(p)


class TestSynth:
    def test_row_and_segment_count(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["synth", "--classes", "4", "--segments", "50",
                   "--window", "20", "--noise", "0.1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["time", "ch0", "label"]
        assert len(rows) - 1 == 4 * 50 * 20

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["synth", "--classes", "2", "--segments", "2", "--window", "20",
              "--out", str(out)])
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert str(out) in manifest["inputs"]


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "model.ckpt").exists()
        rows = read_csv(trained / "train_log.csv")
        assert rows[0] == ["step", "nll", "contrastive", "total", "wall_ms"]
        assert len(rows) > 1
        assert (trained / "manifest_train.json").exists()

    def test_missing_data_file(self, tmp_path, config):
        rc = main(["train", "--config", str(config), "--data",
                   str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    def test_input_not_mutated(self, tmp_path, dataset, config):
        before = dataset.read_bytes()
        main(["train", "--config", str(config), "--data", str(dataset),
              "--out", str(tmp_path / "r")])
        assert dataset.read_bytes() == before


class TestEval:
    def test_metrics_csv_schema(self, tmp_path, dataset, trained):
        out = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(dataset), "--label-fraction", "0.8",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["metric", "value", "seed"]
        assert [r[0] for r in rows[1:]] == ["accuracy", "auprc", "silhouette",
                                            "davies_bouldin"]

    def test_determinism_across_runs(self, tmp_path, dataset, trained):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                  "--data", str(dataset), "--seed", "3", "--out", str(out)])
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_checkpoint(self, tmp_path, dataset):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", str(dataset), "--out", str(tmp_path)])
        assert rc == 2


class TestSweepLabels:
    def test_fraction_csv(self, tmp_path, dataset, trained):
        out = tmp_path / "sw"
        rc = main(["sweep-labels", "--checkpoint",
                   str(trained / "model.ckpt"), "--data", str(dataset),
                   "--fractions", "0.5,0.8", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "label_sweep.csv")
        assert rows[0] == ["fraction", "accuracy", "auprc"]
        assert [float(r[0]) for r in rows[1:]] == [0.5, 0.8]


class TestForecast:
    def test_output_schema_and_sigma_positive(self, tmp_path, dataset, trained):
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(dataset), "--segment-id", "0",
                   "--n-context", "8", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "y_true0", "mu0", "sigma0"]
        sigma = np.array([float(r[3]) for r in rows[1:]])
        assert np.all(sigma > 0)

    def test_segment_out_of_range(self, tmp_path, dataset, trained):
        rc = main(["forecast", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(dataset), "--segment-id", "99",
                   "--n-context", "8", "--out", str(tmp_path / "f.csv")])
        assert rc == 2


class TestReproducibility:
    def test_train_twice_same_seed_identical_checkpoints(
            self, tmp_path, dataset, config):
        ckpts = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["train", "--config", str(config),
                       "--data", str(dataset), "--out", str(out)])
            assert rc == 0
            ckpts.append((out / "model.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]


class TestNumericFailure:
    def test_literal_mode_non_positive_ratio_exits_3(self, tmp_path, capsys):
        # with d_r = 1 every representation is a scalar, so cosine
        # similarities are +-1 and this seed draws a batch whose literal
        # ratio is non-positive: log() raises autodiff.DomainError
        data = tmp_path / "data.csv"
        assert main(["synth", "--classes", "4", "--segments", "2",
                     "--window", "64", "--noise", "0.05", "--seed", "0",
                     "--out", str(data)]) == 0
        cfg = tmp_path / "literal.cfg"
        cfg.write_text(SMALL_CONFIG.replace("cnn_depth = 2", "cnn_depth = 1")
                       .replace("cnn_width = 8", "cnn_width = 2")
                       .replace("d_r = 8", "d_r = 1")
                       .replace("seed = 1", "seed = 3")
                       + "loss_mode = literal\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "error: log of non-positive input" in capsys.readouterr().err
