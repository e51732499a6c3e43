import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contrnp.cli import _blas_threads, main, parse_config_file
from contrnp.model import load_checkpoint, save_checkpoint
from contrnp.train import TrainConfig

from conftest import flip_byte_in

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"
# an executable's first bytes: 0x80 to 0xBF never start a UTF-8 character
NON_UTF8_BYTES = b"\x7fELF\x02\x01\x01" + bytes(range(193))


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


# (key, value, exit code): each once ended in a traceback or a silent run
BAD_VALUES = [
    ("n_context_min", "12", 1), ("n_context_min", "0", 1),
    ("cnn_kernel", "4", 1), ("grid_size", "1", 1), ("margin", "-0.6", 1),
    ("cnn_depth", "0", 1), ("cnn_width", "0", 1), ("d_r", "0", 1),
    ("decoder_hidden", "0", 1), ("loss_mode", "bogus", 1),
    ("learning_rate", "-0.01", 1), ("epochs", "-1", 1), ("clip_norm", "-1", 1),
    ("beta1", "1.5", 1), ("adam_eps", "0", 1), ("seed", "-1", 1),
    ("window_size", "0", 1), ("window_size", "-1", 1), ("k_per_batch", "9", 2),
]


def synth_dataset(path):
    rc = main(["synth", "--classes", "2", "--segments", "4", "--window", "64",
               "--noise", "0.05", "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def dataset(tmp_path):
    return synth_dataset(tmp_path / "data.csv")


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


def rewrite_config(src, dst, edit):
    """Copy checkpoint `src` to `dst` with its config JSON changed by
    `edit` and the SHA-256 recomputed: `edit(cfg)` returns the new JSON
    bytes, or edits the dict in place and returns None."""
    _, cfg, _ = load_checkpoint(src)
    old = json.dumps(cfg, sort_keys=True).encode()  # as save_checkpoint
    blob = edit(cfg)
    if blob is None:
        blob = json.dumps(cfg, sort_keys=True).encode()
    payload = Path(src).read_bytes()[:-32]
    assert payload.endswith(struct.pack("<Q", len(old)) + old)
    payload = (payload[:-len(old) - 8] + struct.pack("<Q", len(blob))
               + blob)
    Path(dst).write_bytes(payload + hashlib.sha256(payload).digest())


def rewrite_param(src, dst, name, edit):
    """Copy checkpoint `src` to `dst` with the values of parameter `name`
    changed in place by `edit(values)` and the SHA-256 recomputed."""
    model, _, _ = load_checkpoint(src)
    old = np.ascontiguousarray(model.params[name].data, dtype="<f8")
    new = old.copy()
    edit(new)
    payload = Path(src).read_bytes()[:-32]
    assert payload.count(old.tobytes()) == 1
    payload = payload.replace(old.tobytes(), new.tobytes())
    Path(dst).write_bytes(payload + hashlib.sha256(payload).digest())


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def run_fresh(argv, **env):
    """Exit code, stdout and stderr of the CLI on `argv` in a fresh
    interpreter, with `env` added to the environment. numpy's
    RuntimeWarnings go to the process's stderr, which pytest's capture
    would hide, and OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy
    loads it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from contrnp.cli import main; sys.exit(main())",
         *map(str, argv)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env})
    return proc.returncode, proc.stdout, proc.stderr


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

    @pytest.mark.parametrize("name", ["wave.cfg", "sine.cfg"])
    def test_readme_recipe_configs_are_valid(self, tmp_path, name):
        recipes = dict(re.findall(r"cat > (\w+\.cfg) <<'CFG'\n(.*?)^CFG$",
                                  README.read_text(), re.S | re.M))
        path = tmp_path / name
        path.write_text(recipes[name])
        TrainConfig(**parse_config_file(path))

    def test_readme_table_lists_every_config_key(self):
        rows = [line.split("|")[1] for line in README.read_text().splitlines()
                if line.startswith("| `")]
        keys = [k for row in rows for k in re.findall(r"`(\w+)`", row)]
        assert sorted(keys) == sorted(vars(TrainConfig()))


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
        assert rows[0] == ["step", "nll", "contrastive", "total", "wall_ms",
                           "grad_norm", "clipped", "ell_in", "ell_out"]
        assert len(rows) > 1
        assert (trained / "manifest_train.json").exists()

    def test_missing_data_file(self, tmp_path, config):
        rc = main(["train", "--config", str(config), "--data",
                   str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("line, message", [
        ("tau = 0", "tau must be > 0"), ("lam = -5", "lam must be >= 0")],
        ids=["tau_zero", "lam_negative"])
    def test_bad_loss_weight_is_usage_error(self, tmp_path, dataset, config,
                                            capsys, line, message):
        config.write_text(SMALL_CONFIG + line + "\n")
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"error: invalid configuration: {message}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value, code", BAD_VALUES,
                             ids=[f"{k}={v}" for k, v, _ in BAD_VALUES])
    def test_bad_value_is_one_error_line(self, tmp_path, dataset, config,
                                         capsys, key, value, code):
        config.write_text(SMALL_CONFIG + f"{key} = {value}\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(tmp_path / "r")])
        assert rc == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("value", ["-1", "0", "1"])
    def test_short_window_names_window_size(self, tmp_path, dataset, config,
                                            capsys, value):
        # window_size is also the segmenting stride; the error must name
        # the setting the user wrote, not the stride
        config.write_text(SMALL_CONFIG + f"window_size = {value}\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid configuration: window_size must be >= 2, "
            f"got {value}\n")

    def test_zero_epochs_reports_no_loss(self, tmp_path, dataset, config,
                                         capsys):
        out = tmp_path / "r"
        capsys.readouterr()
        rc = main(["train", "--config", str(config), "--data", str(dataset),
                   "--out", str(out), "--epochs", "0"])
        assert rc == 0
        assert capsys.readouterr().out == \
            f"trained 0 steps; checkpoint at {out / 'model.ckpt'}\n"
        assert read_csv(out / "train_log.csv") == [
            ["step", "nll", "contrastive", "total", "wall_ms", "grad_norm",
             "clipped", "ell_in", "ell_out"]]

    def test_same_seed_processes_write_identical_checkpoints(
            self, tmp_path, dataset, config):
        # `autodiff._conv` reuses arrays per layer shape across calls and
        # steps, from np.empty: an entry it reads before writing would
        # differ between processes. Fresh interpreters, each with the same
        # OpenBLAS thread count
        config.write_text(SMALL_CONFIG.replace("epochs = 2", "epochs = 3"))
        ckpts = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc, _, err = run_fresh(["train", "--config", config, "--data",
                                    dataset, "--out", out],
                                   OPENBLAS_NUM_THREADS="2")
            assert rc == 0, err
            ckpts.append((out / "model.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]

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

    def test_manifests_record_numerics_environment(self, tmp_path, dataset,
                                                    trained):
        out = tmp_path / "ev"
        main(["eval", "--checkpoint", str(trained / "model.ckpt"),
              "--data", str(dataset), "--out", str(out)])
        for path in (trained / "manifest_train.json",
                     out / "manifest_eval.json"):
            env = json.loads(path.read_text())["environment"]
            assert env["python"] == platform.python_version()
            assert env["numpy"] == np.__version__
            assert env["blas"] and env["blas"] != "None None"
            threads = env["blas_threads"]
            assert threads is None or (isinstance(threads, int)
                                       and threads >= 1)

    def test_manifest_records_the_blas_thread_setting(self, tmp_path):
        out = tmp_path / "d.csv"
        rc, _, err = run_fresh(["synth", "--classes", "2", "--segments", "2",
                                "--window", "20", "--out", out],
                               OPENBLAS_NUM_THREADS="1")
        assert rc == 0, err
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        unreadable = _blas_threads() is None
        assert manifest["environment"]["blas_threads"] == (
            None if unreadable else 1)

    def test_determinism_across_runs(self, tmp_path, dataset, trained):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                  "--data", str(dataset), "--seed", "3", "--out", str(out)])
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_corrupt_checkpoint_exits_2(self, tmp_path, dataset, trained,
                                        capsys):
        ckpt = trained / "model.ckpt"
        model, _, _ = load_checkpoint(ckpt)
        flip_byte_in(ckpt, model.params["conv0_w"].data)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert "SHA-256 mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [{"optimizer": "adam"}, {"tau": 0.0},
                                      None],
                             ids=["unknown_key", "bad_value", "missing"])
    def test_train_config_must_fit(self, tmp_path, dataset, trained, capsys,
                                   edit):
        model, cfg, seed = load_checkpoint(trained / "model.ckpt")
        ckpt = tmp_path / "edited.ckpt"
        extra = {} if edit is None else {"train": {**cfg["train"], **edit}}
        save_checkpoint(model, extra, ckpt, seed=seed)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")

    # config JSON a checkpoint can carry under a matching SHA-256; each once
    # ended in a JSONDecodeError, UnicodeDecodeError or TypeError traceback
    @pytest.mark.parametrize("edit", [
        lambda cfg: json.dumps(cfg).encode()[:-1],
        lambda cfg: b"\xff" + json.dumps(cfg).encode(),
        lambda cfg: cfg["model"].update(grid_size=16.5),
        lambda cfg: cfg["train"].update(
            window_size=float(cfg["train"]["window_size"])),
        lambda cfg: cfg["train"].update(m=2.0)],
        ids=["bad_json", "non_utf8", "float_grid_size", "float_window_size",
             "float_m"])
    def test_malformed_config_exits_2(self, tmp_path, dataset, trained,
                                      capsys, edit):
        ckpt = tmp_path / "edited.ckpt"
        rewrite_config(trained / "model.ckpt", ckpt, edit)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["time", "ch0"])
    def test_non_finite_cell_is_data_error(self, tmp_path, dataset, trained,
                                           capsys, cell, column):
        lines = dataset.read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = cell
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(bad), "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}:6: non-finite value\n"
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    # each once exited 0 and wrote `silhouette,nan` and `davies_bouldin,0.0`
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_non_finite_representation_is_refused(self, tmp_path, dataset,
                                                  trained, capsys, value):
        ckpt = tmp_path / "edited.ckpt"
        rewrite_param(trained / "model.ckpt", ckpt, "repr_w",
                      lambda w: w.__setitem__((0, 0), value))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err.splitlines()
        if np.isfinite(value):  # finite, but its squares overflow
            assert rc == 3
            assert len(err) == 1 and re.fullmatch(
                r"error: segment \d+: the squared norm of its "
                r"representation is inf", err[0])
        else:
            assert rc == 2
            assert err == [f"error: {ckpt}: parameter 'repr_w' holds a "
                           "non-finite value"]
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    def test_missing_checkpoint(self, tmp_path, dataset):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--data", str(dataset), "--out", str(tmp_path)])
        assert rc == 2

    def test_non_utf8_csv_is_data_error(self, tmp_path, trained, capsys):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(NON_UTF8_BYTES)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(bad), "--out", str(tmp_path / "ev")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")


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

    # raw_len_out = nan once exited 0 and wrote 64 rows of NaN
    def test_non_finite_parameter_is_refused(self, tmp_path, dataset, trained,
                                             capsys):
        ckpt = tmp_path / "edited.ckpt"
        rewrite_param(trained / "model.ckpt", ckpt, "raw_len_out",
                      lambda v: v.fill(np.nan))
        capsys.readouterr()
        out = tmp_path / "fc.csv"
        rc = main(["forecast", "--checkpoint", str(ckpt), "--data",
                   str(dataset), "--n-context", "8", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: parameter 'raw_len_out' holds a non-finite "
            "value\n")
        assert not out.exists()

    def test_non_finite_prediction_exits_3(self, tmp_path, dataset, trained):
        # finite weights whose products overflow the decoder's mean; it
        # once also printed numpy's overflow RuntimeWarning, which only a
        # fresh interpreter's stderr shows
        ckpt = tmp_path / "edited.ckpt"
        rewrite_param(trained / "model.ckpt", ckpt, "dec_mu_w",
                      lambda w: w.fill(1e308))
        out = tmp_path / "fc.csv"
        rc, _, err = run_fresh(["forecast", "--checkpoint", ckpt, "--data",
                                dataset, "--n-context", "8", "--out", out])
        assert (rc, err) == (3, "error: segment 0: non-finite prediction\n")
        assert not out.exists()

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

    def test_overflow_is_one_error_line_on_stderr(self, tmp_path, dataset,
                                                  config):
        # tau = 1e-3 overflows exp(sim / tau)
        config.write_text(SMALL_CONFIG + "tau = 1e-3\n")
        rc, _, err = run_fresh(["train", "--config", config, "--data",
                                dataset, "--out", tmp_path / "r"])
        assert rc == 3
        assert err == ("error: non-finite gradient norm nan before the "
                       "update\n")


# Values per config key for the fuzz test: zero, negative, NaN, even
# kernels and out-of-order bounds next to valid ones, and no size above the
# desk config, so that no example allocates more than SMALL_CONFIG does.
FUZZ_VALUES = {
    "window_size": ["-1", "0", "8", "64", "65"],
    "grid_size": ["-1", "0", "1", "2", "16"],
    "margin": ["-0.6", "0", "0.1", "nan"],
    "d_r": ["-1", "0", "1", "8"],
    "cnn_depth": ["-1", "0", "1", "2"],
    "cnn_width": ["-1", "0", "1", "8"],
    "cnn_kernel": ["-1", "0", "1", "2", "3", "4", "5"],
    "decoder_hidden": ["-1", "0", "1", "8"],
    "k_per_batch": ["-1", "0", "1", "2", "9"],
    "m": ["-1", "0", "1", "2", "3"],
    "tau": ["-1", "0", "nan", "1e-3", "0.5"],
    "lam": ["-5", "0", "nan", "1", "100"],
    "a": ["-0.1", "0", "0.5", "0.75", "nan"],
    "b": ["0", "0.25", "0.75", "1", "1.5"],
    "n_context_min": ["-1", "0", "1", "5", "12"],
    "n_context_max": ["0", "1", "5", "10", "12"],
    "learning_rate": ["-0.01", "0", "nan", "1e-3", "10"],
    "beta1": ["-0.1", "0", "0.9", "1", "1.5", "nan"],
    "beta2": ["-0.1", "0", "0.999", "1", "nan"],
    "adam_eps": ["-1", "0", "nan", "1e-8"],
    "clip_norm": ["-1", "0", "nan", "inf", "10"],
    "loss_mode": ["exp_sim", "literal", "bogus"],
    "epochs": ["-1", "0", "1", "1.5"],
    "seed": ["-1", "0", "3"],
}

fuzz_overrides = st.lists(st.sampled_from(sorted(FUZZ_VALUES)), min_size=1,
                          max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {k: st.sampled_from(FUZZ_VALUES[k]) for k in keys}))


def pin_bad_values(test):
    for key, value, _ in BAD_VALUES:
        test = example(overrides={key: value})(test)
    return test


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    synth_dataset(path / "data.csv")
    return path


@settings(max_examples=30, deadline=None)
@given(overrides=fuzz_overrides)
@pin_bad_values
def test_fuzzed_config_ends_in_exit_code(fuzz_dir, overrides):
    base = dict(line.split(" = ") for line in SMALL_CONFIG.splitlines()
                if " = " in line)
    values = {**base, "epochs": "1", **overrides}
    config = fuzz_dir / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    rc, err = run_main(["train", "--config", config,
                        "--data", fuzz_dir / "data.csv",
                        "--out", fuzz_dir / "run"])
    assert rc in (0, 1, 2, 3)
    if rc:
        assert len(err) == 1 and err[0].startswith("error: ")


# (command, flag, value, message): each once ended in a traceback, a silent
# success or a multi-line usage message
BAD_FLAGS = [
    ("forecast", "--n-context", "0", "--n-context must be >= 1, got 0"),
    ("forecast", "--n-context", "-1", "--n-context must be >= 1, got -1"),
    ("synth", "--noise", "-1", "--noise must be finite and >= 0, got -1.0"),
    ("synth", "--noise", "nan", "--noise must be finite and >= 0, got nan"),
    ("synth", "--noise", "inf", "--noise must be finite and >= 0, got inf"),
    ("synth", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("eval", "--seed", "-1", "--seed must be >= 0, got -1"),
    ("sweep-labels", "--fractions", "", "bad --fractions: no fraction given"),
    ("synth", "--classes", "nan",
     "argument --classes: invalid int value: 'nan'"),
    ("synth", "--classes", "1", "--classes must be >= 2, got 1"),
    ("synth", "--segments", "0", "--segments must be >= 1, got 0"),
    ("synth", "--window", "1", "--window must be >= 2, got 1"),
    ("eval", "--label-fraction", "0",
     "--label-fraction must be in (0, 1], got 0.0"),
    ("eval", "--label-fraction", "1.5",
     "--label-fraction must be in (0, 1], got 1.5"),
    ("eval", "--label-fraction", "nan",
     "--label-fraction must be in (0, 1], got nan"),
    ("sweep-labels", "--fractions", "0.5,2",
     "--fractions must be in (0, 1], got 2.0"),
]

# Values per numeric flag of the commands other than train: zero, negative,
# NaN, inf and values of the wrong type next to valid ones; synth sizes stay
# small, so that no example allocates much.
SEEDS = ["-1", "0", "3", "nan"]
FLAG_VALUES = {
    "synth": {
        "--classes": ["-1", "0", "1", "2", "4", "nan"],
        "--segments": ["-1", "0", "1", "3", "1.5"],
        "--window": ["-1", "0", "1", "2", "20"],
        "--noise": ["-1", "0", "0.1", "nan", "inf", "-inf"],
        "--seed": SEEDS,
    },
    "eval": {
        "--label-fraction": ["-1", "0", "0.01", "0.5", "1", "1.5", "nan",
                             "inf"],
        "--seed": SEEDS,
    },
    "sweep-labels": {
        "--fractions": ["", "0.5", "0.5,0.8", "0,1", "nan", "0.5,inf", "-1",
                        "x"],
        "--seed": SEEDS,
    },
    "forecast": {
        "--segment-id": ["-1", "0", "7", "8", "99"],
        "--n-context": ["-1", "0", "1", "8", "32", "33", "1000"],
        "--seed": SEEDS,
    },
}


@st.composite
def flag_cases(draw):
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    values = FLAG_VALUES[command]
    flags = draw(st.lists(st.sampled_from(sorted(values)), min_size=1,
                          max_size=3, unique=True))
    return command, {f: draw(st.sampled_from(values[f])) for f in flags}


def pin_bad_flags(test):
    for command, flag, value, _ in BAD_FLAGS:
        test = example(case=(command, {flag: value}))(test)
    return test


def run_main(argv):
    """Exit code and stderr lines of `main(argv)`, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def fuzz_run(fuzz_dir):
    config = fuzz_dir / "trained.cfg"
    config.write_text(SMALL_CONFIG)
    rc, _ = run_main(["train", "--config", config, "--data",
                      fuzz_dir / "data.csv", "--out", fuzz_dir / "trained"])
    assert rc == 0
    return fuzz_dir / "trained"


def command_argv(command, fuzz_dir, fuzz_run):
    """A valid call of `command` on the fuzz dataset and checkpoint."""
    if command == "train":
        return ["train", "--config", fuzz_dir / "trained.cfg",
                "--data", fuzz_dir / "data.csv", "--out", fuzz_dir / "train"]
    if command == "synth":
        return ["synth", "--classes", "2", "--segments", "2", "--window",
                "20", "--out", fuzz_dir / "synth" / "data.csv"]
    if command == "forecast":  # a window holds about 31 points in (a, b)
        return ["forecast", "--checkpoint", fuzz_run / "model.ckpt",
                "--data", fuzz_dir / "data.csv", "--n-context", "8",
                "--out", fuzz_dir / "forecast.csv"]
    return [command, "--checkpoint", fuzz_run / "model.ckpt",
            "--data", fuzz_dir / "data.csv", "--out", fuzz_dir / command]


@pytest.mark.parametrize("command, flag, value, message", BAD_FLAGS,
                         ids=[f"{c}{f}={v}" for c, f, v, _ in BAD_FLAGS])
def test_bad_flag_is_one_error_line(fuzz_dir, fuzz_run, command, flag,
                                    value, message):
    rc, err = run_main(command_argv(command, fuzz_dir, fuzz_run)
                       + [flag, value])
    assert (rc, err) == (1, [f"error: {message}"])


@settings(max_examples=40, deadline=None)
@given(case=flag_cases())
@pin_bad_flags
def test_fuzzed_flags_end_in_exit_code(fuzz_dir, fuzz_run, case):
    command, flags = case
    argv = command_argv(command, fuzz_dir, fuzz_run)
    rc, err = run_main(argv + [x for pair in flags.items() for x in pair])
    assert rc in (0, 1, 2, 3)
    if rc:
        assert len(err) == 1 and err[0].startswith("error: ")


# (command, path flag, what stands at the path): a directory where a file
# is read or written, or a file where a directory is made; each ended in a
# raw OSError traceback
PATH_CASES = [
    ("train", "--data", "directory"), ("train", "--out", "file"),
    ("eval", "--checkpoint", "directory"), ("eval", "--data", "directory"),
    ("eval", "--out", "file"), ("sweep-labels", "--out", "file"),
    ("forecast", "--out", "directory"), ("synth", "--out", "directory"),
]


@pytest.mark.parametrize("command, flag, kind", PATH_CASES,
                         ids=[f"{c}{f}={k}" for c, f, k in PATH_CASES])
def test_bad_path_is_data_error(tmp_path, fuzz_dir, fuzz_run, command, flag,
                                kind):
    argv = [str(a) for a in command_argv(command, fuzz_dir, fuzz_run)]
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("")
    argv[argv.index(flag) + 1] = str(path)
    rc, err = run_main(argv)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")


# Mutations of the fuzz dataset's CSV. Each is (kind, at, pick): `at` picks
# the row, cell or byte offset and `pick` the replacement. `time_jump` adds
# 1e6 to every time from a row on, so the window across the jump holds too
# few points in (a, b) for the context sizes; `truncate` keeps few enough
# rows for too few or too short windows.
BAD_HEADERS = ["", "t,ch0,label", "time", "time,label", "\ufefftime,ch0,label",
               "time,ch0,label,extra"]
BAD_CELLS = ["nan", "inf", "-inf", "", "x", "1e999", "0x10", "1_000",
             '"1.5"', "1e20", "1" * 200_000]
BAD_BYTES = [b"\xff", b"\xc3\x28", b"\x80", b"\xed\xa0\x80", NON_UTF8_BYTES]
CSV_KINDS = ["header", "short_row", "blank_lines", "non_monotone", "bad_cell",
             "non_utf8", "time_jump", "truncate", "extra_channel"]


def mutate_csv(text, mutations):
    """The CSV `text` with each (kind, at, pick) mutation applied in turn,
    non-UTF-8 bytes last."""
    rows = [line.split(",") for line in text.splitlines()]
    for kind, at, pick in mutations:
        i = 1 + at % (len(rows) - 1) if len(rows) > 1 else 0
        row = rows[i]
        if kind == "header":
            rows[0] = BAD_HEADERS[pick % len(BAD_HEADERS)].split(",")
        elif kind == "short_row" and len(row) > 1:
            row.pop()
        elif kind == "blank_lines":
            rows[i:i] = [[""] for _ in range(1 + pick % 3)]
        elif kind == "non_monotone" and i > 1:
            row[0] = rows[i - 1][0]
        elif kind == "bad_cell":
            row[pick % len(row)] = BAD_CELLS[pick % len(BAD_CELLS)]
        elif kind == "time_jump":
            for later in rows[i:]:
                with contextlib.suppress(ValueError):
                    later[0] = repr(float(later[0]) + 1e6)
        elif kind == "truncate":
            del rows[1 + at % 200:]
        elif kind == "extra_channel":  # a copy of column 1 as `ch1`
            for r in rows:
                if len(r) > 1:
                    r.insert(2, "ch1" if r is rows[0] else r[1])
    data = "".join(",".join(r) + "\n" for r in rows).encode()
    for kind, at, pick in mutations:
        if kind == "non_utf8":
            cut = at % (len(data) + 1)
            data = data[:cut] + BAD_BYTES[pick % len(BAD_BYTES)] + data[cut:]
    return data


csv_mutations = st.lists(st.tuples(st.sampled_from(CSV_KINDS),
                                   st.integers(0, 10_000), st.integers(0, 50)),
                         min_size=1, max_size=3)


# one of each kind; the cells are a `nan` time, an `inf` value, a `-inf`
# label, a `1_000` value, a quoted `"1.5"` value, a `1e20` label and a
# 200,000-digit value, and the bytes are the 200 of NON_UTF8_BYTES
PINNED_MUTATIONS = [
    ("header", 100, 4), ("short_row", 100, 0), ("blank_lines", 100, 1),
    ("non_monotone", 100, 0), ("bad_cell", 100, 0), ("bad_cell", 100, 1),
    ("bad_cell", 100, 2), ("bad_cell", 100, 7), ("bad_cell", 100, 19),
    ("bad_cell", 100, 20), ("bad_cell", 100, 10), ("non_utf8", 100, 4),
    ("time_jump", 100, 0), ("truncate", 100, 0), ("extra_channel", 100, 0)]


def pin_csv_mutations(test):
    for command in ("train", "eval"):
        for mutation in PINNED_MUTATIONS:
            test = example(command=command, mutations=[mutation])(test)
    return test


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["train", "eval"]), mutations=csv_mutations)
@pin_csv_mutations
def test_fuzzed_csv_ends_in_exit_code(fuzz_dir, fuzz_run, command,
                                      mutations):
    data = fuzz_dir / "mutated.csv"
    data.write_bytes(mutate_csv((fuzz_dir / "data.csv").read_text(),
                                mutations))
    argv = command_argv(command, fuzz_dir, fuzz_run)
    argv[argv.index("--data") + 1] = data
    rc, err = run_main(argv)
    assert rc in (0, 1, 2, 3)
    if rc:
        assert len(err) == 1 and err[0].startswith("error: ")


# the parameters of SMALL_CONFIG's model (cnn_depth = 2)
PARAM_NAMES = ["conv0_b", "conv0_w", "conv1_b", "conv1_w", "dec_b1",
               "dec_mu_b", "dec_mu_w", "dec_sig_b", "dec_sig_w", "dec_w1",
               "raw_len_in", "raw_len_out", "repr_b", "repr_w"]


# One value of the fuzz checkpoint overwritten under a recomputed SHA-256:
# load_checkpoint refuses a non-finite one; a finite extreme can overflow
# the representations or predictions, which must then end in an error.
@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(PARAM_NAMES), at=st.integers(0, 10_000),
       value=st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
       command=st.sampled_from(["eval", "forecast"]))
@example(name="repr_w", at=0, value=1e300, command="eval")
@example(name="dec_mu_w", at=0, value=-1e300, command="forecast")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_parameter_ends_in_exit_code(fuzz_dir, fuzz_run, name, at,
                                            value, command):
    ckpt = fuzz_dir / "param.ckpt"
    rewrite_param(fuzz_run / "model.ckpt", ckpt, name,
                  lambda v: v.reshape(-1).__setitem__(at % v.size, value))
    argv = command_argv(command, fuzz_dir, fuzz_run)
    argv[argv.index("--checkpoint") + 1] = ckpt
    out = Path(argv[argv.index("--out") + 1])
    out = out / "metrics.csv" if command == "eval" else out
    out.unlink(missing_ok=True)
    rc, err = run_main(argv)
    if not np.isfinite(value):
        assert (rc, err) == (2, [f"error: {ckpt}: parameter '{name}' holds "
                                 "a non-finite value"])
    elif rc:
        assert rc in (2, 3) and len(err) == 1 and err[0].startswith("error: ")
    else:
        cells = [c for row in read_csv(out)[1:] for c in row[1:]]
        assert all(np.isfinite(float(c)) for c in cells)


# A lengthscale softplus(raw) of 0, one so short that every RBF weight on
# the grid underflows (raw = -300: 5.1e-131), or one whose square
# overflows: each once printed numpy RuntimeWarnings and then exited 0,
# exited 3, or ended in a data error ("coincident centroids") that pointed
# at the CSV.
@pytest.mark.parametrize("command", ["eval", "forecast"])
@pytest.mark.parametrize("name, value", [
    ("raw_len_in", -1e300), ("raw_len_in", 1e300), ("raw_len_out", -1e300),
    ("raw_len_out", 1e300), ("raw_len_in", -300.0), ("raw_len_out", -300.0)])
def test_degenerate_lengthscale_is_one_error_line(tmp_path, fuzz_dir,
                                                  fuzz_run, name, value,
                                                  command):
    ckpt = tmp_path / "param.ckpt"
    rewrite_param(fuzz_run / "model.ckpt", ckpt, name,
                  lambda v: v.fill(value))
    argv = command_argv(command, fuzz_dir, fuzz_run)
    argv[argv.index("--checkpoint") + 1] = ckpt
    argv[argv.index("--out") + 1] = tmp_path / "out"
    rc, _, err = run_fresh(argv)
    ell = {-1e300: "0.0", -300.0: repr(float(np.log1p(np.exp(-300.0)))),
           1e300: "1e+300"}[value]
    # the lower bound is SMALL_CONFIG's half grid spacing, 0.6 / 15, over
    # sqrt(-2 log tiny); the upper one is sqrt of the largest float
    assert rc == 2
    assert err == (f"error: {ckpt}: parameter '{name}' gives the lengthscale "
                   f"{ell}, outside [0.00106, 1.34e+154)\n")
    assert not (tmp_path / "out").exists()


# a 1e20 label once ended in an OverflowError traceback, exit 1
@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_of_range_label_is_data_error(tmp_path, fuzz_dir, fuzz_run,
                                          command):
    lines = (fuzz_dir / "data.csv").read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",1e20"
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(lines) + "\n")
    argv = command_argv(command, fuzz_dir, fuzz_run)
    argv[argv.index("--data") + 1] = data
    assert run_main(argv) == (2, [
        f"error: {data}:6: label 1e20 is not a finite number below 2**63 "
        "in magnitude"])


@pytest.fixture(scope="module")
def two_channel_run(fuzz_dir, fuzz_run):
    """The fuzz dataset with ch0 copied as ch1, and a model trained on it."""
    data = fuzz_dir / "two_channel.csv"
    data.write_bytes(mutate_csv((fuzz_dir / "data.csv").read_text(),
                                [("extra_channel", 0, 0)]))
    rc, _ = run_main(["train", "--config", fuzz_dir / "trained.cfg",
                      "--data", data, "--out", fuzz_dir / "trained2"])
    assert rc == 0
    return data, fuzz_dir / "trained2"


# each once ended in a `cannot reshape` traceback from the encoder, exit 1
@pytest.mark.parametrize("command", ["eval", "sweep-labels", "forecast"])
@pytest.mark.parametrize("model_channels", [1, 2])
def test_channel_count_must_match_checkpoint(fuzz_dir, fuzz_run,
                                             two_channel_run, command,
                                             model_channels):
    two_channel_data, two_channel_model = two_channel_run
    run, own, other = (
        (fuzz_run, fuzz_dir / "data.csv", two_channel_data)
        if model_channels == 1 else
        (two_channel_model, two_channel_data, fuzz_dir / "data.csv"))
    argv = command_argv(command, fuzz_dir, run)
    if command == "sweep-labels":  # the default 0.1 leaves a class unlabeled
        argv += ["--fractions", "1.0"]
    at = argv.index("--data") + 1
    argv[at] = own
    assert run_main(argv) == (0, [])
    argv[at] = other
    assert run_main(argv) == (2, [
        f"error: {other}: {3 - model_channels} channel(s), but checkpoint "
        f"{run / 'model.ckpt'} was trained on {model_channels}"])
