"""Acceptance suite: nine end-to-end criteria, one printed PASS/FAIL line
each.  Training-based criteria share session-scoped fixtures; the whole
module runs in about 3.5 minutes (202-206 s) on a 2-core CPU.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with pytest's own output.
"""

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import Tensor
from contrnp.data import Segment, make_batch, sample_views, synth_generate
from contrnp.evaluate import (EncodedDataset, accuracy, davies_bouldin,
                              extract, holdout_split, silhouette, train_probe)
from contrnp.losses import ContrastiveConfig, combined_loss, contrastive_loss
from contrnp.model import (ConvCnpModel, ModelConfig, Representation,
                           load_checkpoint, save_checkpoint)
from contrnp.train import TrainConfig, train

from conftest import (conv1d, div, exp, finite_diff_grads, log, rel_err,
                      relu, represent, softplus, sqrt, sub, translate_check)
from test_evaluate import blobs, dbi_reference, silhouette_reference
from test_losses import brute_force_contrastive, rep_tensors


def report(n, name, ok, detail=""):
    line = f"[ACCEPTANCE {n}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


# -- shared configurations -----------------------------------------------------

# noiseless-sinusoid forecasting configuration: kernel 9 / depth 5 gives the
# CNN a receptive radius of 20 grid steps (~0.38 in x), enough to reach the
# 0.25-wide flanks outside the context band from observed grid cells.
SINE_CFG = dict(window_size=160, grid_size=64, cnn_depth=5, cnn_width=32,
                cnn_kernel=9, d_r=64, decoder_hidden=64,
                n_context_min=20, n_context_max=80, seed=0)

# 4-class waveform configuration for the representation-quality criteria.
WAVE_CFG = dict(window_size=200, grid_size=64, cnn_depth=4, cnn_width=32,
                cnn_kernel=7, d_r=64, decoder_hidden=64,
                n_context_min=20, n_context_max=100, tau=0.5, seed=0)

EVAL_M = 8                  # views averaged per segment at evaluation time
EVAL_CTX = (20, 100)        # context-size range for evaluation views


def sine_dataset(n=40, window=160, freq=2.0, seed=0):
    """Noiseless unit-amplitude sinusoids with random phase, x in [0, 1]."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, window)
    return [Segment(k, x.copy(),
                    np.sin(2 * np.pi * freq * x
                           + rng.uniform(0, 2 * np.pi))[:, None], label=0)
            for k in range(n)]


def frozen(model):
    """The model as `contrnp eval` and `forecast` see it: saved and loaded
    back, so its parameters require no gradient and its forward passes
    record no tape. Forward values are the same."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, {}, path)
        return load_checkpoint(path)[0]


def forecast_rmse(model, segments, n_context=40, n_segments=10, seed=123):
    model = frozen(model)
    errs = []
    rng = np.random.default_rng(seed)
    for seg in segments[:n_segments]:
        v = sample_views(seg, 1, 0.25, 0.75, (n_context, n_context), rng)[0]
        pred = model.predict(v.context_x, v.context_y, v.target_x)
        errs.append(np.sqrt(np.mean((pred.mu_sigma()[0] - v.target_y) ** 2)))
    return float(np.mean(errs))


def encoded_split(model, segments, seed_extract=7, seed_split=11):
    enc = extract(frozen(model), segments, EVAL_M, 0.25, 0.75, EVAL_CTX,
                  np.random.default_rng(seed_extract))
    tr, te = holdout_split(enc, np.random.default_rng(seed_split))
    return tr, te, enc


def probe_accuracy(model, segments, label_fraction=0.8, seed_probe=11):
    tr, te, _ = encoded_split(model, segments)
    probe = train_probe(tr, label_fraction, np.random.default_rng(seed_probe))
    return accuracy(probe, te)


# -- session fixtures (the expensive trainings) --------------------------------

@pytest.fixture(scope="session")
def sine_segments():
    return sine_dataset()


@pytest.fixture(scope="session")
def wave_segments():
    return synth_generate(4, 50, 200, 0.1, np.random.default_rng(0))


@pytest.fixture(scope="session")
def forecast_run(sine_segments):
    """NLL-weighted run for the Fig.-1b forecasting criterion."""
    cfg = TrainConfig(**SINE_CFG, lam=1.0, epochs=100)
    t0 = time.perf_counter()
    model, _ = train(sine_segments, cfg)
    return model, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sine_lambda_runs(sine_segments):
    """Short runs at lambda in {0.001, 0.01} for the sensitivity criterion."""
    out = {}
    for lam in (0.001, 0.01):
        cfg = TrainConfig(**SINE_CFG, lam=lam, epochs=40)
        model, _ = train(sine_segments, cfg)
        out[lam] = model
    return out


@pytest.fixture(scope="session")
def repr_run(wave_segments):
    """Representation-quality run on the 4-class task.

    The NLL term is weighted up (lambda=100) and training runs long enough
    for the within-class scatter left by instance-level contrast to shrink;
    the silhouette of the representations keeps improving well after probe
    accuracy saturates.
    """
    cfg = TrainConfig(**WAVE_CFG, lam=100.0, epochs=160)
    model, _ = train(wave_segments, cfg)
    return model


@pytest.fixture(scope="session")
def random_encoder(wave_segments):
    cfg = TrainConfig(**WAVE_CFG, lam=100.0, epochs=0)
    model, _ = train(wave_segments, cfg)
    return model


@pytest.fixture(scope="session")
def wave_lambda_runs(wave_segments):
    """lambda=0.01 vs pure-contrastive lambda=0 on the 4-class task."""
    out = {}
    for lam in (0.0, 0.01):
        cfg = TrainConfig(**WAVE_CFG, lam=lam, epochs=40)
        model, _ = train(wave_segments, cfg)
        out[lam] = model
    return out


# -- criterion 1: autodiff correctness ------------------------------------------

def test_criterion_1_autodiff():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    worst = 0.0

    def check(build, params, tol=1e-4, h=1e-5):
        nonlocal worst
        loss = build()
        for p in params:
            p.zero_grad()
        loss.backward()
        fd = finite_diff_grads(lambda: build().item(), params, h=h)
        for p, g in zip(params, fd):
            err = float(rel_err(p.grad, g).max())
            worst = max(worst, err)
            assert err < tol

    # every differentiable op, reduced to a scalar by summation
    a, b = t(3, 4), t(3, 4)
    check(lambda: ad.sum_axis(a + b), [a, b])
    check(lambda: ad.sum_axis(sub(a, b)), [a, b])
    check(lambda: ad.sum_axis(a * b), [a, b])
    check(lambda: ad.sum_axis(div(a, b * b + Tensor(1.0))), [a, b])
    check(lambda: ad.sum_axis(softplus(a)), [a])
    check(lambda: ad.sum_axis(exp(a)), [a])
    pos = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5,
                 requires_grad=True)
    check(lambda: ad.sum_axis(log(pos)), [pos])
    check(lambda: ad.sum_axis(sqrt(pos)), [pos])
    off = Tensor(rng.standard_normal((3, 4)) + 0.3, requires_grad=True)
    check(lambda: ad.sum_axis(relu(off)), [off])   # kept away from kink
    check(lambda: ad.sum_axis(ad.mean_axis(a, axis=0)), [a])
    check(lambda: ad.sum_axis(ad.concat([a, b], axis=1)), [a, b])
    check(lambda: ad.sum_axis(ad.reshape(a, (4, 3)) * Tensor(2.0)), [a])
    check(lambda: ad.sum_axis(ad.transpose(a) @ a), [a])
    m1, m2 = t(3, 5), t(5, 2)
    check(lambda: ad.sum_axis(m1 @ m2), [m1, m2])
    sig, ker = t(1, 2, 6), t(4, 2, 3)
    check(lambda: ad.sum_axis(conv1d(sig, ker)), [sig, ker])
    rng.standard_normal((1, 4))  # the end-to-end check below draws after this

    # end-to-end combined loss on a small config: G=8, K=2, M=2
    cfg = TrainConfig(window_size=32, grid_size=8, cnn_depth=2, cnn_width=3,
                      d_r=4, decoder_hidden=3, cnn_kernel=3,
                      n_context_min=5, n_context_max=5, k_per_batch=2)
    segs = synth_generate(2, 1, 32, 0.05, rng)
    batch = make_batch(segs, 2, cfg.a, cfg.b, (5, 5), rng)
    model = ConvCnpModel(cfg.model_config(1), rng)

    def build_e2e():
        preds, targets, reps = [], [], []
        for seg_views in batch.views:
            row = []
            for v in seg_views:
                gf, rep = model.encode(
                    model.embed_context(v.context_x, v.context_y))
                preds.append(model.decode(gf, v.target_x))
                targets.append(v.target_y)
                row.append(rep)
            reps.append(row)
        return combined_loss(preds, targets, reps, cfg.lam,
                             ContrastiveConfig(tau=cfg.tau)).total

    check(build_e2e, list(model.params.values()), tol=1e-3)
    elapsed = time.perf_counter() - t0
    report(1, "autodiff correctness", elapsed < 120.0,
           f"worst rel err {worst:.2e}, {elapsed:.0f}s")


# -- criterion 2: contrastive-loss oracle ---------------------------------------

def test_criterion_2_contrastive_oracle():
    worst = 0.0
    for k in (2, 3, 4):
        for m in (2, 3, 4):
            for seed in range(50):
                rng = np.random.default_rng(1000 * k + 100 * m + seed)
                vecs = [[rng.standard_normal(5) for _ in range(m)]
                        for _ in range(k)]
                got = contrastive_loss(rep_tensors(vecs),
                                       ContrastiveConfig(tau=0.5)).item()
                ref = brute_force_contrastive(vecs, 0.5)
                worst = max(worst, abs(got - ref))
                assert abs(got - ref) < 1e-10
    # identical representations: every term is exactly log((K-1) M)
    exact_ok = True
    for k, m in [(2, 2), (3, 2), (4, 3)]:
        v = np.array([0.3, -1.2, 2.0])
        reps = rep_tensors([[v.copy() for _ in range(m)] for _ in range(k)])
        got = contrastive_loss(reps, ContrastiveConfig(tau=0.5)).item()
        exact_ok &= abs(got - np.log((k - 1) * m)) < 1e-12
    report(2, "contrastive-loss oracle", worst < 1e-10 and exact_ok,
           f"max |vectorized - brute force| {worst:.1e}")


# -- criterion 3: structural invariants -----------------------------------------

def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(3)
    model = ConvCnpModel(ModelConfig(grid_size=32, cnn_depth=3, cnn_width=8,
                                     d_r=8, decoder_hidden=8, cnn_kernel=5),
                         rng)
    cx = rng.uniform(0.3, 0.7, size=12)
    cy = rng.standard_normal((12, 1))

    r0 = represent(model, cx, cy).r.data
    perm = rng.permutation(12)
    r1 = represent(model, cx[perm], cy[perm]).r.data
    perm_err = float(np.abs(r0 - r1).max())

    tx = np.linspace(0.35, 0.55, 9)
    pred, pred_shifted = translate_check(model, cx, cy, tx, delta_steps=3)
    trans_err = float(max(np.abs(got - want).max() for got, want
                          in zip(pred.mu_sigma(), pred_shifted.mu_sigma())))

    sigma_min = np.inf
    for seed in range(5):
        r = np.random.default_rng(seed)
        m = ConvCnpModel(ModelConfig(grid_size=16, cnn_depth=2, cnn_width=4,
                                     d_r=4, decoder_hidden=4, cnn_kernel=3),
                         r)
        # push the pre-sigma head hard negative to stress the floor
        m.params["dec_sig_b"].data[:] = -50.0
        p = m.predict(r.uniform(0.3, 0.7, 8), r.standard_normal((8, 1)),
                      np.linspace(0, 1, 20))
        sigma_min = min(sigma_min, float(p.mu_sigma()[1].min()))

    preds, targets, rs = [], [], []
    for _ in range(2 * 2):
        vx = rng.uniform(0.3, 0.7, 6)
        vy = rng.standard_normal((6, 1))
        gf, rep = model.encode(model.embed_context(vx, vy))
        preds.append(model.decode(gf, np.linspace(0, 1, 10)))
        targets.append(rng.standard_normal((10, 1)))
        rs.append(rep.r)
    reps = Representation(ad.stack(rs).reshape(2, 2, -1))
    ccfg = ContrastiveConfig(tau=0.5)
    lam0_exact = (combined_loss(preds, targets, reps, 0.0, ccfg).total.item()
                  == contrastive_loss(reps, ccfg).item())

    ok = (perm_err < 1e-9 and trans_err < 1e-6
          and sigma_min >= 1e-4 - 1e-15 and lam0_exact)
    report(3, "structural invariants", ok,
           f"perm {perm_err:.1e}, translate {trans_err:.1e}, "
           f"min sigma {sigma_min:.2e}, lam0 exact {lam0_exact}")


# -- criterion 4: sinusoid forecasting ------------------------------------------

def test_criterion_4_forecasting(forecast_run, sine_segments):
    model, train_seconds = forecast_run
    rmse = forecast_rmse(model, sine_segments, n_context=40)
    ok = rmse <= 0.2 and train_seconds <= 600.0
    report(4, "sinusoid forecasting", ok,
           f"RMSE {rmse:.3f} (<= 0.2), trained in {train_seconds:.0f}s")


# -- criterion 5: representation quality ----------------------------------------

def test_criterion_5_representation_quality(repr_run, random_encoder,
                                            wave_segments):
    acc = probe_accuracy(repr_run, wave_segments, label_fraction=0.8)
    _, _, enc_trained = encoded_split(repr_run, wave_segments)
    _, _, enc_random = encoded_split(random_encoder, wave_segments)
    sil_t = silhouette(enc_trained)
    sil_r = silhouette(enc_random)
    ok = acc >= 0.90 and (sil_t - sil_r) >= 0.2
    report(5, "representation quality", ok,
           f"probe acc {acc:.3f} (>= 0.90), silhouette {sil_t:.3f} vs "
           f"random {sil_r:.3f}, gain {sil_t - sil_r:.3f} (>= 0.2)")


# -- criterion 6: label efficiency ----------------------------------------------

def test_criterion_6_label_efficiency(repr_run):
    # larger evaluation corpus from the same generator: the encoder is
    # frozen, so extra segments only give the 10% fraction enough labels
    # for the probe to be meaningful (48 instead of 16)
    eval_segments = synth_generate(4, 150, 200, 0.1, np.random.default_rng(42))
    tr, te, _ = encoded_split(repr_run, eval_segments)
    accs = {}
    for frac in (0.1, 0.5, 0.8):
        probe = train_probe(tr, frac, np.random.default_rng(11))
        accs[frac] = accuracy(probe, te)
    monotone = accs[0.1] <= accs[0.5] <= accs[0.8]
    efficient = accs[0.1] >= 0.8 * accs[0.8]
    report(6, "label efficiency", monotone and efficient,
           f"acc@10% {accs[0.1]:.3f}, @50% {accs[0.5]:.3f}, "
           f"@80% {accs[0.8]:.3f}")


# -- criterion 7: lambda sensitivity ---------------------------------------------

def test_criterion_7_lambda_sensitivity(sine_lambda_runs, wave_lambda_runs,
                                        sine_segments, wave_segments):
    rmses = {lam: forecast_rmse(m, sine_segments)
             for lam, m in sine_lambda_runs.items()}
    ratio = max(rmses.values()) / min(rmses.values())
    acc_001 = probe_accuracy(wave_lambda_runs[0.01], wave_segments)
    acc_0 = probe_accuracy(wave_lambda_runs[0.0], wave_segments)
    ok = ratio < 2.0 and acc_001 >= acc_0
    report(7, "lambda sensitivity", ok,
           f"RMSE lam=0.001 {rmses[0.001]:.3f} vs lam=0.01 "
           f"{rmses[0.01]:.3f} (ratio {ratio:.2f} < 2), probe acc "
           f"lam=0.01 {acc_001:.3f} >= lam=0 {acc_0:.3f}")


# -- criterion 8: metric oracles --------------------------------------------------

def test_criterion_8_metric_oracles():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        enc = blobs(rng, n_classes=int(rng.integers(2, 5)),
                    per_class=int(rng.integers(5, 25)),
                    d=int(rng.integers(2, 6)),
                    spread=float(rng.uniform(0.5, 3.0)))
        worst = max(worst,
                    abs(silhouette(enc)
                        - silhouette_reference(enc.reps, enc.labels)),
                    abs(davies_bouldin(enc)
                        - dbi_reference(enc.reps, enc.labels)))
        assert worst < 1e-12
    two_tight = EncodedDataset(
        np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]]),
        np.array([0, 0, 1, 1]))
    analytic = (silhouette(two_tight) == 1.0
                and davies_bouldin(two_tight) == 0.0)
    report(8, "metric oracles", worst < 1e-12 and analytic,
           f"max deviation from brute force {worst:.1e}")


# -- criterion 9: determinism & persistence ---------------------------------------

def test_criterion_9_determinism(tmp_path):
    from contrnp.cli import main as cli_main

    data = tmp_path / "data.csv"
    cfgf = tmp_path / "run.cfg"
    assert cli_main(["synth", "--classes", "2", "--segments", "4",
                     "--window", "64", "--noise", "0.05", "--seed", "0",
                     "--out", str(data)]) == 0
    cfgf.write_text("window_size = 64\ngrid_size = 16\ncnn_depth = 2\n"
                    "cnn_width = 8\nd_r = 8\ndecoder_hidden = 8\n"
                    "cnn_kernel = 3\nn_context_min = 5\nn_context_max = 10\n"
                    "k_per_batch = 2\nepochs = 2\nseed = 1\n")
    ckpts, metrics = [], []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert cli_main(["train", "--config", str(cfgf), "--data", str(data),
                         "--out", str(run)]) == 0
        ev = tmp_path / (name + "_eval")
        assert cli_main(["eval", "--checkpoint", str(run / "model.ckpt"),
                         "--data", str(data), "--seed", "3",
                         "--out", str(ev)]) == 0
        ckpts.append((run / "model.ckpt").read_bytes())
        metrics.append((ev / "metrics.csv").read_bytes())
    same_ckpt = ckpts[0] == ckpts[1]
    same_metrics = metrics[0] == metrics[1]

    model, extra, seed = load_checkpoint(tmp_path / "r1" / "model.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(model, {k: v for k, v in extra.items() if k != "model"},
                    resaved, seed=seed)
    roundtrip = resaved.read_bytes() == ckpts[0]

    ok = same_ckpt and same_metrics and roundtrip
    report(9, "determinism & persistence", ok,
           f"checkpoints identical {same_ckpt}, metrics identical "
           f"{same_metrics}, round-trip bit-exact {roundtrip}")
