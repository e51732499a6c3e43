import importlib

import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import Tensor
from contrnp.data import (TimeSeries, load_csv, make_batch, segmentize,
                          synth_generate, write_csv)
from contrnp.losses import ContrastiveConfig, combined_loss
from contrnp.model import ConvCnpModel
from contrnp.train import (Adam, NumericError, TrainConfig, TrainLog,
                           clip_gradients, train, train_step)

from conftest import (finite_diff_grads, per_view_train_step,
                      reference_conv, rel_err)

# the module: the package's `train` attribute is the function
train_module = importlib.import_module("contrnp.train")


SMALL_CFG = dict(window_size=64, grid_size=16, cnn_depth=2, cnn_width=8,
                 d_r=8, decoder_hidden=8, cnn_kernel=3,
                 n_context_min=5, n_context_max=10, k_per_batch=2)


def small_dataset(rng, n_classes=2, per_class=4):
    return synth_generate(n_classes, per_class, 64, 0.05, rng)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.zero_grad()
        opt = Adam({"p": p})
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        p = Tensor(3.0, requires_grad=True)
        p.grad = np.ones(())
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert p.data == pytest.approx(3.0 - 0.1, abs=1e-8)

    def test_quadratic_bowl_converges(self):
        w = Tensor(5.0, requires_grad=True)
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(500):
            w.grad = 2.0 * w.data
            opt.step()
        assert abs(float(w.data)) < 1e-2


class TestClipGradients:
    def test_norm_above_threshold_scaled(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        clip_gradients({"p": p}, 10.0)
        assert np.linalg.norm(p.grad) == pytest.approx(10.0)

    def test_norm_below_threshold_untouched(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 0.1)
        clip_gradients({"p": p}, 10.0)
        np.testing.assert_array_equal(p.grad, np.full(4, 0.1))


class TestTrainLog:
    def test_csv_schema(self, tmp_path):
        log = TrainLog()
        log.append(1, 0.1, 0.2, 0.3, 5.0, 12.5, True, 0.03, 0.015)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,nll,contrastive,total,wall_ms,grad_norm,"
                            "clipped,ell_in,ell_out")
        assert lines[1].startswith("1,0.1,0.2,")
        assert lines[1].endswith(",5.0,12.5,1,0.03,0.015")


class TestTrainLoop:
    def test_zero_epochs_returns_initial_model(self, rng):
        segs = small_dataset(rng)
        cfg = TrainConfig(**SMALL_CFG, epochs=0, seed=1)
        model, log = train(segs, cfg)
        fresh = ConvCnpModel(cfg.model_config(1), np.random.default_rng(1))
        assert log.records == []
        for name in model.params:
            np.testing.assert_array_equal(model.params[name].data,
                                          fresh.params[name].data)

    def test_same_seed_bitwise_identical(self, rng):
        segs = small_dataset(rng)
        cfg = TrainConfig(**SMALL_CFG, epochs=2, seed=3)
        m1, log1 = train(segs, cfg)
        m2, log2 = train(segs, cfg)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data,
                                          m2.params[name].data)
        assert ([r[:4] for r in log1.records]
                == [r[:4] for r in log2.records])

    def test_too_few_segments(self, rng):
        segs = small_dataset(rng)[:1]
        with pytest.raises(ValueError, match="k_per_batch"):
            train(segs, TrainConfig(**SMALL_CFG, epochs=1))

    def test_loss_terms_logged_and_bounded(self, rng):
        segs = small_dataset(rng)
        cfg = TrainConfig(**SMALL_CFG, epochs=2, seed=0)
        _, log = train(segs, cfg)
        k, m = cfg.k_per_batch, cfg.m
        lo = np.log((k - 1) * m) - 2 / cfg.tau
        hi = np.log((k - 1) * m) + 2 / cfg.tau
        for step, nll, contr, total, wall, _, _ in log.records:
            assert lo - 1e-9 <= contr <= hi + 1e-9
            assert total == pytest.approx(cfg.lam * nll + contr, rel=1e-12)
            assert wall >= 0


class TestHealthColumns:
    @pytest.mark.parametrize("clip_norm", [1e-3, 1e3])
    def test_grad_norm_finite_and_clipped_iff_above_clip_norm(self, rng,
                                                              clip_norm):
        cfg = TrainConfig(**SMALL_CFG, epochs=2, clip_norm=clip_norm)
        _, log = train(small_dataset(rng), cfg)
        norms = [r[5] for r in log.records]
        clipped = [r[6] for r in log.records]
        assert len(norms) == 8
        assert all(np.isfinite(norms))
        assert clipped == [n > clip_norm for n in norms]
        # 1e-3 clips every step and 1e3 none, so both outcomes are seen
        assert set(clipped) == {clip_norm < 1}

    def test_train_step_reports_the_norm_before_clipping(self, rng):
        cfg = TrainConfig(**SMALL_CFG, clip_norm=1e-3)
        model = ConvCnpModel(cfg.model_config(1), rng)
        opt = Adam(model.params, lr=cfg.learning_rate)
        batch = make_batch(small_dataset(rng)[:cfg.k_per_batch], cfg.m,
                           cfg.a, cfg.b, cfg.n_context_range, rng)
        breakdown = train_step(model, batch, cfg, opt)
        after = np.sqrt(sum(np.sum(p.grad ** 2)
                            for p in model.params.values()))
        assert breakdown.grad_norm > cfg.clip_norm
        assert after == pytest.approx(cfg.clip_norm, rel=1e-12)


def trained_bytes(segs, cfg):
    """`train`'s loss terms and gradient norm of every step, as
    (shape, bytes), and the bytes of every parameter after the run."""
    model, log = train(segs, cfg)
    # nll, contrastive, total and grad_norm of every step
    terms = np.array([r[1:4] + r[5:6] for r in log.records])
    return (terms.shape, terms.tobytes(),
            {k: p.data.tobytes() for k, p in model.params.items()})


class TestConvBackwardInTraining:
    def test_batched_steps_bitwise_equal_to_per_view_reference_backward(
            self, monkeypatch):
        # WAVE's CNN (4 layers of width 32, kernel 7, grid 64): 3 steps of
        # the library's batched step, against per-view steps through the
        # tensordot-and-slice-add convolution
        cfg = TrainConfig(window_size=200, grid_size=64, cnn_depth=4,
                          cnn_width=32, cnn_kernel=7, d_r=16,
                          decoder_hidden=16, epochs=1, seed=5)
        segs = synth_generate(3, 8, 200, 0.05, np.random.default_rng(2))
        library = trained_bytes(segs, cfg)
        monkeypatch.setattr(ad, "_conv", reference_conv)
        monkeypatch.setattr(train_module, "train_step", per_view_train_step)
        assert library[0] == (3, 4)
        assert library == trained_bytes(segs, cfg)


def uneven_segments(n_segments, window, rng, path):
    """Segments of a CSV whose timestamps are unevenly spaced, so that each
    segment's rescaled times, its target set, are its own."""
    n = n_segments * window
    t = np.cumsum(rng.uniform(0.5, 1.5, n))
    y = np.stack([np.sin(t / 7.0), np.cos(t / 11.0)], axis=1)
    write_csv(TimeSeries(t, y + 0.05 * rng.standard_normal((n, 2))), path)
    return segmentize(load_csv(path), window, window)


WAVE_SHAPES = dict(window_size=200, grid_size=64, cnn_depth=4, cnn_width=32,
                   cnn_kernel=7, d_r=64, decoder_hidden=64, lam=100.0)


class TestBatchedTrainStep:
    """`train_step` encodes a step's K x M views as one stack; every loss
    term, gradient norm and parameter must be byte for byte those of
    `conftest.per_view_train_step`, which encodes each view on its own, over
    three steps (24 segments, 8 per step)."""

    CASES = {
        "wave": dict(WAVE_SHAPES),
        # TrainConfig's layers (6 x 64 wide, kernel 5, d_r 128) at a short
        # window
        "paper_layers": dict(window_size=200),
        "literal": dict(WAVE_SHAPES, loss_mode="literal", tau=0.5),
        "lam0": dict(WAVE_SHAPES, lam=0.0),
    }

    @staticmethod
    def both(segs, cfg, monkeypatch):
        batched = trained_bytes(segs, cfg)
        monkeypatch.setattr(train_module, "train_step", per_view_train_step)
        assert batched[0] == (3, 4)
        return batched, trained_bytes(segs, cfg)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_per_view_steps(self, case, monkeypatch):
        cfg = TrainConfig(**self.CASES[case], epochs=1, seed=11)
        segs = synth_generate(4, 6, 200, 0.1, np.random.default_rng(7))
        batched, per_view = self.both(segs, cfg, monkeypatch)
        assert batched == per_view

    def test_uneven_timestamps_bitwise_equal_to_per_view_steps(
            self, tmp_path, monkeypatch):
        segs = uneven_segments(24, 256, np.random.default_rng(3),
                               tmp_path / "uneven.csv")
        assert len({s.x.tobytes() for s in segs}) == len(segs)
        cfg = TrainConfig(**{**WAVE_SHAPES, "window_size": 256}, epochs=1, seed=4)
        batched, per_view = self.both(segs, cfg, monkeypatch)
        assert batched == per_view

    def test_one_decode_node_per_target_set(self, tmp_path):
        # two segments on their own targets, two views each: two runs
        segs = uneven_segments(2, 256, np.random.default_rng(5),
                               tmp_path / "uneven.csv")
        cfg = TrainConfig(**{**WAVE_SHAPES, "window_size": 256}, k_per_batch=2)
        model = ConvCnpModel(cfg.model_config(2), np.random.default_rng(0))
        batch = make_batch(segs, cfg.m, cfg.a, cfg.b, cfg.n_context_range,
                           np.random.default_rng(1))
        views = [v for row in batch.views for v in row]
        grid_features, _ = model.encode_views(views)
        preds = model.decode_views(grid_features, [v.target_x for v in views])
        assert [p.grid_features.shape[0] for p in preds] == [2, 2]
        assert preds[0].smoother is not preds[1].smoother


class TestLengthscaleColumns:
    def test_lengthscales_logged_finite_and_positive(self, rng):
        cfg = TrainConfig(**SMALL_CFG, epochs=2)
        model, log = train(small_dataset(rng), cfg)
        ells = np.array(log.lengthscales)
        assert ells.shape == (len(log.records), 2)
        assert np.all(np.isfinite(ells)) and np.all(ells > 0)
        # the values after the last step are the model's
        assert tuple(ells[-1]) == model.lengthscales()


class TestNonFiniteGradients:
    def test_nan_gradient_stops_before_update(self, rng):
        cfg = TrainConfig(**SMALL_CFG, epochs=1)
        model = ConvCnpModel(cfg.model_config(1), rng)
        opt = Adam(model.params, lr=cfg.learning_rate)
        batch = make_batch(small_dataset(rng)[:cfg.k_per_batch], cfg.m,
                           cfg.a, cfg.b, cfg.n_context_range, rng)
        encode = model.encode

        def nan_grad_encode(embedding):
            # sqrt(0) keeps the loss finite but its backward is 0.5 / 0,
            # which turns into NaN on the way back to every parameter
            grid_features, rep = encode(embedding)
            rep.r = rep.r + ad.sqrt(rep.r * 0.0)
            return grid_features, rep

        model.encode = nan_grad_encode
        before = {k: p.data.copy() for k, p in model.params.items()}
        with (pytest.raises(NumericError, match="gradient norm"),
              np.errstate(divide="ignore", invalid="ignore")):
            train_step(model, batch, cfg, opt)
        assert opt.t == 0
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])


class TestEndToEndGradients:
    def test_combined_loss_gradcheck_small_model(self):
        # G=8, 2 conv layers, K=2, M=2, 5 context points
        rng = np.random.default_rng(4)
        cfg = TrainConfig(window_size=32, grid_size=8, cnn_depth=2,
                          cnn_width=3, d_r=4, decoder_hidden=3, cnn_kernel=3,
                          n_context_min=5, n_context_max=5, k_per_batch=2)
        segs = synth_generate(2, 1, 32, 0.05, rng)
        batch = make_batch(segs, 2, cfg.a, cfg.b, (5, 5), rng)
        model = ConvCnpModel(cfg.model_config(1), rng)

        def build():
            preds, targets, reps = [], [], []
            for seg_views in batch.views:
                seg_reps = []
                for v in seg_views:
                    gf, rep = model.encode(
                        model.embed_context(v.context_x, v.context_y))
                    preds.append(model.decode(gf, v.target_x))
                    targets.append(v.target_y)
                    seg_reps.append(rep)
                reps.append(seg_reps)
            return combined_loss(preds, targets, reps, cfg.lam,
                                 ContrastiveConfig(tau=cfg.tau)).total

        loss = build()
        params = model.params
        for p in params.values():
            p.zero_grad()
        loss.backward()
        fd = finite_diff_grads(lambda: build().item(),
                               list(params.values()), h=1e-5)
        for (name, p), g in zip(params.items(), fd):
            err = rel_err(p.grad, g).max()
            assert err < 1e-3, f"{name}: rel err {err:.2e}"
