import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import Tensor
from contrnp.losses import gaussian_nll
from contrnp.model import (DENSITY_EPS, CheckpointError, ConvCnpModel,
                           GaussianPrediction, ModelConfig, SIGMA_MIN,
                           load_checkpoint, save_checkpoint)

from conftest import (check_grads, composed_rbf, flip_byte_in,
                      translate_check)


SMALL = ModelConfig(grid_size=32, cnn_depth=2, cnn_width=8, d_r=6,
                    decoder_hidden=8, cnn_kernel=3)


@pytest.fixture
def model(rng):
    return ConvCnpModel(SMALL, rng)


def sine_context(rng, n=25, lo=0.25, hi=0.75):
    x = np.sort(rng.uniform(lo, hi, n))
    return x, np.sin(2 * np.pi * 3 * x)[:, None]


class TestEmbedContext:
    def test_single_point_at_grid_location(self, rng):
        model = ConvCnpModel(SMALL, rng)
        # tiny length-scale: the density peaks at 1 at the matching grid point
        model.params["raw_len_in"].data = np.float64(np.log(np.expm1(1e-3)))
        gx = model.grid_x[10]
        emb = model.embed_context(np.array([gx]), np.array([[2.5]]))
        density = emb.data[:, 0]
        assert density[10] == pytest.approx(1.0)
        assert density.max() == density[10]
        assert emb.data[10, 1] == pytest.approx(2.5, rel=1e-5)

    def test_permutation_gives_near_identical_embedding(self, model, rng):
        x, y = sine_context(rng)
        perm = rng.permutation(len(x))
        e1 = model.embed_context(x, y).data
        e2 = model.embed_context(x[perm], y[perm]).data
        assert np.abs(e1 - e2).max() < 1e-12

    def test_zero_values_zero_signal_channel(self, model, rng):
        x, y = sine_context(rng)
        e1 = model.embed_context(x, y).data
        e0 = model.embed_context(x, np.zeros_like(y)).data
        np.testing.assert_array_equal(e0[:, 1], np.zeros(len(e0)))
        np.testing.assert_array_equal(e0[:, 0], e1[:, 0])

    def test_density_nonnegative(self, model, rng):
        x, y = sine_context(rng)
        assert np.all(model.embed_context(x, y).data[:, 0] >= 0)

    def test_empty_context_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.embed_context(np.array([]), np.empty((0, 1)))


class TestEncode:
    def test_representation_dimension(self, rng):
        x, y = sine_context(rng)
        model = ConvCnpModel(ModelConfig(d_r=128), rng)
        assert model.represent(x, y).r.shape == (128,)

    def test_permutation_invariance(self, model, rng):
        x, y = sine_context(rng)
        perm = rng.permutation(len(x))
        r1 = model.represent(x, y).r.data
        r2 = model.represent(x[perm], y[perm]).r.data
        assert np.abs(r1 - r2).max() < 1e-9

    def test_deterministic_repeat(self, model, rng):
        x, y = sine_context(rng)
        np.testing.assert_array_equal(model.represent(x, y).r.data,
                                      model.represent(x, y).r.data)


class TestDecode:
    def test_sigma_floor_for_arbitrary_parameters(self, rng):
        model = ConvCnpModel(SMALL, rng)
        for p in model.params.values():
            p.data = p.data + rng.standard_normal(p.shape) * 5.0
        x, y = sine_context(rng)
        pred = model.predict(x, y, np.linspace(0, 1, 40))
        assert np.all(pred.sigma.data >= SIGMA_MIN)

    def test_small_output_lengthscale_recovers_grid_feature(self, rng):
        model = ConvCnpModel(SMALL, rng)
        model.params["raw_len_out"].data = np.float64(
            np.log(np.expm1(1e-3)))
        x, y = sine_context(rng)
        gf, _ = model.encode(model.embed_context(x, y))
        # target exactly on grid point 12: the smoothed feature collapses
        # to that grid row as the output kernel shrinks
        pred_in = model.grid_x[np.array([12])]
        ell = 1e-3
        q = np.exp(-(pred_in[:, None] - model.grid_x[None, :]) ** 2
                   / (2 * ell * ell))
        smoothed = (q / q.sum()) @ gf.data
        np.testing.assert_allclose(smoothed[0], gf.data[12], atol=1e-10)

    def test_off_grid_target_rejected(self, model, rng):
        x, y = sine_context(rng)
        gf, _ = model.encode(model.embed_context(x, y))
        with pytest.raises(ValueError, match="grid span"):
            model.decode(gf, np.array([2.0]))


class TestTranslationEquivariance:
    def test_zero_shift_identity(self, model, rng):
        x, y = sine_context(rng)
        pred, shifted = translate_check(model, x, y,
                                        np.linspace(0.2, 0.8, 30), 0)
        np.testing.assert_array_equal(pred.mu.data, shifted.mu.data)

    @pytest.mark.parametrize("delta", [-3, 3, 5])
    def test_grid_aligned_shift(self, model, rng, delta):
        x, y = sine_context(rng, lo=0.35, hi=0.65)
        tx = np.linspace(0.3, 0.7, 25)
        pred, shifted = translate_check(model, x, y, tx, delta)
        assert np.abs(pred.mu.data - shifted.mu.data).max() < 1e-6
        assert np.abs(pred.sigma.data - shifted.sigma.data).max() < 1e-6

    def test_off_grid_shift_rejected(self, model, rng):
        x, y = sine_context(rng)
        with pytest.raises(ValueError, match="off-grid"):
            translate_check(model, x, y, np.linspace(0, 1, 10), 50)


class TestGradients:
    def test_full_model_gradcheck(self, rng):
        model = ConvCnpModel(ModelConfig(grid_size=8, cnn_depth=2, cnn_width=3,
                                         d_r=4, decoder_hidden=3,
                                         cnn_kernel=3), rng)
        x, y = sine_context(rng, n=5)
        tx = np.linspace(0, 1, 7)

        def build():
            from contrnp import autodiff as ad
            pred = model.predict(x, y, tx)
            _, rep = model.encode(model.embed_context(x, y))
            return (ad.mean_axis(pred.mu * pred.mu)
                    + ad.mean_axis(ad.log(pred.sigma))
                    + ad.mean_axis(rep.r * rep.r))

        check_grads(build, list(model.params.values()), tol=1e-4)


def composed_embed_context(model, context_x, context_y):
    """`embed_context` op by op: exp of the scaled squared distances, then
    density and normalised signal."""
    ell = ad.softplus(model.params["raw_len_in"])
    w = composed_rbf((model.grid_x[:, None] - context_x[None, :]) ** 2, ell)
    density = ad.sum_axis(w, axis=1, keepdims=True)
    signal = (w @ Tensor(context_y)) / (density + DENSITY_EPS)
    return ad.concat([density, signal], axis=1)


def composed_decode(model, grid_features, target_x):
    """`decode` op by op: exp/sum/divide smoother, the smoothed features
    times dec_w1, and one product per head."""
    p = model.params
    ell = ad.softplus(p["raw_len_out"])
    qn = composed_rbf((target_x[:, None] - model.grid_x[None, :]) ** 2, ell,
                      normalize=True)
    smoothed = qn @ grid_features
    hdn = ad.relu(smoothed @ p["dec_w1"] + p["dec_b1"])
    mu = hdn @ p["dec_mu_w"] + p["dec_mu_b"]
    pre_sigma = hdn @ p["dec_sig_w"] + p["dec_sig_b"]
    return GaussianPrediction(mu, ad.softplus(pre_sigma) + SIGMA_MIN)


class TestComposedOracle:
    """The fused smoother, the reassociated hidden layer and the joint head
    product give the op-by-op model's predictions and gradients."""

    @staticmethod
    def run(model, embed, decode, x, y, tx, ty):
        grid_features, rep = model.encode(embed(model, x, y))
        pred = decode(model, grid_features, tx)
        loss = gaussian_nll(pred, ty) + ad.mean_axis(rep.r * rep.r)
        for p in model.params.values():
            p.zero_grad()
        loss.backward()
        return pred, {k: p.grad.copy() for k, p in model.params.items()}

    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_matches_op_by_op_model(self, rng, n_channels):
        config = ModelConfig(grid_size=32, cnn_depth=2, cnn_width=8, d_r=6,
                             decoder_hidden=8, cnn_kernel=3,
                             n_channels=n_channels)
        model = ConvCnpModel(config, rng)
        x = np.sort(rng.uniform(0.25, 0.75, 20))
        y = rng.standard_normal((20, n_channels))
        tx = np.sort(rng.uniform(0.0, 1.0, 200))
        ty = rng.standard_normal((200, n_channels))
        want_pred, want_grads = self.run(
            model, composed_embed_context, composed_decode, x, y, tx, ty)
        pred, grads = self.run(
            model, ConvCnpModel.embed_context, ConvCnpModel.decode,
            x, y, tx, ty)
        pairs = [("mu", pred.mu.data, want_pred.mu.data),
                 ("sigma", pred.sigma.data, want_pred.sigma.data),
                 *((k, grads[k], want_grads[k]) for k in model.params)]
        for name, got, want in pairs:
            # relative to the largest entry: the reassociated products round
            # differently, which an entry near 0 would magnify
            scale = np.max(np.abs(want))
            assert scale > 0, name
            err = np.max(np.abs(got - want)) / scale
            assert err <= 1e-12, f"{name}: relative error {err:.3g}"


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {"train": {"lam": 0.01}}, path, seed=7)
        loaded, cfg, seed = load_checkpoint(path)
        assert seed == 7
        assert cfg["train"]["lam"] == 0.01
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE!" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="not a CNPR2"):
            load_checkpoint(path)

    def test_flipped_parameter_byte_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        flip_byte_in(path, model.params["repr_w"].data)
        with pytest.raises(CheckpointError, match="SHA-256 mismatch"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, {}, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError,
                           match=r"trailing bytes after the hash \(1\)"):
            load_checkpoint(path)

    def test_shape_mismatch_names_parameter(self, model, tmp_path):
        # the config JSON says d_r = 5, the records hold d_r = 6, and the
        # hash over both is valid
        path = tmp_path / "m.ckpt"
        model.config = ModelConfig(**{**SMALL.__dict__, "d_r": 5})
        save_checkpoint(model, {}, path)
        with pytest.raises(CheckpointError, match="repr_"):
            load_checkpoint(path)

    def test_invalid_model_config_rejected(self, model, tmp_path):
        # a valid hash over a config that ModelConfig refuses
        path = tmp_path / "m.ckpt"
        model.config = ModelConfig(**SMALL.__dict__)
        model.config.cnn_kernel = 4
        save_checkpoint(model, {}, path)
        with pytest.raises(CheckpointError, match="cnn_kernel must be odd"):
            load_checkpoint(path)
