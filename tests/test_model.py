import numpy as np
import pytest

from contrnp import autodiff as ad
from contrnp.autodiff import Tensor
from contrnp.data import Segment, ViewPair, sample_views
from contrnp.evaluate import extract
from contrnp import losses
from contrnp.losses import ContrastiveConfig, combined_loss
from contrnp.model import (DECODER_PARAMS, DENSITY_EPS, CheckpointError,
                           ConvCnpModel, ModelConfig, Representation,
                           SIGMA_MIN, load_checkpoint, save_checkpoint)

from conftest import (check_grads, composed_rbf, composed_set_conv, conv1d,
                      flip_byte_in, gaussian_nll, leaf, reference_set_conv,
                      relu, represent, translate_check)


SMALL = ModelConfig(grid_size=32, cnn_depth=2, cnn_width=8, d_r=6,
                    decoder_hidden=8, cnn_kernel=3)


@pytest.fixture
def model(rng):
    return ConvCnpModel(SMALL, rng)


def sine_context(rng, n=25, lo=0.25, hi=0.75):
    x = np.sort(rng.uniform(lo, hi, n))
    return x, np.sin(2 * np.pi * 3 * x)[:, None]


def fixed_targets(tx, n_channels=1):
    """Random targets at tx, the same for every call on targets of one
    length."""
    return np.random.default_rng(1).standard_normal((len(tx), n_channels))


def nll(pred, target_y):
    """The NLL, as a scalar, of one view's prediction, scored on its own as
    a stack of one view by the library's decode-and-score loss."""
    one = pred._replace(grid_features=ad.stack([pred.grid_features]))
    return ad.sum_axis(losses._view_nlls([one], [target_y]))


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


class TestEmbedViews:
    """`embed_views`, one `set_conv` node over a stack of views with
    contexts of uneven sizes, against one `conftest.reference_set_conv`
    node per view, each behind a softplus node of its own, stacked: the
    values and the bytes of raw_len_in's gradient."""

    @staticmethod
    def embeddings(n_views, n_channels, raw):
        """Each way's embedding of one set of views and raw_len_in's
        gradient under one random output adjoint."""
        r = np.random.default_rng([n_views, n_channels])
        model = ConvCnpModel(ModelConfig(grid_size=64, n_channels=n_channels),
                             r)
        sizes = r.integers(1, 90, n_views)
        xs = [np.sort(r.uniform(0.0, 1.0, n)) for n in sizes]
        ys = [r.standard_normal((n, n_channels)) for n in sizes]
        g = Tensor(r.standard_normal((n_views, 64, 1 + n_channels)))

        def per_view():
            return ad.stack([
                reference_set_conv((model.grid_x[:, None] - x[None, :]) ** 2,
                                   y, ad.softplus(model.params["raw_len_in"]),
                                   DENSITY_EPS)
                for x, y in zip(xs, ys)])

        results = []
        for build in (lambda: model.embed_views(xs, ys), per_view):
            param = model.params["raw_len_in"] = Tensor(raw,
                                                        requires_grad=True)
            out = build()
            param.zero_grad()
            ad.sum_axis(out * g).backward()
            results.append((out.data, param.grad))
        return results

    # raw lengthscales for 2, 0.96 (as trained; some weights fall below
    # tiny) and 0.3 grid spacings of 64 nodes
    @pytest.mark.parametrize("raw", [-3.22, -4.0, -5.19])
    @pytest.mark.parametrize("n_channels", [1, 2])
    @pytest.mark.parametrize("n_views", [1, 3, 8])
    def test_bitwise_equal_to_per_view_nodes(self, n_views, n_channels, raw):
        (got, got_grad), (want, want_grad) = self.embeddings(
            n_views, n_channels, raw)
        assert got.shape == want.shape == (n_views, 64, 1 + n_channels)
        assert got.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()

    def test_one_view_is_embed_context(self, model, rng):
        x, y = sine_context(rng)
        np.testing.assert_array_equal(model.embed_views([x], [y]).data[0],
                                      model.embed_context(x, y).data)

    def test_empty_view_rejected(self, model, rng):
        x, y = sine_context(rng)
        with pytest.raises(ValueError, match="empty"):
            model.embed_views([x, np.array([])], [y, np.empty((0, 1))])


class TestEncode:
    def test_representation_dimension(self, rng):
        x, y = sine_context(rng)
        model = ConvCnpModel(ModelConfig(d_r=128), rng)
        assert represent(model, x, y).r.shape == (128,)

    def test_permutation_invariance(self, model, rng):
        x, y = sine_context(rng)
        perm = rng.permutation(len(x))
        r1 = represent(model, x, y).r.data
        r2 = represent(model, x[perm], y[perm]).r.data
        assert np.abs(r1 - r2).max() < 1e-9

    def test_deterministic_repeat(self, model, rng):
        x, y = sine_context(rng)
        np.testing.assert_array_equal(represent(model, x, y).r.data,
                                      represent(model, x, y).r.data)


class TestDecode:
    def test_sigma_floor_for_arbitrary_parameters(self, rng):
        model = ConvCnpModel(SMALL, rng)
        for p in model.params.values():
            p.data = p.data + rng.standard_normal(p.shape) * 5.0
        x, y = sine_context(rng)
        pred = model.predict(x, y, np.linspace(0, 1, 40))
        assert np.all(pred.mu_sigma()[1] >= SIGMA_MIN)

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

    def test_reading_a_prediction_records_no_tape(self, model, rng):
        pred = model.predict(*sine_context(rng), np.linspace(0, 1, 40))
        assert pred.grid_features.requires_grad
        before = next(Tensor._created)
        mu, sigma = pred.mu_sigma()
        assert next(Tensor._created) == before + 1
        assert type(mu) is np.ndarray and type(sigma) is np.ndarray
        assert mu.shape == sigma.shape == (40, 1)

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
        np.testing.assert_array_equal(pred.mu_sigma()[0],
                                      shifted.mu_sigma()[0])

    @pytest.mark.parametrize("delta", [-3, 3, 5])
    def test_grid_aligned_shift(self, model, rng, delta):
        x, y = sine_context(rng, lo=0.35, hi=0.65)
        tx = np.linspace(0.3, 0.7, 25)
        pred, shifted = translate_check(model, x, y, tx, delta)
        for got, want in zip(pred.mu_sigma(), shifted.mu_sigma()):
            assert np.abs(got - want).max() < 1e-6

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
        ty = fixed_targets(tx)

        def build():
            grid_features, rep = model.encode(model.embed_context(x, y))
            return (nll(model.decode(grid_features, tx), ty)
                    + ad.mean_axis(rep.r * rep.r))

        check_grads(build, list(model.params.values()), tol=1e-4)


def composed_embed_context(model, context_x, context_y):
    """`embed_context` op by op: exp of the scaled squared distances, then
    density and normalised signal."""
    ell = ad.softplus(model.params["raw_len_in"])
    d2 = (model.grid_x[:, None] - context_x[None, :]) ** 2
    return composed_set_conv(d2, context_y, ell, DENSITY_EPS)


def composed_encode(model, channels):
    """`encode` op by op: per layer conv1d, bias add, relu and, where the
    shapes match, the residual add; then the pooled representation."""
    c, p = model.config, model.params
    h = ad.transpose(channels).reshape(1, 1 + c.n_channels, c.grid_size)
    for i in range(c.cnn_depth):
        z = conv1d(h, p[f"conv{i}_w"])
        z = relu(z + p[f"conv{i}_b"].reshape(1, c.cnn_width, 1))
        h = z + h if h.shape == z.shape else z
    grid_features = ad.transpose(h.reshape(c.cnn_width, c.grid_size))
    pooled = ad.mean_axis(grid_features, axis=0).reshape(1, c.cnn_width)
    r = (pooled @ p["repr_w"] + p["repr_b"]).reshape(c.d_r)
    return grid_features, Representation(r)


def composed_decode(model, grid_features, target_x):
    """mu and sigma of the decoder op by op: exp/sum/divide smoother, the
    smoothed features times dec_w1, bias add and relu, and one product per
    head."""
    p = model.params
    ell = ad.softplus(p["raw_len_out"])
    qn = composed_rbf((target_x[:, None] - model.grid_x[None, :]) ** 2, ell,
                      normalize=True)
    smoothed = qn @ grid_features
    hdn = relu(smoothed @ p["dec_w1"] + p["dec_b1"])
    mu = hdn @ p["dec_mu_w"] + p["dec_mu_b"]
    pre_sigma = hdn @ p["dec_sig_w"] + p["dec_sig_b"]
    return mu, ad.softplus(pre_sigma) + SIGMA_MIN


def max_rel_err(got, want):
    """Largest error relative to the largest entry of `want`: reassociated
    products round differently, which an entry near 0 would magnify."""
    scale = np.max(np.abs(want))
    assert scale > 0
    return np.max(np.abs(got - want)) / scale


def decoder_weights(model):
    return tuple(model.params[name] for name in DECODER_PARAMS)


class TestComposedOracle:
    """The fused set convolution and conv blocks, the fused smoother and the
    grouped decode-and-score node give the op-by-op model's predictions,
    losses and gradients."""

    @staticmethod
    def composed_scored(model, grid_features, tx, ty):
        mu, sigma = composed_decode(model, grid_features, tx)
        return (mu.data, sigma.data), gaussian_nll(mu, sigma, ty)

    @staticmethod
    def scored(model, grid_features, tx, ty):
        pred = model.decode(grid_features, tx)
        return pred.mu_sigma(), nll(pred, ty)

    @staticmethod
    def run(model, embed, encode, score, x, y, tx, ty):
        """mu, sigma, the NLL and the gradients of NLL + mean(r^2)."""
        grid_features, rep = encode(model, embed(model, x, y))
        mu_sigma, loss = score(model, grid_features, tx, ty)
        loss = loss + ad.mean_axis(rep.r * rep.r)
        for p in model.params.values():
            p.zero_grad()
        loss.backward()
        return (*mu_sigma, loss.data,
                {k: p.grad.copy() for k, p in model.params.items()})

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
        *want, want_grads = self.run(
            model, composed_embed_context, composed_encode,
            self.composed_scored, x, y, tx, ty)
        *got, grads = self.run(
            model, ConvCnpModel.embed_context, ConvCnpModel.encode,
            self.scored, x, y, tx, ty)
        pairs = [*zip(["mu", "sigma", "loss"], got, want),
                 *((k, grads[k], want_grads[k]) for k in model.params)]
        for name, got, want in pairs:
            err = max_rel_err(got, want)
            assert err <= 1e-12, f"{name}: relative error {err:.3g}"

    @pytest.mark.parametrize("n_views", [1, 3])
    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_decode_nll_matches_op_by_op_decoder(self, rng, n_channels,
                                                 n_views):
        config = ModelConfig(**{**SMALL.__dict__, "n_channels": n_channels})
        model = ConvCnpModel(config, rng)
        tx = np.sort(rng.uniform(0.0, 1.0, 200))
        grids = [leaf(rng, config.grid_size, config.cnn_width)
                 for _ in range(n_views)]
        ys = [rng.standard_normal((200, n_channels)) for _ in range(n_views)]
        # a different adjoint for each view's NLL
        weights = Tensor(rng.uniform(0.5, 2.0, n_views))
        leaves = [model.params["raw_len_out"], *decoder_weights(model),
                  *grids]

        def grads_of(loss):
            for t in leaves:
                t.zero_grad()
            loss.backward()
            return [t.grad.copy() for t in leaves]

        qn = model._smoother(tx)
        nll = ad.decode_nll(qn, ad.stack(grids), ys, decoder_weights(model),
                            SIGMA_MIN)
        got_grads = grads_of(ad.sum_axis(nll * weights))
        mu, sigma, _ = ad._decoder(qn, np.stack([f.data for f in grids]),
                                   decoder_weights(model), SIGMA_MIN)
        preds = [composed_decode(model, f, tx) for f in grids]
        want_nll = ad.concat([gaussian_nll(*p, y).reshape(1)
                              for p, y in zip(preds, ys)])
        want_grads = grads_of(ad.sum_axis(want_nll * weights))
        pairs = [("nll", nll.data, want_nll.data),
                 *((f"mu{v}", mu[v], p[0].data) for v, p in enumerate(preds)),
                 *((f"sigma{v}", sigma[v], p[1].data)
                   for v, p in enumerate(preds)),
                 *((f"grad {i}", g, w)
                   for i, (g, w) in enumerate(zip(got_grads, want_grads)))]
        for name, got, want in pairs:
            err = max_rel_err(got, want)
            assert err <= 1e-12, f"{name}: relative error {err:.3g}"

    def test_decode_nll_finite_differences(self, rng):
        model = ConvCnpModel(ModelConfig(grid_size=8, cnn_depth=1,
                                         cnn_width=3, d_r=2, decoder_hidden=3,
                                         cnn_kernel=3, n_channels=2), rng)
        tx = np.linspace(0.0, 1.0, 7)
        grids = [leaf(rng, 8, 3) for _ in range(3)]
        ys = [rng.standard_normal((7, 2)) for _ in range(3)]
        weights = Tensor(np.array([0.5, 1.0, 2.0]))

        def build():
            return ad.sum_axis(weights * ad.decode_nll(
                model._smoother(tx), ad.stack(grids), ys,
                decoder_weights(model), SIGMA_MIN))

        check_grads(build, [model.params["raw_len_out"],
                            *decoder_weights(model), *grids])

    def test_decoder_backward_runs_once(self, model, rng):
        tx = np.linspace(0.0, 1.0, 20)
        nll = ad.decode_nll(model._smoother(tx), ad.stack([leaf(rng, 32, 8)]),
                            [rng.standard_normal((20, 1))],
                            decoder_weights(model), SIGMA_MIN)
        ad.sum_axis(nll).backward()
        with pytest.raises(RuntimeError, match="once per forward pass"):
            ad.sum_axis(nll * 2.0).backward()

    def test_extract_equals_composed_forward(self, rng, tmp_path):
        # the representations `contrnp eval` writes, from a frozen model
        save_checkpoint(ConvCnpModel(SMALL, rng), {}, tmp_path / "m.ckpt")
        model, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        x = np.linspace(0.0, 1.0, 60)
        segments = [Segment(i, x, rng.standard_normal((60, 1)), i % 2)
                    for i in range(3)]
        args = (4, 0.1, 0.9, (5, 20))
        got = extract(model, segments, *args, np.random.default_rng(9))
        views_rng, want = np.random.default_rng(9), []
        for seg in segments:
            reps = [composed_encode(model, composed_embed_context(
                        model, v.context_x, v.context_y))[1].r.data
                    for v in sample_views(seg, *args, views_rng)]
            want.append(np.mean(reps, axis=0))
        np.testing.assert_array_equal(got.reps, np.asarray(want))


def twin(config):
    """A fresh model of `config` with the seed-5 initialisation."""
    return ConvCnpModel(config, np.random.default_rng(5))


class TestSharedSmoother:
    """Views decoded on one target set share one smoother node and one
    decode-and-score node; sharing gives the per-view decode's values and
    gradients."""

    @staticmethod
    def views(rng, n_channels):
        shared = np.linspace(0.0, 1.0, 150)
        other = np.sort(rng.uniform(0.0, 1.0, 150))
        out = []
        for tx in (shared, shared.copy(), other, shared):
            x = np.sort(rng.uniform(0.25, 0.75, 20))
            out.append((x, rng.standard_normal((20, n_channels)), tx,
                        rng.standard_normal((150, n_channels))))
        return out

    @staticmethod
    def forward(model, views):
        """Predictions and representations of `views`."""
        preds, reps = [], []
        for x, y, tx, _ in views:
            grid_features, rep = model.encode(model.embed_context(x, y))
            preds.append(model.decode(grid_features, tx))
            reps.append(rep)
        return preds, reps

    @staticmethod
    def plus_rep_terms(loss, reps):
        for rep in reps:
            loss = loss + ad.mean_axis(rep.r * rep.r)
        return loss

    @classmethod
    def scored(cls, model, views, grouped):
        """Per-view NLLs and a loss over the views: each prediction scored
        by a decode-and-score node of its own or, grouped, one
        `combined_loss` call."""
        preds, reps = cls.forward(model, views)
        targets = [ty for *_, ty in views]
        if grouped:
            rows = [reps[:2], reps[2:]]
            nlls = losses._view_nlls(losses._stacked(preds, rows)[0],
                                     targets).data
            breakdown = combined_loss(preds, targets, rows, 1.0,
                                      ContrastiveConfig())
            total = breakdown.nll * float(len(views))
        else:
            per_view = [nll(p, ty) for p, ty in zip(preds, targets)]
            nlls = np.array([t.item() for t in per_view])
            total = per_view[0]
            for t in per_view[1:]:
                total = total + t
        return preds, nlls, cls.plus_rep_terms(total, reps)

    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_matches_per_view_decode(self, rng, n_channels):
        # two target sets: the views on `shared`, then `other`, then
        # `shared` again; grouped, three decode-and-score nodes
        config = ModelConfig(**{**SMALL.__dict__, "n_channels": n_channels})
        views = self.views(rng, n_channels)
        for grouped in (False, True):
            model = twin(config)
            preds, nlls, total = self.scored(model, views, grouped)
            total.backward()
            want_grads = {k: 0.0 for k in model.params}
            for i, (view, pred) in enumerate(zip(views, preds)):
                alone = twin(config)
                (want,), rep = self.forward(alone, [view])
                want_nll = gaussian_nll(
                    *composed_decode(alone, want.grid_features, view[2]),
                    view[3])
                self.plus_rep_terms(want_nll, rep).backward()
                for k, p in alone.params.items():
                    want_grads[k] = want_grads[k] + p.grad
                assert nlls[i] == pytest.approx(want_nll.item(), rel=1e-12,
                                                abs=0)
                for got, alone_value in zip(pred.mu_sigma(),
                                            want.mu_sigma()):
                    np.testing.assert_array_equal(got, alone_value)
            for k, p in model.params.items():
                err = max_rel_err(p.grad, want_grads[k])
                assert err <= 1e-12, \
                    f"{k}, grouped {grouped}: relative error {err:.3g}"

    def test_stack_prediction_matches_per_view_decode(self, rng):
        # mu and sigma of a stack on one target set, as read, against each
        # view decoded alone
        model = twin(SMALL)
        tx = np.linspace(0.0, 1.0, 50)
        views = [model.embed_context(*sine_context(rng)) for _ in range(3)]
        grid_features, _ = model.encode(ad.stack(views))
        stacked = model.decode(grid_features, tx)
        alone = [model.decode(model.encode(v)[0], tx) for v in views]
        assert stacked.mu_sigma()[0].shape == (3, 50, 1)
        for i, got in enumerate(stacked.mu_sigma()):
            np.testing.assert_allclose(
                got, np.stack([p.mu_sigma()[i] for p in alone]), rtol=1e-12,
                atol=0)

    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_per_view_inputs_match_decode_views(self, rng, n_channels):
        # views on targets A, A, B, A: per-view predictions and a [K][M]
        # list of representations, which `combined_loss` stacks, give the
        # losses and gradients of `encode_views` and `decode_views`
        config = ModelConfig(**{**SMALL.__dict__, "n_channels": n_channels})
        views = self.views(rng, n_channels)
        results = []
        for stacked in (False, True):
            model = twin(config)
            if stacked:
                grid_features, rep = model.encode_views(
                    [ViewPair(*view) for view in views])
                preds = model.decode_views(grid_features,
                                           [tx for _, _, tx, _ in views])
                assert [p.grid_features.shape[0] for p in preds] == [2, 1, 1]
                reps = Representation(rep.r.reshape(2, 2, -1))
            else:
                preds, reps = self.forward(model, views)
                reps = [reps[:2], reps[2:]]
            breakdown = combined_loss(preds, [ty for *_, ty in views], reps,
                                      0.5, ContrastiveConfig())
            breakdown.total.backward()
            results.append((
                [breakdown.nll.item(), breakdown.contrastive.item(),
                 breakdown.total.item()],
                {k: p.grad.tobytes() for k, p in model.params.items()}))
        assert results[0] == results[1]

    def test_lengthscale_gradient_finite_differences(self, rng):
        model = ConvCnpModel(ModelConfig(grid_size=8, cnn_depth=2,
                                         cnn_width=3, d_r=4, decoder_hidden=3,
                                         cnn_kernel=3), rng)
        (x1, y1), (x2, y2) = sine_context(rng, n=5), sine_context(rng, n=6)
        tx = np.linspace(0, 1, 7)
        ty = fixed_targets(tx)

        def build():
            # two predictions on one smoother, each scored by its own node
            a = model.predict(x1, y1, tx)
            b = model.predict(x2, y2, tx)._replace(smoother=a.smoother)
            return nll(a, ty) + nll(b, ty[::-1]) * 0.5

        check_grads(build, [model.params["raw_len_out"]], tol=1e-6)


def reachable_nodes(*roots) -> int:
    """Tensors reachable from `roots` through the recorded parents."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_decode_adds_nodes_per_target_set_not_per_view(rng):
    # 2 segments x M views on one target set: from M = 2 to M = 4, the loss
    # graph grows only by what the encoders and the contrastive term add
    model = ConvCnpModel(SMALL, rng)
    tx = np.linspace(0.0, 1.0, 40)

    def graph_sizes(m):
        preds, targets, reps, grids = [], [], [], []
        for _ in range(2):
            row = []
            for _ in range(m):
                grid_features, rep = model.encode(
                    model.embed_context(*sine_context(rng)))
                preds.append(model.decode(grid_features, tx))
                targets.append(rng.standard_normal((40, 1)))
                grids.append(grid_features)
                row.append(rep)
            reps.append(row)
        breakdown = combined_loss(preds, targets, reps, 0.01,
                                  ContrastiveConfig())
        return (reachable_nodes(breakdown.total),
                reachable_nodes(breakdown.contrastive, *grids))

    (total2, rest2), (total4, rest4) = graph_sizes(2), graph_sizes(4)
    assert rest4 > rest2
    assert total4 - total2 == rest4 - rest2


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
