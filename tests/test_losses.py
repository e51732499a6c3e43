import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contrnp import autodiff as ad
from contrnp.autodiff import DomainError, ShapeMismatchError, Tensor
from contrnp.losses import ContrastiveConfig, combined_loss, contrastive_loss
from contrnp.model import ConvCnpModel, ModelConfig, Representation

from conftest import (check_grads, gaussian_nll, leaf,
                      reference_contrastive_loss)


def brute_force_contrastive(vectors, tau):
    """Nested-loop reference: -log softmax-style ratio per ordered positive
    pair, denominator over views of other segments only, mean reduction."""
    k_n, m_n = len(vectors), len(vectors[0])

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    terms = []
    for k in range(k_n):
        for m in range(m_n):
            for mp in range(m_n):
                if m == mp:
                    continue
                num = np.exp(cos(vectors[k][m], vectors[k][mp]) / tau)
                den = 0.0
                for kp in range(k_n):
                    if kp == k:
                        continue
                    for mpp in range(m_n):
                        den += np.exp(cos(vectors[k][m], vectors[kp][mpp]) / tau)
                terms.append(-np.log(num / den))
    return float(np.mean(terms))


def rep_tensors(vectors):
    """The representations of K x M vectors, vectors[k][m], as one
    Representation [K, M, d_r]."""
    return Representation(Tensor(np.array(vectors, dtype=np.float64)))


def random_vectors(rng, k, m, d=5):
    return [[rng.standard_normal(d) for _ in range(m)] for _ in range(k)]


class TestContrastiveLoss:
    def test_identical_reps_give_log_km(self):
        v = np.array([1.0, 2.0, 3.0])
        reps = rep_tensors([[v, v], [v, v]])
        out = contrastive_loss(reps, ContrastiveConfig(tau=0.5))
        assert out.item() == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_matches_brute_force(self, k, m):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            vecs = random_vectors(rng, k, m)
            out = contrastive_loss(rep_tensors(vecs),
                                   ContrastiveConfig(tau=0.5))
            assert out.item() == pytest.approx(
                brute_force_contrastive(vecs, 0.5), abs=1e-10)

    def test_extreme_similarity_bound_case(self):
        # anchor == positive, negatives diametrically opposite, tau = 0.5:
        # term = log((K-1)M) - 2/tau
        u = np.array([1.0, 0.0])
        reps = rep_tensors([[u, u], [-u, -u]])
        out = contrastive_loss(reps, ContrastiveConfig(tau=0.5))
        assert out.item() == pytest.approx(np.log(2.0) - 4.0, abs=1e-12)

    def test_scale_invariance_of_cosine(self, rng):
        vecs = random_vectors(rng, 3, 2)
        scaled = [[(i + 1) * 7.3 * v for i, v in enumerate(row)]
                  for row in vecs]
        cfg = ContrastiveConfig(tau=0.5)
        a = contrastive_loss(rep_tensors(vecs), cfg).item()
        b = contrastive_loss(rep_tensors(scaled), cfg).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_segment_relabeling_symmetry(self, rng):
        vecs = random_vectors(rng, 4, 3)
        cfg = ContrastiveConfig(tau=0.7)
        a = contrastive_loss(rep_tensors(vecs), cfg).item()
        b = contrastive_loss(rep_tensors(vecs[::-1]), cfg).item()
        c = contrastive_loss(rep_tensors([row[::-1] for row in vecs]),
                             cfg).item()
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)

    def test_zero_norm_rejected(self):
        reps = rep_tensors([[np.zeros(3), np.ones(3)],
                            [np.ones(3), np.ones(3)]])
        with pytest.raises(ValueError, match="zero-norm"):
            contrastive_loss(reps, ContrastiveConfig())

    def test_literal_mode_matches_printed_formula(self, rng):
        # all-positive similarities so the printed form is defined
        vecs = [[np.abs(rng.standard_normal(4)) + 0.1 for _ in range(2)]
                for _ in range(3)]
        tau = 0.5
        out = contrastive_loss(rep_tensors(vecs),
                               ContrastiveConfig(tau=tau, mode="literal"))

        def cos(u, v):
            return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        expected = 0.0
        for k in range(3):
            for m in range(2):
                for mp in range(2):
                    if m == mp:
                        continue
                    den = sum(cos(vecs[k][m], vecs[kp][mpp]) / tau
                              for kp in range(3) if kp != k
                              for mpp in range(2))
                    expected += np.log(
                        (cos(vecs[k][m], vecs[k][mp]) / tau) / den)
        assert out.item() == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("mode", ["exp_sim", "literal"])
    def test_gradients_pass_finite_differences(self, rng, mode):
        r = leaf(rng, 3, 2, 4)
        if mode == "literal":   # positive similarities: every log is defined
            r.data = np.abs(r.data) + 0.1
        reps = Representation(r)
        check_grads(lambda: contrastive_loss(
                        reps, ContrastiveConfig(tau=0.5, mode=mode)),
                    [reps.r])


class TestContrastiveNode:
    """`contrastive_loss` is one node on r. Its loss and r's gradient are
    byte for byte those of the op-by-op chain it replaced,
    `conftest.reference_contrastive_loss`."""

    @staticmethod
    def vectors(k, m, tau, mode):
        # d_r = 20: at these K * M, OpenBLAS rounds some products over the
        # transposed view of a matrix differently from the same products
        # over its contiguous transpose, so a change of layout shows
        r = np.random.default_rng([k, m, int(tau * 10)])
        v = r.standard_normal((k, m, 20))
        # literal mode takes logs of similarity ratios: keep them positive
        return np.abs(v) + 0.1 if mode == "literal" else v

    @staticmethod
    def run(loss_fn, values, form, cfg):
        """The loss bytes and the gradient bytes of the tensor behind r,
        where r is a leaf, a reshape of a leaf, or frozen."""
        if form == "reshaped":
            base = Tensor(values.reshape(len(values), -1), requires_grad=True)
            r = base.reshape(*values.shape)
        else:
            base = r = Tensor(values, requires_grad=form == "leaf")
        loss = loss_fn(Representation(r), cfg)
        if form == "frozen":
            assert not loss.requires_grad and loss._parents == ()
            return loss.data.tobytes(), None
        base.zero_grad()
        loss.backward()
        return loss.data.tobytes(), base.grad.tobytes()

    @pytest.mark.parametrize("form", ["leaf", "reshaped", "frozen"])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("k,m", [(2, 2), (3, 3), (8, 2)])
    @pytest.mark.parametrize("mode", ["exp_sim", "literal"])
    def test_bitwise_equal_to_op_by_op_chain(self, mode, k, m, tau, form):
        values = self.vectors(k, m, tau, mode)
        cfg = ContrastiveConfig(tau=tau, mode=mode)
        got = self.run(contrastive_loss, values, form, cfg)
        want = self.run(reference_contrastive_loss, values, form, cfg)
        assert got == want

    def test_one_node_on_r(self, rng):
        r = leaf(rng, 3, 2, 4)
        loss = contrastive_loss(Representation(r), ContrastiveConfig())
        assert loss._parents == (r,)

    @pytest.mark.parametrize("negative", ["ratio", "denominator"])
    def test_literal_non_positive_log_raises_chain_error(self, negative):
        # two segments of two views; u and -u make a negative similarity
        u, w = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        vecs = ([[u, -u], [w, w]] if negative == "ratio"
                else [[u, u], [-u, -u]])
        cfg = ContrastiveConfig(mode="literal")
        messages = []
        for fn in (contrastive_loss, reference_contrastive_loss):
            with pytest.raises(DomainError,
                               match="log of non-positive input") as e:
                fn(rep_tensors(vecs), cfg)
            messages.append(str(e.value))
        assert messages[0] == messages[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.floats(0.2, 2.0), st.integers(0, 10_000))
def test_per_term_bounds_property(k, m, tau, seed):
    rng = np.random.default_rng(seed)
    vecs = random_vectors(rng, k, m)
    out = contrastive_loss(rep_tensors(vecs),
                           ContrastiveConfig(tau=tau)).item()
    center = np.log((k - 1) * m)
    assert center - 2.0 / tau - 1e-9 <= out <= center + 2.0 / tau + 1e-9


class TestGaussianNll:
    """The op-by-op oracle of the decode-and-score node."""

    def pred(self, mu, sigma):
        return (Tensor(np.asarray(mu, dtype=float)),
                Tensor(np.asarray(sigma, dtype=float)))

    def test_perfect_prediction_unit_sigma(self):
        p = self.pred([[0.0], [1.0]], [[1.0], [1.0]])
        out = gaussian_nll(*p, [[0.0], [1.0]])
        assert out.item() == pytest.approx(0.5 * np.log(2 * np.pi))

    def test_unit_error_unit_sigma(self):
        p = self.pred([[1.0]], [[1.0]])
        assert gaussian_nll(*p, [[0.0]]).item() == pytest.approx(
            0.5 * np.log(2 * np.pi) + 0.5)

    def test_nll_decreases_as_sigma_grows_toward_error(self):
        sigmas = [0.2, 0.4, 0.6, 0.8, 1.0]
        vals = [gaussian_nll(*self.pred([[0.0]], [[s]]), [[1.0]]).item()
                for s in sigmas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_minimized_at_mu_equals_y(self):
        for delta in (-0.5, 0.5):
            mu = Tensor(np.array([[1.0 + delta]]), requires_grad=True)
            mu.zero_grad()
            gaussian_nll(mu, Tensor(np.array([[1.0]])), [[1.0]]).backward()
            assert np.sign(mu.grad[0, 0]) == np.sign(delta)


class TestCombinedLoss:
    def parts(self, rng, k=2, m=2, n=6):
        """k x m predictions decoded from random grid features on one
        target set, targets and representations."""
        model = ConvCnpModel(ModelConfig(grid_size=8, cnn_depth=1,
                                         cnn_width=3, d_r=2, decoder_hidden=3,
                                         cnn_kernel=3), rng)
        tx = np.linspace(0.0, 1.0, n)
        preds = [model.decode(leaf(rng, 8, 3), tx) for _ in range(k * m)]
        targets = [rng.standard_normal((n, 1)) for _ in range(k * m)]
        reps = rep_tensors(random_vectors(rng, k, m))
        return preds, targets, reps

    def test_lambda_zero_is_pure_contrastive(self, rng):
        preds, targets, reps = self.parts(rng)
        cfg = ContrastiveConfig(tau=0.5)
        bd = combined_loss(preds, targets, reps, 0.0, cfg)
        assert bd.total.item() == contrastive_loss(reps, cfg).item()

    def test_composition_identity(self, rng):
        preds, targets, reps = self.parts(rng)
        bd = combined_loss(preds, targets, reps, 0.01, ContrastiveConfig())
        assert bd.total.item() == pytest.approx(
            0.01 * bd.nll.item() + bd.contrastive.item(), rel=1e-15)

    def test_nll_is_mean_over_views(self, rng):
        preds, targets, reps = self.parts(rng)
        bd = combined_loss(preds, targets, reps, 0.01, ContrastiveConfig())
        per_view = [gaussian_nll(*map(Tensor, p.mu_sigma()), t).item()
                    for p, t in zip(preds, targets)]
        assert bd.nll.item() == pytest.approx(np.mean(per_view))

    def test_target_shape_mismatch(self, rng):
        preds, targets, reps = self.parts(rng)
        targets[1] = targets[1][:-1]
        with pytest.raises(ShapeMismatchError, match=r"targets \(5, 1\) vs "
                           r"prediction \(6, 1\)"):
            combined_loss(preds, targets, reps, 0.01, ContrastiveConfig())
