import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contrnp.data import synth_generate
from contrnp.evaluate import (EncodedDataset, EvalError, ProbeModel, accuracy,
                              auprc, davies_bouldin, extract, holdout_split,
                              silhouette, train_probe)
from contrnp.model import ConvCnpModel, ModelConfig

from conftest import param_hash


# -- brute-force reference implementations ------------------------------------

def silhouette_reference(reps, labels):
    n = len(labels)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(reps[i] - reps[j]) for j in same])
        b = min(
            np.mean([np.linalg.norm(reps[i] - reps[j])
                     for j in range(n) if labels[j] == c])
            for c in set(labels.tolist()) if c != labels[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def dbi_reference(reps, labels):
    classes = sorted(set(labels.tolist()))
    cents = {c: reps[labels == c].mean(axis=0) for c in classes}
    scat = {c: np.mean([np.linalg.norm(r - cents[c]) for r in reps[labels == c]])
            for c in classes}
    vals = []
    for i in classes:
        vals.append(max((scat[i] + scat[j])
                        / np.linalg.norm(cents[i] - cents[j])
                        for j in classes if j != i))
    return float(np.mean(vals))


def blobs(rng, n_classes=3, per_class=30, d=4, spread=1.0, sep=5.0):
    reps, labels = [], []
    for c in range(n_classes):
        center = rng.standard_normal(d) * sep
        reps.append(center + rng.standard_normal((per_class, d)) * spread)
        labels += [c] * per_class
    return EncodedDataset(np.concatenate(reps), np.asarray(labels))


class TestSilhouette:
    def test_two_tight_clusters_score_one(self):
        enc = EncodedDataset(
            np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]]),
            np.array([0, 0, 1, 1]))
        assert silhouette(enc) == 1.0

    def test_all_identical_points_score_zero(self):
        enc = EncodedDataset(np.zeros((6, 3)), np.array([0, 0, 1, 1, 2, 2]))
        assert silhouette(enc) == 0.0

    def test_matches_brute_force(self, rng):
        enc = blobs(rng, n_classes=3, per_class=34, spread=2.0)
        assert silhouette(enc) == pytest.approx(
            silhouette_reference(enc.reps, enc.labels), abs=1e-12)

    def test_singleton_class_scores_zero(self):
        enc = EncodedDataset(np.array([[0.0], [1.0], [2.0]]),
                             np.array([0, 1, 1]))
        # brute-force agrees: singleton point contributes 0
        assert silhouette(enc) == pytest.approx(
            silhouette_reference(enc.reps, enc.labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(EvalError):
            silhouette(EncodedDataset(np.zeros((3, 2)), np.zeros(3, dtype=int)))


class TestDaviesBouldin:
    def test_zero_scatter_clusters(self):
        enc = EncodedDataset(
            np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]]),
            np.array([0, 0, 1, 1]))
        assert davies_bouldin(enc) == 0.0

    def test_unit_scatter_formula(self):
        # two 1D clusters with mean distance 1 to centroid, centroids 2 apart
        enc = EncodedDataset(
            np.array([[-1.0], [1.0], [1.0], [3.0]]), np.array([0, 0, 1, 1]))
        assert davies_bouldin(enc) == pytest.approx((1 + 1) / 2)

    def test_matches_brute_force(self, rng):
        enc = blobs(rng, n_classes=4, per_class=25, spread=1.5)
        assert davies_bouldin(enc) == pytest.approx(
            dbi_reference(enc.reps, enc.labels), abs=1e-12)

    def test_coincident_centroids_rejected(self):
        enc = EncodedDataset(np.array([[0.0], [2.0], [0.0], [2.0]]),
                             np.array([0, 0, 1, 1]))
        with pytest.raises(EvalError, match="coincident"):
            davies_bouldin(enc)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_metric_invariances_property(seed):
    rng = np.random.default_rng(seed)
    enc = blobs(rng, n_classes=3, per_class=10, d=3)
    # random rotation + translation; silhouette also uniform positive scale
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shift = rng.standard_normal(3) * 10
    moved = EncodedDataset(enc.reps @ q + shift, enc.labels)
    assert silhouette(moved) == pytest.approx(silhouette(enc), abs=1e-8)
    assert davies_bouldin(moved) == pytest.approx(davies_bouldin(enc),
                                                  abs=1e-8)
    scaled = EncodedDataset(enc.reps * 3.7, enc.labels)
    assert silhouette(scaled) == pytest.approx(silhouette(enc), abs=1e-10)


class TestProbe:
    def test_holdout_split_is_stratified_and_disjoint(self, rng):
        enc = blobs(rng, n_classes=3, per_class=16)
        train_set, test_set = holdout_split(enc, rng)
        # round(0.2 * 16) = 3 test rows per class, every row used once
        assert np.bincount(test_set.labels).tolist() == [3, 3, 3]
        assert np.bincount(train_set.labels).tolist() == [13, 13, 13]
        rows = np.concatenate([train_set.reps, test_set.reps])
        assert np.array_equal(np.unique(rows, axis=0),
                              np.unique(enc.reps, axis=0))

    def test_separable_reaches_full_training_accuracy(self, rng):
        enc = blobs(rng, n_classes=2, per_class=40, spread=0.1, sep=10.0)
        probe = train_probe(enc, 1.0, rng)
        assert accuracy(probe, enc) == 1.0

    def test_class_absent_from_split_is_error(self, rng):
        enc = blobs(rng, n_classes=2, per_class=3)
        with pytest.raises(EvalError, match="absent"):
            train_probe(enc, 0.1, rng)

    def test_label_fraction_one_uses_all(self, rng):
        enc = blobs(rng, n_classes=2, per_class=20)
        probe = train_probe(enc, 1.0, rng)
        assert probe.weights.shape == (enc.reps.shape[1], 2)

    def test_probe_does_not_touch_encoder(self, rng):
        model = ConvCnpModel(ModelConfig(grid_size=16, cnn_depth=2,
                                         cnn_width=8, d_r=8,
                                         decoder_hidden=8, cnn_kernel=3), rng)
        segs = synth_generate(2, 4, 64, 0.05, rng)
        before = param_hash(model)
        enc = extract(model, segs, 2, 0.25, 0.75, (5, 10), rng)
        train_probe(enc, 0.8, rng)
        assert param_hash(model) == before


class TestExtract:
    def small_model(self, rng):
        return ConvCnpModel(ModelConfig(grid_size=16, cnn_depth=2, cnn_width=8,
                                        d_r=8, decoder_hidden=8, cnn_kernel=3),
                            rng)

    def test_m1_equals_single_view(self, rng):
        model = self.small_model(rng)
        segs = synth_generate(2, 2, 64, 0.05, rng)
        enc = extract(model, segs, 1, 0.25, 0.75, (5, 10),
                      np.random.default_rng(3))
        v = enc.reps[0]
        assert v.shape == (8,)

    def test_mean_aggregation(self, rng):
        model = self.small_model(rng)
        segs = synth_generate(2, 2, 64, 0.05, rng)
        enc1 = extract(model, segs, 3, 0.25, 0.75, (5, 5),
                       np.random.default_rng(3))
        # recompute by hand with the same rng stream
        from contrnp.data import sample_views
        rng2 = np.random.default_rng(3)
        views = sample_views(segs[0], 3, 0.25, 0.75, (5, 5), rng2)
        manual = np.mean([model.represent(v.context_x, v.context_y).r.data
                          for v in views], axis=0)
        np.testing.assert_allclose(enc1.reps[0], manual, atol=1e-12)

    def test_fixed_seed_reproducible(self, rng):
        model = self.small_model(rng)
        segs = synth_generate(2, 2, 64, 0.05, rng)
        e1 = extract(model, segs, 2, 0.25, 0.75, (5, 10),
                     np.random.default_rng(4))
        e2 = extract(model, segs, 2, 0.25, 0.75, (5, 10),
                     np.random.default_rng(4))
        np.testing.assert_array_equal(e1.reps, e2.reps)


class TestClassificationMetrics:
    def perfect_probe(self):
        # identity scoring on 2D one-hot-ish reps
        return ProbeModel(np.eye(2), np.zeros(2), np.array([0, 1]))

    def test_perfect_scores(self):
        enc = EncodedDataset(np.array([[5.0, 0.0]] * 3 + [[0.0, 5.0]] * 3),
                             np.array([0, 0, 0, 1, 1, 1]))
        probe = self.perfect_probe()
        assert accuracy(probe, enc) == 1.0
        assert auprc(probe, enc) == 1.0

    def test_all_one_class_predictions_on_balanced_4class(self):
        rng = np.random.default_rng(0)
        reps = rng.standard_normal((40, 3))
        labels = np.repeat(np.arange(4), 10)
        # probe that always prefers class 0
        w = np.zeros((3, 4))
        b = np.array([10.0, 0.0, 0.0, 0.0])
        probe = ProbeModel(w, b, np.arange(4))
        assert accuracy(probe, EncodedDataset(reps, labels)) == 0.25

    def test_single_class_test_set_rejected(self):
        enc = EncodedDataset(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(EvalError, match="single-class"):
            auprc(self.perfect_probe(), enc)

    def test_random_scores_auprc_near_prevalence(self):
        # Monte-Carlo oracle: uniform scores on balanced binary labels
        rng = np.random.default_rng(1)
        n = 1000
        labels = np.array([0, 1] * (n // 2))
        reps = rng.uniform(size=(n, 1))
        # probe scores = rep value for class 1, 1-rep for class 0
        w = np.array([[-10.0, 10.0]])
        probe = ProbeModel(w, np.array([5.0, -5.0]), np.array([0, 1]))
        val = auprc(probe, EncodedDataset(reps, labels))
        assert val == pytest.approx(0.5, abs=0.05)

    def test_auprc_invariant_to_monotone_score_transform(self):
        rng = np.random.default_rng(2)
        reps = rng.standard_normal((60, 2))
        labels = (rng.uniform(size=60) > 0.5).astype(int)
        probe_a = ProbeModel(np.eye(2), np.zeros(2), np.array([0, 1]))
        probe_b = ProbeModel(np.eye(2) * 3.0, np.zeros(2), np.array([0, 1]))
        # softmax with scaled logits is a strictly monotone transform of
        # the per-class ranking
        assert auprc(probe_a, EncodedDataset(reps, labels)) == pytest.approx(
            auprc(probe_b, EncodedDataset(reps, labels)), abs=1e-12)
