import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contrnp.data import sample_views, synth_generate
from contrnp.evaluate import (EncodedDataset, EvalError, ProbeModel,
                              _average_precision, accuracy, auprc,
                              davies_bouldin, evaluate_split, extract,
                              holdout_split, silhouette, train_probe)
from contrnp.model import (ConvCnpModel, ModelConfig, load_checkpoint,
                           save_checkpoint)

from conftest import param_hash, reference_train_probe, represent


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


def average_precision_reference(y_true, scores):
    order = np.argsort(-scores, kind="stable")
    y = y_true[order]
    tp = np.cumsum(y)
    precision = tp / np.arange(1, len(y) + 1)
    recall = tp / tp[-1]
    prev_r = ap = 0.0
    for p_i, r_i, y_i in zip(precision, recall, y):
        if y_i:
            ap += (r_i - prev_r) * p_i
            prev_r = r_i
    return float(ap)


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


@pytest.mark.parametrize("metric", [silhouette, davies_bouldin])
def test_clustering_memory_is_linear_in_rows(rng, metric):
    # an [N, N, d] difference array would be 82 MB here
    n, d = 400, 64
    enc = blobs(rng, n_classes=4, per_class=n // 4, d=d)
    tracemalloc.start()
    try:
        metric(enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n * d + n * n) * 8


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

    def test_empty_test_set_is_error_without_warnings(self, rng):
        # round(0.2 * 2) = 0 test rows per class; numpy's warnings about the
        # accuracy of no rows would reach stderr ahead of the error line
        enc = blobs(rng, n_classes=2, per_class=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalError, match=r"would hold 0 class\(es\).*"
                               r">= 3 segments.*\{0: 2, 1: 2\}"):
                evaluate_split(enc, 0.8, rng)

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


class TestProbeMatchesReference:
    """`train_probe`, with the weights and bias as the rows of one Adam
    parameter, against `conftest.reference_train_probe`, with two: the
    same bytes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_classes, per_class, fraction", [
        (2, 40, 1.0), (3, 30, 0.5), (4, 25, 0.2),
        (2, 5, 0.4)])   # 2 labeled per class: no validation rows
    def test_same_bytes(self, seed, n_classes, per_class, fraction):
        enc = blobs(np.random.default_rng(seed), n_classes=n_classes,
                    per_class=per_class, d=8)
        got = train_probe(enc, fraction, np.random.default_rng(seed + 10))
        want = reference_train_probe(enc, fraction,
                                     np.random.default_rng(seed + 10))
        for a, b in [(got.weights, want.weights), (got.bias, want.bias),
                     (got.classes, want.classes)]:
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


# a tenth of the minor faults an extract made with fresh columns per layer
FAULT_BOUND = 4800


def wave_model(frozen):
    """A WAVE-architecture model (the acceptance suite's WAVE_CFG)."""
    model = ConvCnpModel(ModelConfig(grid_size=64, cnn_depth=4, cnn_width=32,
                                     cnn_kernel=7, d_r=64, decoder_hidden=64),
                         np.random.default_rng(0))
    for p in model.params.values():
        p.requires_grad = not frozen
    return model


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
        rng2 = np.random.default_rng(3)
        views = sample_views(segs[0], 3, 0.25, 0.75, (5, 5), rng2)
        manual = np.mean([represent(model, v.context_x, v.context_y).r.data
                          for v in views], axis=0)
        np.testing.assert_array_equal(enc1.reps[0], manual)

    @pytest.mark.parametrize("frozen", [True, False],
                             ids=["frozen", "trainable"])
    def test_batched_views_equal_per_view_represent(self, frozen):
        # the WAVE architecture at the acceptance suite's EVAL_M = 8
        model = wave_model(frozen)
        segs = synth_generate(2, 2, 200, 0.1, np.random.default_rng(1))
        enc = extract(model, segs, 8, 0.25, 0.75, (20, 100),
                      np.random.default_rng(2))
        rng2 = np.random.default_rng(2)
        want = []
        for seg in segs:
            views = sample_views(seg, 8, 0.25, 0.75, (20, 100), rng2)
            want.append(np.mean(
                [represent(model, v.context_x, v.context_y).r.data
                 for v in views], axis=0))
        assert enc.reps.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="minor-fault counts as Linux reports them")
    def test_extract_does_not_fault_in_fresh_columns(self):
        import resource
        # With fresh im2col columns on every CNN layer, this extract (100
        # segments x 8 WAVE views) made about 48k minor faults per call:
        # glibc trimmed the 1 MB arrays between calls and faulted them in
        # again. With the arrays kept per layer shape, a call after the
        # first made 0 to about 150.
        model = wave_model(frozen=True)
        segs = synth_generate(4, 25, 200, 0.1, np.random.default_rng(1))

        def call():
            extract(model, segs, 8, 0.25, 0.75, (20, 100),
                    np.random.default_rng(2))

        call()  # warm-up: creates the per-shape arrays of _im2col_arrays
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < FAULT_BOUND, faults

    def test_fixed_seed_reproducible(self, rng):
        model = self.small_model(rng)
        segs = synth_generate(2, 2, 64, 0.05, rng)
        e1 = extract(model, segs, 2, 0.25, 0.75, (5, 10),
                     np.random.default_rng(4))
        e2 = extract(model, segs, 2, 0.25, 0.75, (5, 10),
                     np.random.default_rng(4))
        np.testing.assert_array_equal(e1.reps, e2.reps)


    def test_loaded_checkpoint_extracts_the_same_with_no_tape(self, rng,
                                                               tmp_path):
        model = self.small_model(rng)
        segs = synth_generate(2, 2, 64, 0.05, rng)
        save_checkpoint(model, {}, tmp_path / "m.ckpt")
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        want, got = (extract(m, segs, 2, 0.25, 0.75, (5, 10),
                             np.random.default_rng(4))
                     for m in (model, loaded))
        assert got.reps.tobytes() == want.reps.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

        view = sample_views(segs[0], 1, 0.25, 0.75, (5, 10), rng)[0]
        assert represent(model, view.context_x, view.context_y).r._parents
        rep = represent(loaded, view.context_x, view.context_y).r
        assert rep._parents == () and not rep.requires_grad
        assert not any(p.requires_grad for p in loaded.params.values())


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

    def test_average_precision_matches_loop_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 200))
            y = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(np.int64)
            y[rng.integers(n)] = 1
            # one or two decimals, so many scores tie
            scores = np.round(rng.uniform(size=n), int(rng.integers(1, 3)))
            assert _average_precision(y, scores) == \
                average_precision_reference(y, scores)
