"""Downstream evaluation: representation extraction, linear probing,
classification metrics and clustering indices on frozen representations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import Segment, sample_views
from .model import ConvCnpModel
from .train import Adam

HOLDOUT_FRACTION = 0.2


class EvalError(ValueError):
    pass


@dataclass
class EncodedDataset:
    reps: np.ndarray     # [N, d_r]
    labels: np.ndarray   # [N]


@dataclass
class ProbeModel:
    weights: np.ndarray  # [d_r, n_classes]
    bias: np.ndarray     # [n_classes]
    classes: np.ndarray

    def scores(self, reps: np.ndarray) -> np.ndarray:
        z = reps @ self.weights + self.bias
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, reps: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.scores(reps), axis=1)]


def extract(model: ConvCnpModel, segments: list[Segment], m: int,
            a: float, b: float, n_context_range, rng) -> EncodedDataset:
    """Encode M views per segment and average them into one vector each."""
    reps, labels = [], []
    for seg in segments:
        views = sample_views(seg, m, a, b, n_context_range, rng)
        rs = [model.represent(v.context_x, v.context_y).r.data for v in views]
        reps.append(np.mean(rs, axis=0))
        labels.append(-1 if seg.label is None else seg.label)
    return EncodedDataset(np.asarray(reps), np.asarray(labels, dtype=np.int64))


def stratified_indices(labels: np.ndarray, fraction: float,
                       rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split into (selected, rest) with round(fraction * n) each."""
    sel, rest = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = rng.permutation(idx)
        n = int(round(fraction * len(idx)))
        sel.append(idx[:n])
        rest.append(idx[n:])
    return np.concatenate(sel), np.concatenate(rest)


def train_probe(encoded: EncodedDataset, label_fraction: float, rng,
                lr: float = 1e-2, steps: int = 500) -> ProbeModel:
    """Multinomial logistic regression on a stratified labeled fraction.

    The labeled fraction is sub-split 80/20; the weights with the best
    validation accuracy over the run are kept.  Features are standardized
    (mean/scale fitted on the probe's training split) and the affine
    transform is folded back into the returned weights, so the probe is
    still a single linear layer over raw representations.
    """
    if not (0.0 < label_fraction <= 1.0):
        raise EvalError(f"label_fraction must be in (0, 1], got {label_fraction}")
    classes = np.unique(encoded.labels)
    lab_idx, _ = stratified_indices(encoded.labels, label_fraction, rng)
    missing = [int(c) for c in classes
               if not np.any(encoded.labels[lab_idx] == c)]
    if missing:
        raise EvalError(f"classes {missing} absent from the labeled split")

    x = encoded.reps[lab_idx]
    y = np.searchsorted(classes, encoded.labels[lab_idx])
    tr_idx, va_idx = stratified_indices(y, 0.8, rng)
    if len(va_idx) == 0:
        tr_idx = np.arange(len(y))
        va_idx = tr_idx
    feat_mu = x[tr_idx].mean(axis=0)
    feat_sd = x[tr_idx].std(axis=0) + 1e-8
    xt, yt = (x[tr_idx] - feat_mu) / feat_sd, y[tr_idx]
    xv, yv = (x[va_idx] - feat_mu) / feat_sd, y[va_idx]

    d, nc = x.shape[1], len(classes)
    w, b = Tensor(np.zeros((d, nc))), Tensor(np.zeros(nc))
    opt = Adam({"w": w, "b": b}, lr=lr)
    onehot = np.eye(nc)[yt]
    best = (-1.0, w.data.copy(), b.data.copy())
    for t in range(1, steps + 1):
        z = xt @ w.data + b.data
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(yt)
        w.grad = xt.T @ g
        b.grad = g.sum(axis=0)
        opt.step()
        if t % 25 == 0 or t == steps:
            acc = float(np.mean(np.argmax(xv @ w.data + b.data, axis=1) == yv))
            if acc > best[0]:
                best = (acc, w.data.copy(), b.data.copy())
    w, b = best[1], best[2]
    w_raw = w / feat_sd[:, None]
    b_raw = b - feat_mu @ w_raw
    return ProbeModel(w_raw, b_raw, classes)


def holdout_split(encoded: EncodedDataset,
                  rng) -> tuple[EncodedDataset, EncodedDataset]:
    """Stratified hold-out: (train set, test set) with HOLDOUT_FRACTION of
    each class in the test set."""
    test_idx, train_idx = stratified_indices(encoded.labels, HOLDOUT_FRACTION,
                                             rng)
    return (EncodedDataset(encoded.reps[train_idx], encoded.labels[train_idx]),
            EncodedDataset(encoded.reps[test_idx], encoded.labels[test_idx]))


def evaluate_split(encoded: EncodedDataset, label_fraction: float,
                   rng) -> tuple[float, float]:
    """The linear-evaluation protocol: hold out a stratified test set, probe
    on the labeled fraction of the rest, and return the test (accuracy,
    AUPRC). The split and the probe draw from `rng` in that order."""
    train_set, test_set = holdout_split(encoded, rng)
    probe = train_probe(train_set, label_fraction, rng)
    return accuracy(probe, test_set), auprc(probe, test_set)


def accuracy(probe: ProbeModel, encoded: EncodedDataset) -> float:
    return float(np.mean(probe.predict(encoded.reps) == encoded.labels))


def _average_precision(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Step-integrated area under the precision-recall curve."""
    order = np.argsort(-scores, kind="stable")
    y = y_true[order]
    tp = np.cumsum(y)
    n_pos = tp[-1]
    precision = tp / np.arange(1, len(y) + 1)
    recall = tp / n_pos
    prev_r = 0.0
    ap = 0.0
    for p_i, r_i, y_i in zip(precision, recall, y):
        if y_i:
            ap += (r_i - prev_r) * p_i
            prev_r = r_i
    return float(ap)


def auprc(probe: ProbeModel, encoded: EncodedDataset) -> float:
    """Macro-averaged AUPRC over one-vs-rest class scores."""
    classes = np.unique(encoded.labels)
    if len(classes) < 2:
        raise EvalError("AUPRC undefined on a single-class test set")
    scores = probe.scores(encoded.reps)
    aps = []
    for c in classes:
        col = int(np.searchsorted(probe.classes, c))
        aps.append(_average_precision(
            (encoded.labels == c).astype(np.int64), scores[:, col]))
    return float(np.mean(aps))


def _pairwise_dist(x: np.ndarray) -> np.ndarray:
    # direct differences, not the gram-matrix trick: the clustering indices
    # are checked against nested-loop references at 1e-12
    return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)


def silhouette(encoded: EncodedDataset) -> float:
    """Mean silhouette score with Euclidean distances.

    Points in singleton classes and points with a == b == 0 score 0.
    """
    labels = encoded.labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise EvalError("silhouette needs at least 2 classes")
    d = _pairwise_dist(encoded.reps)
    n = len(labels)
    scores = np.zeros(n)
    for i in range(n):
        same = labels == labels[i]
        n_same = int(same.sum())
        if n_same < 2:
            continue
        a = d[i, same].sum() / (n_same - 1)
        b = min(d[i, labels == c].mean() for c in classes if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def davies_bouldin(encoded: EncodedDataset) -> float:
    """Davies-Bouldin index with Euclidean distances (lower is better)."""
    labels = encoded.labels
    classes = np.unique(labels)
    if len(classes) < 2:
        raise EvalError("Davies-Bouldin index needs at least 2 classes")
    centroids = np.stack([encoded.reps[labels == c].mean(axis=0)
                          for c in classes])
    scatter = np.array([
        np.linalg.norm(encoded.reps[labels == c] - centroids[i],
                       axis=1).mean()
        for i, c in enumerate(classes)])
    ratios = []
    for i in range(len(classes)):
        worst = 0.0
        for j in range(len(classes)):
            if i == j:
                continue
            sep = np.linalg.norm(centroids[i] - centroids[j])
            if sep == 0.0:
                raise EvalError(
                    f"coincident centroids for classes {int(classes[i])} "
                    f"and {int(classes[j])}")
            worst = max(worst, (scatter[i] + scatter[j]) / sep)
        ratios.append(worst)
    return float(np.mean(ratios))
