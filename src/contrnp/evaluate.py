"""Downstream evaluation: representation extraction, linear probing,
classification metrics and clustering indices on frozen representations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import Segment, sample_views
from .model import ConvCnpModel
from .train import Adam, NumericError

HOLDOUT_FRACTION = 0.2
PROBE_LR = 1e-2
PROBE_STEPS = 500


class EvalError(ValueError):
    pass


@dataclass
class EncodedDataset:
    reps: np.ndarray     # [N, d_r]
    labels: np.ndarray   # [N]


def _softmax(z: np.ndarray) -> np.ndarray:
    """The row softmax of logits z [N, n_classes], written over z."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


@dataclass
class ProbeModel:
    weights: np.ndarray  # [d_r, n_classes]
    bias: np.ndarray     # [n_classes]
    classes: np.ndarray

    def scores(self, reps: np.ndarray) -> np.ndarray:
        return _softmax(reps @ self.weights + self.bias)

    def predict(self, reps: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.scores(reps), axis=1)]


def extract(model: ConvCnpModel, segments: list[Segment], m: int,
            a: float, b: float, n_context_range, rng) -> EncodedDataset:
    """Encode M views per segment and average them into one vector each.

    The M views of a segment go through the encoder as one stack
    (`ConvCnpModel.encode_views`, as in training), so each CNN layer builds
    their columns in one copy and runs their GEMMs in one numpy call; every
    view's representation is bitwise the one
    `model.encode(model.embed_context(...))` gives it alone. A
    representation whose squared norm is not finite (NaN or inf in it, or
    too large for the metrics' squared distances) is a NumericError."""
    reps, labels = [], []
    for seg in segments:
        _, rep = model.encode_views(
            sample_views(seg, m, a, b, n_context_range, rng))
        reps.append(np.mean(rep.r.data, axis=0))
        labels.append(-1 if seg.label is None else seg.label)
    reps = np.asarray(reps)
    sq_norms = np.einsum("ij,ij->i", reps, reps)
    if not np.isfinite(sq_norms).all():
        bad = np.argmin(np.isfinite(sq_norms))
        raise NumericError(f"segment {segments[bad].segment_id}: the squared "
                           f"norm of its representation is {sq_norms[bad]}")
    return EncodedDataset(reps, np.asarray(labels, dtype=np.int64))


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


def train_probe(encoded: EncodedDataset, label_fraction: float,
                rng) -> ProbeModel:
    """Multinomial logistic regression on a stratified labeled fraction.

    The labeled fraction is sub-split 80/20; the weights with the best
    validation accuracy over the run are kept.  Features are standardized
    (mean/scale fitted on the probe's training split) and the affine
    transform is folded back into the returned weights, so the probe is
    still a single linear layer over raw representations.
    """
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
    # rows 0..d-1 are the weights and row d the bias: one Adam update per
    # step, elementwise the two updates of separate parameters
    wb = Tensor(np.zeros((d + 1, nc)))
    wb.grad = np.empty_like(wb.data)
    opt = Adam({"wb": wb}, lr=PROBE_LR)
    onehot = np.eye(nc)[yt]
    best = (-1.0, wb.data.copy())
    for t in range(1, PROBE_STEPS + 1):
        p = _softmax(xt @ wb.data[:d] + wb.data[d])
        g = (p - onehot) / len(yt)
        np.matmul(xt.T, g, out=wb.grad[:d])
        np.sum(g, axis=0, out=wb.grad[d])
        opt.step()
        if t % 25 == 0 or t == PROBE_STEPS:
            acc = float(np.mean(np.argmax(xv @ wb.data[:d] + wb.data[d],
                                          axis=1) == yv))
            if acc > best[0]:
                best = (acc, wb.data.copy())
    w, b = best[1][:d], best[1][d]
    w_raw = w / feat_sd[:, None]
    b_raw = b - feat_mu @ w_raw
    return ProbeModel(w_raw, b_raw, classes)


def holdout_split(encoded: EncodedDataset,
                  rng) -> tuple[EncodedDataset, EncodedDataset]:
    """Stratified hold-out: (train set, test set) with HOLDOUT_FRACTION of
    each class in the test set; an EvalError when that is under 2 classes."""
    test_idx, train_idx = stratified_indices(encoded.labels, HOLDOUT_FRACTION,
                                             rng)
    n_test = len(np.unique(encoded.labels[test_idx]))
    if n_test < 2:
        classes, counts = np.unique(encoded.labels, return_counts=True)
        per_class = ", ".join(f"{c}: {n}" for c, n in zip(classes, counts))
        raise EvalError(
            f"the hold-out test set would hold {n_test} class(es), not >= 2: "
            f"a class needs >= 3 segments for a test segment "
            f"(round({HOLDOUT_FRACTION} * n) >= 1); segments per class "
            f"{{{per_class}}}")
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
    precision = tp / np.arange(1, len(y) + 1)
    recall = tp / tp[-1]
    hit = y != 0
    # cumsum adds the per-positive terms in order, as a loop would
    terms = np.diff(recall[hit], prepend=0.0) * precision[hit]
    return float(np.cumsum(terms)[-1])


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


def _class_table(labels: np.ndarray,
                 metric: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted classes of `labels` and one boolean row mask per class; an
    EvalError when there are fewer than 2 classes."""
    classes = np.unique(labels)
    if len(classes) < 2:
        raise EvalError(f"{metric} needs at least 2 classes")
    return classes, [labels == c for c in classes]


def silhouette(encoded: EncodedDataset) -> float:
    """Mean silhouette score with Euclidean distances.

    Points in singleton classes and points with a == b == 0 score 0.
    Distances are computed one point's row at a time, in O(N * d) memory.
    """
    classes, masks = _class_table(encoded.labels, "silhouette")
    reps = encoded.reps
    own = np.searchsorted(classes, encoded.labels)
    sizes = [int(m.sum()) for m in masks]
    scores = np.zeros(len(reps))
    for i, k in enumerate(own):
        if sizes[k] < 2:
            continue
        # direct differences, not the gram-matrix trick: the clustering
        # indices are checked against nested-loop references at 1e-12
        d = np.linalg.norm(reps[i] - reps, axis=1)
        a = d[masks[k]].sum() / (sizes[k] - 1)
        b = min(d[m].mean() for j, m in enumerate(masks) if j != k)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def davies_bouldin(encoded: EncodedDataset) -> float:
    """Davies-Bouldin index with Euclidean distances (lower is better)."""
    classes, masks = _class_table(encoded.labels, "Davies-Bouldin index")
    rows = [encoded.reps[m] for m in masks]
    centroids = np.stack([r.mean(axis=0) for r in rows])
    scatter = np.array([np.linalg.norm(r - c, axis=1).mean()
                        for r, c in zip(rows, centroids)])
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
