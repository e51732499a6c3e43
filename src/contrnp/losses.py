"""Training objectives: view-contrastive loss and Gaussian forecasting NLL.

The contrastive term treats the M views of a segment as positive pairs and
all views of other segments in the batch as negatives. The default mode is
the NT-Xent-style form: -log of exp(cos/tau) over the sum of exp(cos/tau)
across other segments. A "literal" mode keeps the raw similarity ratio
inside the log (no exponentiation, sum reduction) for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import SIGMA_MIN, GaussianPrediction, Representation


@dataclass
class ContrastiveConfig:
    tau: float = 0.5
    mode: str = "exp_sim"   # "exp_sim" (default) or "literal"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.mode not in ("exp_sim", "literal"):
            raise ValueError(f"unknown contrastive mode '{self.mode}'")


@dataclass
class LossBreakdown:
    total: Tensor
    nll: Tensor
    contrastive: Tensor
    grad_norm: float | None = None  # set by train_step: the norm before clipping


def contrastive_loss(reps: Representation, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over the representations r [K, M, d_r] of K >= 2
    segments x M >= 2 views (as TrainConfig's k_per_batch and m
    guarantee)."""
    k_n, m_n, d = reps.r.shape
    r = reps.r.reshape(k_n * m_n, d)                               # [n, d]
    zero = np.flatnonzero(np.linalg.norm(r.data, axis=1) == 0.0)
    if zero.size:
        k, m = divmod(int(zero[0]), m_n)
        raise ValueError(
            f"zero-norm representation at segment {k}, view {m}")
    n = k_n * m_n
    norms = ad.sqrt(ad.sum_axis(r * r, axis=1, keepdims=True))
    rn = r / norms
    sim = rn @ ad.transpose(rn)                                    # [n, n]

    seg = np.repeat(np.arange(k_n), m_n)
    neg_mask = (seg[:, None] != seg[None, :]).astype(np.float64)
    pos_mask = ((seg[:, None] == seg[None, :])
                & ~np.eye(n, dtype=bool)).astype(np.float64)

    scaled = sim * (1.0 / cfg.tau)
    if cfg.mode == "exp_sim":
        denom = ad.sum_axis(ad.exp(scaled) * Tensor(neg_mask), axis=1)  # [n]
        pos_sum = ad.sum_axis(scaled * Tensor(pos_mask), axis=1)        # [n]
        per_anchor = ad.log(denom) * float(m_n - 1) - pos_sum
        return ad.sum_axis(per_anchor) * (1.0 / (k_n * m_n * (m_n - 1)))
    # literal: sum over ordered positive pairs of
    # log[(sim/tau) / sum_{k'!=k} sim/tau]; raises on non-positive ratios
    masked = scaled * Tensor(pos_mask) + Tensor(1.0 - pos_mask)
    pos_logs = ad.sum_axis(ad.log(masked))
    denom = ad.sum_axis(scaled * Tensor(neg_mask), axis=1)
    return pos_logs - ad.sum_axis(ad.log(denom)) * float(m_n - 1)


def _target_array(target_y, shape) -> np.ndarray:
    y = np.asarray(target_y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != shape:
        raise ad.ShapeMismatchError(
            f"NLL: targets {y.shape} vs prediction {shape}")
    return y


def _stacked(preds: list[GaussianPrediction], reps):
    """`combined_loss`'s inputs with their per-view forms stacked, the one
    place that reads those forms: a [K][M] list of Representations [d_r]
    becomes one Representation [K, M, d_r], and each run of adjacent
    one-view predictions [G, H] with the same decoder parameters and equal
    target distances d2 becomes one prediction on the run's stacked grid
    features. Those are the runs `ConvCnpModel.decode_views` forms; stacks
    pass through."""
    if not isinstance(reps, Representation):
        reps = Representation(ad.stack([rep.r for row in reps for rep in row])
                              .reshape(len(reps), len(reps[0]), -1))
    runs = []
    for pred in preds:
        last = runs[-1][-1] if runs else None
        if (last is not None
                and pred.grid_features.ndim == last.grid_features.ndim == 2
                and pred.weights == last.weights      # Tensors: by identity
                and np.array_equal(pred.d2, last.d2)):
            runs[-1].append(pred)
        else:
            runs.append([pred])
    stacks = [run[0] if run[0].grid_features.ndim == 3 else run[0]._replace(
                  grid_features=ad.stack([p.grid_features for p in run]))
              for run in runs]
    return stacks, reps


def _view_nlls(preds: list[GaussianPrediction], targets: list) -> Tensor:
    """The Gaussian NLL of each view [n_views], in view order, where each
    prediction stacks V views on one target set and `targets` holds one
    entry per view. Each prediction is decoded and scored by one
    `autodiff.decode_nll` node."""
    sizes = [pred.grid_features.shape[0] for pred in preds]
    if sum(sizes) != len(targets):
        raise ValueError(f"{len(targets)} targets for {sum(sizes)} predicted "
                         "views")
    parts, at = [], 0
    for pred, n in zip(preds, sizes):
        ys = [_target_array(y, pred.shape) for y in targets[at:at + n]]
        at += n
        parts.append(ad.decode_nll(pred.d2, pred.grid_features, ys,
                                   pred.weights, SIGMA_MIN))
    return parts[0] if len(parts) == 1 else ad.concat(parts)


def combined_loss(preds: list[GaussianPrediction], targets: list,
                  reps, lam: float, cfg: ContrastiveConfig) -> LossBreakdown:
    """lambda * mean per-view NLL + contrastive term, over predictions that
    each stack the views of one target set, one target per view in order,
    and the representations [K, M, d_r]; per-view forms are stacked first
    (see `_stacked`)."""
    preds, reps = _stacked(preds, reps)
    nll = ad.mean_axis(_view_nlls(preds, targets))
    contr = contrastive_loss(reps, cfg)
    total = contr if lam == 0.0 else nll * lam + contr
    return LossBreakdown(total=total, nll=nll, contrastive=contr)
