"""Training objectives: view-contrastive loss and Gaussian forecasting NLL.

The contrastive term treats the M views of a segment as positive pairs and
all views of other segments in the batch as negatives. The default mode is
the NT-Xent-style form: -log of exp(cos/tau) over the sum of exp(cos/tau)
across other segments. A "literal" mode keeps the raw similarity ratio
inside the log (no exponentiation, sum reduction) for ablations.
"""

from __future__ import annotations

import itertools
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


def contrastive_loss(reps, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over the representations of K >= 2 segments x M >= 2
    views (as TrainConfig's k_per_batch and m guarantee): a [K][M] list of
    Representations, or one Representation whose r stacks them [K, M, d_r]."""
    if isinstance(reps, Representation):
        k_n, m_n, d = reps.r.shape
        r = reps.r.reshape(k_n * m_n, d)                           # [n, d]
    else:
        k_n, m_n = len(reps), len(reps[0])
        r = ad.concat([rep.r.reshape(1, rep.r.size)
                       for row in reps for rep in row], axis=0)
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


def _decode_group(pred: GaussianPrediction) -> tuple:
    """What the views decoded by one node share: the smoother and the decoder
    weights, and the stack itself for a stack of views."""
    stack = (id(pred.grid_features),) if pred.grid_features.ndim == 3 else ()
    return (id(pred.smoother), *map(id, pred.weights), *stack)


def _view_nlls(preds: list[GaussianPrediction], targets: list) -> Tensor:
    """The Gaussian NLL of each view [n_views], in view order, where
    `targets` holds one entry per view and a prediction on a stack of V
    views covers V of them. A stack, as `train_step` decodes each target
    set, and each run of adjacent single-view predictions on one smoother
    are decoded and scored by one `autodiff.decode_nll` node.
    (`ConvCnpModel._smoother` keeps only the last target set, so in decode
    order the views on one smoother node are adjacent.)"""
    parts, at = [], 0
    for _, run in itertools.groupby(preds, key=_decode_group):
        run = list(run)
        first = run[0]
        if first.grid_features.ndim == 3:       # a stack: a group of its own
            grids, n = first.grid_features, first.grid_features.shape[0]
        else:
            grids = [p.grid_features for p in run]
            n = len(grids)
        ys = targets[at:at + n]
        at += n
        if len(ys) < n:
            break
        parts.append(ad.decode_nll(
            first.smoother, grids,
            [_target_array(y, first.shape) for y in ys], first.weights,
            SIGMA_MIN))
    if at != len(targets):
        raise ValueError(f"{len(targets)} targets for the predicted views")
    return parts[0] if len(parts) == 1 else ad.concat(parts)


def combined_loss(preds: list[GaussianPrediction], targets: list,
                  reps, lam: float, cfg: ContrastiveConfig) -> LossBreakdown:
    """lambda * mean per-view NLL + contrastive term."""
    nll = ad.mean_axis(_view_nlls(preds, targets))
    contr = contrastive_loss(reps, cfg)
    total = contr if lam == 0.0 else nll * lam + contr
    return LossBreakdown(total=total, nll=nll, contrastive=contr)
