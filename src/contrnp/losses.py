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
from .model import GaussianPrediction, Representation

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


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


def contrastive_loss(reps, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over the Representations reps[k][m] (K >= 2 segments
    x M >= 2 views, as TrainConfig's k_per_batch and m guarantee)."""
    k_n, m_n = len(reps), len(reps[0])
    rows = []
    for k in range(k_n):
        for m in range(m_n):
            t = reps[k][m].r
            if np.linalg.norm(t.data) == 0.0:
                raise ValueError(
                    f"zero-norm representation at segment {k}, view {m}")
            rows.append(t.reshape(1, t.size))
    n = k_n * m_n
    r = ad.concat(rows, axis=0)                                    # [n, d]
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


def gaussian_nll(pred: GaussianPrediction, target_y) -> Tensor:
    """Mean Gaussian negative log likelihood over target points and channels."""
    y = np.asarray(target_y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != pred.mu.shape:
        raise ad.ShapeMismatchError(
            f"gaussian_nll: targets {y.shape} vs prediction {pred.mu.shape}")
    diff = pred.mu - Tensor(y)
    point_nll = (ad.log(pred.sigma) + _HALF_LOG_2PI
                 + diff * diff / (pred.sigma * pred.sigma * 2.0))
    return ad.mean_axis(point_nll)


def combined_loss(preds: list[GaussianPrediction], targets: list,
                  reps, lam: float, cfg: ContrastiveConfig) -> LossBreakdown:
    """lambda * mean per-view NLL + contrastive term."""
    nll_terms = [gaussian_nll(p, t)
                 for p, t in zip(preds, targets, strict=True)]
    nll = ad.concat([t.reshape(1) for t in nll_terms])
    nll = ad.mean_axis(nll)
    contr = contrastive_loss(reps, cfg)
    total = contr if lam == 0.0 else nll * lam + contr
    return LossBreakdown(total=total, nll=nll, contrastive=contr)
