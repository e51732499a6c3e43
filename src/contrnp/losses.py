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


def _log(x: np.ndarray) -> np.ndarray:
    """np.log(x), refusing a non-positive entry with a DomainError."""
    if np.any(x <= 0):
        raise ad.DomainError(
            f"log of non-positive input (min={x.min():.6g})")
    return np.log(x)


def contrastive_loss(reps: Representation, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over the representations r [K, M, d_r] of K >= 2
    segments x M >= 2 views (as TrainConfig's k_per_batch and m
    guarantee), as one node whose only parent is r.

    With the unit rows rn of r [n = K*M, d_r] and s = (rn @ rn^T) / tau,
    exp_sim is the mean over ordered positive pairs of
    log(sum of exp(s) over other segments) - s, and literal the sum over
    them of log(s / sum of s over other segments), which raises
    DomainError on a non-positive ratio. The forward and
    backward keep the operation order of the op-by-op chain they replace
    (`conftest.reference_contrastive_loss`), so the loss and r's adjoint
    are bitwise the chain's."""
    k_n, m_n, d = reps.r.shape
    n = k_n * m_n
    r = reps.r.data.reshape(n, d)
    zero = np.flatnonzero(np.linalg.norm(r, axis=1) == 0.0)
    if zero.size:
        k, m = divmod(int(zero[0]), m_n)
        raise ValueError(
            f"zero-norm representation at segment {k}, view {m}")
    seg = np.repeat(np.arange(k_n), m_n)
    neg_mask = (seg[:, None] != seg[None, :]).astype(np.float64)
    pos_mask = ((seg[:, None] == seg[None, :])
                & ~np.eye(n, dtype=bool)).astype(np.float64)

    norms = np.sqrt((r * r).sum(axis=1, keepdims=True))
    rn = r / norms
    # contiguous, as the chain's transpose node makes it: BLAS can round a
    # product over a transposed view differently
    rn_t = rn.T.copy()
    scaled = (rn @ rn_t) * (1.0 / cfg.tau)                         # [n, n]
    if cfg.mode == "exp_sim":
        ex = np.exp(scaled)
        denom = (ex * neg_mask).sum(axis=1)                        # [n]
        pos_sum = (scaled * pos_mask).sum(axis=1)                  # [n]
        scale = 1.0 / (k_n * m_n * (m_n - 1))
        loss = (_log(denom) * float(m_n - 1) - pos_sum).sum() * scale
    else:
        masked = scaled * pos_mask + (1.0 - pos_mask)
        pos_logs = _log(masked).sum()
        denom = (scaled * neg_mask).sum(axis=1)
        loss = pos_logs - _log(denom).sum() * float(m_n - 1)

    def backward(g):
        if cfg.mode == "exp_sim":
            g_loss = g * scale
            g_scaled = (-g_loss * pos_mask
                        + (g_loss * float(m_n - 1) / denom)[:, None]
                        * neg_mask * ex)
        else:
            g_scaled = ((-g * float(m_n - 1) / denom)[:, None] * neg_mask
                        + g / masked * pos_mask)
        g_sim = g_scaled * (1.0 / cfg.tau)
        g_rn = g_sim @ rn_t.T + (rn.T @ g_sim).T
        g_norms = ad._unbroadcast(-g_rn * r / (norms * norms), norms.shape)
        g_sq = g_norms * 0.5 / norms * r
        return ((g_rn / norms + g_sq + g_sq).reshape(reps.r.shape),)

    return ad._make(loss, (reps.r,), backward)


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
