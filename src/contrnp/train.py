"""Training loop: batch assembly, forward, backward, Adam update, logging."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor
from .data import DataError, Segment, make_batch, write_table
from .losses import ContrastiveConfig, combined_loss
from .model import (ArchConfig, ConvCnpModel, ModelConfig, Representation,
                    require)


class NumericError(RuntimeError):
    pass


@dataclass
class TrainConfig(ArchConfig):
    k_per_batch: int = 8
    m: int = 2
    tau: float = 0.5
    lam: float = 0.01
    window_size: int = 2500
    a: float = 0.25
    b: float = 0.75
    n_context_min: int = 20
    n_context_max: int = 100
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 10.0
    loss_mode: str = "exp_sim"
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        # ContrastiveConfig holds the one rule for tau and loss_mode
        ContrastiveConfig(tau=self.tau, mode=self.loss_mode)
        lo, hi = self.n_context_range
        require([
            (0.0 <= self.a < self.b <= 1.0,
             f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}"),
            (self.window_size >= 2,
             f"window_size must be >= 2, got {self.window_size}"),
            (self.m >= 2, f"m must be >= 2, got {self.m}"),
            (self.k_per_batch >= 2,
             f"k_per_batch must be >= 2, got {self.k_per_batch}"),
            (self.lam >= 0, f"lam must be >= 0, got {self.lam}"),
            (1 <= lo <= hi, "need 1 <= n_context_min <= n_context_max, "
                            f"got {lo} and {hi}"),
            (self.learning_rate > 0,
             f"learning_rate must be > 0, got {self.learning_rate}"),
            (0 <= self.beta1 < 1, f"beta1 must be in [0, 1), got {self.beta1}"),
            (0 <= self.beta2 < 1, f"beta2 must be in [0, 1), got {self.beta2}"),
            (self.adam_eps > 0, f"adam_eps must be > 0, got {self.adam_eps}"),
            (self.clip_norm >= 0, "clip_norm must be >= 0 (0: no clipping), "
                                  f"got {self.clip_norm}"),
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ])

    def model_config(self, n_channels: int) -> ModelConfig:
        arch = {f.name: getattr(self, f.name) for f in fields(ArchConfig)}
        return ModelConfig(**arch, n_channels=n_channels)

    @property
    def n_context_range(self):
        return (self.n_context_min, self.n_context_max)


@dataclass
class TrainLog:
    # (step, nll, contr, total, ms, grad_norm, clipped)
    records: list = field(default_factory=list)
    # (ell_in, ell_out) after each step: the lengthscales, in grid x units
    lengthscales: list = field(default_factory=list)

    def append(self, step, nll, contrastive, total, wall_ms, grad_norm,
               clipped, ell_in, ell_out):
        self.records.append((step, nll, contrastive, total, wall_ms,
                             grad_norm, clipped))
        self.lengthscales.append((ell_in, ell_out))

    def write_csv(self, path):
        write_table(path, ["step", "nll", "contrastive", "total", "wall_ms",
                           "grad_norm", "clipped", "ell_in", "ell_out"],
                    ([rec[0], repr(rec[1]), repr(rec[2]), repr(rec[3]),
                      f"{rec[4]:.1f}", repr(rec[5]), int(rec[6]),
                      *map(repr, ells)]
                     for rec, ells in zip(self.records, self.lengthscales)))


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr=1e-3, beta1=0.9,
                 beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    # zero_grad gives every parameter a gradient; returns the norm before
    total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params.values()))
    if 0 < max_norm < total:
        scale = max_norm / total
        for p in params.values():
            p.grad *= scale
    return total


def train_step(model: ConvCnpModel, batch, cfg: TrainConfig, opt: Adam):
    """One optimizer step on the K x M views of `batch`, encoded as one
    stack: its losses, gradients and update are bitwise those of encoding
    each view on its own."""
    views = [view for seg_views in batch.views for view in seg_views]
    grid_features, rep = model.encode_views(views)
    preds = model.decode_views(grid_features, [v.target_x for v in views])
    reps = Representation(rep.r.reshape(len(batch.views), -1, rep.r.shape[1]))
    breakdown = combined_loss(preds, [v.target_y for v in views], reps,
                              cfg.lam,
                              ContrastiveConfig(tau=cfg.tau, mode=cfg.loss_mode))
    opt.zero_grad()
    breakdown.total.backward()
    grad_norm = breakdown.grad_norm = float(
        clip_gradients(model.params, cfg.clip_norm))
    if not np.isfinite(grad_norm):
        # clipping cannot catch this: nan > max_norm is False
        raise NumericError(
            f"non-finite gradient norm {grad_norm} before the update")
    opt.step()
    return breakdown


def train(segments: list[Segment],
          cfg: TrainConfig) -> tuple[ConvCnpModel, TrainLog]:
    """Run the full optimization loop; deterministic given cfg.seed."""
    if len(segments) < cfg.k_per_batch:
        raise DataError(
            f"need at least k_per_batch={cfg.k_per_batch} segments, "
            f"got {len(segments)}")
    n_channels = segments[0].y.shape[1]
    rng = np.random.default_rng(cfg.seed)
    model = ConvCnpModel(cfg.model_config(n_channels), rng)
    opt = Adam(model.params, lr=cfg.learning_rate, beta1=cfg.beta1,
               beta2=cfg.beta2, eps=cfg.adam_eps)
    log = TrainLog()
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(segments))
        for i in range(0, len(order) - cfg.k_per_batch + 1, cfg.k_per_batch):
            chosen = [segments[j] for j in order[i:i + cfg.k_per_batch]]
            batch = make_batch(chosen, cfg.m, cfg.a, cfg.b,
                               cfg.n_context_range, rng)
            t0 = time.perf_counter()
            # overflow and NaN are caught by the finiteness checks on the
            # gradient norm (in train_step) and on the loss (below)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                breakdown = train_step(model, batch, cfg, opt)
            step += 1
            nll = breakdown.nll.item()
            contr = breakdown.contrastive.item()
            total = breakdown.total.item()
            if not np.isfinite(total):
                raise NumericError(
                    f"non-finite loss at step {step}: "
                    f"nll={nll}, contrastive={contr}, total={total}")
            norm = breakdown.grad_norm
            log.append(step, nll, contr, total,
                       (time.perf_counter() - t0) * 1000.0, norm,
                       0 < cfg.clip_norm < norm, *model.lengthscales())
    return model, log
