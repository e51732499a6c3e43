"""Training loop: batch assembly, forward, backward, Adam update, logging."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .autodiff import Tensor
from .data import Segment, make_batch
from .losses import ContrastiveConfig, combined_loss
from .model import ArchConfig, ConvCnpModel, ModelConfig, save_checkpoint


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
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 10.0
    loss_mode: str = "exp_sim"
    epochs: int = 10
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.k_per_batch < 2:
            raise ValueError("k_per_batch must be >= 2")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")

    def model_config(self, n_channels: int) -> ModelConfig:
        arch = {f.name: getattr(self, f.name) for f in fields(ArchConfig)}
        return ModelConfig(**arch, n_channels=n_channels)

    @property
    def n_context_range(self):
        return (self.n_context_min, self.n_context_max)


@dataclass
class TrainLog:
    records: list = field(default_factory=list)  # (step, nll, contr, total, ms)

    def append(self, step, nll, contrastive, total, wall_ms):
        if self.records and step <= self.records[-1][0]:
            raise ValueError("step index must be monotone")
        self.records.append((step, nll, contrastive, total, wall_ms))

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "nll", "contrastive", "total", "wall_ms"])
            for rec in self.records:
                w.writerow([rec[0], repr(rec[1]), repr(rec[2]), repr(rec[3]),
                            f"{rec[4]:.1f}"])


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
            if p.grad is None:
                raise ValueError(f"parameter '{k}' has no gradient")
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / (1 - self.beta1 ** self.t)
            v_hat = self.v[k] / (1 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    total = np.sqrt(sum(float(np.sum(p.grad ** 2))
                        for p in params.values() if p.grad is not None))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return total


def train_step(model: ConvCnpModel, batch, cfg: TrainConfig, opt: Adam):
    preds, targets, reps = [], [], []
    for seg_views in batch.views:
        seg_reps = []
        for view in seg_views:
            grid_features, rep = model.encode(
                model.embed_context(view.context_x, view.context_y))
            pred = model.decode(grid_features, view.target_x)
            preds.append(pred)
            targets.append(view.target_y)
            seg_reps.append(rep)
        reps.append(seg_reps)
    breakdown = combined_loss(preds, targets, reps, cfg.lam,
                              ContrastiveConfig(tau=cfg.tau, mode=cfg.loss_mode))
    opt.zero_grad()
    breakdown.total.backward()
    grad_norm = clip_gradients(model.params, cfg.clip_norm)
    if not np.isfinite(grad_norm):
        # clipping cannot catch this: nan > max_norm is False
        raise NumericError(
            f"non-finite gradient norm {grad_norm} before the update")
    opt.step()
    return breakdown


def train(segments: list[Segment], cfg: TrainConfig,
          checkpoint_dir=None) -> tuple[ConvCnpModel, TrainLog]:
    """Run the full optimization loop; deterministic given cfg.seed."""
    if len(segments) < cfg.k_per_batch:
        raise ValueError(
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
            breakdown = train_step(model, batch, cfg, opt)
            step += 1
            nll = breakdown.nll.item()
            contr = breakdown.contrastive.item()
            total = breakdown.total.item()
            if not np.isfinite(total):
                raise NumericError(
                    f"non-finite loss at step {step}: "
                    f"nll={nll}, contrastive={contr}, total={total}")
            log.append(step, nll, contr, total,
                       (time.perf_counter() - t0) * 1000.0)
            if (checkpoint_dir is not None and cfg.checkpoint_every > 0
                    and step % cfg.checkpoint_every == 0):
                save_checkpoint(model, {"train": asdict(cfg)},
                                f"{checkpoint_dir}/step{step:06d}.ckpt",
                                seed=cfg.seed)
    return model, log
