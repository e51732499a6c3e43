"""ConvCNP encoder/decoder over a uniform 1D grid.

The context set is embedded onto the grid by a normalized RBF set
convolution with a density channel, processed by a residual 1D CNN, pooled
to a fixed-size representation vector, and smoothed back to arbitrary
target locations where a small MLP emits per-channel Gaussian (mu, sigma).
All distances are relative, so grid-aligned shifts of the inputs shift the
predictions by the same amount.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SIGMA_MIN = 1e-4
DENSITY_EPS = 1e-6
CHECKPOINT_MAGIC = b"CNPR2"


class CheckpointError(IOError):
    pass


@dataclass
class ArchConfig:
    """The architecture fields, shared by ModelConfig and TrainConfig."""
    grid_size: int = 64
    margin: float = 0.1
    d_r: int = 128
    cnn_depth: int = 6
    cnn_width: int = 64
    cnn_kernel: int = 5
    decoder_hidden: int = 64


@dataclass
class ModelConfig(ArchConfig):
    n_channels: int = 1


@dataclass
class GridEmbedding:
    grid_x: np.ndarray   # [G]
    channels: Tensor     # [G, 1 + C]: density first, then signal channels


@dataclass
class Representation:
    r: Tensor            # [d_r]
    segment_id: int = -1
    view_id: int = -1


@dataclass
class GaussianPrediction:
    mu: Tensor           # [n_target, C]
    sigma: Tensor        # [n_target, C]


def _inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class ConvCnpModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        c = config
        self.grid_x = np.linspace(-c.margin, 1.0 + c.margin, c.grid_size)
        self.grid_spacing = self.grid_x[1] - self.grid_x[0]

        p: dict[str, Tensor] = {}
        p["raw_len_in"] = Tensor(_inv_softplus(2.0 * self.grid_spacing),
                                 requires_grad=True)
        p["raw_len_out"] = Tensor(_inv_softplus(1.0 * self.grid_spacing),
                                  requires_grad=True)
        in_ch = 1 + c.n_channels
        for i in range(c.cnn_depth):
            ci = in_ch if i == 0 else c.cnn_width
            p[f"conv{i}_w"] = _uniform_init(
                rng, (c.cnn_width, ci, c.cnn_kernel), ci * c.cnn_kernel)
            p[f"conv{i}_b"] = _uniform_init(rng, (c.cnn_width,), ci * c.cnn_kernel)
        p["repr_w"] = _uniform_init(rng, (c.cnn_width, c.d_r), c.cnn_width)
        p["repr_b"] = _uniform_init(rng, (c.d_r,), c.cnn_width)
        p["dec_w1"] = _uniform_init(rng, (c.cnn_width, c.decoder_hidden), c.cnn_width)
        p["dec_b1"] = _uniform_init(rng, (c.decoder_hidden,), c.cnn_width)
        p["dec_mu_w"] = _uniform_init(rng, (c.decoder_hidden, c.n_channels),
                                      c.decoder_hidden)
        p["dec_mu_b"] = _uniform_init(rng, (c.n_channels,), c.decoder_hidden)
        p["dec_sig_w"] = _uniform_init(rng, (c.decoder_hidden, c.n_channels),
                                       c.decoder_hidden)
        p["dec_sig_b"] = _uniform_init(rng, (c.n_channels,), c.decoder_hidden)
        self.params = p

    # -- forward pieces -----------------------------------------------------

    def embed_context(self, context_x: np.ndarray,
                      context_y: np.ndarray) -> GridEmbedding:
        """Normalized RBF set convolution of the context onto the grid."""
        context_x = np.asarray(context_x, dtype=np.float64)
        context_y = np.asarray(context_y, dtype=np.float64)
        if context_y.ndim == 1:
            context_y = context_y[:, None]
        if len(context_x) == 0:
            raise ValueError("empty context set")
        lo, hi = self.grid_x[0], self.grid_x[-1]
        if context_x.min() < lo or context_x.max() > hi:
            raise ValueError(
                f"context x outside grid span [{lo:.3f}, {hi:.3f}]")

        ell = ad.softplus(self.params["raw_len_in"])
        d2 = Tensor((self.grid_x[:, None] - context_x[None, :]) ** 2)  # [G, N]
        w = ad.exp(d2 * -0.5 / (ell * ell))
        density = ad.sum_axis(w, axis=1, keepdims=True)                # [G, 1]
        signal = (w @ Tensor(context_y)) / (density + DENSITY_EPS)     # [G, C]
        channels = ad.concat([density, signal], axis=1)
        return GridEmbedding(self.grid_x, channels)

    def encode(self, embedding: GridEmbedding) -> tuple[Tensor, Representation]:
        """CNN over the grid embedding; returns grid features and pooled rep."""
        c = self.config
        pad = (c.cnn_kernel - 1) // 2
        h = ad.transpose(embedding.channels).reshape(1, 1 + c.n_channels,
                                                     c.grid_size)
        for i in range(c.cnn_depth):
            z = ad.conv1d(h, self.params[f"conv{i}_w"], padding=pad)
            z = z + self.params[f"conv{i}_b"].reshape(1, c.cnn_width, 1)
            z = ad.relu(z)
            h = z + h if h.shape == z.shape else z
        grid_features = ad.transpose(h.reshape(c.cnn_width, c.grid_size))  # [G,H]
        pooled = ad.mean_axis(grid_features, axis=0).reshape(1, c.cnn_width)
        r = (pooled @ self.params["repr_w"] + self.params["repr_b"]).reshape(c.d_r)
        return grid_features, Representation(r)

    def decode(self, grid_features: Tensor,
               target_x: np.ndarray) -> GaussianPrediction:
        """Smooth grid features to the targets and emit Gaussian parameters."""
        target_x = np.asarray(target_x, dtype=np.float64)
        lo, hi = self.grid_x[0], self.grid_x[-1]
        if target_x.min() < lo or target_x.max() > hi:
            raise ValueError(
                f"target x outside grid span [{lo:.3f}, {hi:.3f}]")
        ell = ad.softplus(self.params["raw_len_out"])
        d2 = Tensor((target_x[:, None] - self.grid_x[None, :]) ** 2)   # [T, G]
        q = ad.exp(d2 * -0.5 / (ell * ell))
        qn = q / ad.sum_axis(q, axis=1, keepdims=True)
        smoothed = qn @ grid_features                                   # [T, H]
        hdn = ad.relu(smoothed @ self.params["dec_w1"] + self.params["dec_b1"])
        mu = hdn @ self.params["dec_mu_w"] + self.params["dec_mu_b"]
        pre_sigma = hdn @ self.params["dec_sig_w"] + self.params["dec_sig_b"]
        sigma = ad.softplus(pre_sigma) + SIGMA_MIN
        return GaussianPrediction(mu, sigma)

    def predict(self, context_x, context_y, target_x) -> GaussianPrediction:
        grid_features, _ = self.encode(self.embed_context(context_x, context_y))
        return self.decode(grid_features, target_x)

    def represent(self, context_x, context_y) -> Representation:
        _, rep = self.encode(self.embed_context(context_x, context_y))
        return rep


# -- checkpoint container --------------------------------------------------------
# payload: magic "CNPR2" | u64 n_params | records | u64 seed | u64 json_len
#          | config JSON
# file:    payload | 32-byte sha256 of the payload
# record:  u64 name_len | name utf-8 | u64 rank | u64 dims... | f64 data (LE)

def save_checkpoint(model: ConvCnpModel, extra_config: dict, path,
                    seed: int = 0):
    cfg = {"model": asdict(model.config), **extra_config}
    blob = json.dumps(cfg, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<Q", len(model.params))]
    for name in sorted(model.params):
        t = model.params[name]
        nb = name.encode()
        parts += [struct.pack("<Q", len(nb)), nb,
                  struct.pack(f"<Q{t.ndim}Q", t.ndim, *t.shape),
                  np.ascontiguousarray(t.data, dtype="<f8").tobytes()]
    parts += [struct.pack("<QQ", seed, len(blob)), blob]
    payload = b"".join(parts)
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest())


def load_checkpoint(path) -> tuple[ConvCnpModel, dict, int]:
    """Rebuild a model from a checkpoint; returns (model, config dict, seed).

    A truncated file, a payload that does not match its SHA-256, or bytes
    after the hash are a CheckpointError.
    """
    buf = Path(path).read_bytes()
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        pos += n
        return buf[pos - n:pos]

    if take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a CNPR2 checkpoint")
    (n_params,) = struct.unpack("<Q", take(8, "param count"))
    raw = {}
    for _ in range(n_params):
        (nlen,) = struct.unpack("<Q", take(8, "name length"))
        # a corrupt name is caught by the hash below, before it is used
        name = take(nlen, "name").decode("utf-8", "replace")
        (rank,) = struct.unpack("<Q", take(8, "rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"dims of {name}"))
        data = take(8 * math.prod(dims), f"data of {name}")
        raw[name] = np.frombuffer(data, dtype="<f8").reshape(dims)
    seed, jlen = struct.unpack("<QQ", take(16, "seed and config length"))
    blob = take(jlen, "config JSON")
    payload_end = pos
    if take(32, "hash") != hashlib.sha256(buf[:payload_end]).digest():
        raise CheckpointError(f"{path}: SHA-256 mismatch; the checkpoint is "
                              "corrupt")
    if pos != len(buf):
        raise CheckpointError(
            f"{path}: trailing bytes after the hash ({len(buf) - pos})")
    cfg = json.loads(blob)
    model = ConvCnpModel(ModelConfig(**cfg["model"]),
                         np.random.default_rng(seed))
    for name, arr in raw.items():
        if name not in model.params:
            raise CheckpointError(f"{path}: unknown parameter '{name}'")
        if model.params[name].shape != arr.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for parameter '{name}': "
                f"file {arr.shape} vs model {model.params[name].shape}")
        model.params[name].data = arr.astype(np.float64)
    missing = set(model.params) - set(raw)
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)}")
    return model, cfg, seed
