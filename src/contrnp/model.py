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
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SIGMA_MIN = 1e-4
DENSITY_EPS = 1e-6
CHECKPOINT_MAGIC = b"CNPR2"


class CheckpointError(IOError):
    pass


def require(rules):
    """Raise ValueError with the message of the first (ok, message) rule
    that does not hold; written as `ok`, a rule refuses NaN."""
    for ok, message in rules:
        if not ok:
            raise ValueError(message)


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

    def __post_init__(self):
        # an int field holds an int, not a float or a bool (checkpoint JSON
        # can hold either); first, so that the rules below see numbers.
        # fields(self) takes in the int fields of the subclasses too
        require((type(v) is int, f"{f.name} must be an integer, got {v!r}")
                for f in fields(self) if f.type in (int, "int")
                for v in [getattr(self, f.name)])
        sizes = {n: getattr(self, n)
                 for n in ("d_r", "cnn_depth", "cnn_width", "decoder_hidden")}
        k = self.cnn_kernel
        require([
            (self.grid_size >= 2,
             f"grid_size must be >= 2, got {self.grid_size}"),
            (self.margin >= 0, f"margin must be >= 0, got {self.margin}"),
            *((v >= 1, f"{n} must be >= 1, got {v}") for n, v in sizes.items()),
            (k >= 1 and k % 2 == 1, f"cnn_kernel must be odd and >= 1, got {k}"),
        ])


@dataclass
class ModelConfig(ArchConfig):
    n_channels: int = 1


@dataclass
class Representation:
    r: Tensor            # [d_r], or [B, d_r] for a stack of views


# the decoder's parameters, in the order `autodiff.decode_nll` takes them
DECODER_PARAMS = ("dec_w1", "dec_b1", "dec_mu_w", "dec_mu_b", "dec_sig_w",
                  "dec_sig_b")


class PendingDecode(NamedTuple):
    """A view, or a stack of views on one target set, that
    `ConvCnpModel.decode` has not decoded yet."""
    smoother: Tensor         # [n_target, G], shared by views on one target set
    grid_features: Tensor    # [G, H], or [V, G, H] for a stack of V views
    weights: tuple           # the DECODER_PARAMS Tensors

    @property
    def shape(self) -> tuple:
        """[n_target, C] of each view's prediction: dec_sig_b has one entry
        per channel."""
        return (self.smoother.shape[0], self.weights[-1].shape[0])


class GaussianPrediction:
    """Per-channel Gaussian mu and sigma [n_target, C] ([V, n_target, C]
    for a stack of views), given directly or, from `ConvCnpModel.decode`,
    pending: built on first read from `pending` (with the decoder weights'
    values at that time) as a group of its own. `losses.combined_loss`
    scores pending views without building them."""

    def __init__(self, mu: Tensor | None = None, sigma: Tensor | None = None,
                 pending: PendingDecode | None = None):
        self._mu, self._sigma, self.pending = mu, sigma, pending

    @property
    def mu(self) -> Tensor:
        return self._built()[0]

    @property
    def sigma(self) -> Tensor:
        return self._built()[1]

    def _built(self):
        if self._mu is None:
            p = self.pending
            self._mu, self._sigma = ad.decode(p.smoother, p.grid_features,
                                              p.weights, SIGMA_MIN)
        return self._mu, self._sigma


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
        # (raw_len_out, its value and requires_grad, targets, smoother)
        self._smoothed = None

    # -- forward pieces -----------------------------------------------------

    def embed_context(self, context_x: np.ndarray,
                      context_y: np.ndarray) -> Tensor:
        """Normalized RBF set convolution of the context onto the grid:
        [G, 1 + C] channels, density first, then the signal channels."""
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

        d2 = (self.grid_x[:, None] - context_x[None, :]) ** 2          # [G, N]
        return ad.set_conv(d2, context_y,
                           ad.softplus(self.params["raw_len_in"]), DENSITY_EPS)

    def encode(self, channels: Tensor) -> tuple[Tensor, Representation]:
        """CNN over one view's grid embedding channels[G, 1 + C]; returns
        the grid features [G, H] and the pooled representation r [d_r].

        A stack of views [B, G, 1 + C] runs through the CNN as one batch and
        gives [B, G, H] and r [B, d_r], each view's bitwise its own encode,
        and so are the gradients each view hands back: the pooling sums
        over G, not the contiguous axis, the representation layer is one
        [1, H] @ [H, d_r] product per view, and every adjoint summed over
        the views adds them from the last to the first, as the tape adds
        the adjoints of per-view nodes (see `autodiff._sum_last_first`)."""
        c = self.config
        lead = channels.shape[:-2]             # () for one view, (B,) a stack
        h = ad.transpose(channels).reshape(-1, 1 + c.n_channels, c.grid_size)
        for i in range(c.cnn_depth):
            h = ad.conv_block(h, self.params[f"conv{i}_w"],
                              self.params[f"conv{i}_b"])
        grid_features = ad.transpose(
            h.reshape(*lead, c.cnn_width, c.grid_size))          # [(B,) G, H]
        pooled = ad.mean_axis(grid_features, axis=-2).reshape(
            *lead, 1, c.cnn_width)
        r = (pooled @ self.params["repr_w"]
             + self.params["repr_b"]).reshape(*lead, c.d_r)
        return grid_features, Representation(r)

    def encode_views(self, views) -> tuple[Tensor, Representation]:
        """Embed each view's context, stack the embeddings [V, G, 1 + C] and
        `encode` them as one batch: grid features [V, G, H] and r [V, d_r].
        Each view keeps its own embedding node, whose lengthscale adjoint
        reaches raw_len_in in the order per-view encodes would give."""
        return self.encode(ad.stack([
            self.embed_context(v.context_x, v.context_y) for v in views]))

    def decode(self, grid_features: Tensor,
               target_x: np.ndarray) -> GaussianPrediction:
        """The Gaussian prediction at the targets from the grid features of
        one view [G, H], or of a stack of views [V, G, H] on these targets:
        pending on the smoother onto the targets, which the views of one
        target set share (see GaussianPrediction)."""
        target_x = np.asarray(target_x, dtype=np.float64)
        lo, hi = self.grid_x[0], self.grid_x[-1]
        if target_x.min() < lo or target_x.max() > hi:
            raise ValueError(
                f"target x outside grid span [{lo:.3f}, {hi:.3f}]")
        weights = tuple(self.params[name] for name in DECODER_PARAMS)
        return GaussianPrediction(pending=PendingDecode(
            self._smoother(target_x), grid_features, weights))

    def _smoother(self, target_x: np.ndarray) -> Tensor:
        """The row-normalised RBF smoother [T, G] from the grid onto the
        targets. The last one is kept and reused while its inputs are
        unchanged: the same raw_len_out Tensor, with an equal value and the
        same requires_grad, and equal targets. The K*M views of a step on
        one target set share one node, and `losses.combined_loss` decodes
        and scores them in one `autodiff.decode_nll` node."""
        raw = self.params["raw_len_out"]
        key = (float(raw.data), raw.requires_grad)
        memo = self._smoothed
        if (memo is None or memo[0] is not raw or memo[1] != key
                or not np.array_equal(memo[2], target_x)):
            d2 = (target_x[:, None] - self.grid_x[None, :]) ** 2       # [T, G]
            qn = ad.rbf(d2, ad.softplus(raw))
            memo = self._smoothed = (raw, key, target_x.copy(), qn)
        return memo[3]

    def decode_views(self, grid_features: Tensor,
                     target_xs) -> list[GaussianPrediction]:
        """The pending predictions of the views stacked in grid_features
        [V, G, H] at their targets target_xs[v]: one per run of adjacent
        views with equal targets, pending on that run's rows of the stack,
        so the runs are the ones `_smoother` gives views decoded one by
        one. Segments cut from a series with uneven timestamps have
        targets of their own."""
        preds, start, n = [], 0, len(target_xs)
        for stop in range(1, n + 1):
            if stop < n and np.array_equal(target_xs[stop], target_xs[start]):
                continue
            rows = (grid_features if stop - start == n
                    else ad.take_rows(grid_features, start, stop))
            preds.append(self.decode(rows, target_xs[start]))
            start = stop
        return preds

    def lengthscales(self) -> tuple[float, float]:
        """The set-conv and decoder RBF lengthscales, softplus(raw_len_in)
        and softplus(raw_len_out)."""
        return tuple(ad.softplus(Tensor(self.params[name].data)).item()
                     for name in ("raw_len_in", "raw_len_out"))

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

    The parameters come back frozen (not requires_grad): a loaded model is
    only evaluated, so its forward passes record no tape. A truncated file,
    a payload that does not match its SHA-256, or bytes after the hash are
    a CheckpointError, and so is a config that does not parse as JSON or
    does not fit ModelConfig, and a parameter that holds NaN or inf.
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
    try:
        cfg = json.loads(blob)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: config JSON does not parse: {e}")
    try:
        config = ModelConfig(**cfg["model"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad \"model\" config: {e!r}")
    model = ConvCnpModel(config, np.random.default_rng(seed))
    for name, arr in raw.items():
        if name not in model.params:
            raise CheckpointError(f"{path}: unknown parameter '{name}'")
        if model.params[name].shape != arr.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for parameter '{name}': "
                f"file {arr.shape} vs model {model.params[name].shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(
                f"{path}: parameter '{name}' holds a non-finite value")
        model.params[name] = Tensor(arr.copy())
    missing = set(model.params) - set(raw)
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)}")
    return model, cfg, seed
