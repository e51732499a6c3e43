"""Benchmark workloads: inputs made from the seed, untimed set-up, the timed
loops over the program's public functions, and the checks on their outputs.

Import this module only after `run.use_checkout_source()` has put the
checkout's `src/` first on `sys.path`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

from contrnp import cli
from contrnp.data import make_batch, synth_generate
from contrnp.model import ConvCnpModel, save_checkpoint
from contrnp.train import Adam, TrainConfig, train_step

from hostspeed import at_nominal, reference_ms

HERE = Path(__file__).resolve().parent

# The acceptance suite's 4-class waveform architecture (WAVE_CFG in
# tests/test_acceptance.py), without its seed.
WAVE_ARCH = dict(window_size=200, grid_size=64, cnn_depth=4, cnn_width=32,
                 cnn_kernel=7, d_r=64, decoder_hidden=64,
                 n_context_min=20, n_context_max=100, tau=0.5)


@dataclasses.dataclass(frozen=True)
class TrainSpec:
    config: dict           # TrainConfig fields other than the seed
    data: tuple            # synth_generate(classes, per class, window, noise)
    warmup: int            # untimed steps before the timed window


TRAIN = {
    # The config of the acceptance suite's 4000-step repr_run: 16 separate
    # batch-size-1 view graphs per step, so per-view tape overhead, conv1d
    # and backward dominate.
    "wave_train": TrainSpec(dict(WAVE_ARCH, lam=100.0), (4, 50, 200, 0.1), 5),
    # TrainConfig defaults: every view decodes and scores 2500 targets, so
    # decode and the NLL carry weight here and are light on wave_train.
    "paper_train": TrainSpec({}, (4, 10, 2500, 0.1), 2),
}

# eval_cli: one `contrnp eval` over 4 x 25 segments of window 200, with a
# WAVE-architecture checkpoint at m = 8 views per segment. A call lasts about
# 1 s: longer calls span changes of the shared host's speed, which the
# host-speed normalisation cannot follow (see README.md).
EVAL_DATA = dict(classes=4, segments=25, window=200, noise=0.1)
EVAL_M = 8
EVAL_LABEL_FRACTION = 0.8

MIN_OPS = 2

EVAL_RANGES = {"accuracy": (0.0, 1.0), "auprc": (0.0, 1.0),
               "silhouette": (-1.0, 1.0), "davies_bouldin": (0.0, math.inf)}


@dataclasses.dataclass
class Outcome:
    """What one run measured and how many of its operations failed.
    `op_ms` are wall times; `norm_ms` the same at the nominal host speed,
    from `ref_ms`, the host-speed reference timed before the first and
    after every operation."""
    op_ms: list = dataclasses.field(default_factory=list)
    norm_ms: list = dataclasses.field(default_factory=list)
    ref_ms: list = dataclasses.field(default_factory=list)
    window_s: float = 0.0
    views: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)


class Deadline:
    """Start another operation only while it is expected to end within the
    window: elapsed time plus half the last operation's time stays below
    `seconds`. At least MIN_OPS operations always run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def more(self, n_done: int, last_s: float) -> bool:
        if n_done < MIN_OPS:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + 0.5 * last_s < self.seconds


class TrainSession:
    """The program's training loop (`contrnp.train.train`) opened up so that
    steps can be taken one at a time: same seeding, same epoch permutation,
    same `make_batch` and `train_step` calls."""

    def __init__(self, spec: TrainSpec, seed: int):
        self.cfg = TrainConfig(**spec.config, seed=seed)
        self.segments = synth_generate(*spec.data, np.random.default_rng(seed))
        self.rng = np.random.default_rng(seed)
        cfg = self.cfg
        self.model = ConvCnpModel(
            cfg.model_config(self.segments[0].y.shape[1]), self.rng)
        self.opt = Adam(self.model.params, lr=cfg.learning_rate,
                        beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
        self._chosen = self._epochs()

    def _epochs(self):
        k = self.cfg.k_per_batch
        while True:
            order = self.rng.permutation(len(self.segments))
            for i in range(0, len(order) - k + 1, k):
                yield [self.segments[j] for j in order[i:i + k]]

    @property
    def views_per_step(self) -> int:
        return self.cfg.k_per_batch * self.cfg.m

    def next_batch(self):
        cfg = self.cfg
        return make_batch(next(self._chosen), cfg.m, cfg.a, cfg.b,
                          cfg.n_context_range, self.rng)

    def step(self):
        return train_step(self.model, self.next_batch(), self.cfg, self.opt)


def check_losses(breakdown) -> str | None:
    """Every logged loss term must be finite; returns an error or None."""
    terms = {"nll": breakdown.nll.item(),
             "contrastive": breakdown.contrastive.item(),
             "total": breakdown.total.item()}
    bad = {k: v for k, v in terms.items() if not math.isfinite(v)}
    return f"non-finite loss {bad}" if bad else None


def conv_mflop(cfg: TrainConfig, n_channels: int, views: int,
               backward: bool) -> float:
    """Multiply-add FLOPs of the CNN's conv1d layers, computed from the
    config: 2 * C_out * C_in * kernel * grid per layer and view, and three
    times that with backward (input and kernel gradients)."""
    pad = (cfg.cnn_kernel - 1) // 2
    length = cfg.grid_size + 2 * pad - cfg.cnn_kernel + 1
    macs = 0
    for i in range(cfg.cnn_depth):
        c_in = 1 + n_channels if i == 0 else cfg.cnn_width
        macs += cfg.cnn_width * c_in * cfg.cnn_kernel * length
    return 2 * macs * views * (3 if backward else 1) / 1e6


# -- training workloads ----------------------------------------------------------

def setup(name: str, seed: int, workdir: Path):
    """The untimed set-up of a workload: a TrainSession (data generation,
    model and optimizer init) or the EvalInputs written under `workdir`."""
    if name in TRAIN:
        return TrainSession(TRAIN[name], seed)
    return setup_eval(workdir, seed)


def warm_up(session: TrainSession, steps: int, out: Outcome) -> bool:
    for _ in range(steps):
        out.attempted += 1
        error = check_losses(session.step())
        if error:
            out.fail(f"warm-up: {error}")
            return False
    return True


def timed_loop(out: Outcome, seconds: float, op) -> Outcome:
    """Call `op(i)` for i = 1, 2, ... until the deadline; `op` returns
    (seconds, views, error or None). The host-speed reference is timed
    before the first operation and after each one. The first failing
    operation ends the loop; an exception counts as a failure with its
    traceback recorded."""
    deadline = Deadline(seconds)
    last = 0.0
    out.ref_ms.append(reference_ms())
    while deadline.more(len(out.op_ms), last):
        out.attempted += 1
        try:
            last, views, error = op(len(out.op_ms) + 1)
        except Exception:  # the run must still report what it measured
            error = traceback.format_exc()
        if error:
            out.fail(f"operation {len(out.op_ms) + 1}: {error}")
            break
        out.ref_ms.append(reference_ms())
        out.op_ms.append(last * 1000.0)
        out.norm_ms.append(at_nominal(last * 1000.0, *out.ref_ms[-2:]))
        out.views += views
    out.window_s = time.perf_counter() - deadline.start
    return out


def run_train(session: TrainSession, warmup: int, seconds: float) -> Outcome:
    """Untimed warm-up, then timed `make_batch` + `train_step` steps."""
    out = Outcome()
    if not warm_up(session, warmup, out):
        return out

    def step(_):
        t0 = time.perf_counter()
        breakdown = session.step()
        elapsed = time.perf_counter() - t0
        return elapsed, session.views_per_step, check_losses(breakdown)

    return timed_loop(out, seconds, step)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def reference_losses(name: str, seed: int, steps: int) -> list:
    session = TrainSession(TRAIN[name], seed)
    return [session.step().total.item() for _ in range(steps)]


def check_reference(name: str, out: Outcome) -> dict:
    """Train the workload from the reference seed and compare each total
    loss with the committed same-seed reference within its tolerance."""
    ref = load_reference()
    expected = ref["losses"][name]
    out.attempted += 1
    got = reference_losses(name, ref["seed"], len(expected))
    bad = [(i + 1, g, e) for i, (g, e) in enumerate(zip(got, expected))
           if not math.isclose(g, e, rel_tol=ref["rel_tol"], abs_tol=0.0)]
    if bad:
        out.fail(f"reference seed {ref['seed']}: (step, loss, expected) {bad}")
    return {"seed": ref["seed"], "rel_tol": ref["rel_tol"], "losses": got}


# -- eval workload ---------------------------------------------------------------

@dataclasses.dataclass
class EvalInputs:
    checkpoint: Path
    data: Path
    seed: int
    n_views: int

    def argv(self, out_dir: Path) -> list:
        return ["eval", "--checkpoint", str(self.checkpoint),
                "--data", str(self.data),
                "--label-fraction", str(EVAL_LABEL_FRACTION),
                "--seed", str(self.seed), "--out", str(out_dir)]


def eval_config(seed: int) -> TrainConfig:
    return TrainConfig(**WAVE_ARCH, m=EVAL_M, lam=100.0, seed=seed)


def setup_eval(workdir: Path, seed: int) -> EvalInputs:
    """Write the CSV with `contrnp synth` and a checkpoint of a freshly
    initialised WAVE model."""
    workdir.mkdir(parents=True, exist_ok=True)
    data, ckpt = workdir / "data.csv", workdir / "model.ckpt"
    d = EVAL_DATA
    argv = ["synth", "--classes", str(d["classes"]),
            "--segments", str(d["segments"]), "--window", str(d["window"]),
            "--noise", str(d["noise"]), "--seed", str(seed), "--out", str(data)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"contrnp synth exited {rc}")
    cfg = eval_config(seed)
    model = ConvCnpModel(cfg.model_config(1), np.random.default_rng(seed))
    save_checkpoint(model, {"train": dataclasses.asdict(cfg)}, ckpt, seed=seed)
    n_views = d["classes"] * d["segments"] * EVAL_M
    return EvalInputs(ckpt, data, seed, n_views)


def check_metrics_csv(path: Path) -> str | None:
    """metrics.csv must hold the four metrics in their valid ranges."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return f"cannot read {path.name}: {e}"
    if not rows or rows[0] != ["metric", "value", "seed"]:
        return f"bad header in {path.name}: {rows[:1]}"
    names = [r[0] for r in rows[1:]]
    if names != list(EVAL_RANGES):
        return f"metrics {names}, expected {list(EVAL_RANGES)}"
    for name, value, _ in rows[1:]:
        lo, hi = EVAL_RANGES[name]
        v = float(value)
        if not (math.isfinite(v) and lo <= v <= hi):
            return f"{name}={v} outside [{lo}, {hi}]"
    return None


class EvalChecker:
    """Counts an eval call as failed when it exits non-zero, writes metrics
    out of range, or writes a metrics.csv that differs byte for byte from
    the first call's."""

    def __init__(self):
        self.first: bytes | None = None

    def check(self, rc: int, out_dir: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        path = out_dir / "metrics.csv"
        error = check_metrics_csv(path)
        if error:
            return error
        content = path.read_bytes()
        if self.first is None:
            self.first = content
        elif content != self.first:
            return "metrics.csv differs from the first call's"
        return None


def timed_cli_eval(inputs: EvalInputs, out_dir: Path) -> tuple[int, float]:
    """One in-process `contrnp eval`; returns exit code and seconds."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(inputs.argv(out_dir))
        return rc, time.perf_counter() - t0


def run_eval(inputs: EvalInputs, workdir: Path, seconds: float) -> Outcome:
    checker = EvalChecker()

    def call(i):
        out_dir = workdir / f"call{i}"
        rc, elapsed = timed_cli_eval(inputs, out_dir)
        return elapsed, inputs.n_views, checker.check(rc, out_dir)

    return timed_loop(Outcome(), seconds, call)
