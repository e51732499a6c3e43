"""Command-line entry point.

Subcommands: synth, train, eval, sweep-labels, forecast. Every command
writes a manifest JSON (resolved config, seed, content hashes of inputs,
and the Python/numpy/BLAS environment that bitwise reproduction needs)
next to its outputs so a run can be reproduced from the manifest alone.

Exit codes: 0 success, 1 usage error, 2 data or path error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from .autodiff import DomainError, ShapeMismatchError
from .data import (DataError, load_csv, sample_views, segmentize,
                   segments_to_series, synth_generate, write_csv,
                   write_table)
from .evaluate import (EvalError, davies_bouldin, evaluate_split, extract,
                       silhouette)
from .model import CheckpointError, load_checkpoint, save_checkpoint
from .train import NumericError, TrainConfig, train


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument error is a UsageError: one `error:` line, exit 1."""

    def error(self, message):
        raise UsageError(message)


def _check_flags(args):
    """A numeric flag out of range is a UsageError; each rule refuses NaN.
    `--fractions` is parsed here into a list, each entry a label fraction."""
    if getattr(args, "fractions", None) is not None:
        try:
            args.fractions = [float(s) for s in args.fractions.split(",") if s]
        except ValueError as e:
            raise UsageError(f"bad --fractions: {e}")
        if not args.fractions:
            raise UsageError("bad --fractions: no fraction given")
    at_least = {"seed": 0, "n_context": 1, "classes": 2, "segments": 1,
                "window": 2}
    rules = {name: (lambda v, lo=lo: v >= lo, f">= {lo}")
             for name, lo in at_least.items()}
    rules["noise"] = (lambda v: 0 <= v < math.inf, "finite and >= 0")
    rules["label_fraction"] = rules["fractions"] = (
        lambda v: 0 < v <= 1, "in (0, 1]")
    for name, (ok, want) in rules.items():
        value = getattr(args, name, None)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not ok(v):
                raise UsageError(
                    f"--{name.replace('_', '-')} must be {want}, got {v}")


def parse_config_file(path) -> dict:
    """Strict `key = value` config parser; keys must be TrainConfig fields,
    and each value takes the type of that field's default."""
    defaults = dataclasses.asdict(TrainConfig())
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            out[key] = type(defaults[key])(value)
        except ValueError as e:
            raise UsageError(f"{path}:{lineno}: {e}")
    return out


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
        libs = [ctypes.CDLL(path) for path in sorted(libs)]
    except OSError:
        return None
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _numerics_environment() -> dict:
    """What the bitwise-determinism guarantee is scoped to: the Python and
    numpy versions, the BLAS build and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                   inputs: list):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "environment": _numerics_environment(),
    }
    (out_dir / f"manifest_{command}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_segments(data_path, cfg: TrainConfig):
    series = load_csv(data_path)
    return segmentize(series, cfg.window_size, cfg.window_size)


def _resolve_config(args) -> TrainConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    for key in ("seed", "epochs"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    try:
        return TrainConfig(**overrides)
    except (TypeError, ValueError) as e:
        raise UsageError(f"invalid configuration: {e}")


def cmd_synth(args):
    rng = np.random.default_rng(args.seed)
    segments = synth_generate(args.classes, args.segments, args.window,
                              args.noise, rng)
    series = segments_to_series(segments)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(series, out)
    write_manifest(out.parent, "synth",
                   {"classes": args.classes, "segments": args.segments,
                    "window": args.window, "noise": args.noise,
                    "out": str(out)},
                   args.seed, [out])
    print(f"wrote {len(series.x)} rows ({len(segments)} segments) to {out}")


def cmd_train(args):
    cfg = _resolve_config(args)
    segments = _load_segments(args.data, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, log = train(segments, cfg)
    ckpt = out / "model.ckpt"
    save_checkpoint(model, {"train": dataclasses.asdict(cfg)}, ckpt,
                    seed=cfg.seed)
    log.write_csv(out / "train_log.csv")
    write_manifest(out, "train", dataclasses.asdict(cfg), cfg.seed,
                   [args.data])
    loss = f", final loss {log.records[-1][3]:.4f}" if log.records else ""
    print(f"trained {len(log.records)} steps{loss}; checkpoint at {ckpt}")


def _load_run(ckpt_path, data_path):
    """The checkpointed model, its training config and the data's segments;
    a DataError when the data's channel count is not the model's."""
    model, cfg_dict, _ = load_checkpoint(ckpt_path)
    try:
        tc = TrainConfig(**cfg_dict["train"])
    except KeyError:
        raise CheckpointError(f"{ckpt_path}: no \"train\" config")
    except (TypeError, ValueError) as e:
        raise CheckpointError(
            f"{ckpt_path}: \"train\" config does not fit TrainConfig: {e}")
    segments = _load_segments(data_path, tc)
    n_data, n_model = segments[0].y.shape[1], model.config.n_channels
    if n_data != n_model:
        raise DataError(f"{data_path}: {n_data} channel(s), but checkpoint "
                        f"{ckpt_path} was trained on {n_model}")
    return model, tc, segments


def _encode_dataset(ckpt_path, data_path, seed):
    """Frozen representations of every labeled segment, and the RNG that
    drew their views, for the evaluation to continue from."""
    model, tc, segments = _load_run(ckpt_path, data_path)
    if any(s.label is None for s in segments):
        raise DataError(f"{data_path}: labels required for evaluation")
    rng = np.random.default_rng(seed)
    encoded = extract(model, segments, tc.m, tc.a, tc.b,
                      tc.n_context_range, rng)
    return encoded, rng


def cmd_eval(args):
    encoded, rng = _encode_dataset(args.checkpoint, args.data, args.seed)
    acc, ap = evaluate_split(encoded, args.label_fraction, rng)
    sil = silhouette(encoded)
    dbi = davies_bouldin(encoded)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "metrics.csv", ["metric", "value", "seed"],
                [[name, repr(value), args.seed]
                 for name, value in [("accuracy", acc), ("auprc", ap),
                                     ("silhouette", sil),
                                     ("davies_bouldin", dbi)]])
    write_manifest(out, "eval",
                   {"checkpoint": str(args.checkpoint), "data": str(args.data),
                    "label_fraction": args.label_fraction},
                   args.seed, [args.checkpoint, args.data])
    print(f"accuracy={acc:.4f} auprc={ap:.4f} silhouette={sil:.4f} "
          f"dbi={dbi:.4f}")


def cmd_sweep_labels(args):
    encoded, _ = _encode_dataset(args.checkpoint, args.data, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for frac in args.fractions:
        rng = np.random.default_rng(args.seed)
        acc, ap = evaluate_split(encoded, frac, rng)
        rows.append((frac, acc, ap))
    write_table(out / "label_sweep.csv", ["fraction", "accuracy", "auprc"],
                [[frac, repr(acc), repr(ap)] for frac, acc, ap in rows])
    write_manifest(out, "sweep-labels",
                   {"checkpoint": str(args.checkpoint), "data": str(args.data),
                    "fractions": args.fractions},
                   args.seed, [args.checkpoint, args.data])
    for frac, acc, ap in rows:
        print(f"fraction={frac:.2f} accuracy={acc:.4f} auprc={ap:.4f}")


def cmd_forecast(args):
    model, tc, segments = _load_run(args.checkpoint, args.data)
    if not (0 <= args.segment_id < len(segments)):
        raise DataError(
            f"segment-id {args.segment_id} out of range [0, {len(segments)})")
    seg = segments[args.segment_id]
    rng = np.random.default_rng(args.seed)
    view = sample_views(seg, 1, tc.a, tc.b,
                        (args.n_context, args.n_context), rng)[0]
    pred = model.predict(view.context_x, view.context_y, view.target_x)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # overflow and NaN are caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = pred.mu_sigma()
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise NumericError(
            f"segment {args.segment_id}: non-finite prediction")
    header = ["x"] + [f"{name}{c}" for c in range(mu.shape[1])
                      for name in ("y_true", "mu", "sigma")]
    values = np.stack([view.target_y, mu, sigma], axis=2).reshape(len(mu), -1)
    write_table(out, header, ([repr(x), *map(repr, row)] for x, row in
                              zip(view.target_x.tolist(), values.tolist())))
    write_manifest(out.parent, "forecast",
                   {"checkpoint": str(args.checkpoint), "data": str(args.data),
                    "segment_id": args.segment_id,
                    "n_context": args.n_context},
                   args.seed, [args.checkpoint, args.data])
    print(f"wrote forecast for segment {args.segment_id} to {out}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="contrnp",
        description="Contrastive neural-process representation learning "
                    "for time series")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic waveform dataset")
    ps.add_argument("--classes", type=int, default=4)
    ps.add_argument("--segments", type=int, default=50,
                    help="segments per class")
    ps.add_argument("--window", type=int, default=200)
    ps.add_argument("--noise", type=float, default=0.1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("train", help="train a model on a CSV dataset")
    pt.add_argument("--config", help="key = value config file")
    pt.add_argument("--data", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--seed", type=int)
    pt.add_argument("--epochs", type=int)
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("eval", help="linear probe + clustering metrics")
    pe.add_argument("--checkpoint", required=True)
    pe.add_argument("--data", required=True)
    pe.add_argument("--label-fraction", type=float, default=0.8)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default=".")
    pe.set_defaults(func=cmd_eval)

    pw = sub.add_parser("sweep-labels",
                        help="accuracy at several label fractions")
    pw.add_argument("--checkpoint", required=True)
    pw.add_argument("--data", required=True)
    pw.add_argument("--fractions", default="0.1,0.5,0.8")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--out", default=".")
    pw.set_defaults(func=cmd_sweep_labels)

    pf = sub.add_parser("forecast",
                        help="predictive mean/std on one segment")
    pf.add_argument("--checkpoint", required=True)
    pf.add_argument("--data", required=True)
    pf.add_argument("--segment-id", type=int, default=0)
    pf.add_argument("--n-context", type=int, default=40)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_forecast)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        args.func(args)
        return 0
    except SystemExit:  # only --help exits; a bad argument is a UsageError
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, EvalError, OSError) as e:  # CheckpointError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, DomainError, ShapeMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
