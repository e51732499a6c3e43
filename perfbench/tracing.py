"""The traced run: step-by-step copies of `train.train_step` and
`cli.cmd_eval` with a span around every call into a layer, and the per-layer
self times computed from those spans.

Spans stay in memory (name, start, end, parent span, operation id) and are
written out when the run ends. A traced run alternates untraced operations,
which call the program's own `train_step` / `cli.main`, with traced ones, so
`trace.overhead_pct` compares the two under the same host conditions.

Import this module only after `run.use_checkout_source()`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
import time
from pathlib import Path

import numpy as np

from contrnp import cli
from contrnp.data import DataError, load_csv, sample_views, segmentize
from contrnp.evaluate import (EncodedDataset, accuracy, auprc, davies_bouldin,
                              silhouette, stratified_indices, train_probe)
from contrnp.losses import ContrastiveConfig, combined_loss
from contrnp.model import load_checkpoint
from contrnp.train import TrainConfig, clip_gradients

import workloads as wl

# Spans the tracer records only for its own book-keeping: excluded from the
# self time of their parents and reported in no layer.
COUNT_SPAN = "trace.count"

# per-layer metric -> span whose self time it reports (per operation)
LAYER_SPANS = {
    "autodiff.backward_ms": "autodiff.backward",
    "model.embed_context_ms": "model.embed_context",
    "model.encode_ms": "model.encode",
    "model.decode_ms": "model.decode",
    "model.load_checkpoint_ms": "model.load_checkpoint",
    "losses.combined_loss_ms": "losses.combined_loss",
    "train.clip_gradients_ms": "train.clip_gradients",
    "train.adam_step_ms": "train.adam_step",
    "train.step_self_ms": "train.step",
    "data.make_batch_ms": "data.make_batch",
    "data.load_csv_ms": "data.load_csv",
    "evaluate.extract_ms": "evaluate.extract",
    "evaluate.train_probe_ms": "evaluate.train_probe",
    "evaluate.accuracy_ms": "evaluate.accuracy",
    "evaluate.auprc_ms": "evaluate.auprc",
    "evaluate.silhouette_ms": "evaluate.silhouette",
    "evaluate.davies_bouldin_ms": "evaluate.davies_bouldin",
    "cli.eval_self_ms": "cli.eval",
}

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    """In-memory span recorder. `op` is the id of the operation (train step
    or eval call) that spans opened now belong to."""

    def __init__(self):
        self.spans: list[list] = []   # rows of SPAN_FIELDS
        self._open: list[int] = []
        self.op = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, parent, t.op])
        t._open.append(self.index)
        t.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.spans[self.index][2] = end
        t._open.pop()
        return False


def count_tape_nodes(root) -> int:
    """Tensors of the autodiff graph reachable from `root`: op outputs,
    parameters and the constant inputs the ops recorded."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def op_self_times(spans: list) -> dict:
    """Per operation id: wall ms of its root span, per-span-name self ms,
    and whether every span nests inside its parent and the layers' self
    times add up to no more than the root's wall time."""
    child = [0.0] * len(spans)
    nested = [True] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            p = spans[parent]
            if start < p[1] or end > p[2]:
                nested[parent] = False
    ops: dict = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        rec = ops.setdefault(op, {"wall_ms": 0.0, "self_ms": {}, "ok": True})
        rec["ok"] = rec["ok"] and nested[i]
        if parent < 0:
            rec["wall_ms"] = (end - start) * 1000.0
        if name != COUNT_SPAN:
            self_ms = (end - start - child[i]) * 1000.0
            rec["self_ms"][name] = rec["self_ms"].get(name, 0.0) + self_ms
    for rec in ops.values():
        rec["ok"] = rec["ok"] and sum(rec["self_ms"].values()) <= rec["wall_ms"]
    return ops


def layer_metrics(ops: dict, scale: dict) -> dict:
    """Median over traced operations of each layer's self ms per operation,
    each operation's times multiplied by `scale[op]` (its nominal over its
    wall time); operations without a scale did not complete. 0 for a layer
    the workload's path does not call."""
    return {metric: statistics.median(
                rec["self_ms"].get(span, 0.0) * scale[op]
                for op, rec in ops.items() if op in scale)
            for metric, span in LAYER_SPANS.items()}


# -- training ------------------------------------------------------------------

def traced_train_step(tracer: Tracer, session: wl.TrainSession):
    """`train.train_step` on `session.next_batch()`, call for call, with a
    span around each call into a layer. Returns the loss breakdown and the
    per-view representations."""
    cfg, model, opt = session.cfg, session.model, session.opt
    span = tracer.span
    with span("train.step"):
        with span("data.make_batch"):
            batch = session.next_batch()
        preds, targets, reps = [], [], []
        for seg_views in batch.views:
            seg_reps = []
            for view in seg_views:
                with span("model.embed_context"):
                    emb = model.embed_context(view.context_x, view.context_y)
                with span("model.encode"):
                    grid_features, rep = model.encode(emb)
                with span("model.decode"):
                    pred = model.decode(grid_features, view.target_x)
                preds.append(pred)
                targets.append(view.target_y)
                seg_reps.append(rep)
            reps.append(seg_reps)
        with span("losses.combined_loss"):
            breakdown = combined_loss(
                preds, targets, reps, cfg.lam,
                ContrastiveConfig(tau=cfg.tau, mode=cfg.loss_mode))
        opt.zero_grad()
        with span("autodiff.backward"):
            breakdown.total.backward()
        with span("train.clip_gradients"):
            clip_gradients(model.params, cfg.clip_norm)
        with span("train.adam_step"):
            opt.step()
    return breakdown, reps


def mirror_matches_program(name: str, seed: int) -> str | None:
    """One step of `train.train_step` and one of the traced copy, from two
    sessions built from the same seed, must give bit-identical losses and
    parameters. Returns an error or None."""
    program = wl.TrainSession(wl.TRAIN[name], seed)
    mirror = wl.TrainSession(wl.TRAIN[name], seed)
    expected = program.step()
    got, _ = traced_train_step(Tracer(), mirror)
    for term in ("nll", "contrastive", "total"):
        a, b = getattr(expected, term).item(), getattr(got, term).item()
        if a != b:
            return f"{term}: train_step {a!r} vs traced copy {b!r}"
    for key, p in program.model.params.items():
        if not np.array_equal(p.data, mirror.model.params[key].data):
            return f"parameter {key} differs after one step"
    return None


def trace_train(name: str, session: wl.TrainSession, seconds: float):
    """Fidelity check, warm-up, then untraced `train_step` steps alternating
    with traced copies. Returns (outcome, tracer, counts)."""
    out = wl.Outcome()
    out.attempted += 1
    error = mirror_matches_program(name, session.cfg.seed)
    if error:
        out.fail(f"traced copy of train_step is not faithful: {error}")
    tracer = Tracer()
    counts = {"tape_nodes": [], "view_nodes": []}
    if not wl.warm_up(session, wl.TRAIN[name].warmup, out):
        return out, tracer, counts

    def step(i):
        t0 = time.perf_counter()
        if i % 2:
            breakdown = session.step()
            return (time.perf_counter() - t0, session.views_per_step,
                    wl.check_losses(breakdown))
        tracer.op = i
        breakdown, reps = traced_train_step(tracer, session)
        elapsed = time.perf_counter() - t0
        counts["tape_nodes"].append(count_tape_nodes(breakdown.total))
        counts["view_nodes"].append(count_tape_nodes(reps[0][0].r))
        return elapsed, session.views_per_step, wl.check_losses(breakdown)

    wl.timed_loop(out, seconds, step)
    return out, tracer, counts


# -- evaluation ------------------------------------------------------------------

def traced_cli_eval(tracer: Tracer, inputs: wl.EvalInputs, out_dir: Path,
                    counts: dict):
    """`cli.cmd_eval` (with `_encode_dataset`, `extract` and
    `evaluate_split` inlined), call for call, with a span around each call
    into a layer; tape nodes of every encoded view are added to `counts`."""
    span = tracer.span
    seed, label_fraction = inputs.seed, wl.EVAL_LABEL_FRACTION
    with span("cli.eval"):
        with span("model.load_checkpoint"):
            model, cfg_dict, _ = load_checkpoint(inputs.checkpoint)
        tc = TrainConfig(**cfg_dict["train"])
        with span("data.load_csv"):
            series = load_csv(inputs.data)
        segments = segmentize(series, tc.window_size, tc.window_size)
        if any(s.label is None for s in segments):
            raise DataError(f"{inputs.data}: labels required for evaluation")
        rng = np.random.default_rng(seed)
        with span("evaluate.extract"):
            reps, labels = [], []
            for seg in segments:
                views = sample_views(seg, tc.m, tc.a, tc.b,
                                     tc.n_context_range, rng)
                rs = []
                for v in views:
                    with span("model.embed_context"):
                        emb = model.embed_context(v.context_x, v.context_y)
                    with span("model.encode"):
                        _, rep = model.encode(emb)
                    with span(COUNT_SPAN):
                        counts["tape_nodes"] += count_tape_nodes(rep.r)
                        counts["views"] += 1
                    rs.append(rep.r.data)
                reps.append(np.mean(rs, axis=0))
                labels.append(-1 if seg.label is None else seg.label)
            encoded = EncodedDataset(np.asarray(reps),
                                     np.asarray(labels, dtype=np.int64))
        test_idx, train_idx = stratified_indices(encoded.labels, 0.2, rng)
        train_set = EncodedDataset(encoded.reps[train_idx],
                                   encoded.labels[train_idx])
        test_set = EncodedDataset(encoded.reps[test_idx],
                                  encoded.labels[test_idx])
        with span("evaluate.train_probe"):
            probe = train_probe(train_set, label_fraction, rng)
        with span("evaluate.accuracy"):
            acc = accuracy(probe, test_set)
        with span("evaluate.auprc"):
            ap = auprc(probe, test_set)
        with span("evaluate.silhouette"):
            sil = silhouette(encoded)
        with span("evaluate.davies_bouldin"):
            dbi = davies_bouldin(encoded)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["metric", "value", "seed"])
            for name, value in [("accuracy", acc), ("auprc", ap),
                                ("silhouette", sil), ("davies_bouldin", dbi)]:
                w.writerow([name, repr(value), seed])
        cli.write_manifest(out_dir, "eval",
                           {"checkpoint": str(inputs.checkpoint),
                            "data": str(inputs.data),
                            "label_fraction": label_fraction},
                           seed, [inputs.checkpoint, inputs.data])
        print(f"accuracy={acc:.4f} auprc={ap:.4f} silhouette={sil:.4f} "
              f"dbi={dbi:.4f}")


def trace_eval(inputs: wl.EvalInputs, workdir: Path, seconds: float):
    """Untraced `contrnp eval` calls alternating with traced copies. Every
    call, traced or not, must write the same metrics.csv bytes, which also
    checks that the traced copy is faithful. Returns (outcome, tracer,
    counts)."""
    tracer = Tracer()
    checker = wl.EvalChecker()
    counts = {"tape_nodes": [], "view_nodes": []}

    def call(i):
        out_dir = workdir / f"call{i}"
        if i % 2:
            rc, elapsed = wl.timed_cli_eval(inputs, out_dir)
            return elapsed, inputs.n_views, checker.check(rc, out_dir)
        tracer.op = i
        call_counts = {"tape_nodes": 0, "views": 0}
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            traced_cli_eval(tracer, inputs, out_dir, call_counts)
            elapsed = time.perf_counter() - t0
        counts["tape_nodes"].append(call_counts["tape_nodes"])
        counts["view_nodes"].append(
            call_counts["tape_nodes"] / call_counts["views"])
        return elapsed, inputs.n_views, checker.check(0, out_dir)

    out = wl.timed_loop(wl.Outcome(), seconds, call)
    return out, tracer, counts
