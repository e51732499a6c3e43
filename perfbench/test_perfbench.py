"""Self-tests of the benchmark: the traced copies are faithful to the
program, the spans of an operation fit inside it, the training session
reproduces the program's own loop and the committed reference, timings are
rescaled by the host-speed reference around them, and the compare rule
gives the verdicts it documents.

    python3 -m pytest perfbench -q
"""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

import run

run.use_checkout_source()

import compare  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from contrnp import cli  # noqa: E402
from contrnp.model import ConvCnpModel, save_checkpoint  # noqa: E402
from contrnp.train import train  # noqa: E402


@pytest.mark.parametrize("name", sorted(wl.TRAIN))
def test_traced_train_step_is_bit_identical(name):
    assert tracing.mirror_matches_program(name, seed=3) is None


def test_step_spans_fit_in_step_wall():
    session = wl.TrainSession(wl.TRAIN["wave_train"], 4)
    tracer = tracing.Tracer()
    for op in range(3):
        tracer.op = op
        tracing.traced_train_step(tracer, session)
    ops = tracing.op_self_times(tracer.spans)
    assert sorted(ops) == [0, 1, 2]
    for rec in ops.values():
        assert rec["ok"]
        assert sum(rec["self_ms"].values()) <= rec["wall_ms"]
        for span in ("data.make_batch", "model.embed_context", "model.encode",
                     "model.decode", "losses.combined_loss",
                     "autodiff.backward", "train.clip_gradients",
                     "train.adam_step", "train.step"):
            assert rec["self_ms"][span] >= 0.0


def test_badly_nested_span_is_flagged():
    spans = [["train.step", 0.0, 1.0, -1, 0],
             ["autodiff.backward", 0.5, 1.5, 0, 0]]
    assert not tracing.op_self_times(spans)[0]["ok"]


@pytest.mark.parametrize("name", sorted(wl.TRAIN))
def test_session_reproduces_program_train_and_reference(name):
    ref = wl.load_reference()
    expected = ref["losses"][name]
    session = wl.TrainSession(wl.TRAIN[name], ref["seed"])
    cfg = dataclasses.replace(session.cfg, epochs=1)
    _, log = train(session.segments, cfg)
    program = [rec[3] for rec in log.records[:len(expected)]]
    assert wl.reference_losses(name, ref["seed"], len(expected)) == program
    for got, want in zip(program, expected):
        assert math.isclose(got, want, rel_tol=ref["rel_tol"], abs_tol=0.0)


def test_tape_node_count_is_exact_per_step():
    session = wl.TrainSession(wl.TRAIN["wave_train"], 5)
    counts = set()
    for _ in range(3):
        breakdown, _ = tracing.traced_train_step(tracing.Tracer(), session)
        counts.add(tracing.count_tape_nodes(breakdown.total))
    assert len(counts) == 1


def test_traced_eval_writes_the_cli_metrics(tmp_path):
    data, ckpt = tmp_path / "data.csv", tmp_path / "model.ckpt"
    assert cli.main(["synth", "--classes", "4", "--segments", "10",
                     "--window", "200", "--seed", "2", "--out", str(data)]) == 0
    cfg = dataclasses.replace(wl.eval_config(2), m=2)
    model = ConvCnpModel(cfg.model_config(1), np.random.default_rng(2))
    save_checkpoint(model, {"train": dataclasses.asdict(cfg)}, ckpt, seed=2)
    inputs = wl.EvalInputs(ckpt, data, seed=2, n_views=40 * 2)

    rc, _ = wl.timed_cli_eval(inputs, tmp_path / "cli")
    counts = {"tape_nodes": 0, "views": 0}
    tracer = tracing.Tracer()
    tracing.traced_cli_eval(tracer, inputs, tmp_path / "traced", counts)

    checker = wl.EvalChecker()
    assert checker.check(rc, tmp_path / "cli") is None
    assert checker.check(0, tmp_path / "traced") is None
    assert counts["views"] == inputs.n_views
    assert counts["tape_nodes"] % counts["views"] == 0
    assert all(rec["ok"] for rec in tracing.op_self_times(tracer.spans).values())


def test_at_nominal_scales_by_the_reference():
    ref = hostspeed.REF_NOMINAL_MS
    assert hostspeed.at_nominal(100.0, ref, ref) == 100.0
    assert hostspeed.at_nominal(100.0, 2 * ref, 2 * ref) == 50.0
    assert hostspeed.at_nominal(90.0, ref, 2 * ref) == 60.0


def test_timed_loop_times_the_reference_around_each_operation():
    out = wl.timed_loop(wl.Outcome(), 0.0, lambda i: (0.004, 3, None))
    assert len(out.op_ms) == wl.MIN_OPS and out.views == 3 * wl.MIN_OPS
    assert len(out.ref_ms) == len(out.op_ms) + 1
    for i, (wall, norm) in enumerate(zip(out.op_ms, out.norm_ms)):
        assert norm == hostspeed.at_nominal(wall, *out.ref_ms[i:i + 2])


def test_timed_setups_import_and_set_up_in_fresh_interpreters(tmp_path):
    args = argparse.Namespace(workload="eval_cli", seed=1)
    reps = run.timed_setups(args, tmp_path)
    assert len(reps) == run.SETUP_REPS
    assert all(wall > 0.0 and norm > 0.0 for wall, norm in reps)
    assert (tmp_path / "setup0" / "model.ckpt").is_file()


def test_metrics_csv_out_of_range_is_rejected(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("metric,value,seed\naccuracy,1.5,0\nauprc,0.5,0\n"
                    "silhouette,0.1,0\ndavies_bouldin,2.0,0\n")
    assert "accuracy" in wl.check_metrics_csv(path)


def record(workload, t, value, failed=0):
    return {"workload": workload, "trace": 0, "started_at": t,
            "result": {"failed": failed, "attempted": 10,
                       "metrics": {"step_ms_p50": {"value": value}}}}


BENCH = {"end_to_end": [{"name": "step_ms_p50", "better": "lower",
                         "bound": 0.1}], "per_layer": []}


def verdict_of(parent_values, change_values, change_failed=0):
    parent = [record("w", i, v) for i, v in enumerate(parent_values)]
    change = [record("w", i, v, change_failed)
              for i, v in enumerate(change_values)]
    rows = compare.compare(parent, change, BENCH)
    return {row[1]: row[5] for row in rows}["step_ms_p50"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert verdict_of(base, [v * 0.8 for v in base]) == "improved"
    assert verdict_of(base, [v * 1.3 for v in base]) == "worse"
    assert verdict_of(base, [v * 1.01 for v in base]) == "unchanged"
    assert verdict_of(base[:5], [v * 0.8 for v in base[:5]]) == "unresolved"
    assert verdict_of(base, [v * 0.8 for v in base],
                      change_failed=1) == "unresolved"
    noisy = [100.0, 150.0] * 5
    assert verdict_of(noisy, [v * 0.95 for v in noisy]) == "unresolved"


def test_benchmark_json_names_what_run_prints():
    bench = json.loads(compare.BENCHMARK.read_text())
    assert ({m["name"] for m in bench["end_to_end"]}
            == set(run.END_TO_END_UNITS))
    per_layer = set(tracing.LAYER_SPANS) | {
        "autodiff.tape_nodes_per_step", "autodiff.eval_nodes_per_view",
        "model.conv_mflop_per_step", "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
