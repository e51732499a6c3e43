"""contrnp benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload wave_train --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from that
checkout's `src/`. The last line of standard output is the result JSON
(`correct`, `attempted`, `failed`, `metrics`): end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. A fuller record of the run
(environment, host-speed reference, samples, errors) is written under
`.perfbench_out/results/`, and the spans of a traced run under
`.perfbench_out/traces/`. Timings in the result are at the nominal host
speed of `hostspeed.py`; the record also holds the wall times. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import at_nominal, reference_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("wave_train", "paper_train", "eval_cli")

END_TO_END_UNITS = {"step_ms_p50": "ms", "views_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

SETUP_REPS = 7

# Run in a fresh interpreter by `timed_setups`: the imports (numpy and every
# layer of contrnp, through `workloads`) and one set-up, timed together, then
# the host-speed reference in the same process, which may run on another CPU
# than the benchmark's own.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
from pathlib import Path
workloads.setup(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
wall = time.perf_counter() - t0
print(wall, workloads.reference_ms())
"""


def use_checkout_source():
    """Put the checkout's `src/` first on sys.path; exit 2 without it."""
    src = ROOT / "src"
    if not (src / "contrnp" / "__init__.py").is_file():
        print(f"error: no contrnp sources under {src}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- environment ---------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "machine": platform.machine()}


def host_ref_ms() -> float:
    """Median of 7 host-speed references (21 passes of the loop), recorded at
    the start and end of a run so that drift of a shared host shows next to
    every result."""
    return statistics.median(reference_ms() for _ in range(7))


def timed_setups(args, workdir: Path) -> list:
    """Set the workload up SETUP_REPS times, each in a fresh interpreter so
    that the imports count. Returns (wall s, s at nominal host speed) for
    each repetition, the latter from the reference the child timed."""
    reps = []
    for i in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(HERE),
             args.workload, str(args.seed), str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: "
                               f"{proc.stderr[-2000:]}")
        wall, ref = map(float, proc.stdout.split()[-2:])
        reps.append((wall, at_nominal(wall, ref, ref)))
    return reps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# -- the run -------------------------------------------------------------------

def run(args, stem: str) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, record)."""
    import workloads as wl
    import tracing

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started_at": time.time()}
    workdir = OUT / "work" / stem
    try:
        setups = timed_setups(args, workdir)
        subject = wl.setup(args.workload, args.seed, workdir / "run")
        if args.workload in wl.TRAIN:
            spec = wl.TRAIN[args.workload]
            session = subject
            views_per_op = session.views_per_step
            mflop = wl.conv_mflop(session.cfg, 1, views_per_op, backward=True)
            if args.trace:
                out, tracer, counts = tracing.trace_train(
                    args.workload, session, args.seconds)
            else:
                out = wl.run_train(session, spec.warmup, args.seconds)
            if not out.failed:
                record["reference"] = wl.check_reference(args.workload, out)
        else:
            inputs = subject
            mflop = wl.conv_mflop(wl.eval_config(args.seed), 1,
                                  inputs.n_views, backward=False)
            if args.trace:
                out, tracer, counts = tracing.trace_eval(
                    inputs, workdir, args.seconds)
            else:
                out = wl.run_eval(inputs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not out.op_ms:
        raise RuntimeError(f"no operation completed: {out.errors}")
    record["samples"] = len(out.op_ms)
    record["step_ms_p90"] = p90(out.norm_ms)
    record["setup_s"] = setups
    record["op_ms"] = out.op_ms
    record["norm_ms"] = out.norm_ms
    record["ref_ms"] = out.ref_ms
    record["wall"] = {"step_ms_p50": statistics.median(out.op_ms),
                      "step_ms_p90": p90(out.op_ms),
                      "views_per_s": out.views / out.window_s,
                      "setup_s": statistics.median(w for w, _ in setups)}
    if args.trace:
        ops = tracing.op_self_times(tracer.spans)
        for op, rec in sorted(ops.items()):
            if not rec["ok"]:
                out.fail(f"operation {op}: spans exceed the operation's wall "
                         "time or their parents")
        untraced, traced = out.norm_ms[0::2], out.norm_ms[1::2]
        overhead = (statistics.median(traced) / statistics.median(untraced)
                    - 1.0) * 100.0 if traced else 0.0
        # operation i of the timed loop is op_ms[i - 1]
        scale = {i: norm / wall for i, (wall, norm)
                 in enumerate(zip(out.op_ms, out.norm_ms), start=1)}
        metrics = {name: (value, "ms") for name, value
                   in tracing.layer_metrics(ops, scale).items()}
        # median_low: a count reads as one of the counts made, not a mean
        metrics["autodiff.tape_nodes_per_step"] = (
            statistics.median_low(counts["tape_nodes"] or [0]), "count")
        metrics["autodiff.eval_nodes_per_view"] = (
            statistics.median_low(counts["view_nodes"] or [0]), "count")
        metrics["model.conv_mflop_per_step"] = (mflop, "MFLOP-computed")
        metrics["trace.overhead_pct"] = (overhead, "%")
        record["counts"] = {k: sorted(set(v)) for k, v in counts.items()}
        record["trace_file"] = write_json(
            OUT / "traces" / f"{stem}.json",
            {"fields": tracing.SPAN_FIELDS, "spans": tracer.spans})
    else:
        values = {"step_ms_p50": statistics.median(out.norm_ms),
                  "views_per_s": out.views * 1000.0 / sum(out.norm_ms),
                  "setup_s": statistics.median(s for _, s in setups),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    record["errors"] = out.errors
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, record


def write_json(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    ref_start = host_ref_ms()
    stem = f"{args.workload}_trace{args.trace}_seed{args.seed}_{time.time_ns()}"
    result, record = run(args, stem)
    env["loadavg_end"] = os.getloadavg()
    record["env"] = env
    record["host_ref_ms"] = {"start": ref_start, "end": host_ref_ms()}
    record["result"] = result
    path = write_json(OUT / "results" / f"{stem}.json", record)
    for error in record["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} samples={record['samples']} "
          f"wall={record['wall']} host_ref_ms={record['host_ref_ms']} "
          f"record={path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
