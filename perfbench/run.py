"""The wdss benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-mincut --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source tree of the repository: the script builds
the package in place (`setup.py build_ext --inplace`, which compiles the
optional kernels when the tools for them exist) and imports it from `src/`.

Each operation is one `wdss` command run in-process through
`wdss.cli.main(argv)` with `--format machine` and stdout captured, so the
cli layer is measured too.  The load is one process, one thread and one
client in a closed loop: the next operation starts when the last one ends.
Whole passes of the workload run until `--seconds` have passed and the
workload's minimum number of passes is done.  Outputs are checked after
the timed window.

Every reported time is in reference seconds.  On a shared machine the
processor switches, for seconds at a time, between speeds up to 2x apart as
other tenants come and go, and the mix drifts over an hour.  So a fixed
pure-Python calibration task runs between operations (outside their
timing), and each operation's wall-clock time is scaled by REFERENCE_S over
the mean time of the calibration samples taken nearest to it: a time reads
as it would on a machine where the task takes REFERENCE_S.  The wall-clock
figures and the calibration are kept in the full results.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it traces every layer (see spans.py) and reports per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Full results and the spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = ("cli", "model", "flowgraph", "mincut", "kernels", "_kernels_py",
           "capacity_bound", "tradeoff", "rlnc")
SETUP_REPEATS = 15
# The calibration task's mean time on the reference machine, a 2-vCPU
# shared VM running Python 3.11.
REFERENCE_S = 0.0045
# The calibration task runs before an operation when this many seconds have
# passed since it last ran: about 5% of the window.
CALIBRATE_EVERY_S = 0.1
# An operation's time is scaled by this many calibration samples, the
# ones taken nearest to it.
CALIBRATION_NEAR = 4
# No pass starts after this many seconds, so that a run of slow code still
# ends within the three minutes a run may take.
WINDOW_LIMIT_S = 120.0
# The tail is the time with this many operations beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def build():
    """Build the package in place; fail when there is no source tree."""
    if not os.path.isfile(os.path.join(SRC, "wdss", "__init__.py")):
        raise BenchError(f"no wdss source tree under {ROOT}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(".bench_build", "tmp")],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout + proc.stderr)


def load_wdss():
    """Import wdss afresh from the source tree."""
    for name in [m for m in sys.modules
                 if m == "wdss" or m.startswith("wdss.")]:
        del sys.modules[name]
    wdss = importlib.import_module("wdss")
    if os.path.dirname(os.path.abspath(wdss.__file__)) != os.path.join(SRC,
                                                                       "wdss"):
        raise BenchError(f"imported wdss from {wdss.__file__}, not {SRC}")
    mods = {m.lstrip("_"): importlib.import_module("wdss." + m)
            for m in MODULES}
    return SimpleNamespace(wdss=wdss, **mods)


def calibration_task():
    """Fixed integer and Fraction arithmetic, the two kinds of work wdss
    does in Python, that no change to wdss can speed up or slow down."""
    total = 0
    for i in range(40000):
        total += i * i % 7
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i % 13 + 3)
    return total, acc


def calibrate():
    """Seconds the calibration task takes now; the collector is off, so its
    time does not depend on how much the program keeps alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Calibration:
    """Calibration samples taken between operations, with when each began."""

    def __init__(self):
        self.starts = []
        self.samples = []
        self.last = -CALIBRATE_EVERY_S

    def maybe_sample(self):
        start = time.perf_counter()
        if start - self.last >= CALIBRATE_EVERY_S:
            self.starts.append(start)
            self.samples.append(calibrate())
            self.last = time.perf_counter()

    def reference_times(self, ops):
        """Each operation's time in reference seconds, scaled by the mean of
        the CALIBRATION_NEAR samples that lie nearest to its interval."""
        times = []
        for op in ops:
            j = bisect.bisect_left(self.starts, op.start)
            window = range(max(0, j - CALIBRATION_NEAR),
                           min(len(self.starts), j + CALIBRATION_NEAR))
            near = sorted(window, key=lambda i: max(
                op.start - self.starts[i], self.starts[i] - op.end))
            mean = statistics.fmean(self.samples[i]
                                    for i in near[:CALIBRATION_NEAR])
            times.append(op.seconds * REFERENCE_S / mean)
        return times


def set_up(workload, seed):
    """Import plus input generation up to the first operation, repeated,
    each time scaled by a calibration just before it; returns the last
    set-up, the median time in reference seconds and the median wall-clock
    time."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        cal = calibrate()
        t0 = time.perf_counter()
        lib = load_wdss()
        wl = workloads.WORKLOADS[workload](lib, seed)
        first = wl.next_pass()
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * REFERENCE_S / cal)
    return (lib, wl, first, statistics.median(scaled),
            statistics.median(times))


def run_op(lib, op):
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = lib.cli.main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            op.seconds += time.perf_counter() - t0
        op.rcs.append(rc)
        op.outs.append(out.getvalue())
        op.errs.append(err.getvalue())


def measure(lib, wl, first, seconds, tracer, cal):
    """Run whole passes until the window and the minimum passes are done;
    returns the operations, the passes and the window's wall-clock
    seconds."""
    ops, batch, passes = [], first, 0
    start = time.perf_counter()
    while True:
        for op in batch:
            cal.maybe_sample()
            if tracer is not None:
                tracer.op = len(ops)
            op.start = time.perf_counter()
            run_op(lib, op)
            op.end = time.perf_counter()
            ops.append(op)
        passes += 1
        elapsed = time.perf_counter() - start
        if ((passes >= wl.min_passes and elapsed >= seconds)
                or elapsed >= WINDOW_LIMIT_S):
            cal.maybe_sample()
            return ops, passes, elapsed
        batch = wl.next_pass()


def verify(wl, ops, seed):
    """Per-operation checks, then the oracle cross-checks on a seeded
    sample; returns {op index: [problem, ...]}."""
    problems = {}
    for i, op in enumerate(ops):
        try:
            found = wl.check(op)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = [f"output not as expected: {exc!r}"]
        if found:
            problems[i] = found
    rng = random.Random(f"cross-check:{wl.name}:{seed}")
    for i, found in wl.cross_check(ops, rng).items():
        problems.setdefault(i, []).extend(found)
    return problems


def tail(times):
    """(time, percentile, operations beyond it) at the highest percentile
    with TAIL_BEYOND operations beyond it; the maximum when there are too
    few operations."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return (ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n,
            TAIL_BEYOND)


def commit():
    """The checkout's commit, when it is a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(times, setup_s, rss_mb):
    """End-to-end metrics from the operations' times, and the tail's
    percentile and count.  The client is a closed loop, so operations per
    second are the reciprocal of the mean time."""
    tail_s, tail_pct, beyond = tail(times)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"percentile": tail_pct, "beyond": beyond, "ops": len(times)}


def per_layer(lib, tracer, ops, times):
    """Per-layer metrics, their times scaled as the operations' were."""
    wall = sum(op.seconds for op in ops)
    metrics, problems, root_share = spans.layer_metrics(
        tracer, len(ops), wall, sum(times) / wall)
    metrics["trace.ops_per_s"] = (len(times) / sum(times), "1/s")
    speedups, kernel_problems = workloads.backend_speedups(lib)
    metrics.update((name, (value, "ratio"))
                   for name, value in speedups.items())
    return metrics, problems + kernel_problems, root_share


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        build()
        lib, wl, first, setup_s, setup_wall_s = set_up(args.workload,
                                                       args.seed)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        replaced = spans.install(tracer, lib)
    cal = Calibration()
    ops, passes, window_s = measure(lib, wl, first, args.seconds, tracer,
                                    cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        spans.uninstall(replaced)
    times = cal.reference_times(ops)
    scale = sum(times) / sum(op.seconds for op in ops)

    problems = verify(wl, ops, args.seed)
    wall, _ = end_to_end([op.seconds for op in ops], setup_wall_s, rss_mb)
    root_share = None
    if tracer is not None:
        metrics, trace_problems, root_share = per_layer(lib, tracer, ops,
                                                        times)
        tail_info = None
    else:
        metrics, tail_info = end_to_end(times, setup_s, rss_mb)
        trace_problems = []

    failed = len(problems)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "kernel_backend": lib.wdss.KERNEL_BACKEND,
        "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "passes": passes, "window_s": window_s,
        "ops": len(ops), "ops_by_kind": kinds, "failed": failed,
        "calibration": {"samples": len(cal.samples),
                        "mean_s": statistics.fmean(cal.samples),
                        "reference_s": REFERENCE_S, "mean_scale": scale},
    }
    print(f"wdss benchmark  {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  {passes} passes  {len(ops)} ops  "
          f"{window_s:.2f} s  times x{scale:.3f} to reference seconds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if tail_info is not None:
        print(f"  {'failed_share':36s} {failed / len(ops):14.6g} share")
        print(f"  op_tail_s is the p{tail_info['percentile']:.2f} time, with "
              f"{tail_info['beyond']} of {len(ops)} ops beyond it")
        print("  wall-clock: " + ", ".join(
            f"{name} {value:.6g}" for name, (value, _) in wall.items()
            if name != "peak_rss_mb"))
    if root_share is not None:
        print(f"  the cli.main spans cover {root_share:.4f} of the "
              "harness-timed operation time; the rest is the root "
              "wrapper's own cost")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for i, found in sorted(problems.items())[:10]:
        print(f"op {i} {ops[i].argvs}: {'; '.join(found)}", file=sys.stderr)
    for found in trace_problems:
        print(f"trace: {found}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not trace_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w") as fh:
        json.dump({"stamp": stamp, "tail": tail_info,
                   "wall_clock": {name: value
                                  for name, (value, _) in wall.items()},
                   "root_span_share": root_share,
                   "ops_kind_start_wall_reference": [
                       [op.kind, op.start, op.seconds, t]
                       for op, t in zip(ops, times)],
                   "calibration_start_seconds": list(zip(cal.starts,
                                                         cal.samples)),
                   "problems": {str(i): p for i, p in problems.items()},
                   "trace_problems": trace_problems, **result}, fh, indent=2)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans_{tag}"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
