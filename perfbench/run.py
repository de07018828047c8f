"""temsphere benchmark: one workload per run, one closed-loop client, seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload forward-sweep --seed 1 --seconds 20 --trace 0

Workloads: forward-sweep, classify-library, fit-decays, cli-session (see
perfbench/README.md).  With ``--trace 0`` the run measures set-up, then
runs ops back to back until ``--seconds`` have passed and a whole cycle of
ops is complete, checks every op's output outside the timed interval, and
prints the end-to-end metrics.  With ``--trace 1`` it runs a fixed number of
ops with every public temsphere function wrapped by the tracer, alternating
with untraced blocks, and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = "1"  # <= nproc; one thread keeps small-matrix BLAS timings steady
SETUP_RUNS = 5
TRACE_BLOCKS = {"forward-sweep": 2, "classify-library": 4, "fit-decays": 3, "cli-session": 2}
PROBE_TIMEOUT_S = 120
# Machine-speed calibration: a fixed pure-Python loop plus a fixed loop of
# small numpy calls, timed between ops.  On a shared host the CPU's
# speed drifts by +-20% over tens of seconds; every reported time is rescaled
# to the speed at which the calibration takes CAL_REF_S, its typical time on
# the 2-core host the bounds were set on.  Uncalibrated figures are printed too.
CAL_ITERATIONS = 50_000
CAL_NUMPY_CALLS = 600
CAL_REF_S = 0.0055

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def first_op(workload, seed: int):
    """The untimed set-up op: stratum 0, so its cost class is the same for every seed."""
    import numpy as np

    for op in workload.stream(np.random.default_rng([seed, 0])):
        if op.get("stratum", 0) == 0:
            return op


def setup(workload, seed: int):
    """Run the first, untimed op; return its failures."""
    op = first_op(workload, seed)
    return workload.check(op, workload.execute(op))


def measure_setup(args, workload) -> tuple:
    """Median seconds from a fresh interpreter to the end of the first op."""
    times, failures = [], []
    cal = steady_calibrate()
    for _ in range(SETUP_RUNS):
        if args.workload == "cli-session":
            # every op is a fresh interpreter: set-up is the first command
            op = first_op(workload, args.seed)
            start = perf_counter()
            result = workload.execute(op)
            elapsed = perf_counter() - start
            failures += workload.check(op, result)
        else:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
            start = perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
                line = probe.stdout.readline()
                elapsed = perf_counter() - start
                try:
                    probe.wait(timeout=PROBE_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    probe.kill()
                    probe.wait()
            if probe.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {probe.returncode}): {line.strip()}")
        after = steady_calibrate()
        times.append(elapsed * 2.0 * CAL_REF_S / (cal + after))
        cal = after
    return statistics.median(times), failures


def calibrate() -> float:
    """Seconds a fixed pure-Python loop and a fixed numpy loop take right now."""
    import numpy as np

    base = np.linspace(0.1, 3.0, 64)
    start = perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    x = base
    for _ in range(CAL_NUMPY_CALLS):
        x = np.sin(x) + base
    return perf_counter() - start


def steady_calibrate() -> float:
    """Median of five calibrations: one sample right after a child exits can be 2x slow."""
    return statistics.median(calibrate() for _ in range(5))


def run_op(workload, op, tracer=None, **kwargs):
    """Execute one op, traced if a tracer is given; return (seconds, failures).

    Only ``execute`` is timed and traced; the check runs afterwards.
    """
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        result = workload.execute(op, **kwargs)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return elapsed, [error]
    try:
        return elapsed, workload.check(op, result)
    except Exception as exc:
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def timed_run(args, workload):
    """Closed loop: ops back to back, a calibration and the check between them."""
    import numpy as np

    ops = workload.stream(np.random.default_rng([args.seed, 1]))
    latencies, busy, failures, failed = [], 0.0, [], 0
    raw_wall, raw_ops = 0.0, 0.0
    cal = calibrate()
    while True:
        start = perf_counter()
        op = next(ops)
        begin = perf_counter()
        elapsed, op_failures = run_op(workload, op)
        segment = begin - start + elapsed  # input generation and the op
        after = calibrate()
        speed = 2.0 * CAL_REF_S / (cal + after)
        cal = after
        latencies.append(elapsed * speed)
        busy += segment * speed
        raw_wall += segment
        raw_ops += elapsed
        failed += bool(op_failures)
        failures += op_failures
        if len(latencies) % workload.cycle == 0 and raw_wall >= args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    ms = sorted(1e3 * t for t in latencies)
    metrics = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "ops_per_s": (len(ms) - failed) / busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(ms),
    }
    print(f"# {args.workload} uncalibrated: {len(ms)} ops in {raw_wall:.3f} s, "
          f"mean op {1e3 * raw_ops / len(ms):.3f} ms, calibrated mean {1e3 * sum(latencies) / len(ms):.3f} ms")
    return metrics, len(ms), failed, failures


def traced_run(args, workload):
    """Alternate untraced and traced blocks of ops; derive per-layer metrics."""
    import numpy as np
    from tracer import Tracer

    tracer = Tracer()
    ops = workload.stream(np.random.default_rng([args.seed, 1]))
    cli = args.workload == "cli-session"
    os.makedirs(OUT, exist_ok=True)
    child_trace = os.path.join(workload.workdir, "child-trace.json")
    times = {False: 0.0, True: 0.0}
    attempted, failed, failures = 0, 0, []
    cal = calibrate()
    for _ in range(TRACE_BLOCKS[args.workload]):
        for traced in (False, True):
            for _ in range(workload.cycle):
                op = next(ops)
                attempted += 1
                if traced:
                    tracer.op_id = tracer.ops
                    tracer.ops += 1
                if traced and cli:
                    elapsed, op_failures = run_op(workload, op, trace_path=child_trace)
                    with open(child_trace, encoding="utf-8") as fh:
                        child = json.load(fh)
                    os.remove(child_trace)
                    tracer.merge(child, tracer.op_id)
                    tracer.cli.append((child["import_s"], child["command_s"], elapsed))
                else:
                    elapsed, op_failures = run_op(workload, op, tracer if traced else None)
                after = calibrate()
                times[traced] += elapsed * 2.0 * CAL_REF_S / (cal + after)
                cal = after
                failed += bool(op_failures)
                failures += op_failures
    metrics = tracer.metrics(overhead_frac=times[True] / times[False] - 1.0)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    return metrics, attempted, failed, failures


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("forward-sweep", "classify-library", "fit-decays", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "temsphere")):
        print(f"perfbench: no temsphere package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    import warnings

    # fit starts probe extreme rates; numpy overflow warnings there are expected
    warnings.simplefilter("ignore", RuntimeWarning)
    import workloads
    from tracer import METRICS

    workdir = os.path.join(TMP, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            setup(workload, args.seed)
            print("ready", flush=True)
            return 0
        info = provenance(args.seed)
        print("# provenance " + json.dumps(info, sort_keys=True))
        workload.prepare()
        failures = []
        if not args.trace:
            setup_s, failures = measure_setup(args, workload)
        if args.workload != "cli-session":
            failures += setup(workload, args.seed)  # warm: lazy set-up done before timing
        if args.trace:
            metrics, attempted, failed, op_failures = traced_run(args, workload)
            units = {name: unit for name, (unit, _) in METRICS.items()}
        else:
            metrics, attempted, failed, op_failures = timed_run(args, workload)
            metrics["setup_s"] = setup_s
            units = END_TO_END
        failures += op_failures
        failures += workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(TMP) and not os.listdir(TMP):
            os.rmdir(TMP)
    for message in failures[:20]:
        print(f"# FAILED {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
