"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: a short run of every workload, untraced and traced, prints every
   metric that BENCHMARK.json names, with its unit, and reports no failure.
2. Counts: a second traced run with the same seed repeats every count
   metric exactly.
3. Checkers: an output perturbed here (never in the program) and fed to each
   workload's checker is counted as a failure.

Exits 1 if any check fails.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SEED = 3
SMOKE_SECONDS = 1

failures = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SMOKE_SEED), "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
        return {}
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke_and_counts():
    from tracer import COUNT_METRICS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = bench(workload, trace)
            metrics = out.get("metrics", {})
            expect(all(metrics.get(m["name"], {}).get("unit") == m["unit"] for m in listed)
                   and len(metrics) == len(listed),
                   f"{workload} trace={trace}: every metric printed with its unit")
            expect(out.get("correct") is True and out.get("failed") == 0,
                   f"{workload} trace={trace}: correct, no failed op")
            if trace:
                again = bench(workload, 1).get("metrics", {})
                expect(all(again.get(n) == metrics.get(n) for n in COUNT_METRICS),
                       f"{workload}: count metrics repeat exactly across two traced runs")


def perturbed_outputs():
    import tempfile

    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl
    from temsphere.inversion import Classification
    from temsphere.modes import ModeLibrary

    rng = np.random.default_rng(SMOKE_SEED)

    # forward-sweep: theta oracle, FD oracle, stored reference
    sweep = wl.ForwardSweep(SMOKE_SEED, "")
    op = next(o for o in sweep.stream(rng) if o["stratum"] == wl.THETA_STRATUM)
    result = sweep.execute(op)
    expect(sweep.check(op, result) == [], "forward-sweep: unperturbed op passes its checks")
    result.mode_series.values = result.mode_series.values * (1.0 + 1e-3)
    expect(wl.check_theta(result) != [], "forward-sweep: mode sum off by 1e-3 fails theta check")
    lib = result.library
    shifted = ModeLibrary(lib.target, lib.background_mu_r, tuple(
        dataclasses.replace(m, decay_rate_per_s=m.decay_rate_per_s * 1.001) for m in lib.modes),
        lib.max_l, lib.max_n)
    expect(wl.check_fd_rates(shifted) != [], "forward-sweep: rates off by 1e-3 fail FD check")
    with open(wl.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)["composite_values"]
    off = [list(v) for v in reference]
    off[3][60] *= 1.0 + 1e-7
    expect(wl.check_reference(reference, reference) == [], "forward-sweep: reference matches itself")
    expect(wl.check_reference(off, reference) != [], "forward-sweep: value off by 1e-7 fails reference")

    # classify-library: top-1 must be the planted candidate
    classify = wl.ClassifyLibrary(SMOKE_SEED, "")
    op = next(classify.stream(rng))
    result = classify.execute(op)
    expect(classify.check(op, result) == [], "classify-library: unperturbed op passes")
    swapped = Classification(ranking=result.ranking[1::-1] + result.ranking[2:], margin=0.0)
    expect(classify.check(op, swapped) != [], "classify-library: wrong top-1 fails")

    # fit-decays: rates and misfit
    fit = wl.FitDecays(SMOKE_SEED, "")
    op = next(o for o in fit.stream(rng) if o["k"] == 2)
    result = fit.execute(op)
    expect(fit.check(op, result) == [], "fit-decays: unperturbed op passes")
    model = dataclasses.replace(result.model, rates=tuple(2.0 * r for r in result.model.rates))
    expect(fit.check(op, dataclasses.replace(result, model=model)) != [],
           "fit-decays: rates off by 2x fail")
    expect(fit.check(op, dataclasses.replace(result, misfit=3.0 * result.misfit)) != [],
           "fit-decays: misfit 3x the noise fails")

    # cli-session: exit code, payload values, repeat byte-identity
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest-") as workdir:
        cli = wl.CliSession(SMOKE_SEED, workdir)
        cli.prepare()
        ops = cli.stream(rng)
        for op in itertools.islice(ops, len(wl.CLI_COMMANDS)):
            expect(cli.check(op, cli.execute(op)) == [], f"cli-session {op['command']}: passes")
        op = next(ops)  # modes
        result = cli.execute(op)
        failed = subprocess.CompletedProcess(result.args, 1, result.stdout, result.stderr)
        expect(cli.check(op, failed) != [], "cli-session: nonzero exit fails")
        op = next(ops)  # simulate
        result = cli.execute(op)
        path = os.path.join(op["out"], "simulate.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        t, value, *rest = lines[5].split(",")
        lines[5] = ",".join([t, repr(float(value) * (1.0 + 1e-9))] + rest)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        found = cli.check(op, result)
        expect(any("bytes differ" in f for f in found), "cli-session: changed payload bytes fail")
        expect(any("differs from forward_model" in f for f in found),
               "cli-session: changed payload value fails")


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)  # as in run.py
    sys.path.insert(0, HERE)
    perturbed_outputs()
    smoke_and_counts()
    if failures:
        print(f"{len(failures)} self-test check(s) failed", file=sys.stderr)
    sys.exit(1 if failures else 0)
