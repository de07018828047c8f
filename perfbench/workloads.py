"""Seeded workloads of the temsphere benchmark: inputs, ops and checks.

A workload turns a seed into an endless stream of ops.  run.py times
only ``execute(op)``; ``check(op, result)`` runs afterwards, outside the
timed interval, and returns a list of failure messages.  Ops come in
cycles: each cycle holds one op of every stratum (the input classes that
set an op's cost), in a seeded order, so any whole number of cycles has the
same cost mix whatever the seed.  The seed draws everything else: the
physical parameters, geometry, gates and noise.

Run ``python3 perfbench/workloads.py --write-reference`` to recapture the
stored forward-sweep reference values (``reference_forward.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from temsphere import _io, core, inversion, modes, pipeline
from temsphere.inversion import DecayModel
from temsphere.excitation import TimeSeries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference_forward.json")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _lu(rng, lo, hi) -> float:
    """Log-uniform draw on [lo, hi]."""
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _close(actual, expected, rtol) -> bool:
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    if a.shape != b.shape:
        return False
    # equal infinities match: classify misfits overflow to inf for far candidates
    return bool(np.all((a == b) | (np.abs(a - b) <= rtol * np.abs(b) + 1e-300)))


def _cycles(rng, strata_count, make_op):
    """Endless ops: every cycle runs each stratum once, in a seeded order.

    Per stratum, a size fraction walks the golden-ratio sequence from a
    seeded start, so sizes stay evenly spread over any number of cycles.
    """
    starts = rng.uniform(size=strata_count)
    cycle = 0
    while True:
        for s in rng.permutation(strata_count):
            yield make_op(rng, int(s), (starts[s] + cycle * GOLDEN) % 1.0)
        cycle += 1


# ---------------------------------------------------------------------------
# forward-sweep


# transmitter, pulse, max_l, max_n range, nonmagnetic (mu_r = 1).  The two
# costliest strata take similar time (~0.4 s), so p90 falls inside their
# common range rather than on the gap between two cost classes.
FORWARD_STRATA = (
    ("coaxial", "step", 1, 400, 600, True),
    ("coaxial", "linear", 1, 200, 500, False),
    ("coaxial", "table", 2, 200, 400, True),
    ("coaxial", "step", 3, 100, 200, False),
    ("coaxial", "linear", 6, 100, 115, False),
    ("coaxial", "table", 4, 240, 300, False),
    ("uniform", "step", 1, 400, 600, True),
    ("uniform", "table", 2, 150, 300, False),
    ("polygon", "step", 1, 100, 150, False),
    ("polygon", "linear", 2, 100, 120, True),
)
GATES = 120
THETA_STRATUM = 0  # mu_r = 1, l = 1, coaxial step-off: exact theta-series oracle
FD_GRID = 2000
FD_COUNT = 3
FD_RTOL = 1e-4  # the second-order FD solver is within 3e-6 of the roots here
REFERENCE_SEED = 20030306
REFERENCE_RTOL = 1e-9
# Ramp (linear or table) durations, in tau_c.  Ramps of 1e-6..1e-4 tau_c make
# forward_model raise "blend mismatch" on some scenarios (see README.md), so
# the workload draws ramps long enough that the composite keeps the mode sum.
RAMP_LO, RAMP_HI = 1e-4, 1e-3


def forward_scenario(rng, stratum: int, size: float) -> dict:
    """One forward-model scenario: a config dict and absolute gate times."""
    tx_kind, ramp, max_l, n_lo, n_hi, nonmagnetic = FORWARD_STRATA[stratum]
    radius = _lu(rng, 0.02, 0.15)
    rho = _lu(rng, 1.6e-8, 1e-7)
    mu_r = 1.0 if nonmagnetic else _lu(rng, 1.0, 300.0)
    tau_c = core.MU_0 * mu_r * radius**2 / rho
    current = rng.uniform(0.5, 5.0)
    pulse = {"base_current_a": current, "windings": int(rng.integers(1, 4)), "ramp": ramp}
    duration = tau_c * _lu(rng, RAMP_LO, RAMP_HI)
    if ramp == "step":
        pulse["t0_s"] = 0.0
    elif ramp == "linear":
        pulse.update(tau_r_s=duration, t0_s=duration)
    else:
        pulse.update(table=[[0.0, current], [0.5 * duration, 0.4 * current], [duration, 0.0]],
                     t0_s=duration)
    if tx_kind == "coaxial":
        tx = {"kind": "circular", "radius_m": _lu(rng, 0.2, 0.6),
              "height_m": rng.uniform(0.2, 0.6), "windings": 1}
    elif tx_kind == "uniform":
        tx = {"kind": "uniform", "amplitude_a_per_m": rng.uniform(0.5, 2.0)}
    else:
        cx, cy = rng.uniform(-0.1, 0.1, size=2)
        wx, wy = rng.uniform(0.2, 0.5, size=2)
        h = rng.uniform(0.2, 0.5)
        tx = {"kind": "polygon", "windings": 1, "vertices_m": [
            [cx - wx, cy - wy, h], [cx + wx, cy - wy, h],
            [cx + wx, cy + wy, h], [cx - wx, cy + wy, h]]}
    config = {
        "target": {"radius_m": radius, "resistivity_ohm_m": rho, "mu_r": mu_r},
        "background": {"resistivity_ohm_m": _lu(rng, 10.0, 1000.0), "mu_r": 1.0},
        "standoff_m": rng.uniform(0.3, 1.0),
        "pulse": pulse,
        "loops": {
            "transmitter": tx,
            "receiver": {"kind": "circular", "radius_m": _lu(rng, 0.1, 0.4),
                         "height_m": rng.uniform(0.2, 0.6),
                         "windings": int(rng.integers(1, 4))},
        },
        "options": {"max_l": max_l, "max_n": int(round(n_lo + (n_hi - n_lo) * size))},
    }
    # gates relative to tau_c, so early, blend, intermediate and late all occur
    rel = np.geomspace(_lu(rng, 2e-6, 1e-5), _lu(rng, 3.0, 10.0), GATES)
    return {"stratum": stratum, "config": config, "gates": pulse["t0_s"] + rel * tau_c}


def theta_mode_sum(s):
    """sum_{n>=1} exp(-n^2 pi^2 s), exactly, for s = t/tau_c > 0.

    Small s uses the Jacobi-theta (Poisson) form
    (sqrt(1/(pi s)) theta_3(0, e^{-1/s}) - 1)/2; large s the direct sum.
    Both tails are dropped below double precision.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    k = np.arange(1, 40)[:, None]
    poisson = (np.sqrt(1.0 / (np.pi * s)) * (1.0 + 2.0 * np.exp(-k**2 / s).sum(0)) - 1.0) / 2.0
    direct = np.exp(-(k**2) * np.pi**2 * s).sum(0)
    return np.where(s < 0.25, poisson, direct)


def check_theta(result) -> list:
    """Mode sum vs the exact nonmagnetic l=1 series, within the truncation bound."""
    series = result.mode_series
    v1 = result.coefficients.voltages[0]
    exact = v1 * theta_mode_sum((series.times_s - result.markers.t0_s) / result.markers.tau_c_s)
    bound = series.metadata["truncation_bound"]
    err = np.abs(series.values - exact)
    bad = err > bound + 1e-9 * np.abs(exact)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"theta oracle: gate {i} error {err[i]:.3g} > bound {bound[i]:.3g}"]
    return []


def check_fd_rates(library) -> list:
    """First rates of every sector vs the radial finite-difference solver."""
    failures = []
    for l in range(1, library.max_l + 1):
        rates = [m.decay_rate_per_s for m in library.sector(l)[:FD_COUNT]]
        fd = modes.radial_fd_decay_rates(library.target, library.background_mu_r, l,
                                         FD_GRID, len(rates))
        if not _close(rates, fd, FD_RTOL):
            failures.append(f"FD oracle: sector l={l} rates {rates} vs {fd.tolist()}")
    return failures


def check_reference(values: list, reference: list) -> list:
    """Composite values of the recorded scenarios vs the stored reference."""
    if len(values) != len(reference):
        return [f"reference: {len(values)} scenarios, expected {len(reference)}"]
    return [f"reference: scenario {i} differs beyond rtol {REFERENCE_RTOL}"
            for i, (v, r) in enumerate(zip(values, reference))
            if not _close(v, r, REFERENCE_RTOL)]


def reference_values() -> list:
    """Composite values of the first cycle of the recorded reference seed."""
    ops = _cycles(np.random.default_rng(REFERENCE_SEED), len(FORWARD_STRATA), forward_scenario)
    out = []
    for _ in FORWARD_STRATA:
        op = next(ops)
        config = _io.parse_config(op["config"])
        out.append(pipeline.forward_model(config, op["gates"]).composite.values.tolist())
    return out


class Workload:
    """Interface run.py uses; ``execute`` is the only timed call."""

    name = ""
    cycle = 1  # ops per cycle of strata

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Untimed set-up of inputs shared by all ops."""

    def stream(self, rng):
        """Endless iterator of ops drawn from ``rng``."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> list:
        """Failure messages for one op's result; empty when it is correct."""
        raise NotImplementedError

    def final_checks(self) -> list:
        """Failure messages of checks that run once, after the ops."""
        return []


class ForwardSweep(Workload):
    """op = one pipeline.forward_model on a newly generated scenario."""

    name = "forward-sweep"
    cycle = len(FORWARD_STRATA)

    def stream(self, rng):
        for op in _cycles(rng, len(FORWARD_STRATA), forward_scenario):
            op["parsed"] = _io.parse_config(op["config"])
            yield op

    def execute(self, op):
        return pipeline.forward_model(op["parsed"], op["gates"])

    def check(self, op, result) -> list:
        failures = check_fd_rates(result.library)
        if op["stratum"] == THETA_STRATUM:
            failures += check_theta(result)
        return failures

    def final_checks(self) -> list:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            reference = json.load(fh)["composite_values"]
        return check_reference(reference_values(), reference)


# ---------------------------------------------------------------------------
# classify-library


def _library_entry(radius, rho, mu_r, max_n):
    name = f"a{radius * 100:g}cm-rho{rho * 1e8:g}e-8-mu{mu_r:g}"
    return name, {
        "target": {"radius_m": radius, "resistivity_ohm_m": rho, "mu_r": mu_r},
        "background": {"resistivity_ohm_m": 100.0, "mu_r": 1.0},
        "standoff_m": 0.5,
        "pulse": {"base_current_a": 1.0, "windings": 1, "ramp": "step", "t0_s": 0.0},
        "loops": {
            "transmitter": {"kind": "circular", "radius_m": 0.4, "height_m": 0.3, "windings": 1},
            "receiver": {"kind": "circular", "radius_m": 0.25, "height_m": 0.35, "windings": 1},
        },
        "options": {"max_l": 1, "max_n": max_n},
    }


# radius x resistivity x mu_r: 18 candidates that share two (l, mu_c/mu_b) sectors
CLASSIFY_LIBRARY = tuple(
    _library_entry(a, rho, mu, 200)
    for a in (0.03, 0.05, 0.08) for rho in (1.7e-8, 2.8e-8, 7.0e-8) for mu in (1.0, 60.0)
)
CLASSIFY_GATES = np.geomspace(1e-5, 1.0, 100)
CLASSIFY_NOISE = 0.02


def observation(clean, rng):
    """Planted observation: clean values with 2% relative Gaussian noise."""
    return TimeSeries(CLASSIFY_GATES, clean * (1.0 + CLASSIFY_NOISE * rng.standard_normal(clean.size)))


class ClassifyLibrary(Workload):
    """op = one inversion.classify_library over the fixed candidate library."""

    name = "classify-library"
    cycle = 1  # every op forward-models the whole library

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.candidates = [(n, _io.parse_config(c)) for n, c in CLASSIFY_LIBRARY]
        self._clean = {}

    def clean(self, index):
        if index not in self._clean:
            self._clean[index] = pipeline.forward_values(self.candidates[index][1], CLASSIFY_GATES)
        return self._clean[index]

    def prepare(self):
        for index in range(len(self.candidates)):
            self.clean(index)

    def stream(self, rng):
        while True:
            for index in rng.permutation(len(self.candidates)):
                yield {"planted": self.candidates[index][0],
                       "data": observation(self.clean(index), rng)}

    def execute(self, op):
        return inversion.classify_library(op["data"], self.candidates, pipeline.forward_values,
                                          noise_rel=CLASSIFY_NOISE)

    def check(self, op, result) -> list:
        if result.best != op["planted"]:
            return [f"classify: top-1 {result.best}, planted {op['planted']}"]
        return []


# ---------------------------------------------------------------------------
# fit-decays


# (terms, t^(-1/2) term).  One and two rates with a t^(-1/2) term are left
# out: fit_exponentials settles in a wrong minimum (misfit 3-7x the noise,
# reported converged) on ~0.1-0.3% of such fits (see README.md), and a
# benchmark workload must not fail at the parent commit.  k=2 appears twice
# so that the median op falls inside one cost class, not between two.
FIT_STRATA = ((1, False), (2, False), (2, False), (3, False), (3, True))
FIT_GATES = 60
# An op passes when the fit reproduces the data at the planted noise level
# and every rate is within FIT_LOG_RTOL[k] of the planted one in log space
# (|ln(fitted/planted)|).  Over 400-1000 fits per stratum the worst were
# 0.004 (k=1), 0.19 (k=2) and 0.6 (k=3): the fastest of three rates is
# weakly determined at 1-2% noise.
FIT_LOG_RTOL = {1: 0.05, 2: 0.35, 3: 1.1}
# A fit at the noise level reads 1.0 +- 0.1 at 60 gates; one shallow local
# minimum (rates within tolerance) read 1.58, wrong models read 3.6-7.
FIT_MAX_CHI = 2.0


def decay_case(rng, stratum: int, size: float) -> dict:
    """Synthetic decay: k well-separated rates, optional t^(-1/2) term, noise."""
    k, power = FIT_STRATA[stratum]
    rates = _lu(rng, 20.0, 2000.0) * np.cumprod([1.0] + [_lu(rng, 8.0, 15.0) for _ in range(k - 1)])
    amps = rng.uniform(0.5, 2.0, size=k)
    t = np.geomspace(0.1 / rates[-1], 8.0 / rates[0], FIT_GATES)
    y = np.exp(-np.outer(t, rates)) @ amps
    if power:
        # 10% of the signal at the first gate, dominant after the slowest decay;
        # at 30% it masks the fastest of three rates in ~0.2% of draws
        y += 0.1 * amps.sum() * np.sqrt(t[0] / t)
    noise = rng.uniform(0.01, 0.02)
    y *= 1.0 + noise * rng.standard_normal(t.size)
    return {"stratum": stratum, "k": k, "power": power, "rates": rates, "noise": noise,
            "seed": int(rng.integers(0, 2**31)), "data": TimeSeries(t, y)}


def check_fit(case, result, noise_rel) -> list:
    """Planted rates recovered, and residuals at the planted noise level.

    ``result.converged`` is not required: it reports only the lowest start's
    L-BFGS-B status, which is False on about 8% of good one-term fits; it is
    counted by the traced run as inversion.fit_converged_frac.
    """
    chi = result.misfit * noise_rel / case["noise"]
    if chi > FIT_MAX_CHI:
        return [f"fit: misfit {chi:.3g} x planted noise > {FIT_MAX_CHI}"]
    if len(result.model.rates) != case["k"]:
        return [f"fit: {len(result.model.rates)} rates, planted {case['k']}"]
    err = np.max(np.abs(np.log(np.asarray(result.model.rates) / case["rates"])))
    if err > FIT_LOG_RTOL[case["k"]]:
        return [f"fit: log rate error {err:.3g} > {FIT_LOG_RTOL[case['k']]} (k={case['k']})"]
    return []


class FitDecays(Workload):
    """op = one inversion.fit_exponentials on a seeded synthetic decay."""

    name = "fit-decays"
    cycle = len(FIT_STRATA)

    def stream(self, rng):
        return _cycles(rng, len(FIT_STRATA), decay_case)

    def execute(self, op):
        init = DecayModel(power_amplitude=1.0) if op["power"] else None
        return inversion.fit_exponentials(op["data"], op["k"], init=init, seed=op["seed"],
                                          noise_rel=op["noise"])

    def check(self, op, result) -> list:
        return check_fit(op, result, op["noise"])


# ---------------------------------------------------------------------------
# cli-session


CLI_COMMANDS = ("modes", "simulate", "early", "fit", "classify")
CLI_LIBRARY = tuple(_library_entry(a, rho, 1.0, 100) for a in (0.03, 0.06) for rho in (1.7e-8, 7e-8))
PAYLOADS = {
    "modes": ("modes.json",),
    "simulate": ("simulate.csv",),
    "early": ("early.json", "early.csv", "early_scan.csv"),
    "fit": ("fit.json",),
    "classify": ("classify.json",),
}
CLI_TIMEOUT_S = 120
CLI_FIT_NOISE_REL = 0.01  # the fit command's fixed relative noise weight


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _write_csv(path, series):
    _io.atomic_write_text(path, "t_s,value\n" + "".join(
        f"{t!r},{v!r}\n" for t, v in zip(series.times_s.tolist(), series.values.tolist())))


class CliSession(Workload):
    """op = one fresh-interpreter ``python -m temsphere.cli`` command."""

    name = "cli-session"
    cycle = len(CLI_COMMANDS)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = os.path.join(workdir, "inputs")
        self._digests = {}
        self._reference = {}
        self._op = 0

    def prepare(self):
        rng = np.random.default_rng([self.seed, 7])
        os.makedirs(self.inputs, exist_ok=True)
        scenario = forward_scenario(rng, THETA_STRATUM, 0.0)
        scenario["config"]["options"] = {"max_l": 2, "max_n": int(rng.integers(60, 101))}
        self.config = scenario["config"]
        tau_c = core.MU_0 * self.config["target"]["radius_m"] ** 2 / self.config["target"][
            "resistivity_ohm_m"]
        self.gates = f"{1e-4 * tau_c!r},{5.0 * tau_c!r},120"
        self.early_gates = f"{1e-4 * tau_c!r},{1e-2 * tau_c!r},40"
        self.scan = f"{rng.uniform(0.3, 0.6)!r},{rng.uniform(0.2, 1.2)!r},{rng.uniform(0, 6)!r}"
        # one rate: a fit whose cost hardly depends on the draw, so the
        # command mix costs the same for every seed
        self.decay = decay_case(rng, FIT_STRATA.index((1, False)), 0.0)
        self.planted = int(rng.integers(len(CLI_LIBRARY)))
        name, planted = CLI_LIBRARY[self.planted]
        clean = pipeline.forward_values(_io.parse_config(planted), CLASSIFY_GATES)
        self.observed = observation(clean, rng)
        self.paths = {k: os.path.join(self.inputs, f) for k, f in (
            ("config", "config.json"), ("decay", "decay.csv"),
            ("library", "library.json"), ("observed", "observed.csv"))}
        _io.write_json(self.paths["config"], self.config)
        _io.write_json(self.paths["library"], {"candidates": [
            {"name": n, "config": c} for n, c in CLI_LIBRARY]})
        _write_csv(self.paths["decay"], self.decay["data"])
        _write_csv(self.paths["observed"], self.observed)

    def arguments(self, command, out) -> list:
        p = self.paths
        if command == "modes":
            return ["modes", "--config", p["config"], "--out", out]
        if command == "simulate":
            return ["simulate", "--config", p["config"], "--out", out, "--gates", self.gates]
        if command == "early":
            return ["early", "--config", p["config"], "--out", out,
                    "--gates", self.early_gates, "--scan", self.scan]
        if command == "fit":
            return ["fit", "--data", p["decay"], "--out", out, "--terms", "1",
                    "--seed", str(self.seed)]
        return ["classify", "--data", p["observed"], "--library", p["library"], "--out", out]

    def stream(self, rng):
        while True:
            for command in CLI_COMMANDS:
                self._op += 1
                out = os.path.join(self.workdir, f"op{self._op}")
                yield {"command": command, "out": out, "argv": self.arguments(command, out)}

    def execute(self, op, trace_path=None):
        if trace_path is None:
            argv = [sys.executable, "-m", "temsphere.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_path]
        return subprocess.run(argv + op["argv"], cwd=ROOT, env=cli_env(), capture_output=True,
                              timeout=CLI_TIMEOUT_S)

    def check(self, op, result) -> list:
        try:
            if result.returncode != 0:
                return [f"cli {op['command']}: exit {result.returncode}: "
                        f"{result.stderr.decode(errors='replace').strip()[-200:]}"]
            return self.check_payload(op["command"], op["out"])
        finally:
            shutil.rmtree(op["out"], ignore_errors=True)

    def check_payload(self, command, out) -> list:
        paths = [os.path.join(out, f) for f in PAYLOADS[command]]
        digest = hashlib.sha256()
        for path in paths:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        previous = self._digests.setdefault(command, digest.hexdigest())
        failures = [] if previous == digest.hexdigest() else [
            f"cli {command}: payload bytes differ from the first run of the command"]
        return failures + getattr(self, f"_check_{command}")(*paths)

    def reference(self, command):
        """In-process library result the CLI payload must reproduce."""
        if command not in self._reference:
            config = _io.parse_config(self.config)
            if command == "modes":
                value = pipeline.build_library(config)
            elif command == "simulate":
                lo, hi, n = self.gates.split(",")
                value = pipeline.forward_model(config, np.geomspace(float(lo), float(hi), int(n)))
            elif command == "fit":
                value = inversion.fit_exponentials(self.decay["data"], 1, seed=self.seed)
            else:
                value = inversion.classify_library(
                    self.observed, [(n, _io.parse_config(c)) for n, c in CLI_LIBRARY],
                    pipeline.forward_values, noise_rel=CLASSIFY_NOISE)
            self._reference[command] = value
        return self._reference[command]

    def _check_modes(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            written = json.load(fh)["modes"]
        expected = self.reference("modes").modes
        got = [[m["x"], m["lambda_per_s"], m["norm"]] for m in written]
        want = [[m.x, m.decay_rate_per_s, m.norm] for m in expected]
        return [] if _close(got, want, 1e-12) else ["cli modes: modes.json differs from library"]

    def _check_simulate(self, path):
        values = _io.read_timeseries_csv(path).values
        if _close(values, self.reference("simulate").composite.values, 1e-12):
            return []
        return ["cli simulate: simulate.csv differs from forward_model"]

    def _check_early(self, report_path, csv_path, scan_path):
        with open(report_path, "r", encoding="utf-8") as fh:
            amplitude = json.load(fh)["amplitude_v_sqrt_s"]
        expected = self.reference("simulate").composite.metadata["early_amplitude_v_sqrt_s"]
        series = _io.read_timeseries_csv(csv_path)
        failures = []
        if not _close(amplitude, expected, 1e-12):
            failures.append("cli early: amplitude differs from forward_model's")
        # the early law is A / sqrt(t - t_tr), and t_tr = 0 for this step-off
        if not _close(series.values, amplitude / np.sqrt(series.times_s), 1e-12):
            failures.append("cli early: early.csv is not amplitude / sqrt(t)")
        with open(scan_path, "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != 1 + series.times_s.size:
            failures.append("cli early: early_scan.csv row count differs from gates")
        return failures

    def _check_fit(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        expected = self.reference("fit")
        failures = check_fit(self.decay, expected, CLI_FIT_NOISE_REL)
        if not (report["converged"] == expected.converged
                and _close(report["model"]["rates_per_s"], expected.model.rates, 1e-9)):
            failures.append("cli fit: fit.json differs from fit_exponentials")
        return failures

    def _check_classify(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        expected = self.reference("classify")
        failures = []
        if report["best"] != CLI_LIBRARY[self.planted][0]:
            failures.append(f"cli classify: top-1 {report['best']}, "
                            f"planted {CLI_LIBRARY[self.planted][0]}")
        if ([r[0] for r in report["ranking"]] != [r[0] for r in expected.ranking]
                or not _close([r[1] for r in report["ranking"]],
                              [r[1] for r in expected.ranking], 1e-9)):
            failures.append("cli classify: classify.json differs from classify_library")
        return failures


WORKLOADS = {w.name: w for w in (ForwardSweep, ClassifyLibrary, FitDecays, CliSession)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/workloads.py --write-reference")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "rtol": REFERENCE_RTOL,
                   "composite_values": reference_values()}, fh)
        fh.write("\n")
