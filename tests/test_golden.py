"""Golden outputs: the `modes`, `simulate` and `early` payloads of six pinned configs.

Each case runs the CLI in-process and compares its payloads with files
recorded under ``tests/golden/<case>/``: ``modes.json`` must be
byte-identical and ``simulate.csv`` must keep its gates, regime and quality
columns and match every value at rtol 1e-12.  ``early.json`` must list the
same harmonics with the same fields, every scalar at rtol 1e-12 and every
per-harmonic complex coefficient within 1e-12 of the largest magnitude that
field takes over the harmonics (a purely imaginary coefficient may carry
rounding noise in its real part); ``early.csv`` and ``early_scan.csv``
match at rtol 1e-12.  The cases span coaxial, polygon and uniform-field
transmitters, step, linear and table pulses, max_l 1-4 and mu_r 1 and 60,
so a faster spectral core, excitation path or early-time layer has to
reproduce the physics it replaces.

The same configs pin the coupling table that the mode sum and the early
law share: its terms against the staged early-time pipeline at three
background permeabilities, the early.json voltage terms summing to the
amplitude, and the `excitation.line_integrals` calls: a forward op makes
one per loop, for the coupling table's keys, with no Bessel function and
no staged pipeline, and `early` one more for the staged illumination.

Regenerate the recorded files only for an intended change of results:
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import json
import os
import sys

import numpy as np
import pytest

from temsphere import _io, cli, earlytime, excitation, modes, pipeline, special
from temsphere.core import MU_0, scales_for
from temsphere.earlytime import early_signal, run_early_pipeline
from temsphere.excitation import coupling_table

from oracles import staged_early_signal

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12

COAXIAL_TX = {"kind": "circular", "radius_m": 0.4, "height_m": 0.3, "windings": 1}
COAXIAL_RX = {"kind": "circular", "radius_m": 0.25, "height_m": 0.35, "windings": 2}
SQUARE_TX = {"kind": "polygon", "windings": 1, "vertices_m": [
    [-0.25, -0.3, 0.3], [0.35, -0.3, 0.3], [0.35, 0.3, 0.3], [-0.25, 0.3, 0.3]]}
TRIANGLE_RX = {"kind": "polygon", "windings": 3, "vertices_m": [
    [0.3, 0.05, 0.35], [-0.2, 0.3, 0.35], [-0.15, -0.3, 0.35]]}
UNIFORM_TX = {"kind": "uniform", "amplitude_a_per_m": 1.5}


def _config(radius, rho, mu_r, pulse, tx, rx, max_l, max_n):
    return {
        "target": {"radius_m": radius, "resistivity_ohm_m": rho, "mu_r": mu_r},
        "background": {"resistivity_ohm_m": 100.0, "mu_r": 1.0},
        "standoff_m": 0.5,
        "pulse": pulse,
        "loops": {"transmitter": tx, "receiver": rx},
        "options": {"max_l": max_l, "max_n": max_n},
    }


def _ramp(kind, tau_c, frac=3e-4):
    d = frac * tau_c
    if kind == "step":
        return {"base_current_a": 2.0, "windings": 2, "ramp": "step", "t0_s": 0.0}
    if kind == "linear":
        return {"base_current_a": 2.0, "windings": 1, "ramp": "linear",
                "tau_r_s": d, "t0_s": d}
    return {"base_current_a": 1.5, "windings": 1, "ramp": "table", "t0_s": d,
            "table": [[0.0, 1.5], [0.5 * d, 0.6], [d, 0.0]]}


def _case(radius, rho, mu_r, ramp, tx, rx, max_l, max_n):
    tau_c = MU_0 * mu_r * radius**2 / rho
    cfg = _config(radius, rho, mu_r, _ramp(ramp, tau_c), tx, rx, max_l, max_n)
    t0 = cfg["pulse"]["t0_s"]
    gates = f"{t0 + 1e-5 * tau_c!r},{t0 + 5.0 * tau_c!r},48"
    return cfg, gates


def _scan(name):
    """Field-scan point r,theta,phi: off axis, at twice the target radius."""
    radius = CASES[name][0]["target"]["radius_m"]
    return f"{2.0 * radius!r},0.7,0.4"


CASES = {
    "coaxial-step-l1-mu1": _case(0.05, 2.8e-8, 1.0, "step", COAXIAL_TX, COAXIAL_RX, 1, 450),
    "coaxial-linear-l3-mu60": _case(0.04, 7.0e-8, 60.0, "linear", COAXIAL_TX, COAXIAL_RX, 3, 60),
    "polygon-table-l2-mu1": _case(0.06, 1.7e-8, 1.0, "table", SQUARE_TX, COAXIAL_RX, 2, 50),
    "polygon-step-l4-mu60": _case(0.05, 2.8e-8, 60.0, "step", SQUARE_TX, TRIANGLE_RX, 4, 40),
    "uniform-step-l1-mu60": _case(0.03, 7.0e-8, 60.0, "step", UNIFORM_TX, COAXIAL_RX, 1, 150),
    "uniform-table-l2-mu1": _case(0.08, 2.8e-8, 1.0, "table", UNIFORM_TX, TRIANGLE_RX, 2, 80),
}


def _run(name, out_dir, commands):
    """Write the case's config and run each CLI ``command`` into ``out_dir``."""
    config, gates = CASES[name]
    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    for command in commands:
        argv = [command, "--config", cfg_path, "--out", out_dir]
        if command != "modes":
            argv += ["--gates", gates]
        if command == "early":
            argv += ["--scan", _scan(name)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{name}: `{command}` exited {code}")


def run_case(name, out_dir):
    """Run `modes` and `simulate`; return the paths of their payloads."""
    _run(name, out_dir, ("modes", "simulate"))
    return os.path.join(out_dir, "modes.json"), os.path.join(out_dir, "simulate.csv")


EARLY_FILES = ("early.json", "early.csv", "early_scan.csv")


def run_early_case(name, out_dir):
    """Run `early` with gates and a field scan; return its payload paths."""
    _run(name, out_dir, ("early",))
    return [os.path.join(out_dir, f) for f in EARLY_FILES]


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return lines[0], [r[0] for r in rows], np.array([float(r[1]) for r in rows]), [
        r[2:] for r in rows
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payloads(name, tmp_path):
    modes_path, csv_path = run_case(name, str(tmp_path))
    ref_dir = os.path.join(GOLDEN_DIR, name)
    with open(modes_path, "rb") as fh, open(os.path.join(ref_dir, "modes.json"), "rb") as ref:
        assert fh.read() == ref.read(), "modes.json differs from the recorded library"
    header, times, values, flags = _read_csv(csv_path)
    ref_header, ref_times, ref_values, ref_flags = _read_csv(
        os.path.join(ref_dir, "simulate.csv")
    )
    assert header == ref_header
    assert times == ref_times
    assert flags == ref_flags
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, ref_values, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_model_and_payloads_build_no_mode(name, tmp_path, monkeypatch):
    # the library is read as columns end to end: no per-root Mode object
    def built(self):
        raise AssertionError(f"Mode built: {self}")

    monkeypatch.setattr(modes.Mode, "__post_init__", built)
    config, gates = CASES[name]
    lo, hi, count = gates.split(",")
    result = pipeline.forward_model(
        _io.parse_config(config), np.geomspace(float(lo), float(hi), int(count)))
    assert len(result.library) == config["options"]["max_l"] * config["options"]["max_n"]
    run_case(name, str(tmp_path))


def _count_line_integrals(monkeypatch, *modules):
    """List of (loop, keys) per `excitation.line_integrals` call through ``modules``."""
    calls = []
    line_integrals = excitation.line_integrals

    def counted(loop, radius_m, keys):
        calls.append((loop, list(keys)))
        return line_integrals(loop, radius_m, keys)

    for module in modules:
        monkeypatch.setattr(module, "line_integrals", counted)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_model_reads_one_coupling_table(name, monkeypatch):
    # on a built library, a forward op evaluates no Bessel function, runs no
    # staged early-time pipeline and makes one line_integrals call per loop,
    # each for the coupling table's keys (a uniform field has no transmitter loop)
    config, gates = CASES[name]
    config = _io.parse_config(config)
    library = pipeline.build_library(config)

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    calls = _count_line_integrals(monkeypatch, excitation)
    for module in (special, modes, excitation):
        monkeypatch.setattr(module, "spherical_bessel_j", forbidden, raising=False)
    monkeypatch.setattr(pipeline, "run_early_pipeline", forbidden)
    lo, hi, count = gates.split(",")
    result = pipeline.forward_model(
        config, np.geomspace(float(lo), float(hi), int(count)), library)
    keys = list(result.coefficients.coupling)
    loops = [config.receiver] if name.startswith("uniform") else [config.transmitter,
                                                                 config.receiver]
    assert calls == [(loop, keys) for loop in loops]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", sorted(CASES))
def test_early_evaluates_each_line_integral_once(name, tmp_path, monkeypatch):
    # each table evaluates each of its line integrals once, in one call per
    # loop: the staged illumination needs every m of a polygon transmitter,
    # the coupling table m = 0 alone when either loop is circular
    calls = _count_line_integrals(monkeypatch, excitation, earlytime)
    run_early_case(name, str(tmp_path))
    assert all(len(keys) == len(set(keys)) for _, keys in calls)
    config = _io.parse_config(CASES[name][0])
    tx, rx = config.transmitter, config.receiver
    if name == "polygon-table-l2-mu1":  # square transmitter, circular receiver, max_l 2
        every_m = [(1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
        assert calls == [(tx, every_m), (tx, [(1, 0), (2, 0)]), (rx, [(1, 0), (2, 0)])]
    elif name.startswith("uniform"):
        assert calls == [(rx, [(1, 0)])]
    else:  # both loops circular, or both polygons: every table has the same keys
        keys = calls[0][1]
        assert calls == [(tx, keys), (tx, keys), (rx, keys)]
        max_l = config.max_l
        assert len(keys) == (max_l if tx.kind == "circular" else max_l * (max_l + 2))


def _assert_early_report(got, ref):
    assert sorted(got) == sorted(ref)
    for key in ("amplitude_v_sqrt_s", "t_ref_s", "window_s"):
        np.testing.assert_allclose(got[key], ref[key], rtol=RTOL, atol=0.0)
    assert list(got["harmonics"]) == list(ref["harmonics"]), "harmonic keys differ"
    fields = sorted(next(iter(ref["harmonics"].values())))
    for h in ref["harmonics"]:
        assert sorted(got["harmonics"][h]) == fields
    for f in fields:
        want = np.array([complex(*ref["harmonics"][h][f]) for h in ref["harmonics"]])
        have = np.array([complex(*got["harmonics"][h][f]) for h in ref["harmonics"]])
        scale = np.max(np.abs(want))
        assert np.all(np.abs(have - want) <= RTOL * scale), f"early.json field {f} differs"


def _read_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    numeric = [[c for c in r if c not in ("ok", "transient", "late")] for r in rows]
    flags = [[c for c in r if c in ("ok", "transient", "late")] for r in rows]
    return lines[0], np.array(numeric, dtype=float), flags


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_early_payloads(name, tmp_path):
    report_path, csv_path, scan_path = run_early_case(name, str(tmp_path))
    ref_dir = os.path.join(GOLDEN_DIR, name)
    with open(report_path, "r", encoding="utf-8") as fh, open(
        os.path.join(ref_dir, "early.json"), "r", encoding="utf-8"
    ) as ref:
        _assert_early_report(json.load(fh), json.load(ref))
    for path in (csv_path, scan_path):
        header, values, flags = _read_table(path)
        ref_header, ref_values, ref_flags = _read_table(
            os.path.join(ref_dir, os.path.basename(path))
        )
        assert header == ref_header
        assert flags == ref_flags
        assert values.shape == ref_values.shape
        assert np.all(np.isfinite(values))
        np.testing.assert_allclose(values, ref_values, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_early_voltage_terms_sum_to_amplitude(name, tmp_path):
    report_path, _, _ = run_early_case(name, str(tmp_path))
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    terms = [h["voltage_term_v_sqrt_s"][0] for h in report["harmonics"].values()]
    amplitude = report["amplitude_v_sqrt_s"]
    assert abs(sum(terms) - amplitude) <= 1e-12 * abs(amplitude)


@pytest.mark.parametrize("mu_b", [1.0, 3.0, 40.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_coupling_table_matches_staged_pipeline(name, mu_b):
    # composed, the pipeline stages cancel l and mu_b: each harmonic's term
    # is the coupling table's, whatever the background permeability
    raw = json.loads(json.dumps(CASES[name][0]))
    raw["background"]["mu_r"] = mu_b
    config = _io.parse_config(raw)
    target, tx, rx = config.target, config.transmitter, config.receiver
    current = config.pulse.effective_current_a
    markers = pipeline.markers_for(config)
    staged = staged_early_signal(
        run_early_pipeline(target, mu_b, tx, config.max_l, source_current_a=current),
        rx, markers, scales_for(target), target)
    table = early_signal(coupling_table(target, tx, rx, config.max_l, current), rx, markers,
                         target)
    keys = set(staged.per_harmonic) | set(table.per_harmonic)
    top = max(abs(v) for v in staged.per_harmonic.values())
    for lm in keys:
        diff = abs(table.per_harmonic.get(lm, 0.0) - staged.per_harmonic.get(lm, 0.0))
        assert diff <= 1e-13 * top, lm
    assert table.amplitude_v_sqrt_s == pytest.approx(staged.amplitude_v_sqrt_s, rel=1e-13)


def write_golden():
    import shutil
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            modes_path, csv_path = run_case(name, tmp)
            ref_dir = os.path.join(GOLDEN_DIR, name)
            os.makedirs(ref_dir, exist_ok=True)
            shutil.copyfile(modes_path, os.path.join(ref_dir, "modes.json"))
            shutil.copyfile(csv_path, os.path.join(ref_dir, "simulate.csv"))
            for path in run_early_case(name, tmp):
                shutil.copyfile(path, os.path.join(ref_dir, os.path.basename(path)))
        print(f"wrote {ref_dir}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_golden()
