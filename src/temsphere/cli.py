"""Deterministic command-line front end.

Commands: modes, simulate, early, fit, classify.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numerical failure.  Identical
inputs and seed reproduce byte-identical output payloads; timestamps live
only in the manifest.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from ._io import (
    OPTION_RANGES,
    ConfigError,
    DataError,
    build_manifest,
    check_integer,
    file_digest,
    load_config,
    read_timeseries_csv,
    write_json,
    write_timeseries_csv,
)
from .core import NumericalError, ParameterError, scales_for
from .earlytime import early_voltage, surface_current_closed_form
from .inversion import DecayModel, classify_library, fit_exponentials, fit_power_law
from .pipeline import build_library, early_response, forward_model, forward_values, markers_for


def _parse_gates(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError("--gates", "expected tmin,tmax,count")
    if lo <= 0 or hi <= lo or count < 2:
        raise ConfigError("--gates", "need 0 < tmin < tmax and count >= 2")
    return np.geomspace(lo, hi, count)


def _parse_window(spec: str) -> tuple:
    try:
        lo, hi = (float(x) for x in spec.split(","))
    except ValueError:
        raise ConfigError("--window", "expected tlo,thi")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigError("--window", "need finite tlo < thi")
    return lo, hi


def _apply_overrides(config, args):
    from dataclasses import replace

    for name, flag in (("max_l", "--max-l"), ("max_n", "--max-n")):
        value = getattr(args, name, None)
        if value is not None:
            value = check_integer(flag, value, *OPTION_RANGES[name])
            config = replace(config, **{name: value})
    return config


def cmd_modes(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    library = build_library(config)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "modes.json")
    library.save(out_path)
    manifest = build_manifest(
        "modes",
        config.raw,
        args.seed,
        inputs={"config": file_digest(args.config)},
        outputs={"modes.json": file_digest(out_path)},
    )
    write_json(os.path.join(args.out, "manifest_modes.json"), manifest.to_dict())
    print(f"wrote {out_path} ({len(library)} modes)")
    return 0


def cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    gates = _parse_gates(args.gates)
    result = forward_model(config, gates)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "simulate.csv")
    write_timeseries_csv(
        out_path,
        result.composite,
        extra_columns={
            "regime": result.composite.metadata["regime"],
            "quality": result.composite.metadata["quality"],
        },
    )
    manifest = build_manifest(
        "simulate",
        config.raw,
        args.seed,
        inputs={"config": file_digest(args.config)},
        outputs={"simulate.csv": file_digest(out_path)},
    )
    write_json(os.path.join(args.out, "manifest_simulate.json"), manifest.to_dict())
    print(f"wrote {out_path} ({gates.size} gates)")
    return 0


def cmd_early(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    markers = markers_for(config)
    scales = scales_for(config.target)
    pipeline, signal = early_response(config, markers)
    report = {
        "amplitude_v_sqrt_s": signal.amplitude_v_sqrt_s,
        "t_ref_s": signal.t_ref_s,
        "window_s": list(signal.window_s),
        "harmonics": {},
    }
    for (l, m) in sorted(pipeline.dphi_prefactor.decaying):
        entry = {
            "illumination": _c2l(pipeline.illumination.growing.get((l, m), 0.0)),
            "static_interior": _c2l(pipeline.static.interior.get((l, m), 0.0)),
            "static_induced": _c2l(pipeline.static.decaying.get((l, m), 0.0)),
            "post_quench_exterior": _c2l(pipeline.phi0.decaying.get((l, m), 0.0)),
            "surface_current": _c2l(pipeline.current.coeffs.get((l, m), 0.0)),
            "surface_current_unit_closed_form": _c2l(
                surface_current_closed_form(l, pipeline.mu_c, pipeline.mu_b)
            ),
            "potential_prefactor_per_sqrt": _c2l(
                pipeline.dphi_prefactor.decaying[(l, m)]
            ),
            "voltage_term_v_sqrt_s": _c2l(signal.per_harmonic.get((l, m), 0.0)),
        }
        report["harmonics"][f"{l},{m}"] = entry
    os.makedirs(args.out, exist_ok=True)
    out_json = os.path.join(args.out, "early.json")
    write_json(out_json, report)
    outputs = {"early.json": file_digest(out_json)}
    if args.gates:
        gates = _parse_gates(args.gates)
        series = early_voltage(signal, gates, markers)
        out_csv = os.path.join(args.out, "early.csv")
        write_timeseries_csv(
            out_csv, series, extra_columns={"quality": series.metadata["quality"]}
        )
        outputs["early.csv"] = file_digest(out_csv)
    if args.scan:
        if not args.gates:
            raise ConfigError("--scan", "field scans need --gates")
        out_scan = os.path.join(args.out, "early_scan.csv")
        _write_field_scan(
            out_scan, args.scan, pipeline, markers, scales, config, _parse_gates(args.gates)
        )
        outputs["early_scan.csv"] = file_digest(out_scan)
    manifest = build_manifest(
        "early", config.raw, args.seed,
        inputs={"config": file_digest(args.config)}, outputs=outputs,
    )
    write_json(os.path.join(args.out, "manifest_early.json"), manifest.to_dict())
    print(f"wrote {out_json}")
    return 0


def _c2l(value) -> list:
    c = complex(value)
    return [c.real, c.imag]


def _write_field_scan(path, scan_spec, pipeline, markers, scales, config, gates):
    """Exterior field magnitudes at one point over the gates (SI units)."""
    from ._io import _fmt, atomic_write_text
    from .earlytime import external_fields

    try:
        r, theta, phi = (float(x) for x in scan_spec.split(","))
    except ValueError:
        raise ConfigError("--scan", "expected r,theta,phi (m, rad, rad)")
    a = config.target.radius_m
    if r <= a:
        raise ConfigError("--scan", "scan point must lie outside the target")
    lines = ["r,theta,phi,t_s,dA,dB,dE"]
    for t in gates:
        tau = (t - markers.t_tr_s) / markers.tau_c_s
        f = external_fields(pipeline.dphi_prefactor, r / a, theta, phi, tau, pipeline.mu_b)
        da = float(np.linalg.norm(f.dA.ravel())) * scales.factor("a")
        db = float(np.linalg.norm(f.dB.ravel())) * scales.factor("b")
        de = float(np.linalg.norm(f.dE.ravel())) * scales.factor("e")
        lines.append(
            ",".join([_fmt(r), _fmt(theta), _fmt(phi), _fmt(t), _fmt(da), _fmt(db), _fmt(de)])
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def cmd_fit(args) -> int:
    window = _parse_window(args.window) if args.window else None
    data = read_timeseries_csv(args.data)
    init = None
    if args.power:
        init = DecayModel(power_amplitude=1.0, rates=(), amplitudes=())
    result = fit_exponentials(data, args.terms, init=init, seed=args.seed)
    report = {
        "converged": result.converged,
        "misfit": result.misfit,
        "seed": result.seed,
        "model": {
            "baseline": result.model.baseline,
            "power_amplitude": result.model.power_amplitude,
            "power_exponent": result.model.power_exponent,
            "amplitudes": list(result.model.amplitudes),
            "rates_per_s": list(result.model.rates),
        },
        "diagnostics": result.diagnostics,
        "inputs": {"data": file_digest(args.data)},
    }
    if window:
        plaw = fit_power_law(data, window)
        report["power_law_window"] = {
            "amplitude": plaw.amplitude,
            "exponent": plaw.exponent,
            "residual": plaw.residual,
        }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "fit.json")
    write_json(out_path, report)
    manifest = build_manifest(
        "fit", {"terms": args.terms, "power": bool(args.power)}, args.seed,
        inputs={"data": file_digest(args.data)},
        outputs={"fit.json": file_digest(out_path)},
    )
    write_json(os.path.join(args.out, "manifest_fit.json"), manifest.to_dict())
    print(f"wrote {out_path}")
    return 0


def cmd_classify(args) -> int:
    import json

    data = read_timeseries_csv(args.data)
    with open(args.library, "r", encoding="utf-8") as fh:
        try:
            lib = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<library>", f"invalid JSON: {exc}") from exc
    if "candidates" not in lib or not lib["candidates"]:
        raise ConfigError("candidates", "library must list candidates")
    from ._io import parse_config

    candidates = []
    for k, entry in enumerate(lib["candidates"]):
        if "name" not in entry or "config" not in entry:
            raise ConfigError(f"candidates[{k}]", "need name and config")
        candidates.append((entry["name"], parse_config(entry["config"])))
    result = classify_library(
        data, candidates, forward_values, noise_rel=args.noise_rel,
        free_gain=args.free_gain,
    )
    report = {
        "ranking": [[name, misfit] for name, misfit in result.ranking],
        "best": result.best,
        "margin": result.margin if math.isfinite(result.margin) else None,
        "seed": args.seed,
        "noise_rel": args.noise_rel,
        "free_gain": bool(args.free_gain),
        "inputs": {"data": file_digest(args.data), "library": file_digest(args.library)},
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "classify.json")
    write_json(out_path, report)
    manifest = build_manifest(
        "classify", lib, args.seed,
        inputs={"data": file_digest(args.data), "library": file_digest(args.library)},
        outputs={"classify.json": file_digest(out_path)},
    ).to_dict()
    manifest["rejected"] = result.rejected
    write_json(os.path.join(args.out, "manifest_classify.json"), manifest)
    print(f"wrote {out_path} (best: {result.best})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temsphere",
        description="TDEM forward modeling and inversion for spherical targets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-l", dest="max_l", type=int, default=None)
        p.add_argument("--max-n", dest="max_n", type=int, default=None)

    p = sub.add_parser("modes", help="compute and store the mode library")
    common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("simulate", help="three-regime composite voltage CSV")
    common(p)
    p.add_argument("--gates", required=True, help="tmin,tmax,count (log-spaced, s)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("early", help="early-time report and optional voltage CSV")
    common(p)
    p.add_argument("--gates", default=None, help="tmin,tmax,count (log-spaced, s)")
    p.add_argument("--scan", default=None, help="field-scan point r,theta,phi (m, rad)")
    p.set_defaults(func=cmd_early)

    p = sub.add_parser("fit", help="fit decay model to a measured CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--terms", type=int, default=2)
    p.add_argument("--power", action="store_true", help="include a t^-1/2 term")
    p.add_argument("--window", default=None, help="power-law window tlo,thi (s)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="rank candidate targets against data")
    p.add_argument("--data", required=True)
    p.add_argument("--library", required=True, help="candidate library JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-rel", dest="noise_rel", type=float, default=0.02)
    p.add_argument("--free-gain", dest="free_gain", action="store_true")
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
