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
from dataclasses import asdict, replace

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
    parse_config,
    read_json,
    read_timeseries_csv,
    write_csv,
    write_json,
    write_timeseries_csv,
)
from .core import NumericalError, ParameterError, scales_for
from .earlytime import early_voltage, external_fields, surface_current_closed_form
from .inversion import DecayModel, classify_library, fit_exponentials, fit_power_law
from .pipeline import build_library, early_response, forward_model, forward_values, markers_for


def _parse_gates(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(",")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError("--gates", "expected tmin,tmax,count")
    if not (math.isfinite(hi) and 0 < lo < hi and count >= 2):
        raise ConfigError("--gates", "need finite 0 < tmin < tmax and count >= 2")
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
    for name, flag in (("max_l", "--max-l"), ("max_n", "--max-n")):
        value = getattr(args, name, None)
        if value is not None:
            value = check_integer(flag, value, *OPTION_RANGES[name])
            config = replace(config, **{name: value})
    return config


def _publish(args, command: str, payloads: dict, record: dict, inputs: dict,
             note: str = "", **extra) -> int:
    """Write the payloads and ``manifest_<command>.json`` under ``--out``.

    Commands call this once every payload is computed, so a command that
    fails writes nothing.  ``payloads`` maps file name to a writer taking
    the file's path, ``inputs`` maps input name to its sha256 (commands
    that quote them in a payload hand over the same dict), ``record`` is
    the config hashed into the manifest and ``extra`` adds manifest fields.
    """
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for name, write in payloads.items():
        path = os.path.join(args.out, name)
        write(path)
        outputs[name] = file_digest(path)
    manifest = build_manifest(command, record, args.seed, inputs=inputs, outputs=outputs)
    write_json(os.path.join(args.out, f"manifest_{command}.json"), {**manifest, **extra})
    first = os.path.join(args.out, next(iter(payloads)))
    print(f"wrote {first} ({note})" if note else f"wrote {first}")
    return 0


def cmd_modes(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    library = build_library(config)
    return _publish(args, "modes", {"modes.json": library.save}, config.raw,
                    {"config": file_digest(args.config)}, f"{len(library)} modes")


def cmd_simulate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    gates = _parse_gates(args.gates)
    composite = forward_model(config, gates).composite
    columns = {name: composite.metadata[name] for name in ("regime", "quality")}
    return _publish(
        args, "simulate",
        {"simulate.csv": lambda path: write_timeseries_csv(path, composite, columns)},
        config.raw, {"config": file_digest(args.config)}, f"{gates.size} gates",
    )


def cmd_early(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    gates = _parse_gates(args.gates) if args.gates else None
    if args.scan and gates is None:
        raise ConfigError("--scan", "field scans need --gates")
    point = _parse_scan(args.scan, config.target.radius_m) if args.scan else None
    markers = markers_for(config)
    pipeline, signal = early_response(config, markers)
    report = {
        "amplitude_v_sqrt_s": signal.amplitude_v_sqrt_s,
        "t_ref_s": signal.t_ref_s,
        "window_s": list(signal.window_s),
        "harmonics": {},
    }
    for (l, m) in sorted(pipeline.dphi_prefactor.decaying):
        report["harmonics"][f"{l},{m}"] = {
            "illumination": _c2l(pipeline.illumination.growing.get((l, m), 0.0)),
            "static_interior": _c2l(pipeline.static.interior.get((l, m), 0.0)),
            "static_induced": _c2l(pipeline.static.decaying.get((l, m), 0.0)),
            "post_quench_exterior": _c2l(pipeline.phi0.decaying.get((l, m), 0.0)),
            "surface_current": _c2l(pipeline.current.coeffs.get((l, m), 0.0)),
            "surface_current_unit_closed_form": _c2l(
                surface_current_closed_form(l, pipeline.mu_c, pipeline.mu_b)
            ),
            "potential_prefactor_per_sqrt": _c2l(pipeline.dphi_prefactor.decaying[(l, m)]),
            "voltage_term_v_sqrt_s": _c2l(signal.per_harmonic.get((l, m), 0.0)),
        }
    payloads = {"early.json": lambda path: write_json(path, report)}
    if gates is not None:
        series = early_voltage(signal, gates)
        quality = {"quality": series.metadata["quality"]}
        payloads["early.csv"] = lambda path: write_timeseries_csv(path, series, quality)
    if point is not None:
        scan = _field_scan(point, gates, pipeline, markers, config.target)
        payloads["early_scan.csv"] = lambda path: write_csv(path, scan)
    return _publish(args, "early", payloads, config.raw, {"config": file_digest(args.config)})


def _c2l(value) -> list:
    c = complex(value)
    return [c.real, c.imag]


def _parse_scan(spec: str, radius_m: float) -> tuple:
    try:
        r, theta, phi = (float(x) for x in spec.split(","))
    except ValueError:
        raise ConfigError("--scan", "expected r,theta,phi (m, rad, rad)")
    if not all(map(math.isfinite, (r, theta, phi))):
        raise ConfigError("--scan", "r, theta and phi must be finite")
    if r <= radius_m:
        raise ConfigError("--scan", "scan point must lie outside the target")
    return r, theta, phi


def _field_scan(point, gates, pipeline, markers, target) -> dict:
    """CSV columns of the exterior field magnitudes at one point over the gates (SI)."""
    r, theta, phi = point
    scales = scales_for(target)
    fields = [
        external_fields(pipeline.dphi_prefactor, r / target.radius_m, theta, phi,
                        (t - markers.t_tr_s) / markers.tau_c_s, pipeline.mu_b)
        for t in gates
    ]
    columns = {name: np.full(gates.size, v) for name, v in zip(("r", "theta", "phi"), point)}
    columns["t_s"] = gates
    for name, kind in (("dA", "a"), ("dB", "b"), ("dE", "e")):
        norms = np.array([np.linalg.norm(getattr(f, name).ravel()) for f in fields])
        columns[name] = norms * scales.factor(kind)
    return columns


def cmd_fit(args) -> int:
    window = _parse_window(args.window) if args.window else None
    data = read_timeseries_csv(args.data)
    init = DecayModel(power_amplitude=1.0, rates=(), amplitudes=()) if args.power else None
    result = fit_exponentials(data, args.terms, init=init, seed=args.seed)
    inputs = {"data": file_digest(args.data)}
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
        "inputs": inputs,
    }
    if window:
        report["power_law_window"] = asdict(fit_power_law(data, window))
    return _publish(args, "fit", {"fit.json": lambda path: write_json(path, report)},
                    {"terms": args.terms, "power": bool(args.power)}, inputs)


def cmd_classify(args) -> int:
    data = read_timeseries_csv(args.data)
    lib = read_json(args.library, "<library>")
    if "candidates" not in lib or not lib["candidates"]:
        raise ConfigError("candidates", "library must list candidates")
    candidates = []
    for k, entry in enumerate(lib["candidates"]):
        if "name" not in entry or "config" not in entry:
            raise ConfigError(f"candidates[{k}]", "need name and config")
        candidates.append((entry["name"], parse_config(entry["config"])))
    result = classify_library(
        data, candidates, forward_values, noise_rel=args.noise_rel,
        free_gain=args.free_gain,
    )
    inputs = {"data": file_digest(args.data), "library": file_digest(args.library)}
    report = {
        "ranking": [[name, misfit] for name, misfit in result.ranking],
        "best": result.best,
        "margin": result.margin if math.isfinite(result.margin) else None,
        "seed": args.seed,
        "noise_rel": args.noise_rel,
        "free_gain": bool(args.free_gain),
        "inputs": inputs,
    }
    return _publish(args, "classify", {"classify.json": lambda path: write_json(path, report)},
                    lib, inputs, f"best: {result.best}", rejected=result.rejected)


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
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
