"""Configuration schema, bit-stable file formats and run manifests.

Numbers are serialized as Python's shortest round-trip decimal repr, so
identical inputs reproduce byte-identical CSV/JSON payloads.  Timestamps
appear only in the run manifest.  All files are written atomically
(temporary file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .core import EnvironmentSpec, MaterialSpec, ParameterError, TargetSpec, diffusivity
from .excitation import Loop, PulseWaveform, TimeSeries, UniformField
from .pipeline import RunConfig


class ConfigError(ValueError):
    """Configuration problem; carries the offending schema path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DataError(ValueError):
    """Malformed data file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _get(d: dict, path: str, required=True, default=None):
    node = d
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[key]
    return node


def _number(d: dict, path: str, positive=False, required=True, default=None):
    val = _get(d, path, required=required, default=default)
    if val is default and not required:
        return default
    val = _finite(path, val)
    if positive and val <= 0:
        raise ConfigError(path, "must be > 0")
    return val


def _finite(path: str, val) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(path, "must be a number")
    try:
        val = float(val)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ConfigError(path, "must be finite")
    return val


def _rows(val, path: str, width: int) -> tuple:
    """A list of ``width``-number rows; each entry obeys the ``_number`` rules."""
    if not isinstance(val, (list, tuple)):
        raise ConfigError(path, f"must be a list of {width}-element lists")
    for i, row in enumerate(val):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise ConfigError(f"{path}[{i}]", f"must have exactly {width} entries")
    return tuple(
        tuple(_finite(f"{path}[{i}][{j}]", c) for j, c in enumerate(row))
        for i, row in enumerate(val)
    )


# inclusive limits of the integer options, shared with the CLI overrides
OPTION_RANGES = {"max_l": (1, 12), "max_n": (1, math.inf)}


def check_integer(path: str, val, lo: int, hi: float = math.inf) -> int:
    """Return ``val`` if it is an integer in lo..hi, else raise ConfigError."""
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(path, "must be an integer")
    if not lo <= val <= hi:
        raise ConfigError(path, f"must lie in {lo}..{hi}")
    return val


def _integer(d: dict, path: str, lo: int, hi: float, default: int) -> int:
    return check_integer(path, _get(d, path, required=False, default=default), lo, hi)


# keys each config section accepts ("" is the root); loops by kind
_SECTION_KEYS = {
    "": ("target", "background", "standoff_m", "pulse", "loops", "options"),
    "target": ("radius_m", "resistivity_ohm_m", "mu_r"),
    "background": ("resistivity_ohm_m", "mu_r"),
    "pulse": ("base_current_a", "windings", "ramp", "tau_r_s", "t0_s", "table"),
    "loops": ("transmitter", "receiver"),
    "options": ("max_l", "max_n", "collapse_transient", "regime_tol"),
}
_LOOP_KEYS = {
    "circular": ("kind", "radius_m", "height_m", "windings"),
    "polygon": ("kind", "vertices_m", "windings"),
    "uniform": ("kind", "amplitude_a_per_m"),
}


def _known_keys(node, path: str, allowed: tuple) -> None:
    """Raise ConfigError naming the first key of dict ``node`` that ``allowed`` lacks."""
    unknown = [key for key in node if key not in allowed] if isinstance(node, dict) else []
    if unknown:
        where = f"{path}.{unknown[0]}" if path else str(unknown[0])
        raise ConfigError(where, f"unknown key (expected one of {', '.join(allowed)})")


def _material(d: dict, prefix: str) -> MaterialSpec:
    rho = _number(d, f"{prefix}.resistivity_ohm_m", positive=True)
    mu = _number(d, f"{prefix}.mu_r", required=False, default=1.0)
    if mu < 1.0:
        raise ConfigError(f"{prefix}.mu_r", "must be >= 1")
    return MaterialSpec(conductivity_s_per_m=1.0 / rho, relative_permeability=mu)


def _check_time_scales(target: TargetSpec, env: EnvironmentSpec) -> None:
    """Raise ConfigError unless tau_c = a^2/D_c is finite and > 0,
    tau_b = R^2/D_b is finite, as `core.characteristic_times` computes them,
    and the a^3 of the mode norms and voltages is finite and > 0."""
    try:
        cube = target.radius_m**3
    except OverflowError:
        cube = math.inf
    if not 0.0 < cube < math.inf:
        raise ConfigError("target.radius_m", "target.radius_m^3 is outside float range")
    scales =(("target", "target.radius_m", "tau_c", target.radius_m, target.material, 0.0),
              ("background", "standoff_m", "tau_b", env.standoff_m, env.background, -math.inf))
    for section, length_path, name, length, material, lo in scales:
        d = diffusivity(material)
        if d == 0.0:
            raise ConfigError(section, "diffusivity 1/(mu_0 mu_r sigma) underflows to 0")
        try:
            tau = length**2 / d
        except OverflowError:
            tau = math.inf
        if not lo < tau < math.inf:
            raise ConfigError(length_path, f"{name} = {length_path}^2/D is outside float range")


def _loop(d: dict, prefix: str) -> Loop:
    kind = _get(d, f"{prefix}.kind", required=False, default="circular")
    if kind not in ("circular", "polygon"):
        raise ConfigError(f"{prefix}.kind", f"unknown loop kind {kind!r}")
    _known_keys(_get(d, prefix, required=False), prefix, _LOOP_KEYS[kind])
    if kind == "circular":
        return Loop(
            kind="circular",
            radius_m=_number(d, f"{prefix}.radius_m", positive=True),
            height_m=_number(d, f"{prefix}.height_m", required=False, default=0.0),
            windings=_integer(d, f"{prefix}.windings", 1, math.inf, 1),
        )
    return Loop(
        kind="polygon",
        vertices=_rows(_get(d, f"{prefix}.vertices_m"), f"{prefix}.vertices_m", 3),
        windings=_integer(d, f"{prefix}.windings", 1, math.inf, 1),
    )


def parse_config(data: dict) -> RunConfig:
    """Validate a config dict; errors name the offending schema path.

    Unknown keys are errors too, so a misspelled option is not silently
    replaced by its default.
    """
    for path, allowed in _SECTION_KEYS.items():
        _known_keys(_get(data, path, required=False) if path else data, path, allowed)
    try:
        target = TargetSpec(
            radius_m=_number(data, "target.radius_m", positive=True),
            material=_material(data, "target"),
        )
    except ParameterError as exc:
        raise ConfigError("target", str(exc)) from exc
    env = EnvironmentSpec(
        background=_material(data, "background"),
        standoff_m=_number(data, "standoff_m", positive=True),
    )
    _check_time_scales(target, env)
    ramp = _get(data, "pulse.ramp", required=False, default="step")
    t0 = _number(data, "pulse.t0_s", required=False, default=0.0)
    table = _rows(_get(data, "pulse.table", required=False, default=()), "pulse.table", 2)
    if table and table[-1][0] != t0:
        raise ConfigError(f"pulse.table[{len(table) - 1}][0]", "last knot must be at pulse.t0_s")
    try:
        pulse = PulseWaveform(
            base_current_a=_number(data, "pulse.base_current_a", positive=True),
            windings=_integer(data, "pulse.windings", 1, math.inf, 1),
            ramp=ramp,
            tau_r_s=_number(data, "pulse.tau_r_s", required=False, default=0.0),
            t0_s=t0,
            table=table,
        )
    except ParameterError as exc:
        raise ConfigError("pulse", str(exc)) from exc
    tx_kind = _get(data, "loops.transmitter.kind", required=False, default="circular")
    if tx_kind == "uniform":
        tx_node = _get(data, "loops.transmitter", required=False)
        _known_keys(tx_node, "loops.transmitter", _LOOP_KEYS["uniform"])
        tx = UniformField(
            amplitude_a_per_m=_number(
                data, "loops.transmitter.amplitude_a_per_m", required=False, default=1.0
            )
        )
    else:
        tx = _loop(data, "loops.transmitter")
    rx = _loop(data, "loops.receiver")
    max_l = _integer(data, "options.max_l", *OPTION_RANGES["max_l"], default=1)
    max_n = _integer(data, "options.max_n", *OPTION_RANGES["max_n"], default=500)
    collapse = _get(data, "options.collapse_transient", required=False, default=True)
    if not isinstance(collapse, bool):
        raise ConfigError("options.collapse_transient", "must be true or false")
    regime_tol = _number(data, "options.regime_tol", required=False, default=1e-2)
    if not 0.0 < regime_tol < 1.0:
        raise ConfigError("options.regime_tol", "must lie in (0, 1)")
    return RunConfig(
        target=target,
        environment=env,
        pulse=pulse,
        transmitter=tx,
        receiver=rx,
        max_l=max_l,
        max_n=max_n,
        collapse_transient=collapse,
        regime_tol=regime_tol,
        raw=data,
    )


def read_json(path: str, where: str):
    """Parsed JSON file; a decode error raises ConfigError at ``where``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(where, f"invalid JSON: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return parse_config(read_json(path, "<root>"))


def config_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(path: str, columns: dict) -> None:
    """CSV of equal-length ``columns`` under a header of their names; floats
    as shortest-round-trip decimals, other cells as ``str``."""
    lines = [",".join(columns)] + [
        ",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row)
        for row in zip(*columns.values())
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_timeseries_csv(path: str, series: TimeSeries, extra_columns: dict | None = None) -> None:
    """CSV with header t_s,value[,...] (see `write_csv`)."""
    write_csv(path, {"t_s": series.times_s, "value": series.values, **(extra_columns or {})})


def read_timeseries_csv(path: str) -> TimeSeries:
    """Read a t_s,value CSV; malformed rows raise DataError with line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(1, "empty file")
    header = lines[0].split(",")
    if header[:2] != ["t_s", "value"]:
        raise DataError(1, "header must start with t_s,value")
    times, values = [], []
    for idx, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise DataError(idx, "expected at least 2 comma-separated fields")
        try:
            t, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise DataError(idx, f"non-numeric value in {cells[:2]}")
        if not (math.isfinite(t) and math.isfinite(v)):
            raise DataError(idx, f"non-finite value in {cells[:2]}")
        times.append(t)
        values.append(v)
    if not times:
        raise DataError(2, "no data rows")
    try:
        return TimeSeries(times_s=np.array(times), values=np.array(values))
    except ParameterError as exc:
        raise DataError(2, str(exc)) from exc


def build_manifest(command: str, config: dict, seed: int, inputs: dict, outputs: dict) -> dict:
    """Reproducibility record for one CLI invocation."""
    from . import __version__

    return {
        "command": command,
        "config_sha256": config_hash(config),
        "tool_version": __version__,
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "outputs": outputs,
    }


def write_json(path: str, payload: dict) -> None:
    """Strict JSON (RFC 8259): a NaN or infinite value raises ValueError."""
    atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"
    )
