"""Span and count tracing of temsphere, installed from outside the package.

``Tracer.install`` replaces every public function of every loaded
``temsphere`` module with a wrapper that records one span per call: its
name, start, end, parent span and the current op id.  The replacement is
made in every module namespace that holds the function (``from .x import
f`` copies), so calls across modules are traced too.  A few functions also
record an event describing their inputs or result (sector keys, geometry
keys, regime decisions, fit convergence, bytes written); the per-layer
metrics are derived from spans and events when the run ends.

Spans stay in memory until ``dump`` writes them out.  Nothing here changes
what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (unit, better) of every per-layer metric; BENCHMARK.json lists the same set.
METRICS = {
    "special.bessel_calls": ("count", "lower"),
    "special.bessel_points": ("count", "lower"),
    "modes.time_s": ("s", "lower"),
    "modes.modes_built": ("count", "lower"),
    "modes.spectrum_reuse_frac": ("frac", "higher"),
    "excitation.compute_s": ("s", "lower"),
    "excitation.synth_s": ("s", "lower"),
    "excitation.bound_s": ("s", "lower"),
    "excitation.bound_calls": ("count", "lower"),
    "excitation.line_integral_calls": ("count", "lower"),
    "excitation.geometry_reuse_frac": ("frac", "higher"),
    "earlytime.pipeline_s": ("s", "lower"),
    "earlytime.signal_s": ("s", "lower"),
    "earlytime.fields_s": ("s", "lower"),
    "composite.regime_s": ("s", "lower"),
    "composite.splice_s": ("s", "lower"),
    "composite.early_ok_frac": ("frac", "higher"),
    "pipeline.forward_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.forward_calls": ("count", "lower"),
    "inversion.fit_s": ("s", "lower"),
    "inversion.fit_calls": ("count", "lower"),
    "inversion.minimize_calls": ("count", "lower"),
    "inversion.fit_converged_frac": ("frac", "higher"),
    "inversion.classify_self_s": ("s", "lower"),
    "inversion.candidates_rejected_frac": ("frac", "lower"),
    "io.parse_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.startup_share": ("frac", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

COUNT_METRICS = tuple(
    name for name, (unit, _) in METRICS.items() if unit == "count" or unit == "bytes"
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bessel_event(args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    return ("bessel_points", int(getattr(x, "size", 1)))


def _sector_event(args, kwargs, result):
    target = _arg(args, kwargs, 0, "target")
    l = _arg(args, kwargs, 2, "l")
    mu_ratio = target.material.relative_permeability / _arg(args, kwargs, 1, "background_mu_r")
    return ("sector", [repr((l, mu_ratio)), len(result)])


def _geometry_event(args, kwargs, result):
    key = tuple(_arg(args, kwargs, i, n) for i, n in enumerate(("l", "m", "loop", "radius_m")))
    return ("geometry", repr(key + (kwargs.get("order", args[4] if len(args) > 4 else 16),)))


def _regime_event(args, kwargs, result):
    return ("early_ok", bool(result.early_ok))


def _fit_event(args, kwargs, result):
    return ("fit_converged", bool(result.converged))


def _classify_event(args, kwargs, result):
    return ("classify", [len(_arg(args, kwargs, 1, "candidates")), len(result.ranking)])


def _write_event(args, kwargs, result):
    return ("bytes_written", len(_arg(args, kwargs, 1, "text").encode("utf-8")))


EVENT_HOOKS = {
    "special.spherical_bessel_j": _bessel_event,
    "modes.find_decay_rates": _sector_event,
    "excitation.exterior_multipole_line_integral": _geometry_event,
    "composite.regime_boundaries": _regime_event,
    "inversion.fit_exponentials": _fit_event,
    "inversion.classify_library": _classify_event,
    "_io.atomic_write_text": _write_event,
}


class Tracer:
    """Records spans (name, start, end, parent, op) and events in memory."""

    def __init__(self):
        self.spans = []
        self.events = []
        self.op_id = 0
        self.ops = 0
        self.cli = []  # (import_s, command_s, wall_s) per traced CLI op
        self._stack = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self, package="temsphere"):
        """Wrap every public function of the loaded ``package`` modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        inversion = sys.modules.get(package + ".inversion")
        if inversion is not None and hasattr(inversion, "minimize"):
            wrappers[inversion.minimize] = self._wrap("scipy.minimize", inversion.minimize)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        hook = EVENT_HOOKS.get(name)
        spans, stack, events = self.spans, self._stack, self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                events.append(hook(args, kwargs, result) + (index,))
            return result

        return traced

    # -- merging child-process traces and writing out ----------------------

    def state(self) -> dict:
        return {"spans": self.spans, "events": self.events}

    def merge(self, state: dict, op_id: int):
        """Append a child process's spans (re-indexed) under ``op_id``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in state["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, op_id))
        self.events.extend((kind, value, index + offset) for kind, value, index in state["events"])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "events": self.events}, fh)

    # -- derived metrics ----------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        spans = self.spans
        by_name = defaultdict(list)
        for i, span in enumerate(spans):
            by_name[span[0]].append(i)
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(indices):
            """Spans of ``indices`` not nested in another of them (one thread)."""
            top, last_end = [], float("-inf")
            for i in sorted(indices, key=lambda i: spans[i][1]):
                if spans[i][1] >= last_end:
                    top.append(i)
                    last_end = spans[i][2]
            return top

        def time_in(*names):
            idx = [i for n in names for i in by_name.get(n, ())]
            return sum(spans[i][2] - spans[i][1] for i in outermost(idx))

        def layer(prefix):
            return [n for n in by_name if n.startswith(prefix)]

        def self_time(names):
            return sum(spans[i][2] - spans[i][1] - child_time[i]
                       for n in names for i in by_name.get(n, ()))

        def count(name):
            return len(by_name.get(name, ()))

        def events(kind):
            return [(value, index) for k, value, index in self.events if k == kind]

        def reuse(keys):
            seen = set()
            repeats = 0
            for key in keys:
                repeats += key in seen
                seen.add(key)
            return repeats / len(keys) if keys else 0.0

        def share(flags):
            return sum(flags) / len(flags) if flags else 0.0

        top_fits = set(outermost(by_name.get("inversion.fit_exponentials", ())))
        classify = [v for v, _ in events("classify")]
        sectors = [v for v, _ in events("sector")]
        cli_import = sum(c[0] for c in self.cli)
        cli_wall = sum(c[2] for c in self.cli)
        out = {
            "special.bessel_calls": count("special.spherical_bessel_j"),
            "special.bessel_points": sum(v for v, _ in events("bessel_points")),
            "modes.time_s": time_in(*layer("modes.")),
            "modes.modes_built": sum(n for _, n in sectors),
            "modes.spectrum_reuse_frac": reuse([k for k, _ in sectors]),
            "excitation.compute_s": time_in("excitation.compute_excitation"),
            "excitation.synth_s": time_in("excitation.synthesize_voltage"),
            "excitation.bound_s": time_in("excitation.truncation_bound"),
            "excitation.bound_calls": count("excitation.truncation_bound"),
            "excitation.line_integral_calls": count("excitation.exterior_multipole_line_integral"),
            "excitation.geometry_reuse_frac": reuse([v for v, _ in events("geometry")]),
            "earlytime.pipeline_s": time_in("earlytime.run_early_pipeline"),
            "earlytime.signal_s": time_in("earlytime.early_signal"),
            "earlytime.fields_s": time_in("earlytime.external_fields"),
            "composite.regime_s": time_in("composite.regime_boundaries"),
            "composite.splice_s": time_in("composite.compose_response"),
            "composite.early_ok_frac": share([v for v, _ in events("early_ok")]),
            "pipeline.forward_s": time_in("pipeline.forward_model"),
            "pipeline.self_s": self_time(layer("pipeline.")),
            "pipeline.forward_calls": count("pipeline.forward_model"),
            "inversion.fit_s": time_in("inversion.fit_exponentials"),
            "inversion.fit_calls": count("inversion.fit_exponentials"),
            "inversion.minimize_calls": count("scipy.minimize"),
            "inversion.fit_converged_frac": share(
                [v for v, i in events("fit_converged") if i in top_fits]),
            "inversion.classify_self_s": self_time(["inversion.classify_library"]),
            "inversion.candidates_rejected_frac": (
                sum(c - r for c, r in classify) / sum(c for c, _ in classify) if classify else 0.0
            ),
            "io.parse_s": time_in("_io.load_config", "_io.parse_config", "_io.read_timeseries_csv"),
            "io.write_s": time_in("_io.write_json", "_io.write_timeseries_csv",
                                  "_io.atomic_write_text"),
            "io.bytes_written": sum(v for v, _ in events("bytes_written")),
            "cli.import_s": cli_import,
            "cli.command_s": sum(c[1] for c in self.cli),
            "cli.startup_share": cli_import / cli_wall if cli_wall > 0 else 0.0,
            "trace.ops": self.ops,
            "trace.spans": len(spans),
            "trace.overhead_frac": overhead_frac,
        }
        if set(out) != set(METRICS):
            raise RuntimeError("tracer metrics and METRICS disagree")
        return out
