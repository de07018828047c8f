"""End-to-end forward modeling from a parsed run configuration.

Ties together mode-library construction, excitation, the early-time law
and the composite splice; used by the command-line front end and
by classification (which forward-models every candidate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composite import RegimeReport, compose_response, regime_boundaries
from .core import (
    EnvironmentSpec,
    TargetSpec,
    TimeMarkers,
    characteristic_times,
    validate_regime,
)
from .earlytime import EarlyPipeline, EarlySignal, early_signal, early_voltage, run_early_pipeline
from .excitation import (
    ExcitationCoefficients,
    Loop,
    PulseWaveform,
    TimeSeries,
    compute_excitation,
    coupling_table,
    synthesize_voltage,
)
from .modes import ModeLibrary, build_mode_library


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario: target, environment, drive and coil geometry."""

    target: TargetSpec
    environment: EnvironmentSpec
    pulse: PulseWaveform
    transmitter: object  # Loop or UniformField
    receiver: Loop
    max_l: int = 1
    max_n: int = 500
    collapse_transient: bool = True
    regime_tol: float = 1e-2
    raw: dict = None


@dataclass
class ForwardResult:
    """Composite voltage plus every intermediate product of the pipeline."""

    config: RunConfig
    markers: TimeMarkers
    library: ModeLibrary
    coefficients: ExcitationCoefficients
    mode_series: TimeSeries
    early_series: TimeSeries
    composite: TimeSeries
    report: RegimeReport


def markers_for(config: RunConfig) -> TimeMarkers:
    tau_tr = 0.0 if config.collapse_transient else None
    return characteristic_times(
        config.target,
        config.environment,
        tau_r_s=config.pulse.tau_r_s if config.pulse.ramp == "linear" else 0.0,
        t0_s=config.pulse.t0_s,
        tau_tr_s=tau_tr,
    )


def build_library(config: RunConfig) -> ModeLibrary:
    return build_mode_library(
        config.target,
        config.environment.background.relative_permeability,
        config.max_l,
        config.max_n,
    )


def early_response(
    config: RunConfig, markers: TimeMarkers
) -> tuple[EarlyPipeline, EarlySignal]:
    """Staged early-time pipeline and the receiver signal of one scenario.

    The signal comes from the coupling table, as in `forward_model`; the
    stages serve the per-stage report and the field scan.
    """
    tx, current = config.transmitter, config.pulse.effective_current_a
    mu_b = config.environment.background.relative_permeability
    early = run_early_pipeline(config.target, mu_b, tx, config.max_l, source_current_a=current)
    coupling = coupling_table(config.target, tx, config.receiver, config.max_l, current)
    return early, early_signal(coupling, config.receiver, markers, config.target)


def forward_model(
    config: RunConfig, gates_s, library: ModeLibrary | None = None
) -> ForwardResult:
    """Full three-regime receiver voltage on the given absolute gates."""
    markers = markers_for(config)
    if library is None:
        library = build_library(config)
    coeffs = compute_excitation(
        library, config.pulse, config.transmitter, config.receiver
    )
    gates = np.asarray(gates_s, dtype=float)
    mode_ts = synthesize_voltage(library, coeffs, gates - markers.t0_s)
    mode_ts.times_s = gates
    signal = early_signal(coeffs.coupling, config.receiver, markers, config.target)
    early_ts = early_voltage(signal, gates)
    report = regime_boundaries(library, coeffs, markers, signal, config.regime_tol)
    composite = compose_response(mode_ts, early_ts, report)
    regime_guard = validate_regime(markers, config.regime_tol)
    quality = _gate_quality(early_ts, mode_ts.metadata["truncation_bound"], composite)
    composite.metadata.update(
        {
            "quality": quality,
            "regime_check": regime_guard,
            "early_amplitude_v_sqrt_s": signal.amplitude_v_sqrt_s,
        }
    )
    return ForwardResult(
        config=config,
        markers=markers,
        library=library,
        coefficients=coeffs,
        mode_series=mode_ts,
        early_series=early_ts,
        composite=composite,
        report=report,
    )


def _gate_quality(early_ts, bound, composite) -> np.ndarray:
    """Per-gate flags 'ok', 'transient' (as `early_voltage` flags the gate)
    or 'truncated' (mode-sum tail ``bound``)."""
    transient = early_ts.metadata["quality"] == "transient"
    flags = np.where(transient, "transient", "ok").astype("<U9")
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = bound > 0.01 * np.abs(composite.values)
    flags[bad & (flags == "ok")] = "truncated"
    return flags


def forward_values(config: RunConfig, times_s) -> np.ndarray:
    """Composite voltage values only (classification forward callable)."""
    return forward_model(config, times_s).composite.values
