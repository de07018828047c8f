"""Three-regime response assembly.

The mode sum is exact once enough overtones are retained but useless
earlier than its truncation allows; the early-time law is exact as
t -> t_tr but degrades like sqrt(t/tau_c).  ``compose_response`` splices
the two over a one-decade blend window with log-linear weights, and only
where ``regime_boundaries``, running that same splice, found it accurate.
Both models read one coil coupling table (`excitation.coupling_table`), so
the splice compares the mode sum's spectral shape with the early law, not
two couplings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, TimeMarkers
from .earlytime import EarlySignal
from .excitation import ExcitationCoefficients, TimeSeries, _mode_sum
from .modes import ModeLibrary


@dataclass(frozen=True)
class RegimeReport:
    """Boundaries of the early/blend/intermediate/late description.

    ``blend_mismatch`` is the worst distortion that splicing the early law
    into the mode sum introduces over the blend decade, NaN when no blend
    decade fits inside the library's spectral coverage.  ``early_ok`` is
    True when it is within tolerance; otherwise (strongly permeable targets
    at modest mode counts, or single-mode spectra) the composite falls back
    to the mode sum alone.  For multi-mode spectra the factory guarantees
    early_end < late_start; the degenerate single-mode case reports
    late_start = t0 ("all late").
    """

    early_end_s: float
    late_start_s: float
    blend_lo_s: float
    blend_hi_s: float
    early_ok: bool
    blend_mismatch: float


def _splice(t, early, mode, lo, hi):
    """Splice early-law and mode-sum values over [lo, hi], linear in log(t).

    Returns the spliced values, the mode-sum weights and the worst
    distortion min(w, 1-w) |early - mode| / |value| strictly inside the
    blend (0 when no sample lies there).
    """
    w = np.clip(np.log(t / lo) / np.log(hi / lo), 0.0, 1.0)
    # exact at both edges: pure early below, pure mode sum above
    vals = np.where(w >= 1.0, mode, early + w * (mode - early))
    inside = (w > 0.0) & (w < 1.0)
    if not np.any(inside):
        return vals, w, 0.0
    # distortion relative to the nearer model: zero at both blend edges
    with np.errstate(divide="ignore", invalid="ignore"):
        mism = np.minimum(w, 1.0 - w) * np.abs(early - mode) / np.abs(vals)
    return vals, w, float(np.max(mism[inside]))


def regime_boundaries(
    library: ModeLibrary,
    coeffs: ExcitationCoefficients,
    markers: TimeMarkers,
    signal: EarlySignal,
    tol: float = 0.01,
) -> RegimeReport:
    """Locate the regime boundaries and decide whether the early law is used.

    Late time begins when the second-slowest distinct mode has decayed to
    ``tol`` of the fundamental: t0 + ln(|V2/V1|/tol)/(lambda2 - lambda1).
    The early end lies one decade above the spectral floor (largest rate
    times elapsed >= 15, and the start of the early law's validity window),
    capped at the end of that window; the blend decade is centred on it.  The
    early law is used only if the splice ``compose_response`` applies,
    run on 50 log-spaced probe gates across the blend decade, distorts the
    curve by at most ``tol``; the probe's mode sum computes no truncation
    bound.  The decision never depends on the caller's gates.
    """
    if len(library) < 1:
        raise ParameterError("need at least one mode")
    rates = library.rates
    volts = coeffs.voltages
    t0 = markers.t0_s
    ref = next((k for k in range(len(volts)) if volts[k] != 0.0), 0)
    lam1, v1 = rates[ref], volts[ref]
    late = t0
    for k in range(ref + 1, len(rates)):
        if rates[k] > lam1 * (1.0 + 1e-12) and volts[k] != 0.0:
            late = t0 + np.log(abs(volts[k] / v1) / tol) / (rates[k] - lam1)
            break
    late = max(late, t0)
    root10 = np.sqrt(10.0)
    # blend bottom must keep the mode sum's omitted tail negligible and
    # stay inside the early law's window, past the post-quench transient
    floor = max(15.0 / rates[-1], markers.t_tr_s - t0 + signal.window_s[0])
    early_end = min(floor * 10.0, signal.window_s[1])
    blend_lo, blend_hi = early_end / root10, early_end * root10
    mismatch = float("nan")
    if late > t0 and blend_lo > floor * 0.999 and blend_hi < late - t0:
        probe = np.geomspace(blend_lo, blend_hi, 50)
        mode = TimeSeries(probe, _mode_sum(library, coeffs, probe)).values  # checks finiteness
        _, _, mismatch = _splice(
            t0 + probe, signal.evaluate(t0 + probe), mode, t0 + blend_lo, t0 + blend_hi
        )
    return RegimeReport(
        early_end_s=t0 + early_end,
        late_start_s=late,
        blend_lo_s=t0 + blend_lo,
        blend_hi_s=t0 + blend_hi,
        early_ok=bool(mismatch <= tol),
        blend_mismatch=mismatch,
    )


def compose_response(
    mode_sum: TimeSeries, early: TimeSeries, report: RegimeReport
) -> TimeSeries:
    """Apply the report's decision to early-law and mode-sum series.

    Both series must be sampled on the same gates.  When the report
    accepts the early law, the two are spliced over its blend decade (see
    ``regime_boundaries``), except at gates the early series flags
    ``transient`` (before the law's window), which keep the mode sum;
    otherwise the mode sum is returned unblended and the early series
    ignored.  The metadata carries the report's ``blend_mismatch``.
    """
    if mode_sum.times_s.shape != early.times_s.shape or not np.allclose(
        mode_sum.times_s, early.times_s, rtol=1e-12
    ):
        raise ParameterError("mode-sum and early series must share gate support")
    t = mode_sum.times_s
    late_label = np.where(t < report.late_start_s, "intermediate", "late")
    metadata = {
        "kind": "composite",
        "blend_mismatch": report.blend_mismatch,
        "early_used": report.early_ok,
    }
    if not report.early_ok:
        metadata["regime"] = late_label
        return TimeSeries(times_s=t, values=mode_sum.values.copy(), metadata=metadata)
    lo, hi = report.blend_lo_s, report.blend_hi_s
    vals, w, _ = _splice(t, early.values, mode_sum.values, lo, hi)
    regime = np.where(t < lo, "early", np.where(t <= hi, "blend", late_label))
    before = early.metadata.get("quality", np.full(t.shape, "ok")) == "transient"
    vals[before], w[before], regime[before] = mode_sum.values[before], 1.0, late_label[before]
    metadata["regime"] = regime
    metadata["weights"] = w
    return TimeSeries(times_s=t, values=vals, metadata=metadata)
