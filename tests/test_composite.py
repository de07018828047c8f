import json

import numpy as np
import pytest

import temsphere as ts
from temsphere import _io, pipeline
from temsphere.core import MU_0, ParameterError
from temsphere.earlytime import EarlySignal, early_signal

from oracles import crosscheck_amplitude, staged_early_signal


def synthetic_library(rates, radius=1.0):
    """Library with prescribed rates for boundary-formula tests."""
    material = ts.MaterialSpec(conductivity_s_per_m=1.0 / MU_0, relative_permeability=1.0)
    target = ts.TargetSpec(radius_m=radius, material=material)  # D = 1, tau_c = radius^2
    modes = tuple(
        ts.Mode(
            l=1,
            m=0,
            n=i + 1,
            x=float(np.sqrt(r * radius * radius)),
            decay_rate_per_s=float(r),
            norm=1.0,
            radius_m=radius,
        )
        for i, r in enumerate(rates)
    )
    return ts.ModeLibrary(
        target=target, background_mu_r=1.0, modes=modes, max_l=1, max_n=len(rates)
    )


def coeffs_for(voltages):
    v = np.asarray(voltages, dtype=float)
    return ts.ExcitationCoefficients(
        pulse_integrals=np.ones_like(v), coupling={}, voltages=v
    )


def markers_unit():
    return ts.TimeMarkers(t0_s=0.0, tau_r_s=0.0, tau_tr_s=0.0, tau_c_s=1.0, tau_b_s=0.0)


def signal_unit():
    """Early law of the unit markers: V = 1/sqrt(t), valid up to 0.05 tau_c."""
    return EarlySignal(amplitude_v_sqrt_s=1.0, t_ref_s=0.0, window_s=(0.0, 0.05), per_harmonic={})


def signal_for(target, markers, pulse, tx, rx):
    coupling = ts.coupling_table(target, tx, rx, 1, pulse.effective_current_a)
    return early_signal(coupling, rx, markers, target)


class TestRegimeBoundaries:
    def test_two_mode_late_start_formula(self):
        lib = synthetic_library([1.0, 2.0])
        report = ts.regime_boundaries(
            lib, coeffs_for([1.0, 1.0]), markers_unit(), signal_unit(), tol=0.01
        )
        assert report.late_start_s == pytest.approx(np.log(100.0), rel=1e-12)

    def test_single_mode_all_late(self):
        lib = synthetic_library([3.0])
        report = ts.regime_boundaries(lib, coeffs_for([2.0]), markers_unit(), signal_unit())
        assert report.late_start_s == 0.0
        assert not report.early_ok

    def test_degenerate_rates_use_next_distinct(self):
        lib = synthetic_library([1.0, 1.0 + 1e-15, 2.0])
        report = ts.regime_boundaries(
            lib, coeffs_for([1.0, 1.0, 1.0]), markers_unit(), signal_unit()
        )
        assert report.late_start_s == pytest.approx(np.log(100.0), rel=1e-9)

    def test_aluminum_500_mode_early_window(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop, aluminum_sphere, environment
    ):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        sig = signal_for(aluminum_sphere, markers, step_pulse, tx_loop, rx_loop)
        report = ts.regime_boundaries(aluminum_500_library, coeffs, markers, sig, tol=0.01)
        assert report.early_ok
        # coverage-driven: one decade above the spectral floor, well under the cap
        lam_max = aluminum_500_library.rates[-1]
        assert report.early_end_s == pytest.approx(150.0 / lam_max, rel=1e-9)
        assert report.early_end_s < 0.05 * markers.tau_c_s
        assert report.blend_lo_s < report.early_end_s < report.blend_hi_s < report.late_start_s

    def test_aluminum_500_mode_decision_is_the_splice_mismatch(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop, aluminum_sphere, environment
    ):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        sig = signal_for(aluminum_sphere, markers, step_pulse, tx_loop, rx_loop)
        report = ts.regime_boundaries(aluminum_500_library, coeffs, markers, sig, tol=0.01)
        assert 0.0 < report.blend_mismatch <= 0.01
        assert report.early_ok

    def test_no_blend_decade_reports_nan(self):
        lib = synthetic_library([1.0, 2.0])
        report = ts.regime_boundaries(lib, coeffs_for([1.0, 1.0]), markers_unit(), signal_unit())
        assert np.isnan(report.blend_mismatch)
        assert not report.early_ok


class TestComposeResponse:
    def test_identical_inputs_identity(self):
        lib = synthetic_library([1.0, 2.0])
        report = ts.regime_boundaries(
            lib, coeffs_for([1.0, 1.0]), markers_unit(), signal_unit()
        )
        t = np.geomspace(1e-4, 10.0, 50)
        vals = np.exp(-t)
        a = ts.TimeSeries(times_s=t, values=vals)
        b = ts.TimeSeries(times_s=t, values=vals.copy())
        from dataclasses import replace

        report = replace(report, early_ok=True)
        out = ts.compose_response(a, b, report)
        assert np.array_equal(out.values, vals)

    def test_blend_weights_at_edges(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop, aluminum_sphere, environment
    ):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        sig = signal_for(aluminum_sphere, markers, step_pulse, tx_loop, rx_loop)
        report = ts.regime_boundaries(aluminum_500_library, coeffs, markers, sig)
        gates = np.array(
            [report.blend_lo_s * 0.5, report.blend_lo_s, report.blend_hi_s, report.blend_hi_s * 2]
        )
        mode_ts = ts.synthesize_voltage(aluminum_500_library, coeffs, gates)
        early_ts = ts.TimeSeries(times_s=gates, values=sig.evaluate(gates))
        out = ts.compose_response(mode_ts, early_ts, report)
        w = out.metadata["weights"]
        assert w[0] == 0.0 and w[1] == 0.0
        assert w[2] == 1.0 and w[3] == 1.0
        assert out.values[0] == early_ts.values[0]
        assert out.values[3] == mode_ts.values[3]

    def test_mismatched_gates_fail(self):
        lib = synthetic_library([1.0, 2.0])
        report = ts.regime_boundaries(
            lib, coeffs_for([1.0, 1.0]), markers_unit(), signal_unit()
        )
        a = ts.TimeSeries(times_s=np.array([1.0, 2.0]), values=np.array([1.0, 0.5]))
        b = ts.TimeSeries(times_s=np.array([1.0, 3.0]), values=np.array([1.0, 0.5]))
        with pytest.raises(ParameterError):
            ts.compose_response(a, b, report)

    def test_composite_matches_high_mode_reference(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop, aluminum_sphere, environment
    ):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        gates = np.geomspace(1e-5 * markers.tau_c_s, 10 * markers.tau_c_s, 120)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        sig = signal_for(aluminum_sphere, markers, step_pulse, tx_loop, rx_loop)
        report = ts.regime_boundaries(aluminum_500_library, coeffs, markers, sig)
        mode_ts = ts.synthesize_voltage(aluminum_500_library, coeffs, gates)
        early_ts = ts.TimeSeries(times_s=gates, values=sig.evaluate(gates))
        composite = ts.compose_response(mode_ts, early_ts, report)
        assert composite.metadata["blend_mismatch"] <= 1e-2

        lib_ref = ts.build_mode_library(aluminum_sphere, 1.0, 1, 2000)
        coeffs_ref = ts.compute_excitation(lib_ref, step_pulse, tx_loop, rx_loop)
        ref = ts.synthesize_voltage(lib_ref, coeffs_ref, gates)
        rel = np.abs(composite.values - ref.values) / np.abs(ref.values)
        assert np.max(rel) < 0.03

    def test_permeable_target_falls_back_to_mode_sum(
        self, steel_sphere, environment, step_pulse, tx_loop, rx_loop
    ):
        markers = ts.characteristic_times(steel_sphere, environment, tau_tr_s=0.0)
        lib = ts.build_mode_library(steel_sphere, 1.0, 1, 120)
        coeffs = ts.compute_excitation(lib, step_pulse, tx_loop, rx_loop)
        sig = signal_for(steel_sphere, markers, step_pulse, tx_loop, rx_loop)
        report = ts.regime_boundaries(lib, coeffs, markers, sig)
        assert not report.early_ok
        gates = np.geomspace(1e-4 * markers.tau_c_s, markers.tau_c_s, 40)
        mode_ts = ts.synthesize_voltage(lib, coeffs, gates)
        early_ts = ts.TimeSeries(times_s=gates, values=np.ones_like(gates))
        out = ts.compose_response(mode_ts, early_ts, report)
        assert np.array_equal(out.values, mode_ts.values)
        assert not out.metadata["early_used"]


# Short linear ramp (2.2e-5 tau_c) on a nonmagnetic sphere: the early law is
# 3.4% off the mode sum over the blend decade [3.9e-4, 3.8e-3] tau_c.
SHORT_RAMP = {
    "target": {"radius_m": 0.03582332568356545, "resistivity_ohm_m": 1.9411977819668712e-08,
               "mu_r": 1.0},
    "background": {"resistivity_ohm_m": 862.1238512745063, "mu_r": 1.0},
    "standoff_m": 0.9607375364989608,
    "pulse": {"base_current_a": 0.5143404677815271, "windings": 1, "ramp": "linear",
              "tau_r_s": 1.8250741358641582e-06, "t0_s": 1.8250741358641582e-06},
    "loops": {
        "transmitter": {"kind": "polygon", "windings": 1, "vertices_m": [
            [-0.3986739471232231, -0.4939224404682933, 0.2352876808635439],
            [0.280682639789826, -0.4939224404682933, 0.2352876808635439],
            [0.280682639789826, 0.3970499114933908, 0.2352876808635439],
            [-0.3986739471232231, 0.3970499114933908, 0.2352876808635439]]},
        "receiver": {"kind": "circular", "radius_m": 0.14037832467795575,
                     "height_m": 0.4563127438007723, "windings": 3},
    },
    "options": {"max_l": 2, "max_n": 113},
}

# Step-off on a mildly permeable sphere (mu_r 1.57): blend mismatch 3.8%.
MILD_PERMEABLE = {
    "target": {"radius_m": 0.1270642351251798, "resistivity_ohm_m": 2.4543646059158483e-08,
               "mu_r": 1.5667487540618659},
    "background": {"resistivity_ohm_m": 15.008550332906271, "mu_r": 1.0},
    "standoff_m": 0.7513705163108775,
    "pulse": {"base_current_a": 4.044773743061922, "windings": 1, "ramp": "step",
              "t0_s": 0.0},
    "loops": {
        "transmitter": {"kind": "polygon", "windings": 1, "vertices_m": [
            [-0.40884755731464273, -0.4437339923747736, 0.41139435933200463],
            [0.41120483499904525, -0.4437339923747736, 0.41139435933200463],
            [0.41120483499904525, 0.2723012812048602, 0.41139435933200463],
            [-0.40884755731464273, 0.2723012812048602, 0.41139435933200463]]},
        "receiver": {"kind": "circular", "radius_m": 0.16709537087789583,
                     "height_m": 0.3997234263974432, "windings": 2},
    },
    "options": {"max_l": 1, "max_n": 144, "regime_tol": 0.05},
}


class TestSingleDecision:
    """``early_ok`` comes from the splice itself, never from the caller's gates."""

    def test_short_ramp_falls_back_on_any_gates(self):
        config = _io.parse_config(SHORT_RAMP)
        markers = pipeline.markers_for(config)
        crossing = markers.t0_s + np.geomspace(1e-5, 3.0, 80) * markers.tau_c_s
        result = pipeline.forward_model(config, crossing)
        report = result.report
        assert report.blend_mismatch > config.regime_tol
        skipping = crossing[(crossing < report.blend_lo_s) | (crossing > report.blend_hi_s)]
        assert skipping.size < crossing.size
        for gates in (crossing, skipping):
            out = pipeline.forward_model(config, gates)
            assert not out.report.early_ok
            assert not out.composite.metadata["early_used"]
            assert np.array_equal(out.composite.values, out.mode_series.values)

    def test_regime_tol_sets_the_decision(self):
        config = _io.parse_config(MILD_PERMEABLE)
        markers = pipeline.markers_for(config)
        gates = np.geomspace(1e-5, 3.0, 60) * markers.tau_c_s
        result = pipeline.forward_model(config, gates)
        report = result.report
        assert report.early_ok == (report.blend_mismatch <= 0.05)
        assert report.early_ok  # 3.8% passes at 5%, and nothing raises later
        assert result.composite.metadata["early_used"] == report.early_ok


class TestTransientGates:
    """With the background transient kept, the early law opens 10 tau_tr after t_tr."""

    def test_blend_starts_inside_the_early_window(self):
        # spectral floor 15/lambda_max = 1.5e-4 tau_c lies below the window
        # start t_tr + 10 tau_tr = 1.1e-3 tau_c
        lib = synthetic_library([(n * np.pi) ** 2 for n in range(1, 101)])
        markers = ts.TimeMarkers(t0_s=0.0, tau_r_s=0.0, tau_tr_s=1e-4, tau_c_s=1.0, tau_b_s=0.0)
        signal = EarlySignal(amplitude_v_sqrt_s=1.0, t_ref_s=markers.t_tr_s,
                             window_s=(1e-3, 0.05), per_harmonic={})
        report = ts.regime_boundaries(lib, coeffs_for([1.0] * 100), markers, signal)
        assert report.blend_lo_s >= (markers.t_tr_s + signal.window_s[0]) * (1.0 - 1e-12)

    def test_transient_gates_keep_the_mode_sum(self, sample_config_dict):
        cfg = json.loads(json.dumps(sample_config_dict))
        cfg["options"]["collapse_transient"] = False
        config = _io.parse_config(cfg)
        tau_tr = pipeline.markers_for(config).tau_tr_s
        result = pipeline.forward_model(config, np.geomspace(1.5 * tau_tr, 0.1, 120))
        composite = result.composite
        transient = composite.metadata["quality"] == "transient"
        assert result.report.early_ok and np.count_nonzero(transient) == 17
        regime = composite.metadata["regime"]
        assert not np.any(transient & np.isin(regime, ["early", "blend"]))
        assert np.array_equal(composite.values[transient], result.mode_series.values[transient])
        assert np.any(regime == "early")  # the law still serves the gates inside its window


class TestCrosscheck:
    @pytest.mark.parametrize("mu_r,resistivity", [(1.0, 2.8e-8), (200.0, 8.9e-8)])
    def test_amplitude_agreement_and_convergence(
        self, mu_r, resistivity, environment, rx_loop, step_pulse
    ):
        material = ts.MaterialSpec(1.0 / resistivity, mu_r)
        target = ts.TargetSpec(0.05, material)
        markers = ts.characteristic_times(target, environment, tau_tr_s=0.0)
        scales = ts.scales_for(target)
        pipe = ts.run_early_pipeline(target, 1.0, ts.UniformField(1.0), 1, scales=scales)
        sig = staged_early_signal(pipe, rx_loop, markers, scales, target)
        devs = []
        for n in (50, 100, 200, 500):
            lib = ts.build_mode_library(target, 1.0, 1, n)
            coeffs = ts.compute_excitation(lib, step_pulse, ts.UniformField(1.0), rx_loop)
            res = crosscheck_amplitude(lib, coeffs, sig.amplitude_v_sqrt_s, markers)
            devs.append(res.deviation)
        assert devs[-1] <= 0.02
        assert devs[0] > devs[-1]  # strict improvement end to end
        for a, b in zip(devs, devs[1:]):
            assert b <= 1.1 * a  # allow 10% fit noise on adjacent pairs

    def test_drive_scaling_cancels(self, aluminum_sphere, environment, rx_loop):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        lib = ts.build_mode_library(aluminum_sphere, 1.0, 1, 200)
        devs = []
        for h0 in (1.0, 10.0):
            scales = ts.scales_for(aluminum_sphere, field_a_per_m=h0)
            pipe = ts.run_early_pipeline(
                aluminum_sphere, 1.0, ts.UniformField(h0), 1, scales=scales
            )
            sig = staged_early_signal(pipe, rx_loop, markers, scales, aluminum_sphere)
            pulse = ts.PulseWaveform(base_current_a=1.0, ramp="step")
            coeffs = ts.compute_excitation(lib, pulse, ts.UniformField(h0), rx_loop)
            res = crosscheck_amplitude(lib, coeffs, sig.amplitude_v_sqrt_s, markers)
            devs.append(res.deviation)
        assert devs[0] == pytest.approx(devs[1], abs=1e-12)

    def test_multi_sector_rejected(self, aluminum_sphere, step_pulse, tx_loop, rx_loop, environment):
        markers = ts.characteristic_times(aluminum_sphere, environment)
        lib = ts.build_mode_library(aluminum_sphere, 1.0, 2, 10)
        coeffs = ts.compute_excitation(lib, step_pulse, tx_loop, rx_loop)
        with pytest.raises(ParameterError):
            crosscheck_amplitude(lib, coeffs, 1.0, markers)

    def test_inconclusive_flag_on_truncated_series(
        self, aluminum_sphere, environment, rx_loop, step_pulse
    ):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        lib = ts.build_mode_library(aluminum_sphere, 1.0, 1, 50)
        coeffs = ts.compute_excitation(lib, step_pulse, ts.UniformField(1.0), rx_loop)
        res = crosscheck_amplitude(lib, coeffs, 1.0, markers)
        assert not res.conclusive
