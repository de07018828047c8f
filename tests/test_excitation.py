import numpy as np
import pytest
from scipy.integrate import quad

from dataclasses import replace

import temsphere as ts
from temsphere import excitation as ex
from temsphere.core import ParameterError
from temsphere.excitation import line_integrals, pulse_history_integral
from temsphere.special import vector_spherical_harmonic

from oracles import (
    coil_line_integral,
    excitation_amplitude,
    exterior_multipole_line_integral,
    polygon_line_integral,
    voltage_coefficient,
)


class TestPulseHistoryIntegral:
    def test_step_off(self):
        pulse = ts.PulseWaveform(base_current_a=2.0, windings=3, ramp="step")
        assert pulse_history_integral(pulse, 5.0) == pytest.approx(6.0 / 5.0)

    def test_linear_ramp_closed_form_vs_quadrature(self):
        tau_r, lam, i0 = 3e-4, 700.0, 2.5
        pulse = ts.PulseWaveform(base_current_a=i0, ramp="linear", tau_r_s=tau_r)

        def current(t):  # t measured back from t0
            if t <= 0:
                return 0.0
            if t >= tau_r:
                return i0
            return i0 * t / tau_r

        ramp_part, _ = quad(lambda u: current(u) * np.exp(-lam * u), 0, tau_r)
        flat_part, _ = quad(lambda u: i0 * np.exp(-lam * u), tau_r, 80 / lam, limit=300)
        oracle = ramp_part + flat_part
        mine = pulse_history_integral(pulse, lam)
        assert mine == pytest.approx(i0 * (1 - np.exp(-lam * tau_r)) / (tau_r * lam**2))
        assert mine == pytest.approx(oracle, rel=1e-10)

    def test_ramp_step_limit(self):
        i0, lam = 1.7, 42.0
        ramp = ts.PulseWaveform(base_current_a=i0, ramp="linear", tau_r_s=1e-12)
        assert pulse_history_integral(ramp, lam) == pytest.approx(i0 / lam, rel=1e-9)

    def test_table_vs_quadrature(self):
        # trapezoidal shutoff sampled as a piecewise-linear table ending at t0
        knots = ((-1e-3, 2.0), (-5e-4, 2.0), (-2e-4, 0.7), (0.0, 0.0))
        pulse = ts.PulseWaveform(base_current_a=1.0, ramp="table", table=knots)
        lam = 900.0

        def current(u):  # u = t0 - t'
            t = -u
            ts_, is_ = zip(*knots)
            if t <= ts_[0]:
                return is_[0]
            return float(np.interp(t, ts_, is_))

        kinks = sorted(-t for t, _ in knots)
        pieces = kinks + [50 / lam]
        oracle = 0.0
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            val, _ = quad(lambda u: current(u) * np.exp(-lam * u), lo, hi, limit=300)
            oracle += val
        assert pulse_history_integral(pulse, lam) == pytest.approx(oracle, rel=1e-10)

    def test_rate_validation(self):
        pulse = ts.PulseWaveform(base_current_a=1.0)
        with pytest.raises(ParameterError):
            pulse_history_integral(pulse, 0.0)


class TestCoilLineIntegral:
    def test_m_nonzero_vanishes_for_coaxial(self, aluminum_sphere, rx_loop):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=2, count=1).modes[0]
        from dataclasses import replace

        tilted = replace(mode, m=1)
        assert coil_line_integral(tilted, rx_loop) == 0.0

    def test_circular_closed_form_vs_quadrature(self, aluminum_sphere):
        # parametrize the circle and integrate the multipole field directly
        a = aluminum_sphere.radius_m
        loop = ts.Loop(kind="circular", radius_m=0.3, height_m=0.2)
        closed = line_integrals(loop, a, [(1, 0), (2, 0), (3, 0)])
        for l in (1, 2, 3):
            r = np.hypot(loop.radius_m, loop.height_m)
            theta = np.arctan2(loop.radius_m, loop.height_m)
            x = vector_spherical_harmonic(l, 0, theta, 0.0)
            # X_l0 is phi-independent; dl = rho dphi phi_hat
            oracle = (a / r) ** (l + 1) * x[2][0] * loop.radius_m * 2 * np.pi
            assert closed[(l, 0)] == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("rho, h", [(1e-3, 1.0), (0.3, 0.4), (1.0, 1e-3), (0.5, -0.2)],
                             ids=["near-axis", "between", "near-equator", "below"])
    def test_circular_column_matches_per_degree_oracle(self, rho, h):
        # every degree from one Ptilde_l1 recurrence against dY_l0/dtheta per l
        a = 0.05
        loop = ts.Loop(kind="circular", radius_m=rho, height_m=h)
        keys = [(l, 0) for l in range(1, 13)] + [(2, 1), (3, -2)]
        got = line_integrals(loop, a, keys)
        ref = {lm: exterior_multipole_line_integral(*lm, loop, a) for lm in keys}
        top = max(abs(v) for v in ref.values())
        assert list(got) == keys and got[(2, 1)] == got[(3, -2)] == 0.0
        assert max(abs(got[lm] - ref[lm]) for lm in keys) <= 1e-14 * top

    @pytest.mark.parametrize("loop", ["square", "triangle"])
    def test_polygon_matches_per_key_oracle(self, loop):
        loop = {"square": SQUARE, "triangle": TRIANGLE}[loop]
        a = 0.05
        keys = [(l, m) for l in range(1, 13) for m in range(-l, l + 1)]
        got = line_integrals(loop, a, keys)
        ref = {lm: exterior_multipole_line_integral(*lm, loop, a) for lm in keys}
        top = max(abs(v) for v in ref.values())
        assert list(got) == keys
        assert max(abs(got[lm] - ref[lm]) for lm in keys) <= 1e-15 * top

    def test_polygon_matches_circle(self, aluminum_sphere):
        a = aluminum_sphere.radius_m
        rho, h, n = 0.3, 0.2, 4096
        phi = np.arange(n) * 2 * np.pi / n
        verts = tuple(
            (rho * np.cos(p), rho * np.sin(p), h) for p in phi
        )
        poly = ts.Loop(kind="polygon", vertices=verts)
        circ = ts.Loop(kind="circular", radius_m=rho, height_m=h)
        keys = [(1, 0), (2, 0), (1, 1)]
        vp, vc = line_integrals(poly, a, keys), line_integrals(circ, a, keys)
        for lm in ((1, 0), (2, 0)):
            assert vp[lm] == pytest.approx(vc[lm], rel=1e-5)
        # azimuthal orthogonality survives discretization
        assert abs(vp[(1, 1)]) < 1e-8

    def test_polygon_matches_fine_rule(self):
        # a forward-sweep-style square whose near side passes 3.8 target
        # radii from the center, against a 160-node rule per side
        a = 0.0843
        loop = ts.Loop(kind="polygon", vertices=(
            (-0.4, -0.25, 0.2), (0.6, -0.25, 0.2), (0.6, 0.25, 0.2), (-0.4, 0.25, 0.2)))
        keys = [(l, m) for l in range(1, 7) for m in range(-l, l + 1)]
        ref = {lm: polygon_line_integral(*lm, loop, a, order=160) for lm in keys}
        top = max(abs(v) for v in ref.values())
        got = line_integrals(loop, a, keys)
        assert max(abs(got[lm] - ref[lm]) for lm in keys) < 1e-13 * top

    def test_orientation_flip_changes_sign(self, aluminum_sphere):
        a = aluminum_sphere.radius_m
        verts = ((0.3, 0.0, 0.2), (0.0, 0.3, 0.2), (-0.3, -0.3, 0.2))
        fwd = ts.Loop(kind="polygon", vertices=verts)
        rev = ts.Loop(kind="polygon", vertices=tuple(reversed(verts)))
        v1 = line_integrals(fwd, a, [(1, 0)])[(1, 0)]
        v2 = line_integrals(rev, a, [(1, 0)])[(1, 0)]
        assert v1 == pytest.approx(-v2, rel=1e-12)

    def test_loop_inside_target_rejected(self, aluminum_sphere):
        loop = ts.Loop(kind="circular", radius_m=0.01, height_m=0.0)
        with pytest.raises(ParameterError):
            line_integrals(loop, aluminum_sphere.radius_m, [(1, 0)])


class TestTimeSeries:
    @pytest.mark.parametrize("times", [[1.0, np.nan, 3.0], [1.0, 2.0, np.inf]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(ParameterError, match="finite"):
            ts.TimeSeries(times_s=times, values=[1.0, 0.5, 0.25])


class TestExcitationAmplitudes:
    def test_zero_current_history(self, aluminum_sphere, tx_loop):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1).modes[0]
        pulse = ts.PulseWaveform(base_current_a=0.0, ramp="step")
        assert excitation_amplitude(mode, pulse, tx_loop) == 0.0

    def test_windings_double_amplitude(self, aluminum_sphere, tx_loop):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1).modes[0]
        p1 = ts.PulseWaveform(base_current_a=1.0, windings=1, ramp="step")
        p2 = ts.PulseWaveform(base_current_a=1.0, windings=2, ramp="step")
        a1 = excitation_amplitude(mode, p1, tx_loop)
        a2 = excitation_amplitude(mode, p2, tx_loop)
        assert a2 == pytest.approx(2.0 * a1, rel=1e-14)

    def test_voltage_scales_with_receiver_windings(
        self, aluminum_500_library, step_pulse, tx_loop
    ):
        rx1 = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=1)
        rx3 = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=3)
        c1 = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx1)
        c3 = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx3)
        assert np.allclose(c3.voltages, 3.0 * c1.voltages, rtol=1e-14)

    def test_coincident_step_off_all_positive(self, aluminum_sphere, step_pulse):
        loop = ts.Loop(kind="circular", radius_m=0.3, height_m=0.25, windings=1)
        lib = ts.build_mode_library(aluminum_sphere, 1.0, max_l=2, count_per_l=20)
        coeffs = ts.compute_excitation(lib, step_pulse, loop, loop)
        assert np.all(coeffs.voltages > 0)

    def test_uniform_field_only_excites_dipole_sector(
        self, aluminum_sphere, step_pulse, rx_loop
    ):
        lib = ts.build_mode_library(aluminum_sphere, 1.0, max_l=2, count_per_l=5)
        coeffs = ts.compute_excitation(lib, step_pulse, ts.UniformField(1.0), rx_loop)
        for mode, v in zip(lib.modes, coeffs.voltages):
            if mode.l != 1:
                assert v == 0.0
            else:
                assert v != 0.0


SQUARE = ts.Loop(kind="polygon", vertices=(
    (-0.25, -0.3, 0.3), (0.35, -0.3, 0.3), (0.35, 0.3, 0.3), (-0.25, 0.3, 0.3)))
TRIANGLE = ts.Loop(kind="polygon", windings=3, vertices=(
    (0.3, 0.05, 0.35), (-0.2, 0.3, 0.35), (-0.15, -0.3, 0.35)))
COAXIAL_TX = ts.Loop(kind="circular", radius_m=0.4, height_m=0.3)
COAXIAL_RX = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=2)
PULSES = {
    "step": ts.PulseWaveform(base_current_a=2.0, windings=2, ramp="step"),
    "linear": ts.PulseWaveform(base_current_a=2.0, ramp="linear", tau_r_s=3e-5, t0_s=3e-5),
    "table": ts.PulseWaveform(
        base_current_a=1.5, ramp="table", t0_s=4e-5,
        table=((0.0, 1.5), (2e-5, 0.6), (4e-5, 0.0)),
    ),
}


def per_mode_excitation(lib, pulse, tx, rx):
    """Reference: the single-mode API, one mode (and one m) at a time."""
    i_n, a_n, v_n = [], [], []
    for mode in lib.modes:
        i_n.append(pulse_history_integral(pulse, mode.decay_rate_per_s))
        if isinstance(tx, ts.UniformField):
            amp = excitation_amplitude(mode, pulse, tx, lib.target, lib.background_mu_r)
            volt = voltage_coefficient(mode, amp, rx)
        else:
            amp = excitation_amplitude(mode, pulse, tx)
            # the stored m = 0 mode stands for its 2l+1 degenerate partners
            partners = [replace(mode, m=m) for m in range(-mode.l, mode.l + 1)]
            volt = sum(
                (
                    p.decay_rate_per_s * rx.windings
                    * excitation_amplitude(p, pulse, tx) * coil_line_integral(p, rx)
                ).real
                for p in partners
            )
            if rx.kind == "circular":  # only m = 0 couples to a coaxial receiver
                assert voltage_coefficient(mode, amp, rx) == pytest.approx(volt, rel=1e-12)
        a_n.append(amp)
        v_n.append(volt)
    return np.array(i_n), np.array(a_n), np.array(v_n)


class TestComputeExcitationOracle:
    @pytest.mark.parametrize(
        "tx, rx, pulse, max_l, mu_r",
        [
            (COAXIAL_TX, COAXIAL_RX, "step", 1, 1.0),
            (COAXIAL_TX, COAXIAL_RX, "linear", 3, 60.0),
            (SQUARE, COAXIAL_RX, "table", 2, 1.0),
            (SQUARE, TRIANGLE, "step", 4, 60.0),
            (ts.UniformField(1.5), COAXIAL_RX, "step", 1, 60.0),
            (ts.UniformField(1.5), TRIANGLE, "table", 2, 1.0),
        ],
        ids=["coaxial-step", "coaxial-linear", "polygon-table", "polygon-both",
             "uniform-step", "uniform-table"],
    )
    def test_matches_per_mode_loop(self, tx, rx, pulse, max_l, mu_r):
        target = ts.TargetSpec(
            radius_m=0.05,
            material=ts.MaterialSpec(conductivity_s_per_m=1 / 2.8e-8, relative_permeability=mu_r),
        )
        lib = ts.build_mode_library(target, 1.0, max_l=max_l, count_per_l=30)
        coeffs = ts.compute_excitation(lib, PULSES[pulse], tx, rx)
        i_n, a_n, v_n = per_mode_excitation(lib, PULSES[pulse], tx, rx)
        np.testing.assert_allclose(coeffs.pulse_integrals, i_n, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(coeffs.voltages, v_n, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(v_n) > 0


class TestSynthesis:
    def test_single_mode_decay(self, aluminum_sphere):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1).modes[0]
        from dataclasses import replace

        mode = replace(mode, decay_rate_per_s=3.0, x=mode.x)
        lib = ts.ModeLibrary(
            target=aluminum_sphere, background_mu_r=1.0, modes=(mode,), max_l=1, max_n=1
        )
        coeffs = ts.ExcitationCoefficients(
            pulse_integrals=np.array([1.0]),
            coupling={},
            voltages=np.array([2.0]),
        )
        series = ts.synthesize_voltage(lib, coeffs, np.array([0.1, 1.0, 10.0 / 3.0]))
        assert series.values[0] == pytest.approx(2.0 * np.exp(-0.3))
        assert series.values[2] == pytest.approx(2.0 * np.exp(-10.0), rel=1e-12)

    def test_mode_sum_skips_only_exact_zeros(self, aluminum_500_library, tx_loop, rx_loop):
        lib = aluminum_500_library
        coeffs = ts.compute_excitation(lib, ts.PulseWaveform(1.0, ramp="step"), tx_loop, rx_loop)
        tau_c = lib.target.radius_m**2 / ts.diffusivity(lib.target.material)
        t = np.geomspace(1e-7 * tau_c, 10.0 * tau_c, 200)
        exponent = np.outer(t, lib.rates)
        assert (exponent > 745.2).any() and (exponent[-1] > 745.2).mean() < 1.0
        want = np.exp(-np.outer(t, lib.rates)) @ coeffs.voltages
        assert ex._mode_sum(lib, coeffs, t).tobytes() == want.tobytes()

    def test_empty_library_fails(self, aluminum_sphere):
        lib = ts.ModeLibrary(
            target=aluminum_sphere, background_mu_r=1.0, modes=(), max_l=1, max_n=0
        )
        coeffs = ts.ExcitationCoefficients(
            pulse_integrals=np.array([]), coupling={}, voltages=np.array([])
        )
        with pytest.raises(ParameterError):
            ts.synthesize_voltage(lib, coeffs, np.array([1.0]))

    def test_linearity_in_drive(self, aluminum_500_library, tx_loop, rx_loop):
        markers_tau = 0.112
        gates = np.geomspace(1e-4 * markers_tau, markers_tau, 30)
        p1 = ts.PulseWaveform(base_current_a=1.0, ramp="step")
        p8 = ts.PulseWaveform(base_current_a=8.0, ramp="step")
        v1 = ts.synthesize_voltage(
            aluminum_500_library,
            ts.compute_excitation(aluminum_500_library, p1, tx_loop, rx_loop),
            gates,
        ).values
        v8 = ts.synthesize_voltage(
            aluminum_500_library,
            ts.compute_excitation(aluminum_500_library, p8, tx_loop, rx_loop),
            gates,
        ).values
        assert np.allclose(v8, 8.0 * v1, rtol=1e-13)

    def test_complete_monotonicity(
        self, aluminum_sphere, step_pulse
    ):
        loop = ts.Loop(kind="circular", radius_m=0.3, height_m=0.25, windings=1)
        lib = ts.build_mode_library(aluminum_sphere, 1.0, max_l=1, count_per_l=100)
        coeffs = ts.compute_excitation(lib, step_pulse, loop, loop)
        tau_c = 0.112
        gates = np.geomspace(1e-4 * tau_c, 5 * tau_c, 200)
        v = ts.synthesize_voltage(lib, coeffs, gates).values
        assert np.all(v > 0)
        assert np.all(np.diff(v) < 0)
        assert np.all(np.diff(v, 2) > 0)

    def test_early_time_slope_within_stated_band(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop, aluminum_sphere
    ):
        # fitted log-log slope on [1e-5, 1e-3] tau_c lies in [-0.52, -0.48]
        # and, since the nonmagnetic sum is exactly
        # V sqrt(t) = c (1 - sqrt(pi t/tau_c)), equals the slope of that
        # closed form on the same gates within 1e-3 (-0.5104); a truncated
        # library (100 modes: -0.4897) stays in the band but fails the tie
        tau_c = aluminum_sphere.radius_m**2 / ts.diffusivity(aluminum_sphere.material)
        gates = np.geomspace(1e-5 * tau_c, 1e-3 * tau_c, 101)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        v = ts.synthesize_voltage(aluminum_500_library, coeffs, gates).values
        design = np.vstack([np.ones_like(gates), np.log(gates)]).T
        slope = np.linalg.lstsq(design, np.log(v), rcond=None)[0][1]
        exact = gates**-0.5 * (1.0 - np.sqrt(np.pi * gates / tau_c))
        exact_slope = np.linalg.lstsq(design, np.log(exact), rcond=None)[0][1]
        assert -0.52 <= slope <= -0.48
        assert abs(slope - exact_slope) <= 1e-3

    def test_late_time_slope_is_fundamental_rate(
        self, aluminum_500_library, step_pulse, tx_loop, rx_loop
    ):
        lam1 = aluminum_500_library.rates[0]
        gates = np.linspace(5.0 / lam1, 8.0 / lam1, 40)
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        v = ts.synthesize_voltage(aluminum_500_library, coeffs, gates).values
        design = np.vstack([np.ones_like(gates), gates]).T
        slope = np.linalg.lstsq(design, np.log(v), rcond=None)[0][1]
        assert slope == pytest.approx(-lam1, rel=1e-3)


class TestTruncationBound:
    def test_monotone_and_vanishing(self, aluminum_500_library, step_pulse, tx_loop, rx_loop):
        coeffs = ts.compute_excitation(aluminum_500_library, step_pulse, tx_loop, rx_loop)
        lam_max = aluminum_500_library.rates[-1]
        t = np.array([1.0 / lam_max, 10.0 / lam_max, 100.0 / lam_max])
        bound = ts.truncation_bound(aluminum_500_library, coeffs, t)
        assert bound[0] > bound[1] > bound[2] >= 0
        far = ts.truncation_bound(aluminum_500_library, coeffs, np.array([1e9 / lam_max]))
        assert far[0] == 0.0

    def test_brackets_true_tail(self, aluminum_sphere, step_pulse, tx_loop, rx_loop):
        lib500 = ts.build_mode_library(aluminum_sphere, 1.0, 1, 500)
        lib1000 = ts.build_mode_library(aluminum_sphere, 1.0, 1, 1000)
        c500 = ts.compute_excitation(lib500, step_pulse, tx_loop, rx_loop)
        c1000 = ts.compute_excitation(lib1000, step_pulse, tx_loop, rx_loop)
        tau_c = 0.112
        gates = np.geomspace(2e-5 * tau_c, 3e-4 * tau_c, 20)
        v500 = ts.synthesize_voltage(lib500, c500, gates).values
        v1000 = ts.synthesize_voltage(lib1000, c1000, gates).values
        omitted = np.abs(v1000 - v500)
        bound = ts.truncation_bound(lib500, c500, gates)
        assert np.all(bound >= omitted)


class TestClosestApproach:
    # the side from (-1, 0.049) to (1.03, 0.049) passes 0.049 m from the
    # centre between any two of 33 evenly spaced samples
    SKIMMING = ts.Loop(kind="polygon", vertices=((-1.0, 0.049, 0.0), (1.03, 0.049, 0.0),
                                                 (0.0, 1.0, 0.0)))

    def test_side_distance_is_exact(self):
        assert self.SKIMMING.min_distance_m() == pytest.approx(0.049, rel=1e-15)

    def test_nearest_point_at_a_vertex(self):
        loop = ts.Loop(kind="polygon", vertices=((0.3, 0.2, 0.1), (0.3, 0.5, 0.1), (0.6, 0.2, 0.1)))
        assert loop.min_distance_m() == pytest.approx(np.sqrt(0.14), rel=1e-15)

    def test_repeated_vertex_adds_a_point_side(self):
        verts = ((0.3, 0.0, 0.2), (0.0, 0.3, 0.2), (-0.3, -0.3, 0.2))
        loop = ts.Loop(kind="polygon", vertices=verts[:1] + verts)
        assert loop.min_distance_m() == ts.Loop(kind="polygon", vertices=verts).min_distance_m()

    def test_skimming_loop_rejected(self, rx_loop):
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8))
        with pytest.raises(ParameterError, match="intersects"):
            ts.coupling_table(target, self.SKIMMING, rx_loop, 1, 1.0)
        with pytest.raises(ParameterError, match="intersects"):
            ts.illumination_coefficients(self.SKIMMING, target, 1)


class TestCouplingTable:
    A = 0.05

    def test_products_of_line_integrals(self):
        table = ts.coupling_table(ts.TargetSpec(self.A, ts.MaterialSpec(1e7)), SQUARE, TRIANGLE,
                                  3, 2.5)
        keys = [(l, m) for l in range(1, 4) for m in range(-l, l + 1)]
        assert sorted(table) == keys
        lt, lr = line_integrals(SQUARE, self.A, keys), line_integrals(TRIANGLE, self.A, keys)
        for lm, value in table.items():
            assert value == pytest.approx(2.5 * np.conj(lt[lm]) * lr[lm], rel=1e-15)

    @pytest.mark.parametrize("tx, rx", [(SQUARE, COAXIAL_RX), (COAXIAL_TX, TRIANGLE)])
    def test_circular_loop_couples_m0_only(self, tx, rx, monkeypatch):
        # one line_integrals call per loop, each asked for (l, 0) alone
        calls = []
        original = ex.line_integrals

        def counted(loop, radius_m, keys):
            calls.append((loop, list(keys)))
            return original(loop, radius_m, keys)

        monkeypatch.setattr(ex, "line_integrals", counted)
        table = ts.coupling_table(ts.TargetSpec(self.A, ts.MaterialSpec(1e7)), tx, rx, 4, 1.0)
        m0 = [(l, 0) for l in range(1, 5)]
        assert list(table) == m0
        assert calls == [(tx, m0), (rx, m0)]

    def test_uniform_field_is_the_reciprocal_dipole(self):
        # a uniform field's illumination d_10 equals that of a loop whose
        # I conj(L_10) is the table's analytic dipole
        target = ts.TargetSpec(self.A, ts.MaterialSpec(1e7))
        h0 = 1.5
        table = ts.coupling_table(target, ts.UniformField(h0), COAXIAL_RX, 3, 7.0)
        assert list(table) == [(1, 0)]
        lr = line_integrals(COAXIAL_RX, self.A, [(1, 0)])[(1, 0)]
        drive = table[(1, 0)] / lr  # I conj(L_tx,10)
        d_loop = -1j * np.sqrt(2.0) * drive / (3.0 * self.A)
        pot_scale = ts.scales_for(target).factor("potential")
        d_uniform = ts.illumination_coefficients(ts.UniformField(h0), target, 3).growing[(1, 0)]
        assert d_loop / pot_scale == pytest.approx(d_uniform, rel=1e-15)

    def test_unknown_transmitter_rejected(self):
        with pytest.raises(ParameterError, match="transmitter"):
            ts.coupling_table(ts.TargetSpec(self.A, ts.MaterialSpec(1e7)), "coil", COAXIAL_RX,
                              1, 1.0)


class TestLoopVertices:
    def test_rows_stored_as_float_tuples(self):
        loop = ts.Loop(kind="polygon",
                       vertices=[[0.3, 0, 0.2], [0, 0.3, 0.2], np.array([-0.3, -0.3, 0.2])])
        assert loop.vertices == ((0.3, 0.0, 0.2), (0.0, 0.3, 0.2), (-0.3, -0.3, 0.2))
        assert all(type(c) is float for row in loop.vertices for c in row)
        assert hash(loop) == hash(ts.Loop(kind="polygon", vertices=loop.vertices))

    @pytest.mark.parametrize("row", [
        [0.3, 0.3], [0.3, 0.3, 0.2, 1.0], [0.3, np.nan, 0.2], [0.3, 0.3, np.inf],
        [True, 0.3, 0.2], ["0.3", 0.3, 0.2], 0.3, None],
        ids=["2-col", "4-col", "nan", "inf", "bool", "string", "scalar", "none"])
    def test_bad_row_named(self, row):
        verts = [[0.3, 0.0, 0.2], row, [-0.3, -0.3, 0.2]]
        with pytest.raises(ParameterError, match=r"^polygon vertex 1 must be 3 finite numbers"):
            ts.Loop(kind="polygon", vertices=verts)

    def test_non_sequence_rejected(self):
        with pytest.raises(ParameterError, match="sequence"):
            ts.Loop(kind="polygon", vertices=3.0)
