import numpy as np
import pytest
from scipy.integrate import quad

import temsphere as ts
from temsphere.core import ParameterError
from temsphere.earlytime import (
    early_signal,
    external_fields,
    interior_normal_h,
    surface_curl_normal,
    surface_current_closed_form,
)
from temsphere.special import (
    spherical_harmonic,
    spherical_harmonic_dtheta,
    vector_spherical_harmonic,
)

from oracles import angular_grid, grid_illumination_coefficients, potential_decay_prefactor


def unit_illumination(l, m):
    """Static solution with unit interior amplitude at one harmonic."""
    exp = ts.PotentialExpansion()
    exp.interior[(l, m)] = 1.0 + 0.0j
    return exp


GOLDEN_SQUARE = ((-0.25, -0.3, 0.3), (0.35, -0.3, 0.3), (0.35, 0.3, 0.3), (-0.25, 0.3, 0.3))
GOLDEN_TRIANGLE = ((0.3, 0.05, 0.35), (-0.2, 0.3, 0.35), (-0.15, -0.3, 0.35))
# forward-sweep-style square whose near side passes 3.8 target radii
# (a = 0.0843 m) from the center
NEAR_SQUARE = ((-0.4, -0.25, 0.2), (0.6, -0.25, 0.2), (0.6, 0.25, 0.2), (-0.4, 0.25, 0.2))


class TestIllumination:
    def test_uniform_field_is_pure_dipole(self, aluminum_sphere):
        ill = ts.illumination_coefficients(ts.UniformField(2.0), aluminum_sphere, 4)
        assert set(ill.growing) == {(1, 0)}
        # internal units scale out the amplitude: d1_hat = -sqrt(4 pi / 3)
        scales = ts.scales_for(aluminum_sphere, field_a_per_m=2.0)
        ill2 = ts.illumination_coefficients(
            ts.UniformField(2.0), aluminum_sphere, 4, scales=scales
        )
        assert ill2.growing[(1, 0)] == pytest.approx(-np.sqrt(4 * np.pi / 3))

    def test_distant_loop_dipole_dominates(self, aluminum_sphere):
        ratios = []
        for h in (1.0, 10.0):
            loop = ts.Loop(kind="circular", radius_m=0.3, height_m=h)
            ill = ts.illumination_coefficients(loop, aluminum_sphere, 2)
            ratios.append(abs(ill.growing[(2, 0)] / ill.growing[(1, 0)]))
        assert ratios[1] < ratios[0] / 5.0

    def test_coaxial_loop_matches_biot_savart_axis_field(self, aluminum_sphere):
        loop = ts.Loop(kind="circular", radius_m=0.4, height_m=0.3)
        current = 2.2
        max_l = 10
        ill = ts.illumination_coefficients(
            loop, aluminum_sphere, max_l, source_current_a=current
        )
        a = aluminum_sphere.radius_m
        pot_scale = ts.scales_for(aluminum_sphere).factor("potential")
        s = np.hypot(loop.radius_m, loop.height_m)
        for z in (0.02 * s, 0.05 * s):
            # H_z = -dPhi/dz on the axis; Y_l0(0) = sqrt((2l+1)/4pi)
            hz = -pot_scale * sum(
                ill.growing[(l, 0)].real
                * l
                * z ** (l - 1)
                / a**l
                * np.sqrt((2 * l + 1) / (4 * np.pi))
                for l in range(1, max_l + 1)
            )
            exact = (
                current
                * loop.radius_m**2
                / (2.0 * (loop.radius_m**2 + (loop.height_m - z) ** 2) ** 1.5)
            )
            assert hz == pytest.approx(exact, rel=1e-8)

    def test_polygon_loop_matches_biot_savart_axis_field(self, aluminum_sphere):
        n = 256
        rho, h, current = 0.4, 0.3, 1.0
        phi = np.arange(n) * 2 * np.pi / n
        verts = tuple((rho * np.cos(p), rho * np.sin(p), h) for p in phi)
        poly = ts.Loop(kind="polygon", vertices=verts)
        max_l = 8
        ill = ts.illumination_coefficients(
            poly, aluminum_sphere, max_l, source_current_a=current
        )
        a = aluminum_sphere.radius_m
        pot_scale = ts.scales_for(aluminum_sphere).factor("potential")
        z = 0.02 * np.hypot(rho, h)
        hz = -pot_scale * sum(
            (ill.growing[(l, 0)] * l * z ** (l - 1) / a**l).real
            * np.sqrt((2 * l + 1) / (4 * np.pi))
            for l in range(1, max_l + 1)
        )
        exact = current * rho**2 / (2.0 * (rho**2 + (h - z) ** 2) ** 1.5)
        assert hz == pytest.approx(exact, rel=1e-4)  # polygon discretization

    @pytest.mark.parametrize(
        "vertices, radius_m, max_l",
        [(GOLDEN_SQUARE, 0.05, 4), (GOLDEN_TRIANGLE, 0.05, 4),
         (NEAR_SQUARE, 0.0843, 1), (NEAR_SQUARE, 0.0843, 6)],
        ids=["golden-square", "golden-triangle", "near-square-l1", "near-square-l6"],
    )
    def test_polygon_matches_grid_projection(self, aluminum, vertices, radius_m, max_l):
        # the line-integral path against the Biot-Savart field projected on
        # a surface quadrature grid
        target = ts.TargetSpec(radius_m=radius_m, material=aluminum)
        loop = ts.Loop(kind="polygon", vertices=vertices)
        ill = ts.illumination_coefficients(loop, target, max_l, source_current_a=1.3)
        ref = grid_illumination_coefficients(loop, target, max_l, 1.3)
        assert list(ill.growing) == list(ref)
        top = max(abs(d) for d in ref.values())
        assert max(abs(ill.growing[lm] - d) for lm, d in ref.items()) < 1e-12 * top

    def test_loop_through_target_rejected(self, aluminum_sphere):
        loop = ts.Loop(kind="circular", radius_m=0.01, height_m=0.0)
        with pytest.raises(ParameterError):
            ts.illumination_coefficients(loop, aluminum_sphere, 2)


class TestStaticResponse:
    def test_zero_contrast_no_anomaly(self):
        ill = ts.PotentialExpansion(growing={(1, 0): 1.0})
        static = ts.static_sphere_response(ill, 1.0, 1.0)
        assert static.decaying[(1, 0)] == 0.0
        assert static.interior[(1, 0)] == pytest.approx(1.0)

    def test_printed_coefficient_mu200(self):
        ill = ts.PotentialExpansion(growing={(1, 0): 1.0})
        static = ts.static_sphere_response(ill, 200.0, 1.0)
        c_init_per_interior = static.decaying[(1, 0)] / static.interior[(1, 0)]
        assert c_init_per_interior == pytest.approx(-199.0 / 3.0, rel=1e-12)

    def test_large_l_limit(self):
        mu = 7.0
        ill = ts.PotentialExpansion(growing={(40, 0): 1.0})
        static = ts.static_sphere_response(ill, mu, 1.0)
        ratio = static.decaying[(40, 0)] / static.interior[(40, 0)]
        assert ratio == pytest.approx((1 - mu) / 2.0, rel=0.02)


class TestNeumannSolve:
    def test_printed_coefficients(self):
        static = unit_illumination(1, 0)
        phi0 = ts.solve_exterior_neumann(interior_normal_h(static), 200.0, 1.0)
        assert phi0.decaying[(1, 0)] == pytest.approx(-100.0, rel=1e-12)
        phi0 = ts.solve_exterior_neumann(interior_normal_h(static), 1.0, 1.0)
        assert phi0.decaying[(1, 0)] == pytest.approx(-0.5, rel=1e-12)

    def test_monopole_rejected(self):
        data = ts.SurfaceScalarSpectrum(coeffs={(0, 0): 1.0})
        with pytest.raises(ParameterError):
            ts.solve_exterior_neumann(data, 1.0, 1.0)

    def test_boundary_condition_pointwise(self):
        # -dPhi0/dr at r=a must equal (mu_c/mu_b) n.H_c at quadrature nodes
        mu_c, mu_b = 10.0, 1.0
        static = ts.PotentialExpansion(
            interior={(1, 0): 0.8, (2, 1): 0.5 - 0.2j, (3, -2): 0.1j}
        )
        phi0 = ts.solve_exterior_neumann(interior_normal_h(static), mu_c, mu_b)
        grid = angular_grid(8, 8)
        lhs = np.zeros(grid.size, dtype=complex)
        rhs = np.zeros(grid.size, dtype=complex)
        for (l, m), c in phi0.decaying.items():
            lhs += (l + 1) * c * spherical_harmonic(l, m, grid.theta, grid.phi)
        for (l, m), b in static.interior.items():
            rhs += (mu_c / mu_b) * (-l * b) * spherical_harmonic(
                l, m, grid.theta, grid.phi
            )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestSurfaceCurrent:
    @pytest.mark.parametrize("mu_pair", [(1.0, 1.0), (200.0, 1.0)])
    def test_spectral_matches_closed_form_all_l(self, mu_pair):
        mu_c, mu_b = mu_pair
        for l in range(1, 9):
            for m in (-l, 0, min(1, l)):
                static = unit_illumination(l, m)
                phi0 = ts.solve_exterior_neumann(interior_normal_h(static), mu_c, mu_b)
                current = ts.surface_current(phi0, static, max_l=8)
                expected = surface_current_closed_form(l, mu_c, mu_b)
                assert current.coeffs[(l, m)] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mu_pair", [(1.0, 1.0), (60.0, 1.0)])
    def test_pointwise_tangential_mismatch(self, mu_pair):
        # -n x (grad Phi0 + H_c) on the surface equals sum K_lm X_lm
        mu_c, mu_b = mu_pair
        static = ts.PotentialExpansion(
            interior={(1, 0): 0.8, (1, -1): 0.3 + 0.1j, (2, 1): 0.5 - 0.2j,
                      (3, -2): 0.1j, (4, 3): -0.25}
        )
        phi0 = ts.solve_exterior_neumann(interior_normal_h(static), mu_c, mu_b)
        current = ts.surface_current(phi0, static, max_l=4)
        assert list(current.coeffs) == sorted(static.interior)
        grid = angular_grid(12, 16)
        th, ph = grid.theta, grid.phi
        vth = np.zeros(grid.size, dtype=complex)
        vph = np.zeros(grid.size, dtype=complex)
        for (l, m), b in static.interior.items():
            # grad Phi0 + H_c = grad(Phi0 - Phi_c), tangential part at r = a
            diff = phi0.decaying[(l, m)] - b
            vth += diff * spherical_harmonic_dtheta(l, m, th, ph)
            vph += diff * 1j * m * spherical_harmonic(l, m, th, ph) / np.sin(th)
        # -n x (v_theta e_theta + v_phi e_phi) = v_phi e_theta - v_theta e_phi
        kth, kph = vph, -vth
        sth = np.zeros(grid.size, dtype=complex)
        sph = np.zeros(grid.size, dtype=complex)
        for (l, m), k in current.coeffs.items():
            x = vector_spherical_harmonic(l, m, th, ph)
            sth += k * x[1]
            sph += k * x[2]
        scale = max(np.max(np.abs(kth)), np.max(np.abs(kph)))
        assert np.max(np.abs(sth - kth)) < 1e-12 * scale
        assert np.max(np.abs(sph - kph)) < 1e-12 * scale

    def test_degree_cut_and_absent_harmonics(self):
        # l = 0 carries no current, K = 0 is dropped and l > max_l is cut
        static = ts.PotentialExpansion(
            interior={(0, 0): 2.0, (1, 0): 1.0, (2, 0): 0.25, (3, 2): 0.5}
        )
        phi0 = ts.PotentialExpansion(decaying={(1, 0): -0.5, (2, 0): 0.25, (3, 2): -0.375})
        assert list(ts.surface_current(phi0, static, max_l=2).coeffs) == [(1, 0)]
        assert list(ts.surface_current(phi0, static, max_l=3).coeffs) == [(1, 0), (3, 2)]

    def test_printed_magnitude_nonmagnetic_dipole(self):
        value = surface_current_closed_form(1, 1.0, 1.0)
        assert abs(value) == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)
        assert value.real == 0.0

    def test_purely_tangential_basis(self):
        x = vector_spherical_harmonic(4, 2, 0.9, 1.1)
        assert np.all(x[0] == 0.0)


class TestInteriorKernels:
    def test_depth_integral_conserved(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 2.0 + 0.0j})
        mu_c = 3.0
        for tau in (1e-5, 1e-4, 1e-3):
            val, _ = quad(
                lambda z: ts.interior_electric_field(current, z, tau, mu_c)[(1, 0)].real,
                -30 * np.sqrt(tau),
                0.0,
                limit=400,
            )
            # int E dz = K/sigma = mu_c K internally
            assert val == pytest.approx(mu_c * 2.0, rel=1e-10)

    def test_surface_value_scales_inverse_sqrt_time(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.0})
        e1 = ts.interior_electric_field(current, 0.0, 1e-4, 1.0)[(1, 0)]
        e4 = ts.interior_electric_field(current, 0.0, 4e-4, 1.0)[(1, 0)]
        assert e1 / e4 == pytest.approx(2.0, rel=1e-12)

    def test_profile_matches_fd_diffusion_oracle(self):
        # brute-force explicit finite-difference solve of the half-space
        # diffusion with Neumann boundary, from the analytic profile at an
        # early reference time
        tau0, tau1 = 1e-5, 1e-3
        z_lo = -8.0 * np.sqrt(4 * tau1)
        nz = 1200
        z = np.linspace(z_lo, 0.0, nz)
        dz = z[1] - z[0]
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.0})
        profile = lambda tau: np.real(
            ts.interior_electric_field(current, z, tau, 1.0)[(1, 0)]
        )
        u = profile(tau0)
        dt = 0.2 * dz * dz
        steps = int(np.ceil((tau1 - tau0) / dt))
        dt = (tau1 - tau0) / steps
        r = dt / dz**2
        for _ in range(steps):
            lap = np.empty_like(u)
            lap[1:-1] = u[2:] - 2 * u[1:-1] + u[:-2]
            lap[0] = 2 * (u[1] - u[0])  # far-side Neumann (field ~ 0 there)
            lap[-1] = 2 * (u[-2] - u[-1])  # surface Neumann dE/dz = 0
            u = u + r * lap
        ref = profile(tau1)
        err = np.sqrt(np.sum((u - ref) ** 2)) / np.sqrt(np.sum(ref**2))
        assert err < 1e-3

    def test_vector_potential_surface_growth(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(2, 1): 1.0 + 0.5j})
        a1 = ts.interior_vector_potential_correction(current, 0.0, 1e-4, 2.0)[(2, 1)]
        a4 = ts.interior_vector_potential_correction(current, 0.0, 4e-4, 2.0)[(2, 1)]
        assert a4 / a1 == pytest.approx(2.0, rel=1e-12)

    def test_vector_potential_self_similarity(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.0})
        tau = 2e-4
        z = -0.5 * np.sqrt(4 * tau)
        f = ts.interior_vector_potential_correction
        r1 = f(current, z, tau, 1.0)[(1, 0)] / f(current, 0.0, tau, 1.0)[(1, 0)]
        r2 = f(current, 2 * z, 4 * tau, 1.0)[(1, 0)] / f(current, 0.0, 4 * tau, 1.0)[(1, 0)]
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_time_derivative_reproduces_electric_field(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.3})
        mu_c, tau, z = 4.0, 3e-4, -0.004
        h = 1e-6 * tau
        ap = ts.interior_vector_potential_correction(current, z, tau + h, mu_c)[(1, 0)]
        am = ts.interior_vector_potential_correction(current, z, tau - h, mu_c)[(1, 0)]
        dadt = (ap - am) / (2 * h)
        e = ts.interior_electric_field(current, z, tau, mu_c)[(1, 0)]
        assert -dadt == pytest.approx(e, rel=1e-8)

    def test_interior_domain_validation(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.0})
        with pytest.raises(ParameterError):
            ts.interior_electric_field(current, 0.1, 1e-4, 1.0)
        with pytest.raises(ParameterError):
            ts.interior_electric_field(current, -0.1, 0.0, 1.0)


class TestNormalFieldChange:
    def test_sqrt_time_scaling(self):
        current = ts.SurfaceCurrentSpectrum(coeffs={(2, 0): 1.0})
        b1 = ts.normal_field_change(current, 1e-4, 5.0).coeffs[(2, 0)]
        b4 = ts.normal_field_change(current, 4e-4, 5.0).coeffs[(2, 0)]
        assert b4 / b1 == pytest.approx(2.0, rel=1e-14)

    def test_spectral_surface_curl_vs_finite_difference(self):
        # n.curl(K) for K = X_10 via theta differences of sin(theta) K_phi
        theta = np.linspace(0.15, np.pi - 0.15, 4001)
        h = theta[1] - theta[0]
        x = vector_spherical_harmonic(1, 0, theta, 0.0)
        integrand = np.sin(theta) * x[2]
        curl_fd = (integrand[2:] - integrand[:-2]) / (2 * h) / np.sin(theta[1:-1])
        expected = 1j * np.sqrt(2.0) * spherical_harmonic(1, 0, theta[1:-1], 0.0)
        assert np.max(np.abs(curl_fd - expected)) < 1e-6
        spectral = surface_curl_normal(
            ts.SurfaceCurrentSpectrum(coeffs={(1, 0): 1.0})
        ).coeffs[(1, 0)]
        assert spectral == pytest.approx(1j * np.sqrt(2.0), rel=1e-14)

    def test_monopole_pattern_impossible(self):
        with pytest.raises(ParameterError):
            vector_spherical_harmonic(0, 0, 1.0, 1.0)


class TestExteriorCorrection:
    def test_unit_example(self):
        # mu_c = mu_b, l = 1, a = D = 1, elapsed = pi/4: phi_1 = 3/2
        assert potential_decay_prefactor(1, 1.0, 1.0) * np.sqrt(
            np.pi / 4.0
        ) == pytest.approx(1.5, rel=1e-12)

    def test_doubling(self):
        pref = potential_decay_prefactor(3, 7.0, 2.0)
        assert pref * np.sqrt(4e-4) == pytest.approx(2 * pref * np.sqrt(1e-4), rel=1e-14)

    @pytest.mark.parametrize("mu_pair", [(1.0, 1.0), (10.0, 1.0), (200.0, 1.0)])
    def test_spectral_pipeline_matches_closed_form(self, mu_pair):
        mu_c, mu_b = mu_pair
        for l in range(1, 9):
            static = unit_illumination(l, 0)
            phi0 = ts.solve_exterior_neumann(interior_normal_h(static), mu_c, mu_b)
            current = ts.surface_current(phi0, static, max_l=8)
            bdata = ts.normal_field_change(current, 1.0, mu_c)
            dphi = ts.exterior_potential_correction(bdata, mu_b)
            # sign convention: trapped flux decays, coefficient is +phi_l
            expected = potential_decay_prefactor(l, mu_c, mu_b)
            assert dphi.decaying[(l, 0)] == pytest.approx(expected, rel=1e-12)

    def test_monopole_rejected(self):
        data = ts.SurfaceScalarSpectrum(coeffs={(0, 0): 2.0})
        with pytest.raises(ParameterError):
            ts.exterior_potential_correction(data, 1.0)


@pytest.fixture(scope="module")
def pipeline(aluminum_sphere):
    return ts.run_early_pipeline(aluminum_sphere, 1.0, ts.UniformField(1.0), 1)


@pytest.fixture(scope="module")
def voltage_setup(aluminum_sphere, environment):
    markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
    scales = ts.scales_for(aluminum_sphere)
    pipe = ts.run_early_pipeline(
        aluminum_sphere, 1.0, ts.UniformField(1.0), 1, scales=scales
    )
    return pipe, markers, scales


def uniform_signal(target, rx, markers):
    """Early law of a unit uniform field, read off the coupling table."""
    coupling = ts.coupling_table(target, ts.UniformField(1.0), rx, 1, 1.0)
    return early_signal(coupling, rx, markers, target)


class TestExternalFields:
    def test_inverse_sqrt_divergence_of_e(self, pipeline):
        tau = 2e-4
        f1 = external_fields(pipeline.dphi_prefactor, 2.0, 1.0, 0.5, tau, 1.0)
        f4 = external_fields(pipeline.dphi_prefactor, 2.0, 1.0, 0.5, 4 * tau, 1.0)
        assert (f1.dE[2] / f4.dE[2])[0].real == pytest.approx(2.0, abs=1e-10)

    def test_sqrt_cusps_of_a_and_b(self, pipeline):
        tau = 2e-4
        f1 = external_fields(pipeline.dphi_prefactor, 1.7, 0.9, 0.0, tau, 1.0)
        f4 = external_fields(pipeline.dphi_prefactor, 1.7, 0.9, 0.0, 4 * tau, 1.0)
        assert (f4.dA[2] / f1.dA[2])[0].real == pytest.approx(2.0, abs=1e-10)
        assert (f4.dB[0] / f1.dB[0])[0].real == pytest.approx(2.0, abs=1e-10)

    def test_curl_of_da_equals_db(self, pipeline):
        rng = np.random.default_rng(7)
        tau, h = 1e-4, 1e-5

        def cart_fields(xyz):
            r = np.linalg.norm(xyz)
            th = np.arccos(xyz[2] / r)
            ph = np.mod(np.arctan2(xyz[1], xyz[0]), 2 * np.pi)
            f = external_fields(pipeline.dphi_prefactor, r, th, ph, tau, 1.0)
            st, ct, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
            basis = np.array(
                [[st * cp, st * sp, ct], [ct * cp, ct * sp, -st], [-sp, cp, 0.0]]
            )
            da = (f.dA[:, 0, None] * basis).sum(axis=0).real
            db = (f.dB[:, 0, None] * basis).sum(axis=0).real
            return da, db

        for _ in range(20):
            p = rng.normal(size=3)
            p = p / np.linalg.norm(p) * rng.uniform(1.5, 4.0)
            curl = np.zeros(3)
            for k, (i, j) in enumerate([(1, 2), (2, 0), (0, 1)]):
                ei = np.zeros(3)
                ei[i] = h
                ej = np.zeros(3)
                ej[j] = h
                dji = (cart_fields(p + ei)[0][j] - cart_fields(p - ei)[0][j]) / (2 * h)
                dij = (cart_fields(p + ej)[0][i] - cart_fields(p - ej)[0][i]) / (2 * h)
                curl[k] = dji - dij
            db = cart_fields(p)[1]
            assert np.linalg.norm(curl - db) / np.linalg.norm(db) < 1e-6

    def test_interior_points_rejected(self, pipeline):
        with pytest.raises(ParameterError):
            external_fields(pipeline.dphi_prefactor, 0.9, 1.0, 0.0, 1e-4, 1.0)


class TestEarlyVoltage:
    def test_power_law_flatness(self, voltage_setup, aluminum_sphere, rx_loop):
        _, markers, _ = voltage_setup
        gates = np.geomspace(1e-5, 1e-3, 25) * markers.tau_c_s
        series = ts.early_voltage(uniform_signal(aluminum_sphere, rx_loop, markers), gates)
        y = series.values * np.sqrt(gates - markers.t_tr_s)
        assert np.max(np.abs(y / y[0] - 1.0)) < 1e-10

    def test_receiver_windings_scale(self, voltage_setup, aluminum_sphere):
        _, markers, _ = voltage_setup
        rx1 = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=1)
        rx2 = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=2)
        s1 = uniform_signal(aluminum_sphere, rx1, markers)
        s2 = uniform_signal(aluminum_sphere, rx2, markers)
        assert s2.amplitude_v_sqrt_s == pytest.approx(
            2 * s1.amplitude_v_sqrt_s, rel=1e-14
        )

    def test_amplitude_matches_flux_derivative_oracle(
        self, voltage_setup, aluminum_sphere, rx_loop
    ):
        from numpy.polynomial.legendre import leggauss

        pipeline, markers, scales = voltage_setup
        sig = uniform_signal(aluminum_sphere, rx_loop, markers)
        t_test = 1e-4 * markers.tau_c_s

        def flux(t_s):
            tau_int = (t_s - markers.t_tr_s) / markers.tau_c_s
            nodes, wts = leggauss(80)
            rho = 0.5 * (nodes + 1) * rx_loop.radius_m
            w = 0.5 * rx_loop.radius_m * wts
            r = np.hypot(rho, rx_loop.height_m) / aluminum_sphere.radius_m
            th = np.arctan2(rho, rx_loop.height_m)
            f = external_fields(
                pipeline.dphi_prefactor, r, th, np.zeros_like(r), tau_int, 1.0
            )
            bz = (f.dB[0] * np.cos(th) - f.dB[1] * np.sin(th)).real
            return float(np.sum(w * 2 * np.pi * rho * bz)) * scales.factor("b")

        dt = 1e-5 * t_test
        v_oracle = -rx_loop.windings * (flux(t_test + dt) - flux(t_test - dt)) / (2 * dt)
        v_impl = sig.evaluate(np.array([t_test]))[0]
        assert v_impl == pytest.approx(v_oracle, rel=1e-8)

    def test_gate_quality_flags(self, aluminum_sphere, environment, rx_loop):
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=1e-6)
        gates = markers.t_tr_s + np.array([2e-6, 1e-4 * markers.tau_c_s, markers.tau_c_s])
        series = ts.early_voltage(uniform_signal(aluminum_sphere, rx_loop, markers), gates)
        assert list(series.metadata["quality"]) == ["transient", "ok", "late"]

    def test_universality_across_harmonics(
        self, aluminum_sphere, environment, tx_loop, rx_loop
    ):
        # every retained (l, m) term contributes the same t^(-1/2) law
        markers = ts.characteristic_times(aluminum_sphere, environment, tau_tr_s=0.0)
        coupling = ts.coupling_table(aluminum_sphere, tx_loop, rx_loop, 3, 1.0)
        sig = early_signal(coupling, rx_loop, markers, aluminum_sphere)
        assert len([k for k, v in sig.per_harmonic.items() if abs(v) > 0]) >= 3
        gates = np.geomspace(1e-5, 1e-3, 9) * markers.tau_c_s
        series = ts.early_voltage(sig, gates)
        y = series.values * np.sqrt(gates)
        assert np.max(np.abs(y / y[0] - 1)) < 1e-10
