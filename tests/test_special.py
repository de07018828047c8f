import mpmath
import numpy as np
import pytest
from scipy.special import spherical_jn

from temsphere.core import NumericalError, ParameterError
from temsphere.special import (
    _bessel_neighbours,
    _bessel_zero_ladder,
    _gauss_legendre,
    _refine_roots,
    spherical_bessel_j,
    spherical_harmonic,
    spherical_harmonic_dtheta,
    vector_spherical_harmonic,
)

from oracles import angular_grid, project_scalar


class TestSphericalBessel:
    def test_j0_closed_form(self):
        assert spherical_bessel_j(0, np.pi) == pytest.approx(0.0, abs=1e-15)
        x = 2.3
        assert spherical_bessel_j(0, x) == pytest.approx(np.sin(x) / x, rel=1e-14)

    def test_j1_at_zero_via_series(self):
        assert spherical_bessel_j(1, 0.0) == 0.0
        assert spherical_bessel_j(0, 0.0) == 1.0

    def test_first_zero_of_j1(self):
        z = _bessel_zero_ladder(1, 1)[1][0]
        assert z == pytest.approx(4.493409457909064, abs=1e-10)
        assert abs(spherical_bessel_j(1, z)) < 1e-13

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12])
    def test_against_scipy(self, l):
        x = np.linspace(0.01, 100.0, 1777)
        mine = spherical_bessel_j(l, x)
        ref = spherical_jn(l, x)
        assert np.all(np.abs(mine - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-2))
        big = np.abs(ref) > 1e-4
        assert np.all(np.abs(mine[big] / ref[big] - 1.0) < 1e-12)

    def test_recurrence_residual(self):
        x = np.linspace(0.3, 60.0, 500)
        for l in range(1, 9):
            res = (
                spherical_bessel_j(l - 1, x)
                + spherical_bessel_j(l + 1, x)
                - (2 * l + 1) * spherical_bessel_j(l, x) / x
            )
            assert np.max(np.abs(res)) < 1e-10

    def test_zero_counts_and_interlacing(self):
        ladder = _bessel_zero_ladder(3, 10)
        z2, z3 = ladder[2][:10], ladder[3][:10]
        assert np.all(np.diff(z2) > 0)
        assert np.all(z3[:9] > z2[:9]) and np.all(z3[:9] < z2[1:10])

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(ParameterError):
            spherical_bessel_j(1, -1.0)


class TestBesselOracle:
    # 30-digit mpmath at and just above the zeros of j_0 (x = k pi + delta),
    # where a sweep normalized by j_0 alone lost every digit (relative error
    # 4.4 at l = 12, x = 3 pi), and near x = 0
    X = [k * np.pi + d for k in range(1, 5) for d in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)]
    X += [0.0, 1e-9, 1e-5, 0.3]

    @pytest.mark.parametrize("l", range(14))
    def test_matches_mpmath(self, l):
        got = spherical_bessel_j(l, np.array(self.X))
        with mpmath.workdps(30):
            for x, value in zip(self.X, got):
                if x == 0.0:
                    assert value == (1.0 if l == 0 else 0.0)
                    continue
                xm = mpmath.mpf(x)
                want = mpmath.sqrt(mpmath.pi / (2 * xm)) * mpmath.besselj(l + mpmath.mpf(1) / 2, xm)
                assert abs(value - want) <= 1e-13 * abs(want), (l, x, value, float(want))


class TestBesselNeighbours:
    # every regime for orders 0-13: the Miller sweep below the cut
    # (x < max(k/2, 1/2) for k <= 2, x < k beyond), closed forms (k <= 2)
    # and the upward recurrence (x >= k)
    X = np.concatenate([[0.0, 1e-9, 0.3], np.linspace(0.05, 16.0, 151), [2.5, 3.0, 6.0, 13.0]])

    @pytest.mark.parametrize("l", range(1, 13))
    def test_one_degree_equals_spherical_bessel_j(self, l):
        for d, vals in enumerate(_bessel_neighbours(l, self.X, 3)):
            assert vals.tobytes() == spherical_bessel_j(l - 1 + d, self.X).tobytes(), d

    def test_mixed_degrees_equal_one_array_per_degree(self):
        rng = np.random.default_rng(4)
        ls = rng.integers(1, 9, 400)
        x = np.concatenate([[1e-9] * 8, rng.uniform(0.0, 14.0, 392)])
        got = _bessel_neighbours(ls, x, 3)
        for l in range(1, 9):
            part = ls == l
            for d in range(3):
                want = spherical_bessel_j(l - 1 + d, x[part])
                assert got[d][part].tobytes() == want.tobytes(), (l, d)

    def test_mixed_degrees_equal_each_element_alone(self):
        # no value depends on the rest of its call, below the cut included
        rng = np.random.default_rng(5)
        ls = rng.integers(1, 13, 300)
        x = np.concatenate([[0.0, 1e-9, 1e-5], rng.uniform(0.0, 14.0, 297)])
        for count in (1, 2, 3):
            got = np.array(_bessel_neighbours(ls, x, count))
            alone = np.array([_bessel_neighbours(int(l), x[i : i + 1], count)
                              for i, l in enumerate(ls)])[:, :, 0].T
            assert got.tobytes() == alone.tobytes(), count


class TestRefineRoots:
    @staticmethod
    def _j1(x):
        j1 = spherical_bessel_j(1, x)
        return j1, spherical_bessel_j(0, x) - 2.0 / x * j1

    def test_budget_too_small_raises(self):
        n = np.arange(1, 11)
        with pytest.raises(NumericalError, match=r"^10 of 10 roots did not converge in 1 steps"):
            _refine_roots(self._j1, n * np.pi, (n + 1) * np.pi, max_iter=1)
        roots = _refine_roots(self._j1, n * np.pi, (n + 1) * np.pi, max_iter=8)
        assert np.all(np.abs(spherical_bessel_j(1, roots)) < 1e-15)

    def test_sign_from_caller_saves_one_evaluation(self):
        # the bracket scan's residuals stand in for f(lo): same roots, bit for bit
        n = np.arange(1, 40)
        lo, hi = n * np.pi, (n + 1) * np.pi
        calls = []

        def counted(x):
            calls.append(x.size)
            return self._j1(x)

        own = _refine_roots(counted, lo, hi)
        evaluations = len(calls)
        given = _refine_roots(counted, lo, hi, self._j1(lo)[0])
        assert given.tobytes() == own.tobytes()
        assert len(calls) - evaluations == evaluations - 1

    def test_exact_zero_stops_at_once(self):
        # f vanishes at the bracket midpoint: the root is returned unchanged
        roots = _refine_roots(lambda x: (x - 2.0, np.ones_like(x)), [1.0, 0.5], [3.0, 3.5])
        assert roots.tolist() == [2.0, 2.0]


class TestCachedGrids:
    def test_gauss_legendre_built_once_and_read_only(self):
        nodes, wts = _gauss_legendre(7)
        assert not nodes.flags.writeable and not wts.flags.writeable
        assert _gauss_legendre(7)[0] is nodes

    def test_caches_stay_within_bound(self):
        bound = _gauss_legendre.cache_info().maxsize
        for k in range(3 * bound):
            _gauss_legendre(2 + k)
            assert _gauss_legendre.cache_info().currsize <= bound


class TestScalarHarmonics:
    def test_y00(self):
        assert spherical_harmonic(0, 0, 0.7, 1.1) == pytest.approx(
            1.0 / np.sqrt(4 * np.pi)
        )

    def test_y10_at_pole(self):
        assert spherical_harmonic(1, 0, 0.0, 0.0) == pytest.approx(
            np.sqrt(3 / (4 * np.pi))
        )

    def test_orthonormality_by_quadrature(self):
        grid = angular_grid(24, 48)
        y = spherical_harmonic(2, 1, grid.theta, grid.phi)
        norm = np.sum(grid.weights * np.abs(y) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-10)
        y2 = spherical_harmonic(3, 1, grid.theta, grid.phi)
        cross = np.sum(grid.weights * np.conj(y2) * y)
        assert abs(cross) < 1e-12

    def test_addition_theorem(self):
        theta, phi = 1.234, 2.345
        for l in range(1, 9):
            total = sum(
                abs(spherical_harmonic(l, m, theta, phi)) ** 2
                for m in range(-l, l + 1)
            )
            assert total == pytest.approx((2 * l + 1) / (4 * np.pi), abs=1e-10)

    def test_dtheta_against_finite_difference(self):
        h = 1e-6
        for (l, m) in [(1, 0), (2, 1), (3, -2), (5, 4)]:
            theta, phi = 1.1, 0.7
            fd = (
                spherical_harmonic(l, m, theta + h, phi)
                - spherical_harmonic(l, m, theta - h, phi)
            ) / (2 * h)
            assert spherical_harmonic_dtheta(l, m, theta, phi) == pytest.approx(
                fd, rel=1e-8
            )


class TestVectorHarmonics:
    def test_tangential_by_construction(self):
        x = vector_spherical_harmonic(3, 2, 1.0, 2.0)
        assert np.all(x[0] == 0.0)

    def test_x00_rejected(self):
        with pytest.raises(ParameterError):
            vector_spherical_harmonic(0, 0, 1.0, 1.0)

    def test_x10_norm(self):
        grid = angular_grid(24, 48)
        x = vector_spherical_harmonic(1, 0, grid.theta, grid.phi)
        norm = np.sum(grid.weights * (np.abs(x[1]) ** 2 + np.abs(x[2]) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_matrix_l_up_to_8(self):
        grid = angular_grid(24, 48)
        pairs = [(l, m) for l in range(1, 9) for m in range(-l, l + 1)]
        fields = [vector_spherical_harmonic(l, m, grid.theta, grid.phi) for l, m in pairs]
        gram = np.empty((len(pairs), len(pairs)), dtype=complex)
        for i, xi in enumerate(fields):
            for j, xj in enumerate(fields):
                gram[i, j] = np.sum(
                    grid.weights * (np.conj(xi[1]) * xj[1] + np.conj(xi[2]) * xj[2])
                )
        assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-8

    def test_x10_matches_gradient_construction(self):
        # X_10 = -i/sqrt(2) x cross grad(Y_10); the phi component follows
        # from a finite-difference theta gradient of Y_10
        theta, phi, h = 1.2, 0.4, 1e-6
        dy_fd = (
            spherical_harmonic(1, 0, theta + h, phi)
            - spherical_harmonic(1, 0, theta - h, phi)
        ) / (2 * h)
        x = vector_spherical_harmonic(1, 0, theta, phi)
        assert x[2][0] == pytest.approx(-1j * dy_fd / np.sqrt(2.0), rel=1e-8)
        expected = -1j * (-np.sqrt(3 / (8 * np.pi)) * np.sin(theta))
        assert x[2][0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_poles_give_the_limit(self, theta):
        # m Y_lm / sin(theta) comes from the Legendre recurrence, not from a
        # division by sin(theta): finite on the axis and continuous up to it
        near = abs(theta - 1e-9)
        for l in range(1, 9):
            for m in range(-l, l + 1):
                at = vector_spherical_harmonic(l, m, theta, 0.5)
                np.testing.assert_allclose(at, vector_spherical_harmonic(l, m, near, 0.5),
                                           rtol=0, atol=1e-7)
                dy = spherical_harmonic_dtheta(l, m, theta, 0.5)
                assert dy == pytest.approx(spherical_harmonic_dtheta(l, m, near, 0.5), abs=1e-7)

    def test_theta_component_off_the_axis(self):
        theta, phi = np.linspace(0.05, np.pi - 0.05, 25), 0.3
        for l in range(1, 9):
            for m in range(-l, l + 1):
                want = -m * spherical_harmonic(l, m, theta, phi) / np.sin(theta) / np.sqrt(l * (l + 1.0))
                got = vector_spherical_harmonic(l, m, theta, phi)[1]
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


class TestProjection:
    def test_grid_weights_cover_sphere(self):
        assert np.sum(angular_grid(10, 14).weights) == pytest.approx(4.0 * np.pi, rel=1e-14)

    def test_scalar_round_trip(self):
        grid = angular_grid(24, 48)
        field = (
            0.7 * spherical_harmonic(2, 1, grid.theta, grid.phi)
            - 1.3j * spherical_harmonic(4, -3, grid.theta, grid.phi)
        )
        coeffs = project_scalar(field, grid, max_l=5)
        assert coeffs[(2, 1)] == pytest.approx(0.7, abs=1e-12)
        assert coeffs[(4, -3)] == pytest.approx(-1.3j, abs=1e-12)
        assert abs(coeffs[(3, 0)]) < 1e-12
