"""Sector wavenumbers, Bessel zeros and mode voltages against 40-digit mpmath.

Every float root must lie within 1 ulp of the true root.  Sector roots are
checked against `mpmath.findroot` on the eigencondition
x j_(l-1)(x) = l (1 - mu_ratio) j_l(x), with j_l(x) = sqrt(pi/2x) J_(l+1/2)(x);
ladder zeros against `mpmath.besseljzero(k + 1/2, n)`.  The grid is seeded:
l 1-8, seven mu ratios from nonmagnetic to 300, and n drawn from 1..3000.

The voltage coefficients V_n of `compute_excitation` are checked against
the per-mode formulas of `oracles.excitation_amplitude` and
`oracles.voltage_coefficient`, evaluated at 40 digits on the true roots.
"""

import mpmath
import numpy as np
import pytest

import temsphere as ts
from temsphere.core import MU_0
from temsphere.modes import _wavenumbers
from temsphere.special import _bessel_zero_ladder

MU_RATIOS = (1.0, 1.1, 1.57, 3.0, 60.0, 178.0, 300.0)
N_MAX = 3000
DRAWS = 6


def _sj(l, x):
    return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(l + mpmath.mpf(1) / 2, x)


def _eigen_root(l, mu_ratio, guess):
    c = l * (1 - mpmath.mpf(mu_ratio))
    return mpmath.findroot(lambda x: x * _sj(l - 1, x) - c * _sj(l, x), mpmath.mpf(guess))


def _ulps(x, true_root):
    """Distance of float ``x`` from ``true_root`` in units of the float spacing at x."""
    return float(abs(mpmath.mpf(x) - true_root) / np.spacing(x))


def _draws(rng):
    return np.unique(np.concatenate([[1], rng.integers(1, N_MAX + 1, DRAWS)]))


@pytest.mark.parametrize("mu_ratio", MU_RATIOS)
@mpmath.workdps(40)
def test_sector_roots_within_one_ulp(mu_ratio):
    rng = np.random.default_rng(int(1000 * mu_ratio))
    worst = []
    for l in range(1, 9):
        ns = _draws(rng)
        xs = _wavenumbers((l,), mu_ratio, int(ns[-1]))
        for n in ns:
            x = float(xs[n - 1])
            worst.append((_ulps(x, _eigen_root(l, mu_ratio, x)), l, int(n), x))
    assert max(worst)[0] <= 1.0, max(worst)


@mpmath.workdps(40)
def test_near_tie_golden_root_within_one_ulp():
    # polygon-step-l4-mu60, l=4, n=7: the true root sits 0.49 ulp from one
    # float and 0.51 ulp from the next, so either is acceptable
    x = float(_wavenumbers((4,), 60.0, 7)[6])
    assert x == pytest.approx(27.80024262738167, abs=1e-14)
    assert _ulps(x, _eigen_root(4, 60.0, x)) <= 1.0


@mpmath.workdps(40)
def test_ladder_zeros_within_one_ulp():
    rng = np.random.default_rng(9)
    max_order = 8
    ns = {k: _draws(rng) for k in range(max_order + 1)}
    ladder = _bessel_zero_ladder(max_order, max(int(n[-1]) for n in ns.values()))
    worst = []
    for k, draws in ns.items():
        for n in draws:
            x = float(ladder[k][n - 1])
            true_zero = mpmath.besseljzero(k + mpmath.mpf(1) / 2, int(n))
            worst.append((_ulps(x, true_zero), k, int(n), x))
    assert max(worst)[0] <= 1.0, max(worst)


def _circular_l10(loop, a):
    """oint (a/r)^2 X_10 . dl of a coaxial circle: X_10 = i sqrt(3/8pi) sin(theta) phi-hat."""
    rho, h = mpmath.mpf(loop.radius_m), mpmath.mpf(loop.height_m)
    r = mpmath.sqrt(rho * rho + h * h)
    x_phi = 1j * mpmath.sqrt(3 / (8 * mpmath.pi)) * rho / r
    return 2 * mpmath.pi * rho * (a / r) ** 2 * x_phi


@pytest.mark.parametrize("tx", ["coaxial", "uniform"])
@mpmath.workdps(40)
def test_mode_voltages_of_3000_magnetic_modes(tx):
    # step-off, so lambda_n I_n / I_0 = 1; l = 1 and mu_r 60, where the
    # per-mode uniform-field projection j_2(x)/x cancels at large x
    target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 60.0))
    pulse = ts.PulseWaveform(base_current_a=2.0, windings=2)
    rx = ts.Loop(kind="circular", radius_m=0.25, height_m=0.35, windings=2)
    source = ts.UniformField(1.5) if tx == "uniform" else ts.Loop(radius_m=0.4, height_m=0.3)
    library = ts.build_mode_library(target, 1.0, 1, 3000)
    volts = ts.compute_excitation(library, pulse, source, rx).voltages
    a, mu_c = mpmath.mpf(target.radius_m), mpmath.mpf(60)
    sigma, mu_0 = mpmath.mpf(target.material.conductivity_s_per_m), mpmath.mpf(MU_0)
    l_rx = _circular_l10(rx, a)
    for n in (1, 1000, 3000):
        x = _eigen_root(1, 60.0, float(library.columns.x[n - 1]))
        j1 = _sj(1, x)
        radial = (j1 * j1 - _sj(0, x) * _sj(2, x)) / 2  # int_0^1 j_1(x u)^2 u^2 du
        norm = 1 / mpmath.sqrt(mu_0 * sigma * a**3 * radial)
        rate = x * x / (mu_0 * mu_c * sigma * a * a)
        if tx == "uniform":
            b_in = mu_0 * mu_c * 3 * mpmath.mpf(1.5) / (mu_c + 2)
            amp = -1j * mu_0 * sigma * norm * b_in / 2 * mpmath.sqrt(8 * mpmath.pi / 3) * a**4
            amp *= _sj(2, x) / x
        else:
            amp = mu_0 * pulse.effective_current_a / rate * mpmath.conj(
                norm * j1 * _circular_l10(source, a))
        exact = mpmath.re(rate * rx.windings * amp * norm * j1 * l_rx)
        assert abs(volts[n - 1] - exact) <= 1e-13 * abs(exact), (n, volts[n - 1], exact)
