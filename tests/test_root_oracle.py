"""Sector wavenumbers and Bessel zeros against 40-digit mpmath roots.

Every float root must lie within 1 ulp of the true root.  Sector roots are
checked against `mpmath.findroot` on the eigencondition
x j_(l-1)(x) = l (1 - mu_ratio) j_l(x), with j_l(x) = sqrt(pi/2x) J_(l+1/2)(x);
ladder zeros against `mpmath.besseljzero(k + 1/2, n)`.  The grid is seeded:
l 1-8, seven mu ratios from nonmagnetic to 300, and n drawn from 1..3000.
"""

import mpmath
import numpy as np
import pytest

from temsphere.modes import _sector_wavenumbers
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
        xs = _sector_wavenumbers(l, mu_ratio, int(ns[-1]))
        for n in ns:
            x = float(xs[n - 1])
            worst.append((_ulps(x, _eigen_root(l, mu_ratio, x)), l, int(n), x))
    assert max(worst)[0] <= 1.0, max(worst)


@mpmath.workdps(40)
def test_near_tie_golden_root_within_one_ulp():
    # polygon-step-l4-mu60, l=4, n=7: the true root sits 0.49 ulp from one
    # float and 0.51 ulp from the next, so either is acceptable
    x = float(_sector_wavenumbers(4, 60.0, 7)[6])
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
