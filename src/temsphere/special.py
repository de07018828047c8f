"""Spherical Bessel functions, spherical harmonics, sphere quadrature and erfc.

Conventions
-----------
Scalar harmonics Y_lm are orthonormal over the unit sphere and carry the
Condon-Shortley phase.  Vector harmonics

    X_lm = -i [l(l+1)]^(-1/2) x cross grad(Y_lm)

are tangential and orthonormal, int conj(X_l'm') . X_lm dOmega = delta.
In spherical components (r, theta, phi):

    X_theta = -m Y_lm / (sin(theta) sqrt(l(l+1)))
    X_phi   = -i dY_lm/dtheta / sqrt(l(l+1))

Bessel evaluation follows the usual stability rules: power series at small
argument, renormalized downward recurrence below the turning point, and
upward recurrence only in the oscillatory regime x >= l where it is
stable (it loses all accuracy for x < l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import NumericalError, ParameterError

_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x) -> np.ndarray:
    """Complementary error function, elementwise, as a float array.

    ``math.erfc`` per element: at the gate counts used here (about 10^2) it
    is faster than a vectorised rational kernel and needs no scipy import.
    """
    return np.asarray(_erfc(np.asarray(x, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# spherical Bessel functions


def _bessel_series(l: int, x: np.ndarray) -> np.ndarray:
    # j_l(x) = x^l/(2l+1)!! sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1))
    dfact = 1.0
    for i in range(1, 2 * l + 2, 2):
        dfact *= i
    term = x**l / dfact
    total = term.copy()
    for k in range(1, 60):
        term = term * (-0.5 * x * x) / (k * (2 * l + 2 * k + 1))
        total += term
        if np.all(np.abs(term) <= 1e-18 * np.abs(total) + 1e-300):
            break
    return total


def _bessel_downward(l: int, x: np.ndarray) -> np.ndarray:
    # Miller's algorithm: recur j_{k-1} = (2k+1)/x j_k - j_{k+1} from a
    # start order well above both l and x, then normalize with j_0.
    start = int(max(l, np.max(x))) + 40
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    out = jc.copy() if start == l else None
    for k in range(start, 0, -1):
        jm = (2 * k + 1) / x * jc - jp
        jp, jc = jc, jm
        if k - 1 == l:
            out = jc.copy()
        big = np.abs(jc) > 1e250
        if np.any(big):
            jp[big] /= 1e250
            jc[big] /= 1e250
            if out is not None:
                out[big] /= 1e250
    return out * (np.sin(x) / x) / jc


def _bessel_upward(l: int, x: np.ndarray) -> np.ndarray:
    # stable for x >= l (oscillatory regime)
    jm = np.sin(x) / x
    if l == 0:
        return jm
    jc = jm / x - np.cos(x) / x
    for k in range(1, l):
        jm, jc = jc, (2 * k + 1) / x * jc - jm
    return jc


def spherical_bessel_j(l: int, x) -> np.ndarray | float:
    """Spherical Bessel function j_l(x) for x >= 0, accurate to ~1e-13."""
    if l < 0:
        raise ParameterError("order l must be >= 0")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0):
        raise ParameterError("argument must be >= 0")
    out = np.empty_like(xa)
    cut = max(0.5 * l, 0.5)
    small = xa < cut
    if np.any(small):
        out[small] = _bessel_series(l, xa[small])
    if np.any(~small):
        xl = xa[~small]
        if l == 0:
            out[~small] = np.sin(xl) / xl
        elif l == 1:
            out[~small] = np.sin(xl) / xl**2 - np.cos(xl) / xl
        elif l == 2:
            out[~small] = (3.0 / xl**3 - 1.0 / xl) * np.sin(xl) - 3.0 / xl**2 * np.cos(xl)
        else:
            vals = np.empty_like(xl)
            up = xl >= l  # upward recurrence is stable only in the oscillatory regime
            if np.any(up):
                vals[up] = _bessel_upward(l, xl[up])
            if np.any(~up):
                vals[~up] = _bessel_downward(l, xl[~up])
            out[~small] = vals
    return float(out[0]) if scalar else out


def spherical_bessel_j_derivative(l: int, x) -> np.ndarray | float:
    """d/dx j_l(x) via j_l' = j_{l-1} - (l+1)/x j_l (and j_0' = -j_1)."""
    xa = np.asarray(x, dtype=float)
    if l == 0:
        return -spherical_bessel_j(1, xa)
    return spherical_bessel_j(l - 1, xa) - (l + 1) / xa * spherical_bessel_j(l, xa)


def _refine_roots(fdf, lo, hi, max_iter=100):
    """Roots of f in the sign-change brackets [lo, hi], by bracketed Newton.

    ``fdf(x)`` returns ``(f(x), f'(x))``.  Each root starts at its bracket
    midpoint; after every step the bracket shrinks to the side where f
    changes sign, and a Newton step that lands outside the bracket (its ends
    count as inside) is replaced by bisection.  A root stops on its own once
    |step| <= 4 eps |x| or f = 0, so its value depends on its bracket alone.
    Raises `NumericalError` if any root is still moving after ``max_iter``
    steps.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = fdf(lo)[0]
    x = 0.5 * (lo + hi)
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(max_iter):
        if todo.size == 0:
            return roots
        f, df = fdf(x)
        left = np.sign(f) == np.sign(flo)
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        newton = x - step
        inside = (newton >= lo) & (newton <= hi)
        done = (np.abs(step) <= 4.0 * np.finfo(float).eps * np.abs(x)) | (f == 0)
        roots[todo[done]] = np.where(inside, newton, x)[done]
        x = np.where(inside, newton, 0.5 * (lo + hi))
        keep = ~done
        todo, x, lo, hi, flo = todo[keep], x[keep], lo[keep], hi[keep], flo[keep]
    if todo.size:
        raise NumericalError(
            f"{todo.size} of {roots.size} roots did not converge in {max_iter} steps"
        )
    return roots


def _bessel_zero_ladder(max_order: int, count: int) -> list:
    """Positive zeros of j_0 .. j_max_order, each order refined from the last.

    Entry k holds the first ``count + max_order - k`` zeros of j_k.  Zeros
    of j_0 are exactly n*pi; successive orders interlace, which guarantees
    every bracket contains exactly one zero.
    """

    def fdf(k, x):
        jk = spherical_bessel_j(k, x)
        return jk, spherical_bessel_j(k - 1, x) - (k + 1) / x * jk

    ladder = [np.arange(1, count + max_order + 1) * np.pi]
    for k in range(1, max_order + 1):
        ladder.append(_refine_roots(partial(fdf, k), ladder[-1][:-1], ladder[-1][1:]))
    return ladder


def spherical_bessel_j_zeros(l: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of j_l, by interlacing recursion."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    return _bessel_zero_ladder(l, count)[l][:count]


# ---------------------------------------------------------------------------
# spherical harmonics


def _legendre_normalized(l: int, m: int, costh: np.ndarray, sinth: np.ndarray):
    # Fully normalized associated Legendre, Condon-Shortley phase, m >= 0:
    # Ptilde_lm such that Y_lm = Ptilde_lm exp(i m phi).
    p = np.full_like(costh, 1.0 / np.sqrt(4.0 * np.pi))
    for k in range(1, m + 1):
        p = -np.sqrt((2 * k + 1) / (2.0 * k)) * sinth * p
    if l == m:
        return p
    pm1 = p
    pm = np.sqrt(2 * m + 3.0) * costh * p
    for ll in range(m + 2, l + 1):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pm, pm1 = a * (costh * pm - b * pm1), pm
    return pm


def spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray | complex:
    """Orthonormal scalar spherical harmonic Y_lm(theta, phi)."""
    if l < 0 or abs(m) > l:
        raise ParameterError("require l >= 0 and |m| <= l")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    scalar = th.ndim == 0 and ph.ndim == 0
    th, ph = np.atleast_1d(th), np.atleast_1d(ph)
    am = abs(m)
    p = _legendre_normalized(l, am, np.cos(th), np.sin(th))
    y = p * np.exp(1j * am * ph)
    if m < 0:
        y = (-1.0) ** am * np.conj(y)
    return complex(y[0]) if scalar else y


def spherical_harmonic_dtheta(l: int, m: int, theta, phi) -> np.ndarray | complex:
    """Partial derivative dY_lm/dtheta.

    Uses dY_lm/dtheta = m cot(theta) Y_lm + sqrt((l-m)(l+m+1)) e^(-i phi)
    Y_{l,m+1}; not pole-safe for m != 0 (quadrature nodes avoid the poles).
    """
    th = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(th, np.asarray(phi)).shape, dtype=complex)
    if m != 0:
        out = out + m / np.tan(th) * spherical_harmonic(l, m, theta, phi)
    if m + 1 <= l:
        out = out + np.sqrt((l - m) * (l + m + 1.0)) * np.exp(
            -1j * np.asarray(phi)
        ) * spherical_harmonic(l, m + 1, theta, phi)
    return out


def vector_spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray:
    """Tangential vector harmonic X_lm as spherical components (r, theta, phi).

    The radial component is identically zero by construction.
    """
    if l < 1:
        raise ParameterError("X_lm requires l >= 1 (X_00 vanishes identically)")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    norm = 1.0 / np.sqrt(l * (l + 1.0))
    xth = np.zeros(np.broadcast(th, ph).shape, dtype=complex)
    if m != 0:
        xth = -m * spherical_harmonic(l, m, th, ph) / np.sin(th) * norm
    xph = -1j * spherical_harmonic_dtheta(l, m, th, ph) * norm
    return np.stack([np.zeros_like(xth), xth, xph])


# ---------------------------------------------------------------------------
# quadrature on the sphere


@dataclass(frozen=True)
class AngularGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta), uniform in phi.

    Exact for integrands of harmonic degree up to 2*n_theta - 1 in theta
    and bandwidth n_phi - 1 in phi.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.theta.size


def angular_grid(n_theta: int = 32, n_phi: int = 64) -> AngularGrid:
    nodes, wts = leggauss(n_theta)
    th = np.arccos(nodes)
    ph = np.arange(n_phi) * 2.0 * np.pi / n_phi
    th2, ph2 = np.meshgrid(th, ph, indexing="ij")
    w2 = np.outer(wts, np.full(n_phi, 2.0 * np.pi / n_phi))
    return AngularGrid(theta=th2.ravel(), phi=ph2.ravel(), weights=w2.ravel())


def project_scalar(values: np.ndarray, grid: AngularGrid, max_l: int) -> dict:
    """Y_lm coefficients of a scalar field sampled on ``grid``."""
    out = {}
    for l in range(max_l + 1):
        for m in range(-l, l + 1):
            y = spherical_harmonic(l, m, grid.theta, grid.phi)
            out[(l, m)] = complex(np.sum(grid.weights * np.conj(y) * values))
    return out
