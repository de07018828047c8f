"""Spherical Bessel functions, spherical harmonics, Gauss-Legendre rules and erfc.

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
import threading
from functools import lru_cache, partial

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
        if (np.abs(term) <= 1e-18 * np.abs(total) + 1e-300).all():
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
        if big.any():
            jp[big] /= 1e250
            jc[big] /= 1e250
            if out is not None:
                out[big] /= 1e250
    return out * (np.sin(x) / x) / jc


def spherical_bessel_j(l: int, x) -> np.ndarray | float:
    """Spherical Bessel function j_l(x) for x >= 0, accurate to ~1e-13."""
    if l < 0:
        raise ParameterError("order l must be >= 0")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if (xa < 0).any():
        raise ParameterError("argument must be >= 0")
    small = xa < max(0.5 * l, 0.5)
    if not small.any():
        out = _bessel_above_cut(l, xa)
    else:
        out = np.empty_like(xa)
        out[small] = _bessel_series(l, xa[small])
        large = ~small
        if large.any():
            out[large] = _bessel_above_cut(l, xa[large])
    return float(out[0]) if scalar else out


def _bessel_above_cut(l: int, x: np.ndarray) -> np.ndarray:
    # closed forms for l <= 2; recurrences beyond
    up = x >= l  # upward recurrence is stable only in the oscillatory regime
    if l <= 2 or up.all():
        return _bessel_rows(x, l, l)[0]
    vals = np.empty_like(x)
    if up.any():
        vals[up] = _bessel_rows(x[up], l, l)[0]
    vals[~up] = _bessel_downward(l, x[~up])
    return vals


def _bessel_rows(x: np.ndarray, lo: int, hi: int) -> list:
    """[j_lo(x), ..., j_hi(x)] from one sin and cos of ``x``, elementwise.

    Orders 0-2 are closed forms; higher orders come from the upward
    recurrence started at j_0 and j_1, which is exact only for x >= order.
    """
    s = np.sin(x)
    j0 = s / x
    rows = [j0] if lo == 0 else []
    if hi >= 1:
        c = np.cos(x)
    if lo <= 1 <= hi:
        rows.append(s / x**2 - c / x)
    if lo <= 2 <= hi:
        rows.append((3.0 / x**3 - 1.0 / x) * s - 3.0 / x**2 * c)
    if hi >= 3:
        jm, jc = j0, j0 / x - c / x
        for k in range(1, hi):
            jm, jc = jc, (2 * k + 1) / x * jc - jm
            if k >= 2 and k + 1 >= lo:
                rows.append(jc)
    return rows


def _bessel_neighbours(l, x, count: int = 2) -> list:
    """[j_(l-1)(x), j_l(x), ...]: ``count`` consecutive orders from l - 1.

    ``l`` is an int or an int array like ``x``, so every element may carry
    its own degree.  The result equals `spherical_bessel_j` of each order on
    the elements of each l, bit for bit.  Where that function uses a closed
    form (order <= 2) or the upward recurrence (x >= order) its value is
    elementwise, and one sin/cos and one recurrence here (`_bessel_rows`)
    give every order.  Its power series (x < order/2) and downward
    recurrence (x < order) depend on the whole array they run on, so those
    elements go to `spherical_bessel_j` as one array per l and order, in
    their given order.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(l, (int, np.integer)):
        l = lmin = lmax = int(l)
    else:
        l = np.asarray(l)
        lmin, lmax = (int(l.min()), int(l.max())) if l.size else (1, 1)
    lo, hi = lmin - 1, lmax + count - 2
    elementwise = not x.size or x.min() >= _elementwise_from(hi)
    if elementwise:
        rows = _bessel_rows(x, lo, hi)
    else:
        with np.errstate(all="ignore"):  # values below the cut are replaced below
            rows = _bessel_rows(x, lo, hi)
    if lmin == lmax:
        out = rows
    else:
        table, idx = np.array(rows), np.arange(x.size)
        out = [table[l + (d - lmin), idx] for d in range(count)]
    if elementwise:
        return out
    for d, vals in enumerate(out):
        order = l + (d - 1)
        low = x < _elementwise_from(order)
        if low.any():
            order = np.broadcast_to(order, x.shape)
            for k in sorted(set(order[low].tolist())):
                part = low & (order == k)
                vals[part] = spherical_bessel_j(k, x[part])
    return out


def _elementwise_from(order):
    """Least x at which `spherical_bessel_j` of ``order`` (an int or an int
    array) takes a closed form or the upward recurrence."""
    if isinstance(order, int):
        return order if order >= 3 else max(0.5 * order, 0.5)
    return np.where(order >= 3, order, np.maximum(0.5 * order, 0.5))


def _refine_roots(fdf, lo, hi, flo=None, max_iter=100, labels=None):
    """Roots of f in the sign-change brackets [lo, hi], by bracketed Newton.

    ``fdf(x)`` returns ``(f(x), f'(x))``; ``flo`` is f at ``lo`` (only its
    sign is used), evaluated here when omitted.  With per-root ``labels``
    (such as each root's sector degree) it is called as ``fdf(x, labels)``
    with the labels of the roots still moving.  Each root starts at its
    bracket midpoint; after every step the bracket shrinks to the side where
    f changes sign, and a Newton step that lands outside the bracket (its
    ends count as inside) is replaced by bisection.  A root stops on its own
    once |step| <= 4 eps |x| or f = 0, so its value depends on its bracket
    alone.  Raises `NumericalError` if any root is still moving after
    ``max_iter`` steps.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if labels is not None:
        labels = np.asarray(labels)
    if flo is None:
        flo = (fdf(lo) if labels is None else fdf(lo, labels))[0]
    flo = np.asarray(flo, dtype=float)
    x = 0.5 * (lo + hi)
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    tol = 4.0 * np.finfo(float).eps
    for _ in range(max_iter):
        if todo.size == 0:
            return roots
        f, df = fdf(x) if labels is None else fdf(x, labels)
        left = np.sign(f) == np.sign(flo)
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        newton = x - step
        inside = (newton >= lo) & (newton <= hi)
        done = (np.abs(step) <= tol * np.abs(x)) | (f == 0)
        roots[todo[done]] = np.where(inside, newton, x)[done]
        x = np.where(inside, newton, 0.5 * (lo + hi))
        keep = ~done
        todo, x, lo, hi, flo = todo[keep], x[keep], lo[keep], hi[keep], flo[keep]
        if labels is not None:
            labels = labels[keep]
    if todo.size:
        raise NumericalError(
            f"{todo.size} of {roots.size} roots did not converge in {max_iter} steps"
        )
    return roots


# Zeros of j_k held for the life of the process: entry k is the longest
# read-only array of them computed so far.  Nothing is computed at import.
_zeros: list = []
_zeros_lock = threading.Lock()


def _bessel_zero_fdf(k: int, x):
    """(j_k(x), j_k'(x)), the derivative from j_(k-1)."""
    jm, jk = _bessel_neighbours(k, x)
    return jk, jm - (k + 1) / x * jk


def _bessel_zero_ladder(max_order: int, count: int) -> list:
    """Positive zeros of j_0 .. j_max_order, each order refined from the last.

    Entry k holds the first ``count + max_order - k`` zeros of j_k, a
    read-only view of the zeros held for the life of the process; only the
    zeros not held yet are computed.  Zeros of j_0 are exactly n*pi;
    successive orders interlace, which guarantees every bracket contains
    exactly one zero.  Each zero depends on its bracket alone, so held
    zeros equal a fresh computation bit for bit.
    """
    with _zeros_lock:
        held = list(_zeros)
    ladder = []
    for k in range(max_order + 1):
        need = count + max_order - k
        zeros = held[k] if k < len(held) else np.empty(0)
        if zeros.size < need:
            if k == 0:
                new = np.arange(zeros.size + 1, need + 1) * np.pi
            else:  # brackets: consecutive zeros of j_(k-1) from the first missing one
                ends = ladder[k - 1][zeros.size : need + 1]
                new = _refine_roots(partial(_bessel_zero_fdf, k), ends[:-1], ends[1:])
            zeros = np.concatenate([zeros, new])
            zeros.flags.writeable = False
        ladder.append(zeros)
    with _zeros_lock:  # a shorter array never replaces a longer one
        for k, zeros in enumerate(ladder):
            if k == len(_zeros):
                _zeros.append(zeros)
            elif _zeros[k].size < zeros.size:
                _zeros[k] = zeros
    return [zeros[: count + max_order - k] for k, zeros in enumerate(ladder)]


# ---------------------------------------------------------------------------
# spherical harmonics


def _legendre_column(l: int, m: int, costh, sinth) -> list:
    """[Ptilde_mm, ..., Ptilde_lm]: fully normalized associated Legendre
    functions of order m >= 0, degrees m..l, from one degree recurrence, with
    the Condon-Shortley phase, so that Y_lm = Ptilde_lm exp(i m phi)."""
    p = np.full_like(costh, 1.0 / np.sqrt(4.0 * np.pi))
    for k in range(1, m + 1):
        p = -np.sqrt((2 * k + 1) / (2.0 * k)) * sinth * p
    column = [p]
    if l > m:
        column.append(np.sqrt(2 * m + 3.0) * costh * p)
    for ll in range(m + 2, l + 1):
        a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = np.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        column.append(a * (costh * column[-1] - b * column[-2]))
    return column


def spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray | complex:
    """Orthonormal scalar spherical harmonic Y_lm(theta, phi)."""
    if l < 0 or abs(m) > l:
        raise ParameterError("require l >= 0 and |m| <= l")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    scalar = th.ndim == 0 and ph.ndim == 0
    th, ph = np.atleast_1d(th), np.atleast_1d(ph)
    am = abs(m)
    p = _legendre_column(l, am, np.cos(th), np.sin(th))[-1]
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
# quadrature


@lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    nodes, wts = leggauss(order)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts
