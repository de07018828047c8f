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

m Y_lm / sin(theta) is taken from the Legendre recurrence with one sin
factor fewer, so both components are finite on the z-axis.

Spherical Bessel functions have one evaluator, `_bessel_neighbours`, under
the usual stability rules.  At or above an order's cut (x >= order, or
x >= max(order/2, 1/2) for the closed forms of orders 0-2) it takes the
closed forms and the upward recurrence, which is stable only there (it
loses all accuracy for x < order).  Below the cut it takes one Miller
downward sweep, normalized by the larger of j_0 and j_1 (normalizing by
j_0 alone loses every digit near its zeros x = k pi).  Every step is
elementwise, so a value depends on its x and order alone.
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


def spherical_bessel_j(l: int, x) -> np.ndarray | float:
    """Spherical Bessel function j_l(x) for x >= 0, accurate to ~1e-13
    (`_bessel_neighbours` of the one order l)."""
    if l < 0:
        raise ParameterError("order l must be >= 0")
    xa = np.asarray(x, dtype=float)
    if (xa < 0).any():
        raise ParameterError("argument must be >= 0")
    out = _bessel_neighbours(l + 1, xa, 1)[0]
    return float(out[0]) if xa.ndim == 0 else out


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


def _bessel_miller(x: np.ndarray, lo: int, hi: int) -> list:
    """[j_lo(x), ..., j_hi(x)] for x >= 0 from one Miller downward sweep.

    The recurrence j_(k-1) = (2k+1)/x j_k - j_(k+1) runs from j_N = 1,
    j_(N+1) = 0 at N = max(hi, 13) + 40, far above every order and every x
    below the cut, down to j_0.  After each step both terms are rescaled by
    a power of two, which is exact, so nothing overflows and no element
    depends on another.  The sweep is normalized by whichever of j_0 and j_1
    (closed forms) is larger in magnitude; their zeros interlace, so the two
    never vanish together.  x = 0 is set exactly.
    """
    zero = x == 0
    x = np.where(zero, 1.0, x)
    jp, jc = np.zeros_like(x), np.ones_like(x)
    shift = np.zeros(x.shape, dtype=int)  # jc and jp carry a factor 2^-shift
    held = []
    for k in range(max(hi, 13) + 40, 0, -1):
        if k <= hi:
            held.append((jc, shift))
        jp, jc = jc, (2 * k + 1) / x * jc - jp
        jc, e = np.frexp(jc)
        jp, shift = np.ldexp(jp, -e), shift + e
    held.append((jc, shift))
    j0, j1 = _bessel_rows(x, 0, 1)
    scale = np.where(np.abs(j0) >= np.abs(j1), j0 / jc, j1 / jp)
    rows = [np.ldexp(v * scale, s - shift) for v, s in held[::-1][lo : hi + 1]]
    for k, row in enumerate(rows, lo):
        row[zero] = k == 0
    return rows


def _bessel_neighbours(l, x, count: int = 2) -> list:
    """[j_(l-1)(x), j_l(x), ...]: ``count`` consecutive orders from l - 1, x >= 0.

    ``l`` is an int or an int array like ``x``, so every element may carry
    its own degree.  An order at or above its cut (`_elementwise_from`)
    takes its closed form (order <= 2) or the upward recurrence: one sin/cos
    and one recurrence give every order (`_bessel_rows`).  Below the cut it
    comes from one Miller downward sweep (`_bessel_miller`) over the
    elements that lie below the cut of their own top order, l + count - 2;
    a call with no such element costs what `_bessel_rows` does.  Every step
    is elementwise, and the sweep starts at order 53 in every call whose
    top order is 13 or less (every call a mode library makes), so there a
    value depends on its x and order alone: not on the other elements, l or
    ``count``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(l, (int, np.integer)):
        l = lmin = lmax = int(l)
    else:
        l = np.asarray(l)
        lmin, lmax = (int(l.min()), int(l.max())) if l.size else (1, 1)
    lo, hi = lmin - 1, lmax + count - 2
    if not x.size or x.min() >= _elementwise_from(hi):
        low = None
        rows = _bessel_rows(x, lo, hi)
    else:
        low = x < _elementwise_from(l + count - 2)
        with np.errstate(all="ignore"):  # values below the cut are replaced below
            rows = _bessel_rows(x, lo, hi)
    out = rows if lmin == lmax else _gather(rows, l - lmin, count)
    if low is None or not low.any():
        return out
    sweep = _bessel_miller(x[low], lo, hi)
    if lmin != lmax:
        sweep = _gather(sweep, l[low] - lmin, count)
    for d, (vals, swept) in enumerate(zip(out, sweep)):
        below = (x < _elementwise_from(l + (d - 1)))[low]
        vals[low] = np.where(below, swept, vals[low])
    return out


def _gather(rows: list, offset: np.ndarray, count: int) -> list:
    """Per element, ``count`` consecutive ``rows`` from its own ``offset``."""
    table, idx = np.array(rows), np.arange(offset.size)
    return [table[offset + d, idx] for d in range(count)]


def _elementwise_from(order):
    """Cut of ``order`` (an int or an int array): the least x at which it
    takes a closed form (order <= 2) or the upward recurrence (order >= 3)."""
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


def _legendre_column(l: int, m: int, costh, sinth, over_sin: bool = False) -> list:
    """[Ptilde_mm, ..., Ptilde_lm]: fully normalized associated Legendre
    functions of order m >= 0, degrees m..l, from one degree recurrence, with
    the Condon-Shortley phase, so that Y_lm = Ptilde_lm exp(i m phi).

    With ``over_sin`` (m >= 1) every entry is divided by sin(theta): the
    seed takes one sin factor fewer, so the poles give the finite limit."""
    p = np.full_like(costh, 1.0 / np.sqrt(4.0 * np.pi))
    for k in range(1, m + 1):
        p = -np.sqrt((2 * k + 1) / (2.0 * k)) * (1.0 if over_sin and k == m else sinth) * p
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
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    y = _harmonic(l, m, np.atleast_1d(th), np.atleast_1d(ph))
    return complex(y[0]) if th.ndim == 0 and ph.ndim == 0 else y


def _harmonic(l: int, m: int, th, ph, over_sin: bool = False) -> np.ndarray:
    """Y_lm(th, ph), or with ``over_sin`` (m != 0) Y_lm / sin(th), whose
    value at the poles is its finite limit (`_legendre_column`)."""
    if l < 0 or abs(m) > l:
        raise ParameterError("require l >= 0 and |m| <= l")
    am = abs(m)
    p = _legendre_column(l, am, np.cos(th), np.sin(th), over_sin)[-1]
    y = p * np.exp(1j * am * ph)
    if m < 0:
        y = (-1.0) ** am * np.conj(y)
    return y


def spherical_harmonic_dtheta(l: int, m: int, theta, phi) -> np.ndarray | complex:
    """Partial derivative dY_lm/dtheta.

    Uses dY_lm/dtheta = m cos(theta) (Y_lm / sin(theta)) + sqrt((l-m)(l+m+1))
    e^(-i phi) Y_{l,m+1}, with Y_lm / sin(theta) from `_harmonic`, so the
    poles give the finite limit.
    """
    th = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(th, np.asarray(phi)).shape, dtype=complex)
    if m != 0:
        out = out + m * np.cos(th) * _harmonic(l, m, th, np.asarray(phi, dtype=float), True)
    if m + 1 <= l:
        out = out + np.sqrt((l - m) * (l + m + 1.0)) * np.exp(
            -1j * np.asarray(phi)
        ) * spherical_harmonic(l, m + 1, theta, phi)
    return out


def vector_spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray:
    """Tangential vector harmonic X_lm as spherical components (r, theta, phi).

    The radial component is identically zero by construction; X_theta takes
    Y_lm / sin(theta) from `_harmonic`, finite at the poles.
    """
    if l < 1:
        raise ParameterError("X_lm requires l >= 1 (X_00 vanishes identically)")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    norm = 1.0 / np.sqrt(l * (l + 1.0))
    xth = np.zeros(np.broadcast(th, ph).shape, dtype=complex)
    if m != 0:
        xth = -m * _harmonic(l, m, th, ph, True) * norm
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
