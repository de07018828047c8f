"""Decay-rate spectrum and radial profiles for a uniform conducting sphere.

Free decay of eddy currents is governed by the eigenproblem

    curl( (1/mu) curl a ) = sigma lambda a,

restricted here to the family a = f(r) X_lm excited by scalar-potential
illumination of a sphere.  Inside the target f solves the spherical Bessel
equation, f = j_l(x r/a) with lambda = D_c x^2 / a^2; outside, the
insulating exterior forces f proportional to (a/r)^(l+1).  Matching
tangential E (f continuous) and tangential H ((1/mu) d(r f)/dr continuous)
yields the transcendental eigencondition

    x j_(l-1)(x) = l (1 - mu_c/mu_b) j_l(x),

whose roots x_n are the dimensionless mode wavenumbers.  A second-order
radial finite-difference eigensolver provides an independent check of this
derivation (`radial_fd_decay_rates`).

Modes are normalized against the weight mu_0 sigma, i.e.

    mu_0 sigma_c int_0^a f_n(r)^2 r^2 dr = 1,

so that excitation amplitudes carry a bare mu_0 and the receiver-voltage
formula needs no further constants.

A library is built in one pass over its sectors (`_library`): one
Bessel-zero ladder request for the highest sector, one bracket scan, one
bracketed-Newton loop in which every root carries its own l, one
j_(l-1), j_l, j_(l+1) evaluation for both the residual gate and the Lommel
norms, then the rates and one sort.  Every Bessel value comes from
`special._bessel_neighbours`, the one evaluator, in which a value depends
on its x and order alone.  Each sector of a library therefore equals that
sector built alone, bit for bit.
The 32 most recently built libraries are held, read-only, per (target,
background mu_r, sectors, count); a repeated build returns the held one.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import MU_0, NumericalError, ParameterError, TargetSpec, diffusivity
from .special import _bessel_neighbours, _bessel_zero_ladder, _refine_roots


@dataclass(frozen=True)
class Mode:
    """One decay eigenmode of the sphere.

    ``x`` is the dimensionless wavenumber (k a), ``decay_rate_per_s`` equals
    D_c x^2 / a^2 and ``norm`` is the radial normalization constant N in
    f(r) = N j_l(x r/a).
    """

    l: int
    m: int
    n: int
    x: float
    decay_rate_per_s: float
    norm: float
    radius_m: float

    def __post_init__(self):
        if self.l < 1 or abs(self.m) > self.l or self.n < 1:
            raise ParameterError("mode requires l >= 1, |m| <= l, n >= 1")
        if self.x <= 0 or self.decay_rate_per_s <= 0:
            raise ParameterError("mode wavenumber and rate must be > 0")


class ModeColumns(NamedTuple):
    """Per-mode arrays of a `ModeLibrary`, in its rate order: sector degree
    l, wavenumber x, normalization N, decay rate and radial index n."""

    l: np.ndarray
    x: np.ndarray
    norm: np.ndarray
    rate: np.ndarray
    n: np.ndarray


_COLUMN_DTYPES = ModeColumns(l=int, x=float, norm=float, rate=float, n=int)


class ModeLibrary:
    """Immutable, rate-ordered collection of modes for one target.

    The modes are held as read-only `columns`; `Mode` objects are built only
    when asked for (``modes``, ``sector``).  Every
    mode has m = 0: the m degeneracy of the sphere is exact and summed by
    the excitation.  ``ModeLibrary(target, mu_b, modes, max_l, max_n)``
    takes a tuple of `Mode`; `from_columns` takes the arrays.
    """

    def __init__(self, target: TargetSpec, background_mu_r: float, modes, max_l: int, max_n: int):
        modes = tuple(modes)
        if any(m.m != 0 for m in modes):
            raise ParameterError("library modes are stored with m = 0")
        columns = ModeColumns(
            l=[m.l for m in modes],
            x=[m.x for m in modes],
            norm=[m.norm for m in modes],
            rate=[m.decay_rate_per_s for m in modes],
            n=[m.n for m in modes],
        )
        self._set(target, background_mu_r, columns, max_l, max_n)
        self.__dict__["modes"] = modes

    @classmethod
    def from_columns(
        cls, target: TargetSpec, background_mu_r: float, columns: ModeColumns, max_l: int, max_n: int
    ) -> "ModeLibrary":
        """Library over copies of the ``columns`` arrays, which must be rate-sorted."""
        lib = cls.__new__(cls)
        lib._set(target, background_mu_r, columns, max_l, max_n)
        return lib

    def _set(self, target, background_mu_r, columns, max_l, max_n) -> None:
        cols = ModeColumns(*(np.array(c, dtype=t) for c, t in zip(columns, _COLUMN_DTYPES)))
        if any(c.ndim != 1 or c.size != cols.l.size for c in cols):
            raise ParameterError("mode columns must be 1-D arrays of equal length")
        if not (np.array_equal(cols.l, columns.l) and np.array_equal(cols.n, columns.n)):
            raise ParameterError("mode indices l and n must be integers")
        if not ((cols.l >= 1).all() and (cols.n >= 1).all()):
            raise ParameterError("modes require l >= 1 and n >= 1")
        if not ((cols.x > 0).all() and (cols.rate > 0).all()):
            raise ParameterError("mode wavenumbers and rates must be > 0")
        if not all(np.isfinite(c).all() for c in (cols.x, cols.rate, cols.norm)):
            raise ParameterError("mode wavenumbers, rates and norms must be finite")
        if (np.diff(cols.rate) < 0).any():
            raise ParameterError("mode library must be sorted by decay rate")
        for col in cols:
            col.flags.writeable = False
        self.__dict__.update(
            target=target, background_mu_r=background_mu_r, columns=cols, max_l=max_l, max_n=max_n
        )

    def __setattr__(self, name, value):
        raise AttributeError("ModeLibrary is immutable")

    def __len__(self) -> int:
        return self.columns.l.size

    def _rows(self):
        """(l, n, x, rate, norm) per mode, as Python numbers."""
        c = self.columns
        return zip(c.l.tolist(), c.n.tolist(), c.x.tolist(), c.rate.tolist(), c.norm.tolist())

    @cached_property
    def modes(self) -> tuple:
        """The modes as `Mode` objects, built on first use."""
        a = self.target.radius_m
        return tuple(
            Mode(l=l, m=0, n=n, x=x, decay_rate_per_s=rate, norm=norm, radius_m=a)
            for l, n, x, rate, norm in self._rows()
        )

    def _mode(self, i: int) -> Mode:
        """Mode ``i`` in rate order, taken from `modes` if built, else built alone."""
        if "modes" in self.__dict__:
            return self.modes[i]
        c = self.columns
        return Mode(l=int(c.l[i]), m=0, n=int(c.n[i]), x=float(c.x[i]),
                    decay_rate_per_s=float(c.rate[i]), norm=float(c.norm[i]),
                    radius_m=self.target.radius_m)

    def sector(self, l: int) -> "_Sector":
        """The modes of sector l in rate order, as a read-only sequence that
        builds a `Mode` only for each item read."""
        return _Sector(self, np.flatnonzero(self.columns.l == l))

    @property
    def rates(self) -> np.ndarray:
        return self.columns.rate

    def to_dict(self) -> dict:
        mat = self.target.material
        return {
            "target": {
                "radius_m": self.target.radius_m,
                "conductivity_s_per_m": mat.conductivity_s_per_m,
                "mu_r": mat.relative_permeability,
            },
            "background_mu_r": self.background_mu_r,
            "max_l": self.max_l,
            "max_n": self.max_n,
            "modes": [
                {"l": l, "m": 0, "n": n, "x": x, "lambda_per_s": rate, "norm": norm}
                for l, n, x, rate, norm in self._rows()
            ],
        }

    def save(self, path) -> None:
        from ._io import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), indent=1, allow_nan=False) + "\n")


class _Sector(Sequence):
    """Modes of one sector of a `ModeLibrary`; a slice is a list of `Mode`."""

    __slots__ = ("_library", "_index")

    def __init__(self, library: ModeLibrary, index: np.ndarray):
        self._library, self._index = library, index

    def __len__(self) -> int:
        return self._index.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._library._mode(j) for j in self._index[i].tolist()]
        return self._library._mode(int(self._index[i]))

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _Sector) else other)


def eigencondition(l: int, x, mu_ratio: float):
    """Residual of the sphere eigencondition; zeros are mode wavenumbers."""
    if l < 1:
        raise ParameterError("sector degree l must be >= 1")
    xa = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # F' is infinite at x = 0; F is not
        return _eigencondition_fdf(l, mu_ratio, xa)[0].reshape(xa.shape)[()]


def _eigencondition_fdf(l, mu_ratio: float, x: np.ndarray, bessel=None) -> tuple:
    """(F, F') from one pair of Bessel values, with c = l (1 - mu_ratio):
    F = x j_(l-1) - c j_l and F' = (l - c) j_(l-1) + (c (l+1)/x - x) j_l.

    ``l`` is an int or a per-element int array (`_bessel_neighbours`).  The
    pair is computed here, or read from the head of ``bessel``, a list of
    consecutive orders from j_(l-1) at x."""
    c = l * (1.0 - mu_ratio)
    jm, jl = _bessel_neighbours(l, x) if bessel is None else bessel[:2]
    return x * jm - c * jl, (l - c) * jm + (c * (l + 1) / x - x) * jl


def _residual_ok(l, x: np.ndarray, mu_ratio: float, bessel=None) -> np.ndarray:
    """Per root: |F(x)| within 1e-12 (scaled) or within its rounding floor 8 eps x |F'(x)|.

    F and F' come from `_eigencondition_fdf` (on ``bessel`` when given), the
    expressions the Newton finish uses.
    """
    f, df = _eigencondition_fdf(l, mu_ratio, x, bessel)
    scale = 1.0 + abs(l * (1.0 - mu_ratio)) / np.maximum(x, 1.0)
    floor = 8.0 * np.finfo(float).eps * x * np.abs(df)
    return np.abs(f) <= np.maximum(1e-12 * scale, floor)


def _wavenumbers(ls, mu_ratio: float, count: int) -> np.ndarray:
    """First ``count`` eigen-wavenumbers of every sector in ``ls``, in one pass,
    sector after sector.

    Brackets come from the merged zeros of
    j_(l-1) and j_l (one `_bessel_zero_ladder` call, held for the life of
    the process): on each open subinterval both Bessel terms keep a fixed
    sign, so a sign change of the residual at the endpoints brackets exactly
    one root and none are missed.  Nonmagnetic sectors need zeros of
    j_(l-1) only.  All roots are refined in one Newton loop in which each
    root carries its l.  A Bessel value from `_bessel_neighbours` depends
    on its x and order alone, and each root stops on its own, so each
    sector's roots equal a computation of that sector alone, bit for bit.
    The caller (`_library`) gates the residual.
    """
    extra = count + 2
    ladder = _bessel_zero_ladder(max(ls) - (mu_ratio == 1.0), extra)

    if mu_ratio == 1.0:
        # the condition reduces to x j_(l-1)(x) = 0
        roots = [ladder[l - 1][:count] for l in ls]
    else:
        pts = [np.sort(np.concatenate([[1e-9], ladder[l - 1][:extra], ladder[l][:extra]]))
               for l in ls]
        sizes = [p.size for p in pts]
        lp, xp = np.repeat(ls, sizes), np.concatenate(pts)
        # each sector's scan starts at x = 1e-9, where F ~ x^l (l + 1 + l mu) / (2l + 1)!!
        # is positive for every mu > 0: +1 stands for it, with no Bessel series
        inner = np.ones(xp.size, dtype=bool)
        inner[np.cumsum(sizes) - sizes] = False
        res = np.ones(xp.size)
        res[inner] = _eigencondition_fdf(lp[inner], mu_ratio, xp[inner])[0]
        sign = np.sign(res)
        flips = np.nonzero((sign[:-1] * sign[1:] < 0) & (lp[:-1] == lp[1:]))[0]
        lr = lp[flips]
        found = _refine_roots(
            lambda x, l: _eigencondition_fdf(l, mu_ratio, x),
            xp[flips], xp[flips + 1], res[flips], labels=lr,
        )
        roots = []
        for l in ls:
            r = np.sort(found[lr == l])
            roots.append(r[r > 1e-8][:count])
    for l, r in zip(ls, roots):
        if r.size < count:
            raise NumericalError(f"found only {r.size} of {count} roots for l={l}")
    return np.concatenate(roots)


def normalization_constant(target: TargetSpec, l, x, bessel=None) -> np.ndarray | float:
    """Radial normalization N with mu_0 sigma_c N^2 a^3 J(x) = 1, where

        J(x) = int_0^1 j_l(x u)^2 u^2 du = [j_l(x)^2 - j_(l-1)(x) j_(l+1)(x)] / 2

    is the Lommel closed form, valid for every x.  ``l`` is an int or per
    element; ``bessel`` is [j_(l-1), j_l, j_(l+1)] at x, computed when omitted.
    """
    jm, jl, jp = _bessel_neighbours(l, x, 3) if bessel is None else bessel
    sigma = target.material.conductivity_s_per_m
    return 1.0 / np.sqrt(MU_0 * sigma * target.radius_m**3 * (0.5 * (jl * jl - jm * jp)))


@lru_cache(maxsize=32)
def _library(target: TargetSpec, background_mu_r: float, ls: tuple, count: int) -> ModeLibrary:
    """First ``count`` normalized modes of every sector in ``ls``, sorted by
    rate, then l, then n.  The 32 most recently used libraries are held; a
    build that raises (a rate or norm past the float range) is not."""
    if count < 1 or min(ls, default=0) < 1:
        raise ParameterError("count and sector degrees l must be >= 1")
    mu_ratio = target.material.relative_permeability / background_mu_r
    x = _wavenumbers(ls, mu_ratio, count)
    l = np.repeat(ls, count)
    bessel = _bessel_neighbours(l, x, 3)  # one pass serves the residual gate and the norms
    if not np.all(_residual_ok(l, x, mu_ratio, bessel)):
        raise NumericalError("eigencondition residual above its rounding floor after polishing")
    a = target.radius_m
    with np.errstate(over="ignore", divide="ignore"):
        norm = normalization_constant(target, l, x, bessel)
        rate = diffusivity(target.material) * x * x / (a * a)
    if not (np.isfinite(rate).all() and np.isfinite(norm).all()):
        raise ParameterError("mode decay rate or norm overflows: target radius, "
                             "resistivity or mu_r out of range")
    n = np.tile(np.arange(1, count + 1), len(ls))
    order = np.lexsort((n, l, rate))
    columns = ModeColumns(*(col[order] for col in (l, x, norm, rate, n)))
    return ModeLibrary.from_columns(target, background_mu_r, columns, max(ls), count)


def find_decay_rates(target: TargetSpec, background_mu_r: float, l: int, count: int) -> ModeLibrary:
    """First ``count`` normalized modes of sector l, ascending decay rate.

    Returned as a one-sector `ModeLibrary` (max_l = l, max_n = count), held
    like `build_mode_library`.
    """
    return _library(target, background_mu_r, (l,), count)


def radial_fd_decay_rates(
    target: TargetSpec,
    background_mu_r: float,
    l: int,
    grid_points: int,
    count: int = 10,
) -> np.ndarray:
    """Decay rates from a brute-force radial finite-difference eigensolver.

    Discretizes u = r f, with -u'' + l(l+1)/r^2 u = (lambda/D_c) u on (0, a),
    u(0) = 0 and the exterior-matching Robin row u'(a) + (l mu_ratio / a)
    u(a) = 0, on a uniform grid (second order).  The boundary row is scaled
    by 1/2 so the generalized problem stays symmetric definite, then folded
    into a standard symmetric tridiagonal problem.  This solver shares no
    code with the eigencondition path and exists to validate it.  Its
    eigenvalues scale as 1/a^2, so it is solved at a = 1 (`_fd_eigenvalues`).

    ``grid_points`` N sets two grids, of M = N // 8 and 2M points, and the
    result is their Richardson extrapolation (4 k2(2M) - k2(M)) / 3, which
    cancels the h^2 error term: at N = 2000 it is within 2e-9 of the roots
    for l 1-6 and mu_ratio 0.2-300, where one plain 2,000-point grid is off
    by up to 2.4e-6, and its two solves cost less than that one.
    """
    if grid_points < 100:
        raise ParameterError("grid_points must be >= 100")
    coarse = grid_points // 8
    if count > coarse:
        raise ParameterError("count too large for the grid")
    mu_ratio = target.material.relative_permeability / background_mu_r
    k2 = (4.0 * _fd_eigenvalues(l, mu_ratio, 2 * coarse, count)
          - _fd_eigenvalues(l, mu_ratio, coarse, count)) / 3.0
    return diffusivity(target.material) * k2 / target.radius_m**2


@lru_cache(maxsize=32)
def _fd_eigenvalues(l: int, mu_ratio: float, grid_points: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues (k a)^2 of the radial FD problem at a = 1,
    read-only and held per (l, mu_ratio, grid_points, count): repeated
    sectors (every nonmagnetic one) are solved once per process."""
    h = 1.0 / grid_points
    r = np.arange(1, grid_points + 1) * h
    diag = np.full(grid_points, 2.0 / h**2) + l * (l + 1) / r**2
    off = np.full(grid_points - 1, -1.0 / h**2)
    diag[-1] = 1.0 / h**2 + l * mu_ratio / h + l * (l + 1) / 2.0
    # mass matrix diag(1, ..., 1, 1/2); fold in via symmetric scaling
    s_last = np.sqrt(2.0)
    diag[-1] *= 2.0
    off[-1] *= s_last
    from scipy.linalg import eigh_tridiagonal

    try:
        k2 = eigh_tridiagonal(
            diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError("tridiagonal eigensolver failed") from exc
    k2 = np.sort(k2)
    k2.flags.writeable = False
    return k2


def build_mode_library(
    target: TargetSpec,
    background_mu_r: float,
    max_l: int,
    count_per_l: int,
) -> ModeLibrary:
    """Modes for all sectors l = 1..max_l, globally sorted by decay rate.

    All sectors are built in one pass (`_library`), and an equal build
    (target, background mu_r, max_l, count_per_l) returns the held library,
    bit-identical to a fresh one.  Modes are stored once with m = 0: the m
    degeneracy of the sphere is exact and summed by the excitation.
    """
    return _library(target, background_mu_r, tuple(range(1, max_l + 1)), count_per_l)
