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
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .core import MU_0, MaterialSpec, NumericalError, ParameterError, TargetSpec, diffusivity
from .special import (
    _bessel_zero_ladder,
    _refine_roots,
    spherical_bessel_j,
    spherical_bessel_j_derivative,
)


class TruncationError(RuntimeError):
    """Requested mode range exceeds the configured wavenumber window."""


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


@dataclass(frozen=True)
class ModeLibrary:
    """Immutable, rate-ordered collection of modes for one target."""

    target: TargetSpec
    background_mu_r: float
    modes: tuple
    max_l: int
    max_n: int

    def __post_init__(self):
        if np.any(np.diff(self.rates) < 0):
            raise ParameterError("mode library must be sorted by decay rate")

    def sector(self, l: int) -> list:
        return [m for m in self.modes if m.l == l]

    @cached_property
    def columns(self) -> tuple:
        """Read-only arrays (l, x, norm, decay rate) over the modes, built once."""
        cols = tuple(
            np.array([getattr(m, name) for m in self.modes])
            for name in ("l", "x", "norm", "decay_rate_per_s")
        )
        for col in cols:
            col.flags.writeable = False
        return cols

    @property
    def rates(self) -> np.ndarray:
        return self.columns[3]

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
                {
                    "l": m.l,
                    "m": m.m,
                    "n": m.n,
                    "x": m.x,
                    "lambda_per_s": m.decay_rate_per_s,
                    "norm": m.norm,
                }
                for m in self.modes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModeLibrary":
        tgt = TargetSpec(
            radius_m=data["target"]["radius_m"],
            material=MaterialSpec(
                conductivity_s_per_m=data["target"]["conductivity_s_per_m"],
                relative_permeability=data["target"]["mu_r"],
            ),
        )
        modes = tuple(
            Mode(
                l=m["l"],
                m=m["m"],
                n=m["n"],
                x=m["x"],
                decay_rate_per_s=m["lambda_per_s"],
                norm=m["norm"],
                radius_m=tgt.radius_m,
            )
            for m in data["modes"]
        )
        return cls(
            target=tgt,
            background_mu_r=data["background_mu_r"],
            modes=modes,
            max_l=data["max_l"],
            max_n=data["max_n"],
        )

    def save(self, path) -> None:
        from ._io import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "ModeLibrary":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def eigencondition(l: int, x, mu_ratio: float):
    """Residual of the sphere eigencondition; zeros are mode wavenumbers."""
    if l < 1:
        raise ParameterError("sector degree l must be >= 1")
    xa = np.asarray(x, dtype=float)
    return xa * spherical_bessel_j(l - 1, xa) - l * (1.0 - mu_ratio) * spherical_bessel_j(l, xa)


def eigencondition_derivative(l: int, x, mu_ratio: float):
    xa = np.asarray(x, dtype=float)
    return (
        spherical_bessel_j(l - 1, xa)
        + xa * spherical_bessel_j_derivative(l - 1, xa)
        - l * (1.0 - mu_ratio) * spherical_bessel_j_derivative(l, xa)
    )


def _eigencondition_fdf(l: int, mu_ratio: float, x: np.ndarray) -> tuple:
    """(F, F') from one pair of Bessel values, with c = l (1 - mu_ratio):
    F = x j_(l-1) - c j_l and F' = (l - c) j_(l-1) + (c (l+1)/x - x) j_l."""
    c = l * (1.0 - mu_ratio)
    jm, jl = spherical_bessel_j(l - 1, x), spherical_bessel_j(l, x)
    return x * jm - c * jl, (l - c) * jm + (c * (l + 1) / x - x) * jl


def _residual_ok(l: int, x: np.ndarray, mu_ratio: float) -> np.ndarray:
    """Per root: |F(x)| within 1e-12 (scaled) or within its rounding floor 8 eps x |F'(x)|."""
    scale = 1.0 + abs(l * (1.0 - mu_ratio)) / np.maximum(x, 1.0)
    floor = 8.0 * np.finfo(float).eps * x * np.abs(eigencondition_derivative(l, x, mu_ratio))
    return np.abs(eigencondition(l, x, mu_ratio)) <= np.maximum(1e-12 * scale, floor)


def _sector_wavenumbers(l: int, mu_ratio: float, count: int, ladder=None) -> np.ndarray:
    """First ``count`` eigen-wavenumbers of sector l.

    Brackets come from the merged zeros of j_(l-1) and j_l, sliced from
    ``ladder`` (`_bessel_zero_ladder` of order >= l; built when omitted): on
    each open subinterval both Bessel terms keep a fixed sign, so a sign
    change of the residual at the endpoints brackets exactly one root and
    none are missed.  Nonmagnetic sectors need zeros of j_(l-1) only.
    """
    if ladder is None:
        ladder = _bessel_zero_ladder(l - (mu_ratio == 1.0), count + 2)
    extra = count + 2
    za = ladder[l - 1]
    if mu_ratio == 1.0:
        # the condition reduces to x j_(l-1)(x) = 0
        roots = za[:count]
    else:
        pts = np.sort(np.concatenate([[1e-9], za[:extra], ladder[l][:extra]]))
        res = eigencondition(l, pts, mu_ratio)
        sign = np.sign(res)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        lo, hi = pts[flips], pts[flips + 1]
        roots = _refine_roots(partial(_eigencondition_fdf, l, mu_ratio), lo, hi)
        roots = np.sort(roots)
        roots = roots[roots > 1e-8][:count]
    if roots.size < count:
        raise NumericalError(f"found only {roots.size} of {count} roots for l={l}")
    if not np.all(_residual_ok(l, roots, mu_ratio)):
        raise NumericalError("eigencondition residual above its rounding floor after polishing")
    return roots


def _lommel(l: int, x):
    """J(x) = int_0^1 j_l(x u)^2 u^2 du = [j_l(x)^2 - j_(l-1)(x) j_(l+1)(x)] / 2.

    Lommel closed form, valid for every x.
    """
    jl = spherical_bessel_j(l, x)
    return 0.5 * (jl * jl - spherical_bessel_j(l - 1, x) * spherical_bessel_j(l + 1, x))


# Sector spectra by (l, mu_c/mu_b): the longest wavenumber array computed so
# far and its Lommel integrals, read-only, least recently used first.  Root
# brackets, Newton iterations and Bessel values are all per element, so the
# first n entries of a stored array equal a fresh n-root computation bit for
# bit.  Bounded by the total number of wavenumbers held (x and J together:
# about 2 MB).
_SPECTRUM_CAP = 1 << 17
_spectra: OrderedDict = OrderedDict()
_spectra_size = 0  # wavenumbers held in _spectra
_spectra_lock = threading.Lock()


def sector_spectrum(
    l: int, mu_ratio: float, count: int, x_max: float | None = None, *, _ladder=None
) -> tuple:
    """First ``count`` wavenumbers x_n of sector l and their Lommel integrals J(x_n).

    Both arrays are read-only views into the process-wide spectrum cache.
    ``_ladder`` is a zero-argument callable returning a shared Bessel-zero
    ladder, called only on a cache miss.
    """
    key = (l, mu_ratio)
    with _spectra_lock:
        entry = _spectra.get(key)
        if entry is not None and entry[0].size >= count:
            _spectra.move_to_end(key)
        else:
            entry = None
    if entry is None:
        xs = _sector_wavenumbers(l, mu_ratio, count, _ladder() if _ladder else None)
        entry = (xs, _lommel(l, xs))
        for arr in entry:
            arr.flags.writeable = False
        _store_spectrum(key, entry)
    xs, radial = entry[0][:count], entry[1][:count]
    if x_max is not None and xs[-1] > x_max:
        raise TruncationError(
            f"root {xs[-1]:.3f} exceeds configured x_max={x_max:.3f} for l={l}"
        )
    return xs, radial


def _store_spectrum(key, entry) -> None:
    """Hold ``entry`` unless it alone exceeds the cap or a longer one is held."""
    global _spectra_size
    size = entry[0].size
    with _spectra_lock:
        old = _spectra.get(key)
        if size > _SPECTRUM_CAP or (old is not None and old[0].size >= size):
            return
        _spectra.pop(key, None)
        _spectra_size += size - (0 if old is None else old[0].size)
        _spectra[key] = entry
        while _spectra_size > _SPECTRUM_CAP:
            _spectra_size -= _spectra.popitem(last=False)[1][0].size


def normalization_constant(target: TargetSpec, l: int, x, radial=None) -> np.ndarray | float:
    """Radial normalization N with mu_0 sigma_c N^2 a^3 J(x) = 1.

    ``radial`` is J(x) when already known (see `sector_spectrum`);
    otherwise it is computed by `_lommel`.
    """
    if radial is None:
        radial = _lommel(l, x)
    sigma = target.material.conductivity_s_per_m
    return 1.0 / np.sqrt(MU_0 * sigma * target.radius_m**3 * radial)


def find_decay_rates(
    target: TargetSpec,
    background_mu_r: float,
    l: int,
    count: int,
    x_max: float | None = None,
    *,
    _ladder=None,
) -> list:
    """First ``count`` normalized modes of sector l, ascending decay rate.

    ``_ladder`` shares one lazily built Bessel-zero ladder among
    `build_mode_library`'s sectors; it saves work and never changes the
    result.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    mu_ratio = target.material.relative_permeability / background_mu_r
    xs, radial = sector_spectrum(l, mu_ratio, count, x_max, _ladder=_ladder)
    d_c = diffusivity(target.material)
    a = target.radius_m
    rates = d_c * xs * xs / (a * a)
    norms = normalization_constant(target, l, xs, radial)
    columns = zip(xs.tolist(), rates.tolist(), norms.tolist())
    return [
        Mode(l=l, m=0, n=n, x=x, decay_rate_per_s=rate, norm=norm, radius_m=a)
        for n, (x, rate, norm) in enumerate(columns, start=1)
    ]


def radial_profile(mode: Mode, r) -> np.ndarray | float:
    """Radial mode profile f(r) = N j_l(x r/a), continued as (a/r)^(l+1) outside."""
    ra = np.asarray(r, dtype=float)
    scalar = ra.ndim == 0
    ra = np.atleast_1d(ra)
    a, x, l = mode.radius_m, mode.x, mode.l
    out = np.empty_like(ra)
    inside = ra <= a
    out[inside] = spherical_bessel_j(l, x * ra[inside] / a)
    surface = spherical_bessel_j(l, x)
    out[~inside] = surface * (a / ra[~inside]) ** (l + 1)
    out *= mode.norm
    return float(out[0]) if scalar else out


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
    code with the eigencondition path and exists to validate it.
    """
    if grid_points < 100:
        raise ParameterError("grid_points must be >= 100")
    if count > grid_points // 4:
        raise ParameterError("count too large for the grid")
    mu_ratio = target.material.relative_permeability / background_mu_r
    a = target.radius_m
    h = a / grid_points
    r = np.arange(1, grid_points + 1) * h
    diag = np.full(grid_points, 2.0 / h**2) + l * (l + 1) / r**2
    off = np.full(grid_points - 1, -1.0 / h**2)
    diag[-1] = 1.0 / h**2 + l * mu_ratio / (a * h) + l * (l + 1) / (2.0 * a**2)
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
    d_c = diffusivity(target.material)
    return d_c * np.sort(k2)


def build_mode_library(
    target: TargetSpec,
    background_mu_r: float,
    max_l: int,
    count_per_l: int,
) -> ModeLibrary:
    """Modes for all sectors l = 1..max_l, globally sorted by decay rate.

    The m degeneracy of the sphere is exact; modes are stored once with
    m = 0 and reconstructed per m by the excitation machinery as needed.
    """
    mu_ratio = target.material.relative_permeability / background_mu_r
    ladder = cache(lambda: _bessel_zero_ladder(max_l - (mu_ratio == 1.0), count_per_l + 2))
    modes = []
    for l in range(1, max_l + 1):
        modes.extend(find_decay_rates(target, background_mu_r, l, count_per_l, _ladder=ladder))
    modes.sort(key=lambda m: (m.decay_rate_per_s, m.l, m.n))
    return ModeLibrary(
        target=target,
        background_mu_r=background_mu_r,
        modes=tuple(modes),
        max_l=max_l,
        max_n=count_per_l,
    )
