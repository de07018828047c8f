"""Transmitter pulses, coil coupling integrals and mode-sum voltages.

The free-decay vector potential is a superposition over normalized modes
a_n = N j_l(x_n r/a) X_lm, with amplitudes fixed by the transmitter current
history and the line integral of the mode profile along the (idealized
1-D) transmitter curve; the receiver reads each mode out through its own
line integral:

    A_n = mu_0 I_n conj(N j_l(x_n) L_tx,lm),
    V_n = lambda_n N_R A_n N j_l(x_n) L_rx,lm,
    I_n = int_-inf^t0 I(t') exp(-lambda_n (t0 - t')) dt',

with L_lm the loop's exterior-multipole line integral (`line_integrals`,
every (l, m) of a loop from one call) and the stored m = 0 mode standing
for its 2l+1 degenerate partners.  The mu_0-sigma
normalization at a root of the eigencondition gives
mu_0 sigma a^3 N^2 j_l(x_n)^2 = 2 v_l(x_n), so no Bessel value or norm is
left in the voltage:

    V_n = C_l v_l(x_n) lambda_n I_n / I_0,
    C_l = 2 N_R sum_m Re(G_lm) / (sigma a^3),  G_lm = I_0 conj(L_tx,lm) L_rx,lm,
    v_l(x) = x^2 / (x^2 + h_l^2),  h_l^2 = l (mu-1) (l (mu-1) + 2l + 1),

with I_0 the effective transmitter current and mu = mu_c/mu_b.  G is the
`coupling_table`; the early-time law reads the same table
(`earlytime.early_signal`).  A uniform field H0 z-hat enters as its
analytic dipole I_0 conj(L_tx,10) = -3i H0 a^2 sqrt(2 pi/3), the
reciprocity image of its illumination d_10, so one formula covers every
transmitter.  The per-mode formulas above are kept as test references.

Sign convention: voltage is positive for decreasing secondary flux through
the receiver loop oriented along +phi; for coincident transmitter/receiver
loops and step-off drive every V_n is positive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ParameterError, TargetSpec, diffusivity
from .modes import ModeLibrary
from .special import _gauss_legendre, _legendre_column, erfc, vector_spherical_harmonic

LINE_INTEGRAL_ORDER = 32  # Gauss-Legendre nodes per polygon segment


@dataclass(frozen=True)
class PulseWaveform:
    """Transmitter current history ending at ``t0_s``.

    ``ramp`` selects the termination model: "step" (instantaneous shutoff
    from the dc level), "linear" (linear ramp to zero over ``tau_r_s``) or
    "table" (piecewise-linear samples of the current, last knot at t0).
    The effective loop current is base_current_a * windings.
    """

    base_current_a: float
    windings: int = 1
    ramp: str = "step"
    tau_r_s: float = 0.0
    t0_s: float = 0.0
    table: tuple = ()

    def __post_init__(self):
        if self.ramp not in ("step", "linear", "table"):
            raise ParameterError(f"unknown ramp model {self.ramp!r}")
        if self.ramp == "linear" and self.tau_r_s <= 0:
            raise ParameterError("linear ramp requires tau_r > 0")
        if self.ramp == "table":
            ts = [t for t, _ in self.table]
            if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ParameterError("table must have >= 2 strictly increasing knots")
        if self.windings < 1:
            raise ParameterError("windings must be >= 1")

    @property
    def effective_current_a(self) -> float:
        return self.base_current_a * self.windings


@dataclass(frozen=True)
class Loop:
    """Idealized coil: circular coaxial with the target z-axis, or polygonal.

    Circular loops lie in a horizontal plane at ``height_m`` with the given
    ``radius_m`` and carry current in +phi for positive drive.  Polygonal
    loops are closed vertex lists (n, 3) in meters, stored as a tuple of
    float triples.  ``windings`` counts receiver turns N_R; transmitter
    turns belong to the pulse.
    """

    kind: str = "circular"
    radius_m: float = 0.0
    height_m: float = 0.0
    windings: int = 1
    vertices: tuple = ()

    def __post_init__(self):
        if self.kind == "circular":
            if self.radius_m <= 0:
                raise ParameterError("circular loop needs radius > 0")
        elif self.kind == "polygon":
            object.__setattr__(self, "vertices", _vertex_rows(self.vertices))
            if len(self.vertices) < 3:
                raise ParameterError("polygon loop needs >= 3 vertices")
        else:
            raise ParameterError(f"unknown loop kind {self.kind!r}")
        if self.windings < 1:
            raise ParameterError("windings must be >= 1")

    def min_distance_m(self) -> float:
        return self._min_distance

    @cached_property
    def _min_distance(self) -> float:
        """Closest approach to the origin, computed once per loop."""
        if self.kind == "circular":
            return float(np.hypot(self.radius_m, self.height_m))
        v = np.array(self.vertices)
        seg = np.roll(v, -1, axis=0) - v
        # nearest point of each side: the origin's projection, clamped to the side
        len2 = np.maximum(np.einsum("ij,ij->i", seg, seg), np.finfo(float).tiny)
        t = np.clip(-np.einsum("ij,ij->i", v, seg) / len2, 0.0, 1.0)
        return float(np.min(np.linalg.norm(v + t[:, None] * seg, axis=1)))


def _vertex_rows(vertices) -> tuple:
    """``vertices`` as a tuple of float triples; a row that is not three finite
    real numbers raises `ParameterError` naming it."""
    try:
        rows = tuple(vertices)
    except TypeError:
        raise ParameterError("polygon vertices must be a sequence of (x, y, z) rows") from None
    out = []
    for i, row in enumerate(rows):
        try:
            vals = tuple(row)
        except TypeError:
            vals = (row,)
        if len(vals) != 3 or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c)
            for c in vals
        ):
            raise ParameterError(f"polygon vertex {i} must be 3 finite numbers, got {row!r}")
        out.append(tuple(float(c) for c in vals))
    return tuple(out)


@dataclass(frozen=True)
class UniformField:
    """Uniform axial illumination H0 z-hat, as a transmitter stand-in."""

    amplitude_a_per_m: float = 1.0


@dataclass
class TimeSeries:
    """Sampled signal: finite, strictly increasing gate times and finite values."""

    times_s: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times_s.shape != self.values.shape:
            raise ParameterError("times and values must have equal shape")
        if not np.all(np.isfinite(self.times_s)):
            raise ParameterError("gate times must be finite")
        if np.any(np.diff(self.times_s) <= 0):
            raise ParameterError("gate times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("values must be finite")


@dataclass(frozen=True)
class ExcitationCoefficients:
    """Per-mode pulse integrals I_n and voltages V_n, with the coupling table
    G_lm (`coupling_table`) they were built from."""

    pulse_integrals: np.ndarray
    coupling: dict
    voltages: np.ndarray


def pulse_history_integral(pulse: PulseWaveform, rate_per_s):
    """Exponentially weighted history integral I_n for one decay rate (or an array)."""
    lam = np.asarray(rate_per_s, dtype=float)
    if np.any(lam <= 0):
        raise ParameterError("decay rate must be > 0")
    i0 = pulse.effective_current_a
    if pulse.ramp == "step":
        return i0 / lam
    if pulse.ramp == "linear":
        u = lam * pulse.tau_r_s
        # (1 - e^-u)/u / lam, stable for small u
        return i0 * (-np.expm1(-u)) / (pulse.tau_r_s * lam * lam)
    # piecewise-linear table; constant current before the first knot
    t0 = pulse.t0_s
    knots = np.asarray([[t, i * pulse.windings] for t, i in pulse.table], dtype=float)
    total = knots[0, 1] * np.exp(-lam * (t0 - knots[0, 0])) / lam
    for (t1, i1), (t2, i2) in zip(knots[:-1], knots[1:]):
        slope = (i2 - i1) / (t2 - t1)
        ua, ub = t0 - t1, t0 - t2  # ua > ub >= 0
        c0 = i1 + slope * (t0 - t1)
        # int (c0 - slope*u) e^{-lam u} du over [ub, ua]
        e_a, e_b = np.exp(-lam * ua), np.exp(-lam * ub)
        total += c0 * (e_b - e_a) / lam
        total -= slope * ((ub / lam + 1 / lam**2) * e_b - (ua / lam + 1 / lam**2) * e_a)
    return total


# ---------------------------------------------------------------------------
# line integrals of exterior multipole fields


def line_integrals(loop: Loop, radius_m: float, keys) -> dict:
    """Line integrals L_lm = oint (a/r)^(l+1) X_lm . dl along ``loop``, in
    meters, for each (l, m) of ``keys``.

    A circular coaxial loop is azimuthally symmetric: only m = 0 couples,
    the phi integral is analytic and X_phi of (l, 0) is -i Ptilde_l1(cos
    theta), so every degree comes from one Legendre recurrence.  A polygon
    uses `LINE_INTEGRAL_ORDER`-point Gauss-Legendre quadrature per side, on
    nodes computed once per call.  Loops touching the target are rejected.
    """
    a = radius_m
    if loop.min_distance_m() <= a:
        raise ParameterError("loop intersects the target sphere")
    if loop.kind == "circular":
        r = np.hypot(loop.radius_m, loop.height_m)
        theta = np.arctan2(loop.radius_m, loop.height_m)
        p = _legendre_column(max(l for l, _ in keys), 1, np.cos(theta), np.sin(theta))
        return {
            (l, m): complex(2.0 * np.pi * loop.radius_m * (a / r) ** (l + 1) * -1j * p[l - 1])
            if m == 0 else 0j
            for l, m in keys
        }
    v = np.array(loop.vertices)
    seg = np.roll(v, -1, axis=0) - v
    nodes, wts = _gauss_legendre(LINE_INTEGRAL_ORDER)
    t = 0.5 * (nodes + 1.0)
    pts = (v[:, None, :] + seg[:, None, :] * t[None, :, None]).reshape(-1, 3)
    # dl element per node: side vector times half the Gauss weight
    dl = (seg[:, None, :] * (0.5 * wts)[None, :, None]).reshape(-1, 3)
    r = np.linalg.norm(pts, axis=1)
    theta = np.arccos(np.clip(pts[:, 2] / r, -1.0, 1.0))
    phi = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sin_p, cos_p = np.sin(phi), np.cos(phi)
    # dl . e_theta and dl . e_phi at each node
    dl_theta = (cos_t * cos_p) * dl[:, 0] + (cos_t * sin_p) * dl[:, 1] - sin_t * dl[:, 2]
    dl_phi = -sin_p * dl[:, 0] + cos_p * dl[:, 1]
    out = {}
    for l, m in keys:
        x = vector_spherical_harmonic(l, m, theta, phi)
        out[(l, m)] = complex(np.sum((a / r) ** (l + 1) * (x[1] * dl_theta + x[2] * dl_phi)))
    return out


def coupling_table(target: TargetSpec, tx, rx: Loop, max_l: int, current_a: float) -> dict:
    """Coil coupling G_lm = I conj(L_tx,lm) L_rx,lm per (l, m), 1 <= l <= max_l (A m^2).

    L is `line_integrals`, called once per loop; when either loop is
    circular only m = 0 couples and only m = 0 is computed.  A
    `UniformField` transmitter enters as its analytic dipole I conj(L_tx,10)
    = -3i H0 a^2 sqrt(2 pi/3) at (1, 0) alone, which ``current_a`` does not
    scale.  Loops touching the target are rejected.
    """
    a = target.radius_m
    if isinstance(tx, UniformField):
        drive = {(1, 0): -3j * tx.amplitude_a_per_m * a * a * math.sqrt(2.0 * math.pi / 3.0)}
    elif isinstance(tx, Loop):
        coaxial = "circular" in (tx.kind, rx.kind)
        keys = [(l, m) for l in range(1, max_l + 1) for m in ((0,) if coaxial else range(-l, l + 1))]
        drive = {lm: current_a * np.conj(v) for lm, v in line_integrals(tx, a, keys).items()}
    else:
        raise ParameterError("transmitter must be a UniformField or a Loop")
    received = line_integrals(rx, a, list(drive))
    return {lm: complex(d * received[lm]) for lm, d in drive.items()}


def compute_excitation(
    library: ModeLibrary, pulse: PulseWaveform, tx, rx: Loop
) -> ExcitationCoefficients:
    """Pulse integrals, coupling table and voltage coefficients for a library.

    V_n = C_l v_l(x_n) lambda_n I_n / I_0 (see the module docstring), with
    C_l summed over m from one `coupling_table`; all else is an array
    expression over modes.
    """
    if not len(library):
        raise ParameterError("mode library is empty")
    target = library.target
    c = library.columns
    i0 = pulse.effective_current_a
    i_n = pulse_history_integral(pulse, c.rate)
    table = coupling_table(target, tx, rx, library.max_l, i0)
    g = np.zeros(library.max_l + 1)
    for (l, _), value in table.items():
        g[l] += value.real
    c_l = 2.0 * rx.windings * g / (target.material.conductivity_s_per_m * target.radius_m**3)
    mu = target.material.relative_permeability / library.background_mu_r
    ls, x2 = c.l, c.x * c.x
    h2 = ls * (mu - 1.0) * (ls * (mu - 1.0) + 2 * ls + 1)
    pulse_factor = c.rate * i_n / i0 if i0 else np.zeros_like(i_n)
    voltages = c_l[ls] * x2 / (x2 + h2) * pulse_factor
    return ExcitationCoefficients(pulse_integrals=i_n, coupling=table, voltages=voltages)


def synthesize_voltage(
    library: ModeLibrary, coeffs: ExcitationCoefficients, gates_s
) -> TimeSeries:
    """Mode-sum receiver voltage V(t) = sum V_n exp(-lambda_n (t - t0)).

    Gate times are absolute; all must lie beyond t0 (here t0 = 0 unless the
    caller shifted gates).  Metadata carries a per-gate truncation bound for
    the omitted spectral tail.
    """
    if not len(library):
        raise ParameterError("mode library is empty")
    t = np.asarray(gates_s, dtype=float)
    if np.any(t <= 0):
        raise ParameterError("gates must lie after pulse termination (t > t0)")
    return TimeSeries(
        times_s=t,
        values=_mode_sum(library, coeffs, t),
        metadata={"truncation_bound": truncation_bound(library, coeffs, t), "kind": "mode_sum"},
    )


# exp(x) underflows to exactly 0.0 for every double x below about -745.13
_EXP_UNDERFLOW = -745.2


def _mode_sum(library: ModeLibrary, coeffs: ExcitationCoefficients, t: np.ndarray) -> np.ndarray:
    """sum V_n exp(-lambda_n t) at elapsed times ``t``; no checks, no bound.

    exp runs in place, only on exponents at or above `_EXP_UNDERFLOW`; the
    skipped ones stay negative, and clipping at 0 turns them into the exact
    0.0 exp would return (exp is never negative), so the sum is bit for bit
    that of every term.
    """
    terms = np.multiply.outer(-t, library.rates)
    np.exp(terms, out=terms, where=terms >= _EXP_UNDERFLOW)
    return np.maximum(terms, 0.0, out=terms) @ coeffs.voltages


def truncation_bound(library: ModeLibrary, coeffs: ExcitationCoefficients, t) -> np.ndarray:
    """Upper bound on the omitted spectral tail at each gate.

    Models the tail as coefficients bounded by the trend of the retained
    ones, with the asymptotic root density of one mode per pi in x; a
    factor-2 margin covers pre-asymptotic spacing and coefficient growth.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = library.target.radius_m
    d_c = diffusivity(library.target.material)
    tau_c = a * a / d_c
    ls, xs = library.columns.l, library.columns.x
    out = np.zeros_like(t)
    for l in sorted(set(ls.tolist())):
        volts = coeffs.voltages[ls == l]
        vbar = np.max(np.abs(volts[-max(1, volts.size // 4):]))
        x_top = np.max(xs[ls == l])
        u = x_top * np.sqrt(t / tau_c)
        out += 2.0 * vbar * np.sqrt(np.pi) * erfc(u) / (2.0 * np.pi * np.sqrt(t / tau_c))
    return out
