"""Post-quench surface currents and the early-time t^(-1/2) response.

Before shutoff the transmitter's static potential illuminates the target
(step 0); a loop's coefficients follow by reciprocity from the line
integrals of exterior multipoles that couple it to the mode sum.  The
theory then proceeds in three steps after shutoff.  First, once the
outgoing transient has left the target region (t_tr = t0 + tau_tr), the
interior field is still frozen at its pre-quench static configuration while
the exterior has relaxed to a source-free magnetostatic potential; the
mismatch of tangential H across the boundary is carried by a surface
current K.  Second, K relaxes diffusively into the target: near the
surface the problem is one-dimensional in the depth coordinate z <= 0 with
a Neumann condition at z = 0.  Third, the normal flux change at the
boundary feeds an exterior potential correction whose time derivative gives
the receiver voltage, proportional to (t - t_tr)^(-1/2) for every harmonic.

Every stage is diagonal in (l, m), and composed they cancel both l and
mu_b: the voltage term of a harmonic is a material factor times the coil
coupling I conj(L_tx,lm) L_rx,lm that the mode sum carries too, so apart
from the target's sigma a^3 and tau_c the t^(-1/2) amplitude reflects the
coil geometry alone.  `early_signal` reads
that coupling table; the stages remain for the per-stage report and the
exterior field scan.

The stages are computed per (l, m) in dimensionless internal units
(lengths in a, times in a^2/D_c, fields in H_0, mu_0 = 1); permeabilities
enter only as the relative values mu_c, mu_b.  SI conversion happens at the
interface operations via :class:`~temsphere.core.ScaleSystem`.

Sign conventions follow Lenz's law: the post-quench surface current
maintains the trapped interior flux, and the exterior moment decays, so
the coincident-loop voltage is positive.  (The interior sheet correction is
Delta_A = -mu_c K W with W > 0; the exterior potential correction per unit
interior amplitude is +phi_l (a/r)^(l+1) Y_lm with phi_l > 0.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, ScaleSystem, TargetSpec, TimeMarkers, scales_for
from .excitation import Loop, TimeSeries, UniformField, line_integrals
from .special import (
    erfc,
    spherical_harmonic,
    spherical_harmonic_dtheta,
    vector_spherical_harmonic,
)

# validity window of the t^(-1/2) law (EarlySignal.window_s): from
# TRANSIENT_GUARD transient times to WINDOW_FRACTION of tau_c after shutoff
TRANSIENT_GUARD = 10.0
WINDOW_FRACTION = 0.05


@dataclass
class PotentialExpansion:
    """Spherical-harmonic expansion of a magnetic scalar potential.

    Per (l, m): ``interior`` holds the coefficient of (r/a)^l Y_lm inside
    the target, ``growing`` the source coefficient of (r/a)^l Y_lm outside,
    ``decaying`` the induced coefficient of (a/r)^(l+1) Y_lm outside.
    Coefficients are dimensionless (potential scale H_0 a).
    """

    interior: dict = field(default_factory=dict)
    growing: dict = field(default_factory=dict)
    decaying: dict = field(default_factory=dict)


@dataclass
class SurfaceScalarSpectrum:
    """Y_lm coefficients of a scalar field on the target surface."""

    coeffs: dict = field(default_factory=dict)


@dataclass
class SurfaceCurrentSpectrum:
    """X_lm coefficients of the tangential surface current sheet (units H_0)."""

    coeffs: dict = field(default_factory=dict)


@dataclass
class EarlyTimeField:
    """Exterior field correction triple at given points and elapsed time.

    Vectors are complex spherical components (r, theta, phi), summed over
    the retained harmonics; physically real scenarios leave a negligible
    imaginary part.
    """

    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    elapsed: float
    dA: np.ndarray
    dB: np.ndarray
    dE: np.ndarray


@dataclass(frozen=True)
class EarlySignal:
    """Early-time receiver signal V(t) = amplitude / sqrt(t - t_ref).

    ``amplitude_v_sqrt_s`` is the SI power-law amplitude (V sqrt(s));
    ``per_harmonic`` maps (l, m) to its complex term in the same unit, and
    the real parts of the terms sum to the amplitude.
    """

    amplitude_v_sqrt_s: float
    t_ref_s: float
    window_s: tuple
    per_harmonic: dict

    def evaluate(self, times_s) -> np.ndarray:
        t = np.asarray(times_s, dtype=float)
        if np.any(t <= self.t_ref_s):
            raise ParameterError("early-time signal needs t > t_ref")
        return self.amplitude_v_sqrt_s / np.sqrt(t - self.t_ref_s)


# ---------------------------------------------------------------------------
# Step 0: illumination and the pre-quench static solution


def illumination_coefficients(
    source,
    target: TargetSpec,
    max_l: int,
    scales: ScaleSystem | None = None,
    source_current_a: float = 1.0,
) -> PotentialExpansion:
    """Expansion of the transmitter's static potential about the target center.

    A UniformField is a pure dipole.  By reciprocity a Loop's coefficients
    are d_lm = -i I sqrt(l(l+1)) conj(L_lm) / (l (2l+1) a), with L_lm its
    `excitation.line_integrals` from one call; a circular loop keeps (l, 0),
    a polygon every (l, m), for 1 <= l <= max_l.  Coefficients are internal
    (per H_0 a); ``scales`` defaults to the target's own scale system with
    H_0 = 1 A/m.
    """
    if scales is None:
        scales = scales_for(target)
    pot_scale = scales.factor("potential")
    exp = PotentialExpansion()
    if isinstance(source, UniformField):
        d1 = -source.amplitude_a_per_m * target.radius_m * np.sqrt(4.0 * np.pi / 3.0)
        exp.growing[(1, 0)] = complex(d1 / pot_scale)
        return exp
    if not isinstance(source, Loop):
        raise ParameterError("source must be a UniformField or a Loop")
    a = target.radius_m
    keys = [(l, m) for l in range(1, max_l + 1)
            for m in ((0,) if source.kind == "circular" else range(-l, l + 1))]
    exp.growing = {
        (l, m): complex(
            -1j * source_current_a * np.sqrt(l * (l + 1.0))
            * np.conj(integral)
            / (l * (2 * l + 1) * a * pot_scale)
        )
        for (l, m), integral in line_integrals(source, a, keys).items()
    }
    return exp


def static_sphere_response(
    illumination: PotentialExpansion, mu_c: float, mu_b: float
) -> PotentialExpansion:
    """Pre-quench magnetostatic solution with the permeable sphere present.

    Per unit source coefficient d: interior amplitude is
    d (2l+1) mu_b / (l mu_c + (l+1) mu_b), and the induced decaying
    amplitude is the interior amplitude times (1 - mu_c/mu_b) l/(2l+1).
    The permeability contrast vanishes for mu_c = mu_b and the induced
    static moment with it.
    """
    out = PotentialExpansion(growing=dict(illumination.growing))
    for (l, m), d in illumination.growing.items():
        b_in = d * (2 * l + 1) * mu_b / (l * mu_c + (l + 1) * mu_b)
        out.interior[(l, m)] = b_in
        out.decaying[(l, m)] = b_in * (1.0 - mu_c / mu_b) * l / (2 * l + 1)
    return out


# ---------------------------------------------------------------------------
# Step 1: post-quench exterior potential and the surface current


def interior_normal_h(static: PotentialExpansion) -> SurfaceScalarSpectrum:
    """Normal component of the frozen interior H at the surface, per Y_lm.

    With interior potential b_in (r/a)^l Y_lm: n.H_c = -dPhi/dr|_a = -l b_in.
    """
    return SurfaceScalarSpectrum(
        coeffs={lm: -lm[0] * b for lm, b in static.interior.items()}
    )


def solve_exterior_neumann(
    normal_h: SurfaceScalarSpectrum, mu_c: float, mu_b: float
) -> PotentialExpansion:
    """Exterior potential from the flux-continuity Neumann condition.

    Solves -dPhi0/dr|_a = (mu_c/mu_b) n.H_c per harmonic; the sphere's
    Neumann problem is diagonal in Y_lm, giving the decaying coefficient
    c = (mu_c/mu_b) h_lm / (l+1).  Monopole (l = 0) data is rejected: a net
    normal flux cannot be matched by a source-free exterior potential.
    """
    out = PotentialExpansion()
    for (l, m), h in normal_h.coeffs.items():
        if l == 0:
            if abs(h) > 0:
                raise ParameterError("monopole (l=0) normal-flux data is unphysical")
            continue
        out.decaying[(l, m)] = (mu_c / mu_b) * h / (l + 1)
    return out


def surface_current(
    phi0: PotentialExpansion, static: PotentialExpansion, max_l: int
) -> SurfaceCurrentSpectrum:
    """Surface current K = -n x (grad Phi_0 + H_c) in X_lm, for 1 <= l <= max_l.

    At r = a the tangential mismatch of the relaxed exterior potential c_lm
    and the frozen interior potential b_lm is (c_lm - b_lm) grad_s Y_lm, and
    n x grad_s Y_lm = i sqrt(l(l+1)) X_lm, so K_lm = i sqrt(l(l+1)) (b_lm - c_lm).
    Harmonics below 1e-12 of the largest |K_lm| are dropped; the rest are
    returned in sorted (l, m) order.
    """
    coeffs = {}
    for l, m in sorted(set(static.interior) | set(phi0.decaying)):
        if 1 <= l <= max_l:
            b, c = static.interior.get((l, m), 0.0), phi0.decaying.get((l, m), 0.0)
            coeffs[(l, m)] = 1j * np.sqrt(l * (l + 1.0)) * (b - c)
    top = max((abs(c) for c in coeffs.values()), default=0.0)
    coeffs = {lm: c for lm, c in coeffs.items() if abs(c) > 1e-12 * top}
    return SurfaceCurrentSpectrum(coeffs=coeffs)


def surface_current_closed_form(l: int, mu_c: float, mu_b: float) -> complex:
    """Closed-form X_lm coefficient of K per unit interior amplitude.

    K^lm = (i/a) (1 + l mu_c/((l+1) mu_b)) sqrt(l(l+1)) X_lm; the internal
    unit system has a = 1.
    """
    return 1j * (1.0 + l * mu_c / ((l + 1.0) * mu_b)) * np.sqrt(l * (l + 1.0))


# ---------------------------------------------------------------------------
# Step 2: diffusive relaxation of the sheet into the interior


def _gauss_kernel(depth: np.ndarray, elapsed: float) -> np.ndarray:
    return np.exp(-depth**2 / (4.0 * elapsed)) / np.sqrt(4.0 * np.pi * elapsed)


def interior_electric_field(
    current: SurfaceCurrentSpectrum, depth, elapsed: float, mu_c: float
) -> dict:
    """Tangential interior E of the diffusing sheet, per harmonic.

    E = (2 K / sigma_c) G(z, t - t_tr) with the half-space Neumann heat
    kernel G; internally 1/sigma_c = mu_c, so E_lm(z) = 2 mu_c K_lm G.
    Depth z <= 0 is measured inward from the surface.
    """
    if elapsed <= 0:
        raise ParameterError("elapsed time must be > 0 (after the transient)")
    z = np.asarray(depth, dtype=float)
    if np.any(z > 0):
        raise ParameterError("interior depth must be <= 0")
    g = _gauss_kernel(z, elapsed)
    return {lm: 2.0 * mu_c * k * g for lm, k in current.coeffs.items()}


def interior_vector_potential_correction(
    current: SurfaceCurrentSpectrum, depth, elapsed: float, mu_c: float
) -> dict:
    """Interior correction Delta_A accumulated by the sheet's diffusion.

    Delta_A_lm(z, t) = -mu_c K_lm [4 D_c (t-t_tr) G(z, t) - |z| erfc(|z| /
    sqrt(4 D_c (t-t_tr)))], vanishing deep inside the target where the
    field is still frozen, and reproducing E = -dA/dt.
    """
    if elapsed <= 0:
        raise ParameterError("elapsed time must be > 0 (after the transient)")
    z = np.asarray(depth, dtype=float)
    if np.any(z > 0):
        raise ParameterError("interior depth must be <= 0")
    w = 4.0 * elapsed * _gauss_kernel(z, elapsed) - np.abs(z) * erfc(
        np.abs(z) / np.sqrt(4.0 * elapsed)
    )
    return {lm: -mu_c * k * w for lm, k in current.coeffs.items()}


# ---------------------------------------------------------------------------
# Step 3: exterior correction and the t^(-1/2) law


def surface_curl_normal(current: SurfaceCurrentSpectrum) -> SurfaceScalarSpectrum:
    """Normal component of the surface curl, n . curl(K), per Y_lm.

    Diagonal in the harmonic basis: a K = kappa X_lm sheet has
    n . curl K = i sqrt(l(l+1)) kappa / a (internal a = 1).
    """
    return SurfaceScalarSpectrum(
        coeffs={
            (l, m): 1j * np.sqrt(l * (l + 1.0)) * kappa
            for (l, m), kappa in current.coeffs.items()
        }
    )


def normal_field_change(
    current: SurfaceCurrentSpectrum, elapsed: float, mu_c: float
) -> SurfaceScalarSpectrum:
    """Boundary data n . Delta_B(t) produced by the relaxing sheet.

    n . Delta_B = -mu_c sqrt(4 (t-t_tr)/pi) n . curl(K), growing as the
    square root of elapsed time; only tangential derivatives of K enter.
    """
    if elapsed <= 0:
        raise ParameterError("elapsed time must be > 0 (after the transient)")
    curl = surface_curl_normal(current)
    factor = -mu_c * np.sqrt(4.0 * elapsed / np.pi)
    return SurfaceScalarSpectrum(
        coeffs={lm: factor * c for lm, c in curl.coeffs.items()}
    )


def exterior_potential_correction(
    bdata: SurfaceScalarSpectrum, mu_b: float
) -> PotentialExpansion:
    """Exterior potential correction from normal-flux boundary data.

    Reuses the sphere's diagonal Neumann solve: with n . Delta_B = b_lm Y_lm
    at r = a and Delta_B = -mu_b grad(Delta_Phi) outside (internal units),
    the decaying coefficient is b_lm / (mu_b (l+1)), which is
    `solve_exterior_neumann` with mu_c = 1.
    """
    return solve_exterior_neumann(bdata, 1.0, mu_b)


def external_fields(
    dphi_prefactor: PotentialExpansion,
    r,
    theta,
    phi,
    elapsed: float,
    mu_b: float,
) -> EarlyTimeField:
    """Exterior field corrections (Delta_A, Delta_B, Delta_E) at points.

    ``dphi_prefactor`` holds the potential-correction coefficients per unit
    sqrt(elapsed) (as produced by the pipeline); the instantaneous
    coefficients are prefactor * sqrt(elapsed).  Delta_B = -mu_b
    grad(Delta_Phi); Delta_A is the tangential multipole -i mu_b
    sqrt((l+1)/l) c_lm (a/r)^(l+1) X_lm whose curl reproduces Delta_B; and
    Delta_E = -d(Delta_A)/dt = -Delta_A / (2 (t-t_tr)) since every
    coefficient grows as sqrt(t-t_tr).  All internal units.
    """
    if elapsed <= 0:
        raise ParameterError("elapsed time must be > 0 (after the transient)")
    ra = np.atleast_1d(np.asarray(r, dtype=float))
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    ra, th, ph = np.broadcast_arrays(ra, th, ph)
    if np.any(ra <= 1.0):
        raise ParameterError("exterior fields require r > a")
    shape = ra.shape
    dA = np.zeros((3,) + shape, dtype=complex)
    dB = np.zeros((3,) + shape, dtype=complex)
    for (l, m), c1 in dphi_prefactor.decaying.items():
        c = c1 * np.sqrt(elapsed)
        radial = ra ** -(l + 2.0)
        y = spherical_harmonic(l, m, th, ph)
        dy = spherical_harmonic_dtheta(l, m, th, ph)
        x = vector_spherical_harmonic(l, m, th, ph)
        # Delta_B = -mu_b grad(c r^-(l+1) Y)
        dB[0] += mu_b * c * (l + 1) * radial * y
        dB[1] -= mu_b * c * radial * dy
        if m != 0:
            dB[2] -= mu_b * c * radial * 1j * m * y / np.sin(th)
        amp = -1j * mu_b * np.sqrt((l + 1.0) / l) * c * ra ** -(l + 1.0)
        dA[1] += amp * x[1]
        dA[2] += amp * x[2]
    dE = -dA / (2.0 * elapsed)
    return EarlyTimeField(r=ra, theta=th, phi=ph, elapsed=elapsed, dA=dA, dB=dB, dE=dE)


# ---------------------------------------------------------------------------
# assembled pipeline


@dataclass(frozen=True)
class EarlyPipeline:
    """All stages of the early-time computation for one scenario.

    ``dphi_prefactor`` holds the exterior correction coefficients per unit
    sqrt(elapsed): Delta_Phi(t) = prefactor * sqrt((t - t_tr)/tau_c).
    """

    illumination: PotentialExpansion
    static: PotentialExpansion
    phi0: PotentialExpansion
    current: SurfaceCurrentSpectrum
    dphi_prefactor: PotentialExpansion
    mu_c: float
    mu_b: float
    max_l: int


def run_early_pipeline(
    target: TargetSpec,
    background_mu_r: float,
    source,
    max_l: int,
    scales: ScaleSystem | None = None,
    source_current_a: float = 1.0,
) -> EarlyPipeline:
    """Run illumination -> static response -> quench -> sheet -> correction."""
    mu_c = target.material.relative_permeability
    mu_b = background_mu_r
    ill = illumination_coefficients(
        source, target, max_l, scales=scales, source_current_a=source_current_a
    )
    static = static_sphere_response(ill, mu_c, mu_b)
    phi0 = solve_exterior_neumann(interior_normal_h(static), mu_c, mu_b)
    current = surface_current(phi0, static, max_l)
    bdata = normal_field_change(current, 1.0, mu_c)  # per unit sqrt(elapsed)
    dphi1 = exterior_potential_correction(bdata, mu_b)
    return EarlyPipeline(
        illumination=ill,
        static=static,
        phi0=phi0,
        current=current,
        dphi_prefactor=dphi1,
        mu_c=mu_c,
        mu_b=mu_b,
        max_l=max_l,
    )


def early_voltage(signal: EarlySignal, gates_s) -> TimeSeries:
    """Receiver voltage of the early-time law on the given gates (SI).

    V(t) = -N_R d/dt oint Delta_A . dl = amplitude / sqrt(t - t_tr) with the
    amplitude of ``signal`` (see ``early_signal``) and t_tr its ``t_ref_s``;
    gates outside its validity window are flagged per-gate in metadata,
    never dropped.  The series metadata carries the signal.
    """
    t = np.asarray(gates_s, dtype=float)
    vals = signal.evaluate(t)
    lo, hi = signal.window_s
    elapsed = t - signal.t_ref_s
    quality = np.where(elapsed < lo, "transient", np.where(elapsed > hi, "late", "ok"))
    return TimeSeries(
        times_s=t,
        values=vals,
        metadata={"kind": "early_time", "quality": quality, "signal": signal},
    )


def early_signal(
    coupling: dict, rx: Loop, markers: TimeMarkers, target: TargetSpec
) -> EarlySignal:
    """Power-law amplitude of the early-time receiver voltage (SI).

    Composed, the stages of `run_early_pipeline` (illumination, static
    response, quench, sheet, curl and exterior correction) cancel both l
    and mu_b: harmonic (l, m) contributes N_R sqrt(tau_c/pi) G_lm /
    (sigma a^3) in V sqrt(s), with ``coupling`` the `coupling_table` G of
    the mode sum, and the amplitude is the sum of their real parts.
    """
    a = target.radius_m
    scale = rx.windings * np.sqrt(markers.tau_c_s / np.pi) / (
        target.material.conductivity_s_per_m * a**3
    )
    per = {lm: complex(scale * g) for lm, g in coupling.items()}
    total = sum(per.values(), 0.0 + 0.0j)
    if abs(total.imag) > 1e-9 * max(abs(total.real), 1e-300):
        raise ParameterError("unbalanced harmonic pairs leave a complex voltage")
    window = (TRANSIENT_GUARD * markers.tau_tr_s, WINDOW_FRACTION * markers.tau_c_s)
    return EarlySignal(
        amplitude_v_sqrt_s=float(total.real),
        t_ref_s=markers.t_tr_s,
        window_s=window,
        per_harmonic=per,
    )
