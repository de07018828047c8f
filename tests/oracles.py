"""Reference formulas that only the tests use.

Each function here computes, one mode or one closed form at a time, a
quantity that the package computes another way: the per-mode excitation
that `compute_excitation` replaces by its coupling-table closed form, the
radial mode profile, the early-time potential prefactor of the spectral
pipeline, and the product-rule derivative of the eigencondition against
the Newton pair `modes._eigencondition_fdf`.

The early-time amplitude has two references.  `staged_early_signal` reads
the receiver voltage out of the staged pipeline's exterior correction,
where `earlytime.early_signal` takes it from the coupling table, and
`crosscheck_amplitude` extracts it from a synthesized mode sum.

The transmitter coupling has three references of its own.  The package
takes a loop's illumination from the exterior-multipole line integrals by
reciprocity, all (l, m) of a loop in one `excitation.line_integrals` call;
`exterior_multipole_line_integral` evaluates one (l, m) at a time, a
circular loop from dY_l0/dtheta at its own degree,
`grid_illumination_coefficients` instead projects the loop's Biot-Savart
normal field on a sphere quadrature grid (`angular_grid`,
`project_scalar`), and `polygon_line_integral` redoes the line integral
with a Gauss-Legendre rule of any order in Cartesian components.

`load_library` reads a ``modes.json`` file back into a `ModeLibrary`.

The rate fit has one: `levenberg_marquardt_one` is the per-start
Levenberg-Marquardt loop on `project_one`, a one-start variable
projection, which `inversion._levenberg_marquardt` runs for a whole stack
of starts in lockstep.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from temsphere.core import (
    MU_0,
    MaterialSpec,
    ParameterError,
    ScaleSystem,
    TargetSpec,
    TimeMarkers,
    scales_for,
)
from temsphere.earlytime import TRANSIENT_GUARD, WINDOW_FRACTION, EarlyPipeline, EarlySignal
from temsphere.excitation import (
    ExcitationCoefficients,
    Loop,
    PulseWaveform,
    LINE_INTEGRAL_ORDER,
    UniformField,
    pulse_history_integral,
    synthesize_voltage,
)
from temsphere.inversion import LM_MAX_EVALS, _Projection, _rates_from_params
from temsphere.modes import Mode, ModeLibrary, _wavenumbers
from temsphere.special import (
    spherical_bessel_j,
    spherical_harmonic,
    spherical_harmonic_dtheta,
    vector_spherical_harmonic,
)


def load_library(path) -> ModeLibrary:
    """The `ModeLibrary` of a ``modes.json`` file (`ModeLibrary.save`), rebuilt
    from its `Mode` rows."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    target = TargetSpec(
        radius_m=data["target"]["radius_m"],
        material=MaterialSpec(
            conductivity_s_per_m=data["target"]["conductivity_s_per_m"],
            relative_permeability=data["target"]["mu_r"],
        ),
    )
    modes = tuple(
        Mode(l=m["l"], m=m["m"], n=m["n"], x=m["x"], decay_rate_per_s=m["lambda_per_s"],
             norm=m["norm"], radius_m=target.radius_m)
        for m in data["modes"]
    )
    return ModeLibrary(target, data["background_mu_r"], modes, data["max_l"], data["max_n"])


def spherical_bessel_j_derivative(l: int, x) -> np.ndarray | float:
    """d/dx j_l(x) via j_l' = j_{l-1} - (l+1)/x j_l (and j_0' = -j_1)."""
    xa = np.asarray(x, dtype=float)
    if l == 0:
        return -spherical_bessel_j(1, xa)
    return spherical_bessel_j(l - 1, xa) - (l + 1) / xa * spherical_bessel_j(l, xa)


def eigencondition_derivative(l: int, x, mu_ratio: float):
    """d/dx of x j_(l-1)(x) - l (1 - mu_ratio) j_l(x), by the product rule."""
    xa = np.asarray(x, dtype=float)
    return (
        spherical_bessel_j(l - 1, xa)
        + xa * spherical_bessel_j_derivative(l - 1, xa)
        - l * (1.0 - mu_ratio) * spherical_bessel_j_derivative(l, xa)
    )


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


def exterior_multipole_line_integral(l: int, m: int, loop: Loop, radius_m: float) -> complex:
    """oint (a/r)^(l+1) X_lm . dl along the loop, one (l, m) at a time, in meters.

    A circular coaxial loop takes X_phi from dY_l0/dtheta at its own degree
    (`spherical_harmonic_dtheta`) and its analytic phi integral; only m = 0
    couples.  A polygon is `polygon_line_integral` on the package's
    `LINE_INTEGRAL_ORDER` nodes per side.
    """
    if loop.min_distance_m() <= radius_m:
        raise ParameterError("loop intersects the target sphere")
    if loop.kind != "circular":
        return polygon_line_integral(l, m, loop, radius_m, LINE_INTEGRAL_ORDER)
    if m != 0:
        return 0.0 + 0.0j
    r = np.hypot(loop.radius_m, loop.height_m)
    theta = np.arctan2(loop.radius_m, loop.height_m)
    xphi = -1j * spherical_harmonic_dtheta(l, 0, theta, 0.0) / np.sqrt(l * (l + 1.0))
    return complex(2.0 * np.pi * loop.radius_m * (radius_m / r) ** (l + 1) * xphi)


def coil_line_integral(mode: Mode, loop: Loop) -> complex:
    """oint a_n . dl of the exterior mode profile along one loop winding."""
    geom = exterior_multipole_line_integral(mode.l, mode.m, loop, mode.radius_m)
    return mode.norm * spherical_bessel_j(mode.l, mode.x) * geom


def _uniform_field_amplitude(target: TargetSpec, mu_b: float, h0: float, l, m, x, norm):
    """Static-projection amplitude for uniform axial illumination, l = 1.

    Step-off from a dc uniform field H0 z-hat: the amplitude is the
    mu_0-sigma projection of the static interior vector potential
    A_phi = (B_in/2) r sin(theta) onto the mode, with B_in the uniform
    interior flux density of the magnetized sphere.  The projection is real
    against the real azimuthal basis i X_10; the leading i restores the
    X_lm phase convention shared with the line integrals.  The mode
    arguments may be arrays; modes other than (l, m) = (1, 0) get 0.
    """
    mu_c = target.material.relative_permeability
    h_in = 3.0 * mu_b * h0 / (mu_c + 2.0 * mu_b)
    b_in = MU_0 * mu_c * h_in
    sigma = target.material.conductivity_s_per_m
    a = target.radius_m
    radial = spherical_bessel_j(2, x) / x  # int_0^1 j_1(x u) u^3 du
    w_proj = -MU_0 * sigma * norm * (b_in / 2.0) * np.sqrt(8.0 * np.pi / 3.0) * a**4 * radial
    return np.where((l == 1) & (m == 0), 1j * w_proj, 0.0)


def _real_voltage(val):
    """Real voltage coefficients; an imaginary part means an unpaired +/-m mode."""
    val = np.asarray(val)
    if np.any(np.abs(val.imag) > 1e-10 * np.maximum(np.abs(val.real), 1e-300)):
        raise ParameterError(
            "complex voltage coefficient: sum conjugate +/-m mode pairs instead"
        )
    return val.real


def excitation_amplitude(
    mode: Mode,
    pulse: PulseWaveform,
    tx,
    target: TargetSpec | None = None,
    background_mu_r: float = 1.0,
) -> complex:
    """Excitation amplitude A_n for one mode.

    For a transmitter loop: A_n = mu_0 I_n conj(oint a_n . dl).  For a
    uniform-field source the equivalent static projection is used, scaled
    by lambda_n I_n / I0 so that ramped terminations are honored (the
    factor is 1 for step-off).
    """
    i_n = pulse_history_integral(pulse, mode.decay_rate_per_s)
    if isinstance(tx, UniformField):
        if target is None:
            raise ParameterError("uniform-field excitation needs the target spec")
        beta = _uniform_field_amplitude(
            target, background_mu_r, tx.amplitude_a_per_m, mode.l, mode.m, mode.x, mode.norm
        )
        return beta * mode.decay_rate_per_s * i_n / pulse.effective_current_a
    return MU_0 * i_n * np.conj(coil_line_integral(mode, tx))


def voltage_coefficient(mode: Mode, amplitude: complex, rx: Loop) -> float:
    """Receiver-voltage coefficient V_n = lambda_n N_R A_n oint a_n . dl."""
    val = mode.decay_rate_per_s * rx.windings * amplitude * coil_line_integral(mode, rx)
    return float(_real_voltage(val))


def potential_decay_prefactor(l: int, mu_c: float, mu_b: float) -> float:
    """Closed-form phi_l(t)/sqrt(t-t_tr) per unit interior amplitude.

    phi_l(t) = (mu_c l / (mu_b a)) (1 + l mu_c/((l+1) mu_b))
               sqrt(4 D_c (t-t_tr)/pi),
    in internal units (a = D_c = 1); the exterior correction per unit
    interior amplitude is +phi_l (a/r)^(l+1) Y_lm (decaying trapped flux).
    """
    return (
        (mu_c * l / mu_b)
        * (1.0 + l * mu_c / ((l + 1.0) * mu_b))
        * np.sqrt(4.0 / np.pi)
    )


def staged_early_signal(
    pipeline: EarlyPipeline,
    rx: Loop,
    markers: TimeMarkers,
    scales: ScaleSystem,
    target: TargetSpec,
) -> EarlySignal:
    """Early-time signal read out of the staged pipeline (step 3), in SI.

    Each exterior potential coefficient c_lm per unit sqrt(elapsed) gives
    the voltage term N_R i mu_b sqrt((l+1)/l) c_lm L_rx,lm / (2a), in
    internal units per sqrt(tau_hat); ``scales`` must be those the pipeline
    ran with.
    """
    a = target.radius_m
    to_si = rx.windings * scales.factor("voltage") * np.sqrt(markers.tau_c_s)
    per = {}
    for (l, m), c1 in pipeline.dphi_prefactor.decaying.items():
        line = exterior_multipole_line_integral(l, m, rx, a) / a
        per[(l, m)] = complex(to_si * 1j * pipeline.mu_b * np.sqrt((l + 1.0) / l) * c1 * line / 2.0)
    total = sum(per.values(), 0.0 + 0.0j)
    return EarlySignal(
        amplitude_v_sqrt_s=float(total.real),
        t_ref_s=markers.t_tr_s,
        window_s=(TRANSIENT_GUARD * markers.tau_tr_s, WINDOW_FRACTION * markers.tau_c_s),
        per_harmonic=per,
    )


# crosscheck_amplitude: gate window in units of tau_c, gate count, least
# template length and the largest fit residual of a conclusive comparison
CROSSCHECK_WINDOW = (1.5e-5, 5e-4)
CROSSCHECK_GATES = 40
CROSSCHECK_TEMPLATE_COUNT = 800
CROSSCHECK_RESIDUAL_MAX = 0.05


@dataclass(frozen=True)
class CrosscheckResult:
    """Outcome of the mode-sum vs early-time amplitude comparison."""

    deviation: float
    mode_amplitude: float
    early_amplitude: float
    fit_residual: float
    conclusive: bool


def crosscheck_amplitude(
    library: ModeLibrary,
    coeffs: ExcitationCoefficients,
    early_amplitude: float,
    markers: TimeMarkers,
) -> CrosscheckResult:
    """Compare the mode-sum power-law amplitude against the early-time one.

    Requires a single-sector library (one l).  The mode voltage is
    synthesized on `CROSSCHECK_GATES` log gates across `CROSSCHECK_WINDOW`
    (in units of tau_c), then a scale factor is fitted against the spectral
    template

        V(t) sqrt(t) ~ c * sqrt(t) sum_n v(x_n) exp(-x_n^2 t/tau_c),
        v(x) = x^2 / (x^2 + h^2),  h^2 = l (mu-1) (l (mu-1) + 2l + 1),

    built from an extended wavenumber ladder (the cached sector spectrum, at
    least `CROSSCHECK_TEMPLATE_COUNT` roots); the template's t -> 0
    amplitude converts the scale to the asymptotic
    c_mode = fit * sqrt(tau_c) / (2 sqrt(pi)).  A fit residual above
    `CROSSCHECK_RESIDUAL_MAX` marks the comparison inconclusive rather than
    reporting a deviation.
    """
    sectors = set(library.columns.l.tolist())
    if len(sectors) != 1:
        raise ParameterError("crosscheck requires a single-sector (single-l) library")
    if early_amplitude == 0.0:
        raise ParameterError("early-time amplitude must be nonzero")
    l = sectors.pop()
    mu_ratio = (
        library.target.material.relative_permeability / library.background_mu_r
    )
    tau_c = markers.tau_c_s
    lo, hi = CROSSCHECK_WINDOW
    tau = np.geomspace(lo * tau_c, hi * tau_c, CROSSCHECK_GATES)
    series = synthesize_voltage(library, coeffs, tau)
    y = series.values * np.sqrt(tau)
    count = max(CROSSCHECK_TEMPLATE_COUNT, 2 * len(library))
    xs = _wavenumbers((l,), mu_ratio, count)
    h2 = l * (mu_ratio - 1.0) * (l * (mu_ratio - 1.0) + 2.0 * l + 1.0)
    v = xs * xs / (xs * xs + h2)
    template = np.sqrt(tau) * (np.exp(-np.outer(tau / tau_c, xs * xs)) @ v)
    scale = float(template @ y) / float(template @ template)
    residual = float(
        np.sqrt(np.mean((y - scale * template) ** 2)) / np.mean(np.abs(y))
    )
    mode_amplitude = scale * np.sqrt(tau_c) / (2.0 * np.sqrt(np.pi))
    deviation = abs(mode_amplitude - early_amplitude) / abs(early_amplitude)
    return CrosscheckResult(
        deviation=float(deviation),
        mode_amplitude=float(mode_amplitude),
        early_amplitude=float(early_amplitude),
        fit_residual=residual,
        conclusive=residual <= CROSSCHECK_RESIDUAL_MAX,
    )


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


def angular_grid(n_theta: int, n_phi: int) -> AngularGrid:
    """The (n_theta, n_phi) product grid on the unit sphere."""
    nodes, wts = leggauss(n_theta)
    ph = np.arange(n_phi) * 2.0 * np.pi / n_phi
    th2, ph2 = np.meshgrid(np.arccos(nodes), ph, indexing="ij")
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


def segment_h_field(vertices, current_a: float, points: np.ndarray) -> np.ndarray:
    """Biot-Savart H field of a closed polygon at the given points (SI)."""
    v = np.asarray(vertices, dtype=float)
    h = np.zeros_like(points)
    for p1, p2 in zip(v, np.roll(v, -1, axis=0)):
        u = p2 - p1
        w1 = points - p1
        w2 = points - p2
        cross = np.cross(u[None, :], w1)
        denom = np.einsum("ij,ij->i", cross, cross)
        f = np.einsum("j,ij->i", u, w1) / np.linalg.norm(w1, axis=1) - np.einsum(
            "j,ij->i", u, w2
        ) / np.linalg.norm(w2, axis=1)
        h += cross * (f / denom)[:, None]
    return current_a / (4.0 * np.pi) * h


def grid_illumination_coefficients(
    loop: Loop, target: TargetSpec, max_l: int, source_current_a: float
) -> dict:
    """Source coefficients d_lm, l >= 1, of a polygonal loop, per H_0 a
    with the target's own scale system (H_0 = 1 A/m).

    Projects n.H of the loop's Biot-Savart field on the target surface;
    H_r = -dPhi/dr gives d_lm = -(a/l) <Y_lm, H_r> at r = a.
    """
    grid = angular_grid(max(2 * max_l + 8, 24), max(2 * max_l + 8, 32))
    a = target.radius_m
    sin_th = np.sin(grid.theta)
    rhat = np.stack(
        [sin_th * np.cos(grid.phi), sin_th * np.sin(grid.phi), np.cos(grid.theta)], axis=1
    )
    hr = np.einsum("ij,ij->i", segment_h_field(loop.vertices, source_current_a, a * rhat), rhat)
    pot_scale = scales_for(target).factor("potential")
    return {
        (l, m): complex(-(a / l) * coeff / pot_scale)
        for (l, m), coeff in project_scalar(hr, grid, max_l).items()
        if l >= 1
    }


def polygon_line_integral(l: int, m: int, loop: Loop, radius_m: float, order: int) -> complex:
    """oint (a/r)^(l+1) X_lm . dl along a polygon, ``order`` Gauss nodes per side.

    Sums over the nodes in Cartesian components: X_lm is rotated out of its
    (theta, phi) frame at each node and dotted with the side vector.
    """
    v = np.asarray(loop.vertices, dtype=float)
    nodes, wts = leggauss(order)
    total = 0.0 + 0.0j
    for p1, p2 in zip(v, np.roll(v, -1, axis=0)):
        pts = p1 + np.outer(0.5 * (nodes + 1.0), p2 - p1)
        x, y, z = pts.T
        r = np.sqrt(x * x + y * y + z * z)
        theta, phi = np.arccos(z / r), np.arctan2(y, x)
        xs = vector_spherical_harmonic(l, m, theta, phi)
        e_theta = np.stack(
            [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)]
        )
        e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        cart = xs[1] * e_theta + xs[2] * e_phi
        total += np.sum(0.5 * wts * (radius_m / r) ** (l + 1) * ((p2 - p1) @ cart))
    return complex(total)


def project_one(u, t, w, wy, extra, below=math.inf):
    """Variable-projection residual of one start at log-gap parameters ``u``,
    or None: `inversion._project` for a single start, with the same rejections
    (rate box, gap parameter below -20, SSE not below ``below``, a solve that
    is singular or not finite)."""
    rates = _rates_from_params(u)
    if np.any(u[1:] < -20.0) or not (rates[0] >= 1e-12 and rates[-1] <= 1e12):
        return None
    k = u.size
    design = np.concatenate((np.exp(t * -rates) * w, extra), axis=1)
    q, r = np.linalg.qr(design)
    qy = q.T @ wy
    resid = wy - q @ qy
    sse = float(resid @ resid)
    if not sse < below:
        return None
    try:
        coef = np.linalg.solve(r, qy)
    except np.linalg.LinAlgError:
        return None
    dcol = (t * design[:, :k]) * (coef[:k] * -rates)
    sigma = np.concatenate(([1.0], 1.0 / (1.0 + np.exp(-u[1:]))))
    d = np.cumsum(dcol[:, ::-1], axis=1)[:, ::-1] * sigma
    jac = q @ (q.T @ d) - d
    if not (np.isfinite(coef).all() and np.isfinite(jac).all()):
        return None
    return _Projection(sse, coef, design, jac, resid)


def levenberg_marquardt_one(u, args, record=None):
    """One start's Levenberg-Marquardt loop on `project_one`: (u, evaluation,
    converged), the evaluation None when ``u`` itself is rejected.

    Nielsen damping, a 1e-8 step test and LM_MAX_EVALS, as
    `inversion._levenberg_marquardt` applies them per row.  With a ``record``
    list, each iteration appends ("converged", None), or ("accept" or
    "reject", trial point), the trial point None when the step solve failed.
    """
    ev = project_one(u, *args)
    if ev is None:
        return u, None, False
    eye = np.eye(u.size)
    mu, nu = None, 2.0
    for _ in range(LM_MAX_EVALS):
        jtj, grad = ev.jac.T @ ev.jac, ev.jac.T @ ev.resid
        if mu is None:
            mu = 1e-2 * float(np.max(np.diag(jtj)))
        try:
            step = np.linalg.solve(jtj + mu * eye, -grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.max(np.abs(step)) <= 1e-8:
            if record is not None:
                record.append(("converged", None))
            return u, ev, True
        trial = None if step is None else project_one(u + step, *args, ev.sse)
        if record is not None:
            record.append(("reject" if trial is None else "accept",
                           None if step is None else u + step))
        if trial is not None:
            gain = (ev.sse - trial.sse) / float(step @ (mu * step - grad))
            u, ev = u + step, trial
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return u, ev, False
