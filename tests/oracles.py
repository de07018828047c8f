"""Reference formulas that only the tests use.

Each function here computes, one mode or one closed form at a time, a
quantity that the package computes another way: the array excitation of
`compute_excitation`, the radial mode profile, the early-time potential
prefactor of the spectral pipeline, and the product-rule derivative of the
eigencondition against the Newton pair `modes._eigencondition_fdf`.
"""

import numpy as np

from temsphere.core import MU_0, ParameterError, TargetSpec
from temsphere.excitation import (
    Loop,
    PulseWaveform,
    UniformField,
    _real_voltage,
    _uniform_field_amplitude,
    exterior_multipole_line_integral,
    pulse_history_integral,
)
from temsphere.modes import Mode
from temsphere.special import spherical_bessel_j


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


def coil_line_integral(mode: Mode, loop: Loop) -> complex:
    """oint a_n . dl of the exterior mode profile along one loop winding."""
    geom = exterior_multipole_line_integral(mode.l, mode.m, loop, mode.radius_m)
    return mode.norm * spherical_bessel_j(mode.l, mode.x) * geom


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
