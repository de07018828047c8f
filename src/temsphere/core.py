"""Physical parameters, unit conventions and time-regime bookkeeping.

External quantities are SI throughout: conductivity in S/m, lengths in m,
times in s, magnetic field strength H in A/m.  Spectral modules compute in
dimensionless internal units defined by :class:`ScaleSystem`: lengths are
measured in target radii, times in diffusion times a^2/D_c, fields in the
illumination amplitude H_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MU_0 = 4e-7 * math.pi  # vacuum permeability, H/m


class ParameterError(ValueError):
    """Invalid physical parameter."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge."""


@dataclass(frozen=True)
class MaterialSpec:
    """Homogeneous material: dc conductivity (S/m) and relative permeability."""

    conductivity_s_per_m: float
    relative_permeability: float = 1.0

    def __post_init__(self):
        if self.conductivity_s_per_m < 0:
            raise ParameterError("conductivity must be >= 0")
        if self.relative_permeability < 1.0:
            raise ParameterError("relative permeability must be >= 1")


@dataclass(frozen=True)
class TargetSpec:
    """Uniform conducting sphere of radius ``radius_m``."""

    radius_m: float
    material: MaterialSpec

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ParameterError("target radius must be > 0")
        if self.material.conductivity_s_per_m <= 0:
            raise ParameterError("target conductivity must be > 0")


@dataclass(frozen=True)
class EnvironmentSpec:
    """Background medium and the sensor-target standoff distance."""

    background: MaterialSpec
    standoff_m: float

    def __post_init__(self):
        if self.standoff_m <= 0:
            raise ParameterError("sensor standoff must be > 0")


@dataclass(frozen=True)
class TimeMarkers:
    """Characteristic times of one measurement scenario.

    ``t0_s`` marks the end of the transmitter ramp; free decay is observed
    for t > t0.  ``tau_c_s`` is the target diffusion time a^2/D_c,
    ``tau_b_s`` the background propagation time R^2/D_b, ``tau_r_s`` the
    ramp duration and ``tau_tr_s`` the post-quench transient duration after
    which the scattered pulse has left the target region.
    """

    t0_s: float
    tau_r_s: float
    tau_tr_s: float
    tau_c_s: float
    tau_b_s: float

    def __post_init__(self):
        if self.tau_c_s <= 0:
            raise ParameterError("tau_c must be > 0")
        if min(self.tau_r_s, self.tau_tr_s, self.tau_b_s) < 0:
            raise ParameterError("time scales must be >= 0")

    @property
    def t_tr_s(self) -> float:
        """Start of the window where the early-time theory applies."""
        return self.t0_s + self.tau_tr_s


@dataclass(frozen=True)
class RegimeCheck:
    """Report of the separation-of-scales conditions.

    The early-time theory requires tau_b << tau_c (target-sensor propagation
    instantaneous on the target's diffusive clock) and tau_r << tau_c (pulse
    termination effectively instantaneous).  ``passed`` is the conjunction;
    the offending ratios are always reported, never silently dropped.
    """

    ratio_background: float
    ratio_ramp: float
    threshold: float
    background_ok: bool
    ramp_ok: bool

    @property
    def passed(self) -> bool:
        return self.background_ok and self.ramp_ok


@dataclass(frozen=True)
class ScaleSystem:
    """Nondimensionalization scales: (length, time, field) = (a, a^2/D_c, H_0).

    ``factor(kind)`` is the SI value of one internal unit of each kind used
    by the spectral modules (SI = internal * factor):

    =================  =======================
    kind               SI scale
    =================  =======================
    length             a
    time               a^2/D_c
    rate               D_c/a^2
    field (H, K)       H_0
    potential (Phi)    H_0 a
    b (flux density)   mu_0 H_0
    a (vector pot.)    mu_0 H_0 a
    e (electric)       mu_0 H_0 a / time
    voltage            mu_0 H_0 a^2 / time
    =================  =======================
    """

    length_m: float
    time_s: float
    field_a_per_m: float

    def __post_init__(self):
        if min(self.length_m, self.time_s, self.field_a_per_m) <= 0:
            raise ParameterError("all scales must be > 0")

    def factor(self, kind: str) -> float:
        a, t, h = self.length_m, self.time_s, self.field_a_per_m
        table = {
            "length": a,
            "time": t,
            "rate": 1.0 / t,
            "field": h,
            "surface_current": h,
            "potential": h * a,
            "b": MU_0 * h,
            "a": MU_0 * h * a,
            "e": MU_0 * h * a / t,
            "voltage": MU_0 * h * a * a / t,
        }
        try:
            return table[kind]
        except KeyError:
            raise ParameterError(f"unknown quantity kind {kind!r}") from None


def diffusivity(material: MaterialSpec) -> float:
    """Magnetic diffusion constant D = 1/(mu_0 mu_r sigma) in m^2/s.

    A perfectly insulating material (sigma = 0) diffuses instantaneously;
    this is signalled by returning ``math.inf``.
    """
    sigma = material.conductivity_s_per_m
    if sigma == 0.0:
        return math.inf
    return 1.0 / (MU_0 * material.relative_permeability * sigma)


def characteristic_times(
    target: TargetSpec,
    env: EnvironmentSpec,
    tau_r_s: float = 0.0,
    t0_s: float = 0.0,
    tau_tr_s: float | None = None,
) -> TimeMarkers:
    """Assemble the time markers for a target/sensor scenario.

    tau_c = a^2/D_c and tau_b = R^2/D_b.  The post-quench transient time is
    of the same order as tau_b and defaults to it.
    """
    d_c = diffusivity(target.material)
    d_b = diffusivity(env.background)
    tau_c = target.radius_m**2 / d_c
    tau_b = 0.0 if math.isinf(d_b) else env.standoff_m**2 / d_b
    if tau_tr_s is None:
        tau_tr_s = tau_b
    return TimeMarkers(
        t0_s=t0_s, tau_r_s=tau_r_s, tau_tr_s=tau_tr_s, tau_c_s=tau_c, tau_b_s=tau_b
    )


def validate_regime(markers: TimeMarkers, threshold: float = 1e-2) -> RegimeCheck:
    """Check tau_b/tau_c and tau_r/tau_c against ``threshold``, report-only."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError("threshold must lie in (0, 1)")
    rb = markers.tau_b_s / markers.tau_c_s
    rr = markers.tau_r_s / markers.tau_c_s
    return RegimeCheck(
        ratio_background=rb,
        ratio_ramp=rr,
        threshold=threshold,
        background_ok=rb <= threshold,
        ramp_ok=rr <= threshold,
    )


def scales_for(target: TargetSpec, field_a_per_m: float = 1.0) -> ScaleSystem:
    """Scale system anchored to a target: (a, a^2/D_c, H_0)."""
    tau_c = target.radius_m**2 / diffusivity(target.material)
    return ScaleSystem(
        length_m=target.radius_m, time_s=tau_c, field_a_per_m=field_a_per_m
    )
