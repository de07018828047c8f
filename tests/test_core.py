import math

import pytest

import temsphere as ts
from temsphere.core import ParameterError


def test_diffusivity_aluminum(aluminum):
    # rho/mu0 for a nonmagnetic conductor
    assert ts.diffusivity(aluminum) == pytest.approx(2.228e-2, rel=1e-3)


def test_diffusivity_ground(ground):
    assert ts.diffusivity(ground) == pytest.approx(7.96e6, rel=1e-3)


def test_diffusivity_steel(steel):
    assert ts.diffusivity(steel) == pytest.approx(3.54e-4, rel=1e-3)


def test_diffusivity_insulator_signals_infinity():
    insulator = ts.MaterialSpec(conductivity_s_per_m=0.0)
    assert math.isinf(ts.diffusivity(insulator))


def test_diffusivity_decreasing_in_conductivity_and_permeability():
    base = ts.diffusivity(ts.MaterialSpec(1e6, 1.0))
    for sigma in (2e6, 5e6, 1e7):
        assert ts.diffusivity(ts.MaterialSpec(sigma, 1.0)) < base
    for mu in (2.0, 10.0, 200.0):
        assert ts.diffusivity(ts.MaterialSpec(1e6, mu)) < base


def test_characteristic_times_aluminum(aluminum_sphere, environment):
    markers = ts.characteristic_times(aluminum_sphere, environment)
    assert markers.tau_c_s == pytest.approx(0.112, rel=1e-2)
    assert markers.tau_tr_s == markers.tau_b_s


def test_characteristic_times_steel(steel_sphere, environment):
    markers = ts.characteristic_times(steel_sphere, environment)
    assert markers.tau_c_s == pytest.approx(7.06, rel=1e-2)


def test_tau_b_vanishes_with_standoff(aluminum_sphere, ground):
    env = ts.EnvironmentSpec(background=ground, standoff_m=1e-12)
    markers = ts.characteristic_times(aluminum_sphere, env)
    assert markers.tau_b_s < 1e-20


def test_tau_b_zero_for_insulating_background(aluminum_sphere):
    env = ts.EnvironmentSpec(background=ts.MaterialSpec(0.0), standoff_m=10.0)
    markers = ts.characteristic_times(aluminum_sphere, env)
    assert markers.tau_b_s == 0.0


def test_validate_regime_pass():
    markers = ts.TimeMarkers(t0_s=0, tau_r_s=0, tau_tr_s=0, tau_c_s=0.1, tau_b_s=1e-8)
    check = ts.validate_regime(markers, threshold=0.01)
    assert check.passed and check.background_ok and check.ramp_ok


def test_validate_regime_ramp_failure_reports_ratio():
    markers = ts.TimeMarkers(t0_s=0, tau_r_s=0.05, tau_tr_s=0, tau_c_s=0.1, tau_b_s=0)
    check = ts.validate_regime(markers, threshold=0.01)
    assert not check.passed
    assert check.ratio_ramp == pytest.approx(0.5)


def test_validate_regime_aluminum_at_depth(aluminum_sphere, ground):
    env = ts.EnvironmentSpec(background=ground, standoff_m=10.0)
    markers = ts.characteristic_times(aluminum_sphere, env)
    assert ts.validate_regime(markers).passed


def test_validate_regime_threshold_domain():
    markers = ts.TimeMarkers(0, 0, 0, 1.0, 0)
    with pytest.raises(ParameterError):
        ts.validate_regime(markers, threshold=1.5)


@pytest.mark.parametrize(
    "kind",
    ["length", "time", "rate", "field", "potential", "b", "a", "e", "voltage"],
)
def test_scale_round_trip(aluminum_sphere, kind):
    # factor(kind) is the SI value of one internal unit of each kind
    scales = ts.scales_for(aluminum_sphere, field_a_per_m=3.7)
    a, h = aluminum_sphere.radius_m, 3.7
    t = a * a / ts.diffusivity(aluminum_sphere.material)
    expected = {
        "length": a, "time": t, "rate": 1.0 / t, "field": h, "potential": h * a,
        "b": ts.MU_0 * h, "a": ts.MU_0 * h * a, "e": ts.MU_0 * h * a / t,
        "voltage": ts.MU_0 * h * a * a / t,
    }[kind]
    assert scales.factor(kind) == pytest.approx(expected, rel=1e-14)


def test_scaling_invariance_dimensionless_outputs(aluminum):
    # same material, radii a and s*a: dimensionless wavenumbers identical
    # bit for bit, and lambda*tau_c matches x^2 to rounding
    for s in (2.0, 7.3, 0.11):
        t1 = ts.TargetSpec(0.05, aluminum)
        t2 = ts.TargetSpec(0.05 * s, aluminum)
        m1 = ts.find_decay_rates(t1, 1.0, l=1, count=4).modes
        m2 = ts.find_decay_rates(t2, 1.0, l=1, count=4).modes
        assert [a.x for a in m1] == [b.x for b in m2]
        for mode, tgt in ((m1, t1), (m2, t2)):
            tau_c = tgt.radius_m**2 / ts.diffusivity(aluminum)
            for m in mode:
                assert m.decay_rate_per_s * tau_c == pytest.approx(m.x**2, rel=1e-12)


def test_scaling_invariance_early_coefficients(aluminum):
    t1 = ts.TargetSpec(0.05, aluminum)
    t2 = ts.TargetSpec(0.50, aluminum)
    p1 = ts.run_early_pipeline(t1, 1.0, ts.UniformField(1.0), 1)
    p2 = ts.run_early_pipeline(t2, 1.0, ts.UniformField(1.0), 1)
    assert p1.current.coeffs[(1, 0)] == p2.current.coeffs[(1, 0)]
    assert p1.dphi_prefactor.decaying[(1, 0)] == p2.dphi_prefactor.decaying[(1, 0)]


def test_material_validation():
    with pytest.raises(ParameterError):
        ts.MaterialSpec(conductivity_s_per_m=-1.0)
    with pytest.raises(ParameterError):
        ts.MaterialSpec(conductivity_s_per_m=1.0, relative_permeability=0.5)
    with pytest.raises(ParameterError):
        ts.TargetSpec(radius_m=-0.1, material=ts.MaterialSpec(1e6))
    with pytest.raises(ParameterError):
        ts.TargetSpec(radius_m=0.1, material=ts.MaterialSpec(0.0))
    with pytest.raises(ParameterError):
        ts.EnvironmentSpec(background=ts.MaterialSpec(1.0), standoff_m=0.0)
