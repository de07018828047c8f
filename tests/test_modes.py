import glob
import json
import os
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad

import temsphere as ts
from temsphere import _io, inversion, modes as modes_mod, pipeline
from temsphere.core import MU_0, ParameterError
from temsphere.modes import (
    NumericalError,
    TruncationError,
    _eigencondition_fdf,
    _lommel,
    _residual_ok,
    _sector_wavenumbers,
    eigencondition,
    eigencondition_derivative,
    normalization_constant,
    sector_spectrum,
)
from temsphere.special import spherical_bessel_j


class TestEigencondition:
    def test_nonmagnetic_reduces_to_j0_zeros(self):
        # mu ratio 1, l = 1: residual is x j_0(x), zeros at n pi
        for n in range(1, 6):
            assert abs(eigencondition(1, n * np.pi, 1.0)) < 1e-12

    def test_nonmagnetic_l2_first_root_at_j1_zero(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=2, count=1)
        assert modes[0].x == pytest.approx(4.493409457909064, abs=1e-10)

    def test_high_contrast_limit_approaches_j_l_zeros(self, aluminum):
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 1e7))
        modes = ts.find_decay_rates(target, 1.0, l=1, count=1)
        assert modes[0].x == pytest.approx(4.493409457909064, rel=1e-5)

    @pytest.mark.parametrize("mu_ratio", [1.0, 1.57, 60.0, 300.0])
    def test_newton_pair_matches_residual_and_derivative(self, mu_ratio):
        # the root finish takes F and F' from one pair of Bessel values; F'
        # agrees with the product rule to Bessel accuracy (measured <= 1e-14
        # of x + |c|, the size of the coefficients)
        x = np.linspace(0.5, 200.0, 4001)
        for l in range(1, 8):
            f, df = _eigencondition_fdf(l, mu_ratio, x)
            assert np.array_equal(f, eigencondition(l, x, mu_ratio))
            ref = eigencondition_derivative(l, x, mu_ratio)
            scale = x + abs(l * (1.0 - mu_ratio))
            assert np.all(np.abs(df - ref) <= 1e-13 * scale), l

    def test_sign_change_between_brackets(self):
        # residual is continuous across each bracket for mu ratio > 1
        x = np.linspace(0.5, 20, 2000)
        res = eigencondition(1, x, 200.0)
        assert np.all(np.isfinite(res))


class TestFindDecayRates:
    def test_aluminum_fundamental(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2)
        d = ts.diffusivity(aluminum_sphere.material)
        expected = np.pi**2 * d / aluminum_sphere.radius_m**2
        assert modes[0].decay_rate_per_s == pytest.approx(expected, rel=1e-12)
        assert modes[0].decay_rate_per_s == pytest.approx(87.97, rel=1e-3)
        assert modes[1].decay_rate_per_s == pytest.approx(4 * expected, rel=1e-12)

    def test_residuals_polished(self, steel_sphere):
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=20)
        mu_ratio = 200.0
        for m in modes:
            scale = 1.0 + abs(1 - mu_ratio) / max(m.x, 1.0)
            assert abs(eigencondition(1, m.x, mu_ratio)) < 1e-12 * scale

    def test_truncation_error(self, aluminum_sphere):
        with pytest.raises(TruncationError):
            ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=10, x_max=10.0)

    def test_spacing_approaches_pi(self, aluminum_sphere, steel_sphere):
        # nonmagnetic: spacing is exactly pi; permeable: approaches pi like
        # (mu-1)/(pi n^2) from below
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=60)
        xs = np.array([m.x for m in modes])
        assert np.allclose(np.diff(xs), np.pi, atol=1e-10)
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=200)
        xs = np.array([m.x for m in modes])
        gaps = np.abs(np.diff(xs) - np.pi)
        assert np.all(np.diff(xs) > 0)
        # asymptotic regime starts once n pi >> mu - 1, here n ~ 80+
        assert gaps[-1] < 2e-3
        assert gaps[-1] < gaps[120] < gaps[80]

    def test_all_rates_positive_and_fundamental_order_one(self, steel_sphere):
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=10)
        tau_c = steel_sphere.radius_m**2 / ts.diffusivity(steel_sphere.material)
        assert all(m.decay_rate_per_s > 0 for m in modes)
        assert 1.0 < modes[0].decay_rate_per_s * tau_c < 30.0


class TestModeCountCeiling:
    @pytest.mark.parametrize("mu_r", [1.0, 60.0])
    def test_ten_thousand_modes_build_and_gate_stays_sharp(self, mu_r):
        # an absolute 1e-12 residual gate failed from ~2,700 (mu_r 1) and
        # ~5,400 (mu_r 60) modes: rounding x alone moves F by ~eps x |F'|
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, mu_r))
        lib = ts.build_mode_library(target, 1.0, max_l=1, count_per_l=10_000)
        xs = np.array([m.x for m in lib.modes])
        assert xs.size == 10_000
        assert np.diff(xs)[-1] == pytest.approx(np.pi, abs=1e-3)
        floor = np.finfo(float).eps * xs * np.abs(eigencondition_derivative(1, xs, mu_r))
        assert np.max(np.abs(eigencondition(1, xs, mu_r)) / floor) < 1.0  # measured 0.64
        # the gate still rejects the top root moved by 64 ulp either way
        top = xs[-1:]
        assert _residual_ok(1, top, mu_r).all()
        assert not _residual_ok(1, top + 64 * np.spacing(top), mu_r).any()
        assert not _residual_ok(1, top - 64 * np.spacing(top), mu_r).any()


class TestRadialFdOracle:
    @pytest.mark.parametrize("mu_ratio", [1.0, 10.0, 200.0])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_oracle_agreement(self, aluminum, l, mu_ratio):
        material = ts.MaterialSpec(1 / 2.8e-8, mu_ratio)
        target = ts.TargetSpec(0.05, material)
        modes = ts.find_decay_rates(target, 1.0, l=l, count=10)
        fd = ts.radial_fd_decay_rates(target, 1.0, l, 2000, count=10)
        rates = np.array([m.decay_rate_per_s for m in modes])
        assert np.max(np.abs(fd - rates) / rates) < 5e-3

    def test_richardson_second_order(self, aluminum_sphere):
        exact = np.pi**2 * ts.diffusivity(aluminum_sphere.material) / 0.05**2
        err = []
        for n in (500, 1000, 2000):
            fd = ts.radial_fd_decay_rates(aluminum_sphere, 1.0, 1, n, count=1)
            err.append(abs(fd[0] - exact) / exact)
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.25)
        assert err[1] / err[2] == pytest.approx(4.0, rel=0.25)

    def test_ascending(self, steel_sphere):
        fd = ts.radial_fd_decay_rates(steel_sphere, 1.0, 2, 500, count=8)
        assert np.all(np.diff(fd) > 0)

    def test_grid_validation(self, aluminum_sphere):
        with pytest.raises(ParameterError):
            ts.radial_fd_decay_rates(aluminum_sphere, 1.0, 1, 50)


class TestProfilesAndNormalization:
    def test_profile_zero_at_center(self, aluminum_sphere):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1)[0]
        assert ts.radial_profile(mode, 0.0) == 0.0

    def test_profile_continuous_at_surface(self, steel_sphere):
        mode = ts.find_decay_rates(steel_sphere, 1.0, l=2, count=1)[0]
        a = steel_sphere.radius_m
        inner = ts.radial_profile(mode, a * (1 - 1e-13))
        outer = ts.radial_profile(mode, a * (1 + 1e-13))
        assert inner == pytest.approx(outer, rel=1e-10)

    def test_profile_exterior_decay(self, aluminum_sphere):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1)[0]
        a = aluminum_sphere.radius_m
        assert ts.radial_profile(mode, 4 * a) == pytest.approx(
            ts.radial_profile(mode, 2 * a) / 4.0, rel=1e-12
        )

    def test_radial_orthogonality(self, aluminum_sphere):
        m1, m2 = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2)
        a = aluminum_sphere.radius_m
        val, _ = quad(
            lambda r: ts.radial_profile(m1, r) * ts.radial_profile(m2, r) * r * r,
            0.0,
            a,
            limit=200,
        )
        norm1, _ = quad(lambda r: ts.radial_profile(m1, r) ** 2 * r * r, 0, a, limit=200)
        assert abs(val) / norm1 < 1e-8

    @pytest.mark.parametrize("mu_ratio", [1.0, 200.0])
    def test_gram_matrix_identity(self, mu_ratio):
        material = ts.MaterialSpec(1 / 2.8e-8, mu_ratio)
        target = ts.TargetSpec(0.05, material)
        modes = ts.find_decay_rates(target, 1.0, l=1, count=8)
        a = target.radius_m
        sigma = material.conductivity_s_per_m
        r = np.linspace(0, a, 20001)
        profiles = np.array([ts.radial_profile(m, r) for m in modes])
        gram = MU_0 * sigma * np.trapezoid(
            profiles[:, None, :] * profiles[None, :, :] * r * r, r, axis=2
        )
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6

    def test_normalization_closed_form_vs_quadrature(self, steel_sphere):
        mode = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=3)[2]
        val, _ = quad(
            lambda u: spherical_bessel_j(1, mode.x * u) ** 2 * u * u, 0, 1, limit=200
        )
        closed = 1.0 / (
            MU_0
            * steel_sphere.material.conductivity_s_per_m
            * steel_sphere.radius_m**3
            * mode.norm**2
        )
        assert val == pytest.approx(closed, rel=1e-10)

    def test_norm_scales_with_conductivity(self, aluminum):
        t1 = ts.TargetSpec(0.05, aluminum)
        quad_sigma = ts.MaterialSpec(4 * aluminum.conductivity_s_per_m, 1.0)
        t4 = ts.TargetSpec(0.05, quad_sigma)
        n1 = normalization_constant(t1, 1, np.pi)
        n4 = normalization_constant(t4, 1, np.pi)
        assert n4 == pytest.approx(n1 / 2.0, rel=1e-12)


class TestModeLibrary:
    def test_sorted_and_json_round_trip(self, aluminum_sphere, tmp_path):
        lib = ts.build_mode_library(aluminum_sphere, 1.0, max_l=2, count_per_l=5)
        rates = lib.rates
        assert np.all(np.diff(rates) >= 0)
        path = tmp_path / "modes.json"
        lib.save(path)
        loaded = ts.ModeLibrary.load(path)
        assert loaded.rates.tolist() == rates.tolist()
        assert [m.x for m in loaded.modes] == [m.x for m in lib.modes]
        # deterministic bytes
        path2 = tmp_path / "modes2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_unsorted(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2)
        with pytest.raises(ParameterError):
            ts.ModeLibrary(
                target=aluminum_sphere,
                background_mu_r=1.0,
                modes=tuple(reversed(modes)),
                max_l=1,
                max_n=2,
            )


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture
def empty_spectra(monkeypatch):
    """An empty spectrum cache for one test; the shared one is restored after."""
    monkeypatch.setattr(modes_mod, "_spectra", OrderedDict())
    monkeypatch.setattr(modes_mod, "_spectra_size", 0)
    return modes_mod._spectra


class TestSpectrumCache:
    def test_prefix_equals_fresh_computation(self, empty_spectra):
        rng = np.random.default_rng(8)
        for _ in range(12):
            l = int(rng.integers(1, 7))
            mu_ratio = 1.0 if rng.uniform() < 0.3 else float(np.exp(rng.uniform(0, np.log(300))))
            count = int(rng.integers(1, 400))
            sector_spectrum(l, mu_ratio, count + int(rng.integers(1, 400)))
            xs, radial = sector_spectrum(l, mu_ratio, count)
            fresh = _sector_wavenumbers(l, mu_ratio, count)
            assert xs.tobytes() == fresh.tobytes(), (l, mu_ratio, count)
            assert radial.tobytes() == _lommel(l, fresh).tobytes(), (l, mu_ratio, count)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "modes.json"))),
        ids=lambda p: os.path.basename(os.path.dirname(p)),
    )
    def test_warm_and_cold_libraries_match_golden(self, empty_spectra, monkeypatch, path):
        recorded = ts.ModeLibrary.load(path)
        args = (recorded.target, recorded.background_mu_r, recorded.max_l, recorded.max_n)
        mu_ratio = recorded.target.material.relative_permeability / recorded.background_mu_r
        with open(path, encoding="utf-8") as fh:
            golden = fh.read()
        for l in range(1, recorded.max_l + 1):
            sector_spectrum(l, mu_ratio, 2 * recorded.max_n + 37)
        warm = ts.build_mode_library(*args)
        monkeypatch.setattr(modes_mod, "_SPECTRUM_CAP", 0)  # nothing is stored: every sector is cold
        cold = ts.build_mode_library(*args)
        assert json.dumps(warm.to_dict(), indent=1) + "\n" == golden
        assert json.dumps(cold.to_dict(), indent=1) + "\n" == golden

    def test_classify_rankings_identical_warm_and_cold(self, empty_spectra, monkeypatch,
                                                       sample_config_dict):
        candidates = []
        for radius in (0.03, 0.05):
            for mu_r in (1.0, 60.0):
                cfg = json.loads(json.dumps(sample_config_dict))
                cfg["target"].update(radius_m=radius, mu_r=mu_r)
                cfg["options"]["max_n"] = 120
                candidates.append((f"a{radius}-mu{mu_r}", _io.parse_config(cfg)))
        gates = np.geomspace(1e-5, 1.0, 60)
        data = ts.TimeSeries(gates, pipeline.forward_values(candidates[2][1], gates))
        for mu_r in (1.0, 60.0):
            sector_spectrum(1, mu_r, 500)
        warm = inversion.classify_library(data, candidates, pipeline.forward_values)
        monkeypatch.setattr(modes_mod, "_SPECTRUM_CAP", 0)
        cold = inversion.classify_library(data, candidates, pipeline.forward_values)
        assert warm.ranking == cold.ranking
        assert warm.best == candidates[2][0]

    def test_cached_arrays_are_read_only(self, empty_spectra, steel_sphere):
        xs, radial = sector_spectrum(2, 200.0, 20)
        for arr in (xs, radial, empty_spectra[(2, 200.0)][0]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        lib = ts.build_mode_library(steel_sphere, 1.0, max_l=2, count_per_l=5)
        assert all(not col.flags.writeable for col in lib.columns)
        assert lib.rates is lib.columns[3]

    def test_truncation_error_raised_on_hit(self, empty_spectra, aluminum_sphere):
        ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=50)
        with pytest.raises(TruncationError):
            ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=10, x_max=10.0)
        assert empty_spectra[(1, 1.0)][0].size == 50  # served from the stored entry
        assert len(ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=3, x_max=10.0)) == 3

    def test_size_never_exceeds_cap(self, empty_spectra, monkeypatch):
        monkeypatch.setattr(modes_mod, "_SPECTRUM_CAP", 100)
        for mu_ratio in (2.0, 3.0):
            sector_spectrum(1, mu_ratio, 40)
        sector_spectrum(1, 2.0, 10)  # a hit: (1, 2.0) becomes most recently used
        sector_spectrum(1, 4.0, 40)  # evicts (1, 3.0), the least recently used
        assert list(empty_spectra) == [(1, 2.0), (1, 4.0)]
        sector_spectrum(1, 2.0, 70)  # grows (1, 2.0) to 70, evicting (1, 4.0)
        assert list(empty_spectra) == [(1, 2.0)]
        xs, _ = sector_spectrum(1, 5.0, 150)  # larger than the cap: computed, not stored
        assert xs.size == 150 and (1, 5.0) not in empty_spectra
        assert modes_mod._spectra_size == 70
        assert sum(x.size for x, _ in empty_spectra.values()) == 70

    def test_failed_sector_is_not_stored(self, empty_spectra, monkeypatch, steel_sphere):
        monkeypatch.setattr(modes_mod, "_residual_ok", lambda l, x, mu: np.zeros(x.shape, bool))
        with pytest.raises(NumericalError):
            ts.find_decay_rates(steel_sphere, 1.0, l=1, count=5)
        assert not empty_spectra and modes_mod._spectra_size == 0

    def test_threads_keep_size_and_prefixes_consistent(self, empty_spectra, monkeypatch):
        # cheap stand-in spectra under a small cap: nearly every call stores
        # and evicts, so an unlocked update of the cache would show
        def fake(l, mu_ratio, count, ladder=None):
            return np.arange(1.0, count + 1) + 100 * l + mu_ratio

        monkeypatch.setattr(modes_mod, "_sector_wavenumbers", fake)
        monkeypatch.setattr(modes_mod, "_lommel", lambda l, x: -x)
        monkeypatch.setattr(modes_mod, "_SPECTRUM_CAP", 12)
        keys = [(l, float(mu)) for l in (1, 2) for mu in range(1, 13)]
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(8000):
                key = keys[rng.integers(len(keys))]
                count = int(rng.integers(1, 7))
                xs, radial = sector_spectrum(*key, count)
                if not (np.array_equal(xs, fake(*key, count)) and np.array_equal(radial, -xs)):
                    errors.append((key, count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        assert modes_mod._spectra_size == sum(x.size for x, _ in empty_spectra.values()) <= 12
