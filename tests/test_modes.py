import dataclasses
import glob
import json
import os
import pickle
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import temsphere as ts
from temsphere import _io, inversion, modes as modes_mod, pipeline, special
from temsphere.core import MU_0, ParameterError
from temsphere.modes import (
    NumericalError,
    _eigencondition_fdf,
    _residual_ok,
    eigencondition,
    normalization_constant,
)
from temsphere.special import spherical_bessel_j

from oracles import eigencondition_derivative, load_library, radial_profile


class TestEigencondition:
    def test_nonmagnetic_reduces_to_j0_zeros(self):
        # mu ratio 1, l = 1: residual is x j_0(x), zeros at n pi
        for n in range(1, 6):
            assert abs(eigencondition(1, n * np.pi, 1.0)) < 1e-12

    def test_nonmagnetic_l2_first_root_at_j1_zero(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=2, count=1).modes
        assert modes[0].x == pytest.approx(4.493409457909064, abs=1e-10)

    def test_high_contrast_limit_approaches_j_l_zeros(self, aluminum):
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 1e7))
        modes = ts.find_decay_rates(target, 1.0, l=1, count=1).modes
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

    def test_zero_argument(self):
        # F(0) = 0 for every l >= 1, with no warning from F' = inf there
        for l in (1, 2, 3):
            assert eigencondition(l, 0.0, 60.0) == 0.0
            assert np.array_equal(eigencondition(l, np.array([0.0]), 1.0), [0.0])

    def test_sign_change_between_brackets(self):
        # residual is continuous across each bracket for mu ratio > 1
        x = np.linspace(0.5, 20, 2000)
        res = eigencondition(1, x, 200.0)
        assert np.all(np.isfinite(res))


class TestFindDecayRates:
    def test_aluminum_fundamental(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2).modes
        d = ts.diffusivity(aluminum_sphere.material)
        expected = np.pi**2 * d / aluminum_sphere.radius_m**2
        assert modes[0].decay_rate_per_s == pytest.approx(expected, rel=1e-12)
        assert modes[0].decay_rate_per_s == pytest.approx(87.97, rel=1e-3)
        assert modes[1].decay_rate_per_s == pytest.approx(4 * expected, rel=1e-12)

    def test_residuals_polished(self, steel_sphere):
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=20).modes
        mu_ratio = 200.0
        for m in modes:
            scale = 1.0 + abs(1 - mu_ratio) / max(m.x, 1.0)
            assert abs(eigencondition(1, m.x, mu_ratio)) < 1e-12 * scale

    def test_spacing_approaches_pi(self, aluminum_sphere, steel_sphere):
        # nonmagnetic: spacing is exactly pi; permeable: approaches pi like
        # (mu-1)/(pi n^2) from below
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=60).modes
        xs = np.array([m.x for m in modes])
        assert np.allclose(np.diff(xs), np.pi, atol=1e-10)
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=200).modes
        xs = np.array([m.x for m in modes])
        gaps = np.abs(np.diff(xs) - np.pi)
        assert np.all(np.diff(xs) > 0)
        # asymptotic regime starts once n pi >> mu - 1, here n ~ 80+
        assert gaps[-1] < 2e-3
        assert gaps[-1] < gaps[120] < gaps[80]

    def test_all_rates_positive_and_fundamental_order_one(self, steel_sphere):
        modes = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=10).modes
        tau_c = steel_sphere.radius_m**2 / ts.diffusivity(steel_sphere.material)
        assert all(m.decay_rate_per_s > 0 for m in modes)
        assert 1.0 < modes[0].decay_rate_per_s * tau_c < 30.0


class TestResidualGate:
    def test_one_bessel_pair_per_sector(self, cold_libraries, monkeypatch):
        # once the roots are found, the residual gate and the Lommel norms
        # read one j_(l-1), j_l, j_(l+1) kernel call over every root of the
        # library, and no `spherical_bessel_j` call
        calls, kernel, roots = [], special._bessel_neighbours, modes_mod._wavenumbers

        def counted(l, x):
            calls.append(l)
            return spherical_bessel_j(l, x)

        def triples(l, x, count=2):
            calls.append(("kernel", np.unique(l).tolist(), np.size(x), count))
            return kernel(l, x, count)

        def found(*args):
            out = roots(*args)
            calls.clear()
            return out

        monkeypatch.setattr(special, "spherical_bessel_j", counted)
        monkeypatch.setattr(modes_mod, "_bessel_neighbours", triples)
        monkeypatch.setattr(modes_mod, "_wavenumbers", found)
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 60.0))
        ts.build_mode_library(target, 1.0, 3, 50)
        assert calls == [("kernel", [1, 2, 3], 150, 3)]


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
        modes = ts.find_decay_rates(target, 1.0, l=l, count=10).modes
        fd = ts.radial_fd_decay_rates(target, 1.0, l, 2000, count=10)
        rates = np.array([m.decay_rate_per_s for m in modes])
        assert np.max(np.abs(fd - rates) / rates) < 5e-3

    def test_richardson_second_order(self):
        # one plain grid: (k a)^2 of the nonmagnetic l = 1 fundamental is pi^2
        exact = np.pi**2
        err = []
        for n in (500, 1000, 2000):
            k2 = modes_mod._fd_eigenvalues(1, 1.0, n, 1)
            err.append(abs(k2[0] - exact) / exact)
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.25)
        assert err[1] / err[2] == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize("mu_ratio", [0.2, 1.0, 3.0, 60.0, 137.0, 300.0])
    def test_extrapolation_within_1e_8_of_the_roots(self, mu_ratio):
        # N = 2000 extrapolates the 250- and 500-point grids; one plain
        # 2,000-point grid is off by up to 2.4e-6 on these 36 sectors
        background = max(1.0, 1.0 / mu_ratio)
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, mu_ratio * background))
        for l in range(1, 7):
            rates = ts.find_decay_rates(target, background, l=l, count=3).rates
            fd = ts.radial_fd_decay_rates(target, background, l, 2000, count=3)
            assert np.max(np.abs(fd / rates - 1.0)) <= 1e-8

    def test_ascending(self, steel_sphere):
        fd = ts.radial_fd_decay_rates(steel_sphere, 1.0, 2, 500, count=8)
        assert np.all(np.diff(fd) > 0)

    def test_one_unit_radius_solve_per_sector(self, aluminum):
        # rates scale as 1/a^2: two radii share one solve of the a = 1 problem
        modes_mod._fd_eigenvalues.cache_clear()
        small, large = (ts.TargetSpec(a, aluminum) for a in (0.02, 0.1))
        fd_small = ts.radial_fd_decay_rates(small, 1.0, 2, 500, count=4)
        fd_large = ts.radial_fd_decay_rates(large, 1.0, 2, 500, count=4)
        assert modes_mod._fd_eigenvalues.cache_info().misses == 2  # one per grid
        np.testing.assert_allclose(fd_small * 0.02**2, fd_large * 0.1**2, rtol=1e-15)

    def test_grid_validation(self, aluminum_sphere):
        with pytest.raises(ParameterError):
            ts.radial_fd_decay_rates(aluminum_sphere, 1.0, 1, 50)


class TestProfilesAndNormalization:
    def test_profile_zero_at_center(self, aluminum_sphere):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1).modes[0]
        assert radial_profile(mode, 0.0) == 0.0

    def test_profile_continuous_at_surface(self, steel_sphere):
        mode = ts.find_decay_rates(steel_sphere, 1.0, l=2, count=1).modes[0]
        a = steel_sphere.radius_m
        inner = radial_profile(mode, a * (1 - 1e-13))
        outer = radial_profile(mode, a * (1 + 1e-13))
        assert inner == pytest.approx(outer, rel=1e-10)

    def test_profile_exterior_decay(self, aluminum_sphere):
        mode = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1).modes[0]
        a = aluminum_sphere.radius_m
        assert radial_profile(mode, 4 * a) == pytest.approx(
            radial_profile(mode, 2 * a) / 4.0, rel=1e-12
        )

    def test_radial_orthogonality(self, aluminum_sphere):
        m1, m2 = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2).modes
        a = aluminum_sphere.radius_m
        val, _ = quad(
            lambda r: radial_profile(m1, r) * radial_profile(m2, r) * r * r,
            0.0,
            a,
            limit=200,
        )
        norm1, _ = quad(lambda r: radial_profile(m1, r) ** 2 * r * r, 0, a, limit=200)
        assert abs(val) / norm1 < 1e-8

    @pytest.mark.parametrize("mu_ratio", [1.0, 200.0])
    def test_gram_matrix_identity(self, mu_ratio):
        material = ts.MaterialSpec(1 / 2.8e-8, mu_ratio)
        target = ts.TargetSpec(0.05, material)
        modes = ts.find_decay_rates(target, 1.0, l=1, count=8).modes
        a = target.radius_m
        sigma = material.conductivity_s_per_m
        r = np.linspace(0, a, 20001)
        profiles = np.array([radial_profile(m, r) for m in modes])
        gram = MU_0 * sigma * np.trapezoid(
            profiles[:, None, :] * profiles[None, :, :] * r * r, r, axis=2
        )
        assert np.max(np.abs(gram - np.eye(8))) < 1e-6

    def test_normalization_closed_form_vs_quadrature(self, steel_sphere):
        mode = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=3).modes[2]
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
        loaded = load_library(path)
        assert loaded.rates.tolist() == rates.tolist()
        assert [m.x for m in loaded.modes] == [m.x for m in lib.modes]
        # deterministic bytes
        path2 = tmp_path / "modes2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_unsorted(self, aluminum_sphere):
        modes = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=2).modes
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
def cold_libraries():
    """No held mode library before or after the test, so a test that patches
    `modes` internals neither reads a library built without the patch nor
    leaves one built with it."""
    modes_mod._library.cache_clear()
    yield modes_mod._library
    modes_mod._library.cache_clear()


@pytest.fixture
def empty_ladder(monkeypatch):
    """No held Bessel zeros for one test; the shared ladder is restored after."""
    monkeypatch.setattr(special, "_zeros", [])
    return special._zeros


def cold_ladder(max_order, count):
    """The zeros of `special._bessel_zero_ladder`, every order refined from scratch."""
    ladder = [np.arange(1, count + max_order + 1) * np.pi]
    for k in range(1, max_order + 1):
        fdf = partial(special._bessel_zero_fdf, k)
        ladder.append(special._refine_roots(fdf, ladder[-1][:-1], ladder[-1][1:]))
    return ladder


class TestHeldBesselZeros:
    def test_requests_equal_cold_ladders_and_never_shrink(self, empty_ladder):
        rng = np.random.default_rng(17)
        longest = {}
        for _ in range(30):
            order, count = int(rng.integers(0, 9)), int(rng.integers(1, 300))
            ladder = special._bessel_zero_ladder(order, count)
            cold = cold_ladder(order, count)
            assert len(ladder) == order + 1
            for k, (zeros, ref) in enumerate(zip(ladder, cold)):
                assert zeros.tobytes() == ref.tobytes(), (order, count, k)
                longest[k] = max(longest.get(k, 0), count + order - k)
            assert [z.size for z in empty_ladder] == [longest[k] for k in range(len(longest))]
            for zeros in ladder + empty_ladder:
                assert not zeros.flags.writeable
                with pytest.raises(ValueError):
                    zeros[0] = 1.0

    def test_second_magnetic_library_refines_no_bessel_zero(
        self, empty_ladder, cold_libraries, monkeypatch, steel
    ):
        refined, refine = [], special._refine_roots

        def counting(fdf, lo, hi, *args, **kwargs):
            refined.append(np.size(lo))
            return refine(fdf, lo, hi, *args, **kwargs)

        monkeypatch.setattr(special, "_refine_roots", counting)
        target = ts.TargetSpec(radius_m=0.05, material=steel)
        ts.build_mode_library(target, 1.0, max_l=4, count_per_l=120)
        assert sum(refined) > 0
        refined.clear()
        other = ts.TargetSpec(0.03, dataclasses.replace(steel, relative_permeability=37.0))
        for max_l, max_n in ((4, 120), (2, 60)):
            assert len(ts.build_mode_library(other, 1.0, max_l, max_n)) == max_l * max_n
        assert refined == []


class TestOnePassLibrary:
    # (mu_c/mu_b, max_l, count): below, at and above a mu ratio of 1
    CASES = ((1 / 300, 3, 40), (0.5, 2, 600), (1.0, 6, 100), (1.0, 1, 1), (1.5, 4, 7),
             (60.0, 6, 110), (60.0, 1, 600), (300.0, 6, 1), (300.0, 2, 250))

    def test_sectors_equal_sectors_built_alone(self, cold_libraries):
        # every sector of a one-pass library, built cold, equals
        # `find_decay_rates` of that sector alone built cold, bit for bit
        rng = np.random.default_rng(29)
        drawn = [(float(np.exp(rng.uniform(-np.log(300), np.log(300)))),
                  int(rng.integers(1, 7)), int(rng.integers(1, 601))) for _ in range(6)]
        for mu_ratio, max_l, count in self.CASES + tuple(drawn):
            target = ts.TargetSpec(0.04, ts.MaterialSpec(1 / 2.8e-8, max(mu_ratio, 1.0)))
            mu_b = target.material.relative_permeability / mu_ratio
            cold_libraries.cache_clear()
            lib = ts.build_mode_library(target, mu_b, max_l, count)
            for l in range(1, max_l + 1):
                cold_libraries.cache_clear()
                alone = ts.find_decay_rates(target, mu_b, l, count).columns
                sector = lib.columns.l == l
                for name in ("x", "rate", "norm"):
                    got = getattr(lib.columns, name)[sector]
                    assert np.array_equal(got, getattr(alone, name)), (mu_ratio, max_l, count, l)


class TestBracketScan:
    @pytest.mark.parametrize("l", range(1, 13))
    def test_residual_positive_at_the_start_point(self, l):
        # F(1e-9) = x^l (l + 1 + l mu) / (2l + 1)!! > 0 for every mu > 0, far above underflow
        mu = np.geomspace(0.05, 1000.0, 9)
        dfact = np.prod(np.arange(1, 2 * l + 2, 2, dtype=float))
        f = np.array([_eigencondition_fdf(l, m, np.array([1e-9]))[0][0] for m in mu])
        np.testing.assert_allclose(f, 1e-9**l * (l + 1 + l * mu) / dfact, rtol=1e-14)

    def test_start_point_takes_no_bessel_series(self, cold_libraries, monkeypatch):
        # the start point's residual is not evaluated: no low-band sweep at x = 1e-9
        lows, sweep = [], special._bessel_miller

        def spy(x, lo, hi):
            lows.append(float(np.min(x)))
            return sweep(x, lo, hi)

        monkeypatch.setattr(special, "_bessel_miller", spy)
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1 / 2.8e-8, 60.0))
        # a background above the target's mu_r sends the first Newton
        # midpoints of sectors 3-6 through the sweep, never the start point
        ts.build_mode_library(target, 300.0, 6, 100)
        built = ts.build_mode_library(target, 1.0, 6, 100).columns
        assert lows and not any(low <= 1e-9 for low in lows)

        # the scan as it was, one sector at a time, with the residual at the
        # start point computed: the same roots bit for bit (rate and norm are
        # functions of the root)
        for l in range(1, 7):
            ladder = special._bessel_zero_ladder(l, 102)
            pts = np.sort(np.concatenate([[1e-9], ladder[l - 1][:102], ladder[l][:102]]))
            res = _eigencondition_fdf(l, 60.0, pts)[0]
            flips = np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]
            roots = np.sort(special._refine_roots(
                lambda x, l=l: _eigencondition_fdf(l, 60.0, x), pts[flips], pts[flips + 1],
                res[flips]))
            assert np.array_equal(built.x[built.l == l], roots[roots > 1e-8][:100]), l


class TestSpectrumCache:
    """The held mode libraries (`modes._library`), the one cache of mode spectra."""

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*", "modes.json"))),
        ids=lambda p: os.path.basename(os.path.dirname(p)),
    )
    def test_warm_and_cold_libraries_match_golden(self, cold_libraries, empty_ladder, path):
        recorded = load_library(path)
        args = (recorded.target, recorded.background_mu_r, recorded.max_l, recorded.max_n)
        with open(path, encoding="utf-8") as fh:
            golden = fh.read()
        cold = ts.build_mode_library(*args)  # from an empty Bessel-zero ladder
        cold_libraries.cache_clear()
        special._bessel_zero_ladder(recorded.max_l + 3, 2 * recorded.max_n + 37)
        grown = ts.build_mode_library(*args)  # from a ladder held past the golden sizes
        warm = ts.build_mode_library(*args)  # the held library
        assert warm is grown and warm is not cold
        for lib in (cold, grown, warm):
            assert json.dumps(lib.to_dict(), indent=1) + "\n" == golden
        for col, other in zip(warm.columns, cold.columns):
            assert col.dtype == other.dtype and col.tobytes() == other.tobytes()

    def test_equal_builds_return_the_same_object(self, steel):
        target = ts.TargetSpec(0.05, steel)
        lib = ts.build_mode_library(target, 1.0, max_l=2, count_per_l=7)
        twin = ts.TargetSpec(0.05, dataclasses.replace(steel))  # equal, not identical
        assert ts.build_mode_library(twin, 1.0, max_l=2, count_per_l=7) is lib
        sector = ts.find_decay_rates(target, 1.0, l=2, count=7)
        assert ts.find_decay_rates(twin, 1.0, l=2, count=7) is sector
        assert sector is not lib and ts.build_mode_library(target, 1.0, 2, 8) is not lib

    def test_cached_arrays_are_read_only(self, steel_sphere):
        for lib in (ts.build_mode_library(steel_sphere, 1.0, max_l=2, count_per_l=5),
                    ts.find_decay_rates(steel_sphere, 1.0, l=2, count=20)):
            for col in lib.columns:
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[0] = 1
            assert lib.rates is lib.columns[3]

    def test_holds_at_most_32_libraries(self, cold_libraries, aluminum_sphere):
        libs = [ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=n) for n in range(1, 41)]
        assert cold_libraries.cache_info().currsize == 32
        assert ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=40) is libs[-1]
        again = ts.find_decay_rates(aluminum_sphere, 1.0, l=1, count=1)  # evicted: rebuilt
        assert again is not libs[0] and again.columns.x.tobytes() == libs[0].columns.x.tobytes()

    def test_failed_sector_is_not_stored(self, cold_libraries, monkeypatch, steel_sphere):
        monkeypatch.setattr(modes_mod, "_residual_ok",
                            lambda l, x, mu, bessel=None: np.zeros(x.shape, bool))
        with pytest.raises(NumericalError):
            ts.find_decay_rates(steel_sphere, 1.0, l=1, count=5)
        with pytest.raises(NumericalError):
            ts.build_mode_library(steel_sphere, 1.0, max_l=2, count_per_l=5)
        assert cold_libraries.cache_info().currsize == 0
        monkeypatch.undo()
        assert len(ts.find_decay_rates(steel_sphere, 1.0, l=1, count=5)) == 5

    def test_threads_get_bit_equal_columns(self, cold_libraries, steel):
        # 40 keys under a bound of 32: threads build, hit and evict at once
        keys = [(ts.TargetSpec(0.05, dataclasses.replace(steel, relative_permeability=mu)),
                 max_l, count)
                for mu in (1.0, 7.0, 60.0, 300.0) for max_l in (1, 2) for count in range(1, 6)]
        reference = {}
        for key in keys:
            cold_libraries.cache_clear()
            lib = ts.build_mode_library(key[0], 1.0, *key[1:])
            reference[key] = b"".join(col.tobytes() for col in lib.columns)
        cold_libraries.cache_clear()
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                key = keys[rng.integers(len(keys))]
                lib = ts.build_mode_library(key[0], 1.0, *key[1:])
                if b"".join(col.tobytes() for col in lib.columns) != reference[key]:
                    errors.append(key)

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
        assert cold_libraries.cache_info().currsize <= 32

    def test_classify_rankings_identical_warm_and_cold(self, cold_libraries, sample_config_dict):
        candidates = []
        for radius in (0.03, 0.05):
            for mu_r in (1.0, 60.0):
                cfg = json.loads(json.dumps(sample_config_dict))
                cfg["target"].update(radius_m=radius, mu_r=mu_r)
                cfg["options"]["max_n"] = 120
                candidates.append((f"a{radius}-mu{mu_r}", _io.parse_config(cfg)))
        gates = np.geomspace(1e-5, 1.0, 60)
        data = ts.TimeSeries(gates, pipeline.forward_values(candidates[2][1], gates))
        cold_libraries.cache_clear()
        cold = inversion.classify_library(data, candidates, pipeline.forward_values)
        hits = cold_libraries.cache_info().hits
        warm = inversion.classify_library(data, candidates, pipeline.forward_values)
        assert cold_libraries.cache_info().hits == hits + len(candidates)
        assert warm.ranking == cold.ranking
        assert warm.best == candidates[2][0]


class TestColumnLibrary:
    def test_column_and_mode_built_libraries_agree(self, steel_sphere):
        lib = ts.build_mode_library(steel_sphere, 1.0, max_l=3, count_per_l=20)
        twin = ts.ModeLibrary(lib.target, lib.background_mu_r, lib.modes, lib.max_l, lib.max_n)
        assert ts.ModeColumns._fields == ("l", "x", "norm", "rate", "n")
        for col, other in zip(lib.columns, twin.columns):
            assert col.dtype == other.dtype and col.tobytes() == other.tobytes()
        for l in range(1, 4):
            assert lib.sector(l) == twin.sector(l)
            assert [m.n for m in lib.sector(l)] == list(range(1, 21))
        assert json.dumps(lib.to_dict(), indent=1) == json.dumps(twin.to_dict(), indent=1)
        assert len(lib) == len(twin) == 60
        assert lib.modes == twin.modes and lib.modes[7] == twin.modes[7]

    def test_sector_slice_builds_only_what_is_read(self, steel_sphere, cold_libraries,
                                                   monkeypatch):
        lib = ts.build_mode_library(steel_sphere, 1.0, max_l=2, count_per_l=300)
        built, post_init = [], modes_mod.Mode.__post_init__

        def counted(mode):
            built.append(mode)
            post_init(mode)

        monkeypatch.setattr(modes_mod.Mode, "__post_init__", counted)
        first = lib.sector(1)[:3]
        assert [m.n for m in first] == [1, 2, 3] and len(built) == 3
        assert len(lib.sector(2)) == 300 and lib.sector(2)[-1].n == 300 and len(built) == 4
        assert "modes" not in vars(lib)
        assert first == [m for m in lib.modes if m.l == 1][:3]
        assert list(lib.sector(1)) == [m for m in lib.modes if m.l == 1]

    def test_find_decay_rates_is_one_sector_library(self, steel_sphere):
        sector = ts.find_decay_rates(steel_sphere, 1.0, l=2, count=6)
        assert isinstance(sector, ts.ModeLibrary)
        assert (sector.max_l, sector.max_n, len(sector)) == (2, 6, 6)
        assert sector.columns.l.tolist() == [2] * 6
        assert sector.columns.n.tolist() == list(range(1, 7))
        first, *_, last = sector.modes
        assert (first.n, last.n, first.m, first.radius_m) == (1, 6, 0, steel_sphere.radius_m)

    @pytest.mark.parametrize("column, value", [
        ("l", 0), ("n", 0), ("x", 0.0), ("x", np.nan), ("rate", -1.0), ("rate", np.nan),
        ("x", np.inf), ("rate", np.inf), ("norm", np.inf), ("norm", np.nan)])
    def test_invalid_column_rejected(self, steel_sphere, column, value):
        cols = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=4).columns
        bad = np.array(getattr(cols, column))
        bad[0] = value
        with pytest.raises(ParameterError):
            ts.ModeLibrary.from_columns(
                steel_sphere, 1.0, cols._replace(**{column: bad}), max_l=1, max_n=4)

    def test_overflowing_rate_raises_without_warning(self, cold_libraries):
        # resistivity 1e300: D_c x^2 / a^2 overflows, where it used to give
        # rates of inf and "lambda_per_s": Infinity in modes.json
        target = ts.TargetSpec(0.05, ts.MaterialSpec(1e-300, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="decay rate"):
                ts.build_mode_library(target, 1.0, max_l=2, count_per_l=5)
            with pytest.raises(ParameterError, match="decay rate"):
                ts.find_decay_rates(target, 1.0, l=1, count=5)
        assert cold_libraries.cache_info().currsize == 0

    def test_save_writes_no_infinity(self, steel_sphere, tmp_path, monkeypatch):
        lib = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=3)
        data = lib.to_dict()
        data["modes"][-1]["lambda_per_s"] = np.inf
        monkeypatch.setattr(ts.ModeLibrary, "to_dict", lambda self: data)
        with pytest.raises(ValueError, match="not JSON compliant"):
            lib.save(tmp_path / "modes.json")
        assert list(tmp_path.iterdir()) == []

    def test_unsorted_and_ragged_columns_rejected(self, steel_sphere):
        cols = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=4).columns
        with pytest.raises(ParameterError, match="sorted by decay rate"):
            ts.ModeLibrary.from_columns(
                steel_sphere, 1.0, ts.ModeColumns(*(c[::-1] for c in cols)), 1, 4)
        with pytest.raises(ParameterError, match="equal length"):
            ts.ModeLibrary.from_columns(steel_sphere, 1.0, cols._replace(n=cols.n[:3]), 1, 4)
        with pytest.raises(ParameterError, match="integers"):
            ts.ModeLibrary.from_columns(steel_sphere, 1.0, cols._replace(l=cols.l + 0.5), 1, 4)

    def test_mode_checks_still_apply(self, steel_sphere):
        mode = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=1).modes[0]
        for bad in ({"l": 0}, {"n": 0}, {"x": -1.0}, {"decay_rate_per_s": 0.0}, {"m": 2}):
            with pytest.raises(ParameterError):
                dataclasses.replace(mode, **bad)
        with pytest.raises(ParameterError, match="m = 0"):
            ts.ModeLibrary(steel_sphere, 1.0, (dataclasses.replace(mode, m=1),), 1, 1)

    def test_library_is_immutable_and_copies_its_columns(self, steel_sphere):
        cols = ts.find_decay_rates(steel_sphere, 1.0, l=1, count=3).columns
        x = np.array(cols.x)
        lib = ts.ModeLibrary.from_columns(steel_sphere, 1.0, cols._replace(x=x), 1, 3)
        x[0] = 99.0  # the caller's array is not the library's
        assert lib.columns.x[0] == cols.x[0] and not lib.columns.x.flags.writeable
        with pytest.raises(AttributeError):
            lib.max_l = 2
        copy = pickle.loads(pickle.dumps(lib))
        assert json.dumps(copy.to_dict()) == json.dumps(lib.to_dict())
