import warnings

import numpy as np
import pytest

import temsphere as ts
from temsphere.core import ParameterError
from temsphere import _io, inversion, pipeline
from temsphere.inversion import DecayModel
from temsphere.modes import NumericalError

from oracles import levenberg_marquardt_one


def noisy(values, rel, seed):
    rng = np.random.default_rng(seed)
    return values * (1.0 + rel * rng.standard_normal(values.shape))


class TestFitPowerLaw:
    def test_exact_recovery(self):
        t = np.geomspace(1e-4, 1e-2, 30)
        data = ts.TimeSeries(times_s=t, values=5.0 * t**-0.5)
        fit = ts.fit_power_law(data, (t[0], t[-1]))
        assert fit.amplitude == pytest.approx(5.0, rel=1e-12)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_noisy_exponent_within_band(self):
        t = np.geomspace(1e-4, 1e-2, 30)
        clean = 5.0 * t**-0.5
        for seed in range(100):
            data = ts.TimeSeries(times_s=t, values=noisy(clean, 0.01, seed))
            fit = ts.fit_power_law(data, (t[0], t[-1]))
            assert -0.52 <= fit.exponent <= -0.48

    def test_exponential_data_flags_misdetection(self):
        t = np.geomspace(2e-2, 2e-1, 30)
        data = ts.TimeSeries(times_s=t, values=np.exp(-50.0 * t))
        fit = ts.fit_power_law(data, (t[0], t[-1]))
        assert fit.residual > 0.1
        assert abs(fit.exponent + 0.5) > 0.5

    def test_window_and_positivity_validation(self):
        t = np.geomspace(1e-4, 1e-2, 30)
        data = ts.TimeSeries(times_s=t, values=5.0 * t**-0.5)
        with pytest.raises(ParameterError):
            ts.fit_power_law(data, (t[0], t[2]))  # too few gates
        bad = ts.TimeSeries(times_s=t, values=np.linspace(-1, 1, 30))
        with pytest.raises(ParameterError):
            ts.fit_power_law(bad, (t[0], t[-1]))


class TestFitExponentials:
    def test_single_exponential_exact(self):
        t = np.geomspace(1e-3, 1.0, 60)
        data = ts.TimeSeries(times_s=t, values=2.0 * np.exp(-3.0 * t))
        result = ts.fit_exponentials(data, k=1, seed=0)
        assert result.converged
        assert result.model.rates[0] == pytest.approx(3.0, rel=1e-8)
        assert result.model.amplitudes[0] == pytest.approx(2.0, rel=1e-8)

    def test_planted_two_exponentials_with_noise(self):
        t = np.geomspace(1e-3, 3.0, 80)
        clean = 0.3 * np.exp(-1.0 * t) + 3.0 * np.exp(-10.0 * t)
        data = ts.TimeSeries(times_s=t, values=noisy(clean, 0.01, seed=11))
        result = ts.fit_exponentials(data, k=2, seed=7)
        assert result.converged
        assert result.model.rates[0] == pytest.approx(1.0, rel=0.05)
        assert result.model.rates[1] == pytest.approx(10.0, rel=0.05)
        assert result.model.amplitudes[0] == pytest.approx(0.3, rel=0.05)
        assert result.model.amplitudes[1] == pytest.approx(3.0, rel=0.05)

    def test_near_degenerate_rates_flagged(self):
        t = np.geomspace(1e-3, 3.0, 80)
        clean = 1.0 * np.exp(-1.0 * t) + 1.0 * np.exp(-1.05 * t)
        data = ts.TimeSeries(times_s=t, values=noisy(clean, 0.01, seed=3))
        result = ts.fit_exponentials(data, k=2, seed=3)
        assert (not result.converged) or result.diagnostics["ill_conditioned"]

    def test_nested_models_non_increasing_residual(self):
        t = np.geomspace(1e-3, 3.0, 80)
        clean = 0.3 * np.exp(-1.0 * t) + 3.0 * np.exp(-10.0 * t)
        data = ts.TimeSeries(times_s=t, values=noisy(clean, 0.01, seed=5))
        misfits = [
            ts.fit_exponentials(data, k=k, seed=9).misfit for k in (1, 2, 3)
        ]
        assert misfits[1] <= misfits[0] * (1 + 1e-9)
        assert misfits[2] <= misfits[1] * (1 + 1e-9)

    def test_deterministic_given_seed(self):
        t = np.geomspace(1e-3, 3.0, 60)
        clean = 0.5 * np.exp(-2.0 * t) + 2.0 * np.exp(-20.0 * t)
        data = ts.TimeSeries(times_s=t, values=noisy(clean, 0.02, seed=1))
        r1 = ts.fit_exponentials(data, k=2, seed=42)
        r2 = ts.fit_exponentials(data, k=2, seed=42)
        assert r1.model.rates == r2.model.rates
        assert r1.model.amplitudes == r2.model.amplitudes

    def test_power_term_recovery(self):
        t = np.geomspace(1e-4, 1e-1, 80)
        clean = 4.0 * t**-0.5 + 50.0 * np.exp(-40.0 * t)
        data = ts.TimeSeries(times_s=t, values=clean)
        init = DecayModel(power_amplitude=1.0)
        result = ts.fit_exponentials(data, k=1, init=init, seed=0)
        assert result.model.power_amplitude == pytest.approx(4.0, rel=1e-6)
        assert result.model.rates[0] == pytest.approx(40.0, rel=1e-4)

    def test_decade_span_required(self):
        t = np.linspace(1.0, 2.0, 30)
        data = ts.TimeSeries(times_s=t, values=np.exp(-t))
        with pytest.raises(ParameterError):
            ts.fit_exponentials(data, k=2)

    def test_term_cap(self):
        t = np.geomspace(1e-3, 3.0, 30)
        data = ts.TimeSeries(times_s=t, values=np.exp(-t))
        with pytest.raises(ParameterError):
            ts.fit_exponentials(data, k=6)


def _fit_args(t, y, noise_rel, power):
    """The (gates, weights, weighted data, extra columns) fit_exponentials projects with."""
    w = 1.0 / (noise_rel * np.abs(y))
    extra = (t**-0.5 * w)[:, None] if power else np.empty((t.size, 0))
    return t[:, None], w[:, None], y * w, extra


class TestFiniteObjective:
    # two decays at 50 and 500 /s over 60 gates: the optimizer probes rates
    # far enough out that exp(u) overflows, and near-coincident fast rates
    # whose linear solve is not finite
    T = np.geomspace(0.1 / 500.0, 8.0 / 50.0, 60)
    Y = np.exp(-np.outer(T, [50.0, 500.0])) @ [1.0, 1.0]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_fit_emits_no_floating_point_warning(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ts.fit_exponentials(ts.TimeSeries(times_s=self.T, values=self.Y), k=2, seed=seed)
        assert fit.model.rates == pytest.approx((50.0, 500.0), rel=1e-6)

    def test_near_coincident_rates_are_rejected(self):
        args = _fit_args(self.T, self.Y, 0.015, power=False)
        near = inversion._params_from_rates(np.array([3699015.3, 3699017.6]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):  # as fit_exponentials calls it
                for u in (near, np.array([800.0, 0.0])):  # one start per row
                    rows, _ = inversion._project(u[None], *args, np.full(1, np.inf))
                    assert rows.size == 0


class TestKaufmanGradient:
    @pytest.mark.parametrize("power", [False, True])
    def test_matches_central_difference(self, power):
        # 2 J^T r of the Kaufman Jacobian is the exact SSE gradient
        rng = np.random.default_rng(5)
        t = np.geomspace(1e-5, 1e-1, 60)
        y = np.exp(-np.outer(t, [30.0, 300.0, 3000.0])) @ [1.0, 0.7, 1.3]
        if power:
            y += 0.1 * np.sqrt(t[0] / t)
        y *= 1.0 + 0.01 * rng.standard_normal(t.size)
        args = _fit_args(t, y, 0.01, power)
        u = inversion._params_from_rates(np.array([20.0, 400.0, 2000.0]))
        h = 1e-5
        # one start per row: u, then u + h e_j, then u - h e_j
        stack = np.vstack([u, u + h * np.eye(u.size), u - h * np.eye(u.size)])
        rows, ev = inversion._project(stack, *args, np.full(len(stack), np.inf))
        assert rows.tolist() == list(range(len(stack)))
        grad = 2.0 * ev.jac[0].T @ ev.resid[0]
        fd = (ev.sse[1:1 + u.size] - ev.sse[1 + u.size:]) / (2.0 * h)
        assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(grad)


def _lockstep_levels(data, k, init, seed, noise_rel):
    """The start stacks and arguments of every level of one fit, and the fit."""
    levels = []
    lm = inversion._levenberg_marquardt

    def spy(u, args):
        levels.append((u.copy(), args))
        return lm(u, args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_levenberg_marquardt", spy)
        fit = ts.fit_exponentials(data, k, init=init, seed=seed, noise_rel=noise_rel)
    return levels, fit


def _lockstep_trials(u, args):
    """Run the stacked pass from ``u``, recording the trial points of every
    `_project` call and the rows it accepted."""
    calls = []
    project = inversion._project

    def spy(points, *rest):
        rows, ev = project(points, *rest)
        calls.append((points.copy(), rows))
        return rows, ev

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_project", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = inversion._levenberg_marquardt(u, args)
    return ends, calls


def _assert_same_paths(u, args):
    """Every start of the stack takes the per-start oracle's path: the same
    first-point rejection, trial points, accept/reject decisions, iteration
    of departure, converged flag, and rates within 1e-7 relative."""
    records, results = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for u0 in u:
            records.append([])
            results.append(levenberg_marquardt_one(u0, args, records[-1]))
    ends, calls = _lockstep_trials(u, args)
    evaluated = [s for s, (_, ev, _) in enumerate(results) if ev is not None]
    assert calls[0][1].tolist() == evaluated
    iteration = 0
    while True:
        # starts that try a step at this iteration, in stack order
        trying = [s for s, rec in enumerate(records)
                  if len(rec) > iteration and rec[iteration][0] != "converged"]
        if not trying:
            break
        points, accepted = calls[iteration + 1]
        assert len(points) == len(trying), f"iteration {iteration}"
        for row, s in enumerate(trying):
            kind, point = records[s][iteration]
            assert (row in accepted) == (kind == "accept"), f"start {s}, iteration {iteration}"
            if point is not None:
                np.testing.assert_array_equal(points[row], point)
        iteration += 1
    assert len(calls) == iteration + 1
    for s, (u_end, ev, converged) in enumerate(results):
        assert ends.converged[s] == converged
        if ev is None:
            assert ends.sse[s] == np.inf
            continue
        np.testing.assert_allclose(inversion._rates_from_params(ends.u[s]),
                                   inversion._rates_from_params(u_end), rtol=1e-7)


class TestLockstep:
    # k 1-3, with and without a t^(-1/2) term and a baseline, 1-2% noise, 60 gates
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("power, baseline", [(False, False), (True, False),
                                                 (False, True), (True, True)])
    def test_matches_per_start_oracle(self, k, power, baseline):
        rng = np.random.default_rng([k, power, baseline])
        rates = 50.0 * np.cumprod([1.0] + [10.0] * (k - 1))
        amps = rng.uniform(0.5, 2.0, size=k)
        t = np.geomspace(0.1 / rates[-1], 8.0 / rates[0], 60)
        y = np.exp(-np.outer(t, rates)) @ amps
        if power:
            y += 0.1 * amps.sum() * np.sqrt(t[0] / t)
        if baseline:
            y += 0.01 * amps.sum()
        noise = rng.uniform(0.01, 0.02)
        y *= 1.0 + noise * rng.standard_normal(t.size)
        init = (DecayModel(power_amplitude=1.0 if power else 0.0, baseline=1.0 if baseline else 0.0)
                if power or baseline else None)
        levels, fit = _lockstep_levels(ts.TimeSeries(t, y), k, init, int(rng.integers(2**31)), noise)
        assert len(levels) == k  # the nested (k-1)-term fits are levels too
        for u, args in levels:
            _assert_same_paths(u, args)

    def test_singular_system_gives_nan_row(self):
        a = np.array([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
        x = inversion._solve(a, np.ones((3, 2)))
        np.testing.assert_array_equal(x[[0, 2]], [[1.0, 1.0], [0.5, 0.5]])
        assert np.isnan(x[1]).all()

    def test_start_rejected_at_its_first_point(self):
        t = np.geomspace(1e-3, 1.0, 60)
        y = 2.0 * np.exp(-3.0 * t) * (1.0 + 0.01 * np.random.default_rng(1).standard_normal(t.size))
        args = _fit_args(t, y, 0.01, power=False)
        # the middle start's rate, 1e13 /s, lies outside the rate box
        u = np.log(np.array([[0.5], [1e13], [30.0]]))
        _assert_same_paths(u, args)
        ends, calls = _lockstep_trials(u, args)
        assert calls[0][1].tolist() == [0, 2]
        assert ends.sse[1] == np.inf and not ends.converged[1]
        np.testing.assert_array_equal(ends.u[1], u[1])
        assert ends.converged[[0, 2]].all()
        np.testing.assert_allclose(inversion._rates_from_params(ends.u[[0, 2]]), 3.0, rtol=1e-2)


def _excluded_strata_draws(count):
    """Decays of the fit benchmark's left-out strata: one or two rates plus a
    t^(-1/2) term at 10% of the first gate, 60 gates, 1-2% relative noise;
    draws alternate between one and two rates, all from one rng (2024)."""
    rng = np.random.default_rng(2024)

    def lu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    cases = []
    for i in range(count):
        k = 1 + i % 2
        rates = lu(20.0, 2000.0) * np.cumprod([1.0] + [lu(8.0, 15.0) for _ in range(k - 1)])
        amps = rng.uniform(0.5, 2.0, size=k)
        t = np.geomspace(0.1 / rates[-1], 8.0 / rates[0], 60)
        y = np.exp(-np.outer(t, rates)) @ amps + 0.1 * amps.sum() * np.sqrt(t[0] / t)
        noise = rng.uniform(0.01, 0.02)
        y *= 1.0 + noise * rng.standard_normal(t.size)
        cases.append((k, rates, noise, int(rng.integers(0, 2**31)), ts.TimeSeries(t, y)))
    return cases


class TestWrongMinima:
    # cases 2 d + k - 1 of draws d = 244, 331, 502 (k = 1) and 198 (k = 2),
    # on which an L-BFGS-B fit settled 20.4, 12.2, 12.1 and 4.98x above the noise
    @pytest.mark.parametrize("draw", [488, 662, 1004, 397])
    def test_power_term_fits_reach_the_noise(self, draw):
        k, rates, noise, seed, data = _excluded_strata_draws(draw + 1)[draw]
        fit = ts.fit_exponentials(data, k, init=DecayModel(power_amplitude=1.0), seed=seed,
                                  noise_rel=noise)
        assert fit.misfit <= 2.0  # residuals weighted by the planted noise
        log_rtol = {1: 0.05, 2: 0.35}[k]
        assert np.max(np.abs(np.log(np.array(fit.model.rates) / rates))) <= log_rtol


class TestConvergedFlag:
    @staticmethod
    def fit_with(monkeypatch, rewrite):
        """One-term fit whose per-start LM results pass through ``rewrite``.

        The stacked pass returns one row per start; ``rewrite(index, (u, sse,
        converged))`` returns the row the fit sees.  The LM's own rows are
        returned alongside the fit.
        """
        starts = []
        lm = inversion._levenberg_marquardt

        def spy(u, args):
            ends = lm(u, args)
            starts.extend(zip(ends.u, ends.sse, ends.converged))
            seen = [rewrite(i, row) for i, row in enumerate(starts)]
            return ends._replace(u=np.array([row[0] for row in seen]),
                                 sse=np.array([row[1] for row in seen]),
                                 converged=np.array([row[2] for row in seen]))

        monkeypatch.setattr(inversion, "_levenberg_marquardt", spy)
        rng = np.random.default_rng(0)
        t = np.geomspace(1e-3, 1.0, 60)
        rate = float(np.exp(rng.uniform(np.log(3.0), np.log(300.0))))
        values = 2.0 * np.exp(-rate * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        fit = ts.fit_exponentials(ts.TimeSeries(times_s=t, values=values), k=1, seed=0)
        # every start converges to the same minimum on its own
        best = min(sse for _, sse, _ in starts)
        assert len(starts) == 8
        assert all(ok and sse <= best * (1.0 + 1e-9) for _, sse, ok in starts)
        return fit, rate

    def test_lowest_start_unconverged_still_converged(self, monkeypatch):
        def rewrite(index, result):
            u, sse, ok = result
            if index == 3:  # the lowest start, and the only unconverged one
                return u, sse * (1.0 - 1e-9), False
            return result

        fit, rate = self.fit_with(monkeypatch, rewrite)
        assert fit.converged
        assert fit.model.rates[0] == pytest.approx(rate, rel=1e-3)

    def test_no_converged_start(self, monkeypatch):
        fit, _ = self.fit_with(monkeypatch, lambda index, result: (*result[:2], False))
        assert not fit.converged

    @pytest.mark.parametrize("above, converged", [(1e-7, True), (1e-5, False)])
    def test_only_converged_start_above_the_selected_objective(
        self, monkeypatch, above, converged
    ):
        def rewrite(index, result):
            u, sse, _ = result
            if index == 0:
                return u, sse * (1.0 + above), True
            return u, sse, False

        fit, _ = self.fit_with(monkeypatch, rewrite)
        assert fit.converged is converged


class TestClassifyLibrary:
    @staticmethod
    def forward(config, times):
        amp, rate = config
        return amp * np.exp(-rate * np.asarray(times))

    def test_noiseless_self_classification(self):
        t = np.geomspace(1e-3, 1.0, 40)
        candidates = [("a", (1.0, 3.0)), ("b", (1.0, 6.0)), ("c", (2.0, 3.0))]
        data = ts.TimeSeries(times_s=t, values=self.forward(("x", (1.0, 3.0))[1], t))
        result = ts.classify_library(data, candidates, self.forward)
        assert result.best == "a"
        assert result.ranking[0][1] <= 1e-8

    def test_noisy_pair_discrimination(self):
        t = np.geomspace(1e-3, 1.0, 40)
        truth = self.forward((1.0, 3.0), t)
        data = ts.TimeSeries(times_s=t, values=noisy(truth, 0.02, seed=2))
        candidates = [("steel", (1.0, 6.0)), ("aluminum", (1.0, 3.0))]
        result = ts.classify_library(data, candidates, self.forward, noise_rel=0.02)
        assert result.best == "aluminum"
        assert result.margin > 1.0

    def test_gain_nuisance_preserves_ranking(self):
        t = np.geomspace(1e-3, 1.0, 40)
        truth = self.forward((1.0, 3.0), t)
        data = ts.TimeSeries(times_s=t, values=7.7 * noisy(truth, 0.02, seed=4))
        candidates = [("a", (1.0, 3.0)), ("b", (1.0, 6.0)), ("c", (1.0, 1.5))]
        plain = ts.classify_library(
            ts.TimeSeries(times_s=t, values=noisy(truth, 0.02, seed=4)),
            candidates,
            self.forward,
            free_gain=False,
        )
        gained = ts.classify_library(data, candidates, self.forward, free_gain=True)
        assert [name for name, _ in gained.ranking] == [
            name for name, _ in plain.ranking
        ]

    def test_weight_invariance_under_common_scaling(self):
        t = np.geomspace(1e-3, 1.0, 40)
        truth = self.forward((1.0, 3.0), t)
        candidates = [("a", (1.0, 3.0)), ("b", (1.0, 6.0)), ("c", (0.5, 3.0))]
        d1 = ts.TimeSeries(times_s=t, values=noisy(truth, 0.02, seed=6))
        d2 = ts.TimeSeries(times_s=t, values=5.0 * d1.values)
        r1 = ts.classify_library(d1, candidates, self.forward, free_gain=True)
        r2 = ts.classify_library(d2, candidates, self.forward, free_gain=True)
        assert [n for n, _ in r1.ranking] == [n for n, _ in r2.ranking]

    def test_all_invalid_fails(self):
        t = np.geomspace(1e-3, 1.0, 10)
        data = ts.TimeSeries(times_s=t, values=np.exp(-t))

        def broken(config, times):
            raise ParameterError("no forward model")

        with pytest.raises(ParameterError):
            ts.classify_library(data, [("a", None)], broken)

    def test_typed_errors_reject_candidate(self):
        t = np.geomspace(1e-3, 1.0, 10)
        data = ts.TimeSeries(times_s=t, values=self.forward((1.0, 3.0), t))
        errors = {"p": ParameterError, "n": NumericalError}

        def forward(config, times):
            if config in errors:
                raise errors[config]("invalid for these gates")
            return self.forward(config, times)

        candidates = [("a", (1.0, 3.0)), *((name, name) for name in errors), ("b", (1.0, 6.0))]
        result = ts.classify_library(data, candidates, forward)
        assert [name for name, _ in result.ranking] == ["a", "b"]
        assert result.rejected == (("p", "ParameterError"), ("n", "NumericalError"))

    def test_other_errors_propagate(self):
        # a bug in the forward model is not a reason to drop a candidate
        t = np.geomspace(1e-3, 1.0, 10)
        data = ts.TimeSeries(times_s=t, values=np.exp(-t))

        def buggy(config, times):
            raise TypeError("unsupported operand")

        with pytest.raises(TypeError, match="unsupported operand"):
            ts.classify_library(data, [("a", (1.0, 3.0))], buggy)

    def test_empty_library_fails(self):
        t = np.geomspace(1e-3, 1.0, 10)
        data = ts.TimeSeries(times_s=t, values=np.exp(-t))
        with pytest.raises(ParameterError):
            ts.classify_library(data, [], self.forward)


def _candidate(radius, rho, mu_r):
    name = f"a{radius * 100:g}cm-rho{rho * 1e8:g}e-8-mu{mu_r:g}"
    return name, _io.parse_config({
        "target": {"radius_m": radius, "resistivity_ohm_m": rho, "mu_r": mu_r},
        "background": {"resistivity_ohm_m": 100.0, "mu_r": 1.0},
        "standoff_m": 0.5,
        "pulse": {"base_current_a": 1.0, "windings": 1, "ramp": "step", "t0_s": 0.0},
        "loops": {
            "transmitter": {"kind": "circular", "radius_m": 0.4, "height_m": 0.3},
            "receiver": {"kind": "circular", "radius_m": 0.25, "height_m": 0.35},
        },
        "options": {"max_l": 1, "max_n": 200},
    })


def test_classify_far_candidates_have_finite_misfits():
    # the fastest-decaying target planted in an 18-candidate library: its
    # late gates reach |V| ~ 1e-273, so the relative weights of the other
    # candidates' residuals are huge and their plain squares overflow
    candidates = [
        _candidate(a, rho, mu)
        for a in (0.03, 0.05, 0.08) for rho in (1.7e-8, 2.8e-8, 7.0e-8) for mu in (1.0, 60.0)
    ]
    t = np.geomspace(1e-5, 1.0, 100)
    planted = dict(candidates)["a3cm-rho7e-8-mu1"]
    data = ts.TimeSeries(times_s=t, values=noisy(pipeline.forward_values(planted, t), 0.02, 0))
    with np.errstate(over="raise"):
        result = ts.classify_library(data, candidates, pipeline.forward_values, noise_rel=0.02)
    misfits = np.array([m for _, m in result.ranking])
    assert len(misfits) == 18
    assert np.all(np.isfinite(misfits))
    assert np.all(np.diff(misfits) > 0)
    assert result.best == "a3cm-rho7e-8-mu1"
    assert misfits[0] == pytest.approx(1.0, abs=0.2)  # at the noise level
