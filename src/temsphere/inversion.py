"""Decay-curve fitting and model-search classification.

Measured TDEM decays are fitted to a baseline + power-law + sum-of-
exponentials model.  Rate estimation from noisy data is notoriously
unstable, so the exponential fit uses separable (variable-projection)
least squares: at fixed rates the amplitudes are solved exactly by
weighted linear least squares, and only the rates are optimized, with a
deterministic multistart protocol and strict ordering enforced through a
log-gap parameterization.  Classification avoids rate estimation entirely:
candidate targets are forward-modeled and ranked by weighted RMS misfit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, ParameterError
from .excitation import TimeSeries


@dataclass(frozen=True)
class DecayModel:
    """Baseline + c (t-t0)^p + sum_n V_n exp(-lambda_n (t-t0))."""

    baseline: float = 0.0
    power_amplitude: float = 0.0
    power_exponent: float = -0.5
    amplitudes: tuple = ()
    rates: tuple = ()
    t0_s: float = 0.0

    def __post_init__(self):
        if len(self.amplitudes) != len(self.rates):
            raise ParameterError("amplitudes and rates must pair up")
        if any(r <= 0 for r in self.rates):
            raise ParameterError("decay rates must be positive")
        if any(b <= a for a, b in zip(self.rates, self.rates[1:])):
            raise ParameterError("rates must be strictly increasing")

    def evaluate(self, times_s) -> np.ndarray:
        t = np.asarray(times_s, dtype=float) - self.t0_s
        out = np.full(t.shape, self.baseline, dtype=float)
        if self.power_amplitude != 0.0:
            out += self.power_amplitude * t**self.power_exponent
        for v, lam in zip(self.amplitudes, self.rates):
            out += v * np.exp(-lam * t)
        return out


@dataclass(frozen=True)
class FitResult:
    """Fit outcome; ``misfit`` is meaningful only when ``converged``.

    ``converged`` is False only when no start that L-BFGS-B reports
    converged reached the selected objective (within 1e-6 relative).
    """

    model: DecayModel
    misfit: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class PowerLawFit:
    amplitude: float
    exponent: float
    residual: float


@dataclass(frozen=True)
class Classification:
    """Ranked classification outcome (ascending misfit).

    ``rejected`` holds (name, error type name) for each candidate whose
    forward model raised a package error on the data gates.
    """

    ranking: tuple
    margin: float
    rejected: tuple = ()

    @property
    def best(self) -> str:
        return self.ranking[0][0]


def fit_power_law(
    data: TimeSeries, window: tuple, t0_s: float = 0.0
) -> PowerLawFit:
    """Fit log V = log c + p log(t - t0) over gates inside ``window``.

    Requires at least 8 strictly positive gates in the window; the RMS
    residual (log space) flags regime misdetection when the data is not
    power-law-like.
    """
    t = data.times_s
    sel = (t >= window[0]) & (t <= window[1])
    if np.count_nonzero(sel) < 8:
        raise ParameterError("need at least 8 gates inside the fit window")
    v = data.values[sel]
    if np.any(v <= 0):
        raise ParameterError("power-law fit needs positive values (log undefined)")
    x = np.log(t[sel] - t0_s)
    y = np.log(v)
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return PowerLawFit(
        amplitude=float(np.exp(coef[0])),
        exponent=float(coef[1]),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use so that only fitting loads scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _rates_from_params(u: np.ndarray) -> np.ndarray:
    lam = np.empty_like(u)
    lam[0] = np.exp(u[0])
    for i in range(1, len(u)):
        lam[i] = lam[i - 1] * (1.0 + np.exp(u[i]))
    return lam


def _params_from_rates(rates: np.ndarray) -> np.ndarray:
    u = np.empty_like(rates)
    u[0] = np.log(rates[0])
    for i in range(1, len(rates)):
        u[i] = np.log(rates[i] / rates[i - 1] - 1.0)
    return u


def _linear_solve(t, y, w, rates, power_exponent, with_power, with_baseline):
    cols = [np.exp(-lam * t) for lam in rates]
    if with_power:
        cols.append(t**power_exponent)
    if with_baseline:
        cols.append(np.ones_like(t))
    design = np.vstack(cols).T
    wd = design * w[:, None]
    wy = y * w
    coef, *_ = np.linalg.lstsq(wd, wy, rcond=None)
    resid = wy - wd @ coef
    return coef, float(resid @ resid), wd


def _objective(u, t, y, w, power_exponent, with_power, with_baseline) -> float:
    """Variable-projection SSE at log-gap parameters ``u``.

    1e30 outside the rate box (1e-12..1e12 /s) or where the SSE is not
    finite: near-coincident fast rates make the linear solve overflow to
    inf coefficients, and the optimizer must not be fed the NaN.  Far
    probes overflow by design, so callers evaluate it under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    rates = _rates_from_params(u)
    if rates[-1] > 1e12 or rates[0] < 1e-12:
        return 1e30
    _, sse, _ = _linear_solve(t, y, w, rates, power_exponent, with_power, with_baseline)
    return sse if math.isfinite(sse) else 1e30


def fit_exponentials(
    data: TimeSeries,
    k: int,
    init: DecayModel | None = None,
    seed: int = 0,
    restarts: int = 8,
    noise_rel: float = 0.01,
    max_terms: int = 5,
) -> FitResult:
    """Variable-projection fit of k exponentials (plus optional extras).

    Amplitudes (and, when ``init`` requests them, a power-law term and
    baseline) are solved linearly at fixed rates; rates are optimized by
    L-BFGS-B in a log-gap parameterization that keeps them positive and
    strictly increasing.  Multistart: ``restarts`` log-uniform rate ladders
    spanning the data's time window, plus a nested start built from the
    (k-1)-term fit, all derived deterministically from ``seed``.  The fit
    is converged when a start that L-BFGS-B reports converged reached the
    selected objective within 1e-6 relative, whichever start that was;
    non-convergence of every such start yields converged=False, never a
    silent best-so-far.
    """
    if not 1 <= k <= max_terms:
        raise ParameterError(f"term count must lie in 1..{max_terms}")
    t = data.times_s
    if k >= 2 and t[-1] / t[0] < 100.0:
        raise ParameterError("k >= 2 requires gates spanning >= 2 decades")
    y = data.values
    w = 1.0 / (noise_rel * np.maximum(np.abs(y), 1e-300))
    with_power = init is not None and init.power_amplitude != 0.0
    with_baseline = init is not None and init.baseline != 0.0
    p_exp = init.power_exponent if init is not None else -0.5
    rng = np.random.default_rng(seed)
    starts = []
    r_lo, r_hi = 0.5 / t[-1], 2.0 / t[0]
    for _ in range(restarts):
        base = np.sort(
            np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=k))
        )
        # enforce minimal spacing so the log-gap map stays finite
        for i in range(1, k):
            base[i] = max(base[i], base[i - 1] * 1.05)
        starts.append(_params_from_rates(base))
    if init is not None and len(init.rates) == k:
        starts.insert(0, _params_from_rates(np.asarray(init.rates, dtype=float)))
    if k > 1:
        sub = fit_exponentials(
            data, k - 1, init=init, seed=seed, restarts=max(2, restarts // 2),
            noise_rel=noise_rel, max_terms=max_terms,
        )
        if sub.model.rates:
            prev = np.asarray(sub.model.rates, dtype=float)
            for g in (3.0, 10.0):
                starts.append(_params_from_rates(np.append(prev, prev[-1] * g)))

    args = (t, y, w, p_exp, with_power, with_baseline)
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per objective call
        results = [minimize(_objective, u0, args=args, method="L-BFGS-B") for u0 in starts]
    best = min(results, key=lambda res: res.fun)
    rates = _rates_from_params(best.x)
    coef, sse, wd = _linear_solve(t, y, w, rates, p_exp, with_power, with_baseline)
    amps = coef[:k]
    power_amp = float(coef[k]) if with_power else 0.0
    baseline = float(coef[-1]) if with_baseline else 0.0
    model = DecayModel(
        baseline=baseline,
        power_amplitude=power_amp,
        power_exponent=p_exp,
        amplitudes=tuple(float(a) for a in amps),
        rates=tuple(float(r) for r in rates),
    )
    misfit = float(np.sqrt(sse / t.size))
    # full Gauss-Newton Jacobian (amplitudes and rates) exposes unidentifiable
    # parameters that the linear subproblem alone cannot see
    jac_cols = [wd[:, i] for i in range(wd.shape[1])]
    jac_cols += [-(a * t * np.exp(-lam * t)) * w for a, lam in zip(amps, rates)]
    jac = np.vstack(jac_cols).T
    cond = float(np.linalg.cond(jac))
    params = np.concatenate([coef, rates])
    try:
        cov = np.linalg.pinv(jac.T @ jac) * max(misfit, 1e-300) ** 2 * t.size
        rel_sigma = np.sqrt(np.abs(np.diag(cov))) / np.maximum(np.abs(params), 1e-300)
        max_rel_sigma = float(np.max(rel_sigma))
    except np.linalg.LinAlgError:  # pragma: no cover
        max_rel_sigma = float("inf")
    ratios = rates[1:] / rates[:-1] if k > 1 else np.array([])
    ill_conditioned = (
        cond > 1e8 or bool(np.any(ratios < 1.1)) or max_rel_sigma > 0.5
    )
    converged = any(
        res.success and abs(res.fun - best.fun) <= 1e-6 * abs(best.fun) for res in results
    )
    return FitResult(
        model=model,
        misfit=misfit,
        converged=converged,
        diagnostics={
            "condition_number": cond,
            "rate_ratios": ratios.tolist(),
            "max_relative_sigma": max_rel_sigma,
            "ill_conditioned": ill_conditioned,
            "restarts": len(starts),
            "sse": sse,
        },
        seed=seed,
    )


def classify_library(
    data: TimeSeries,
    candidates: list,
    forward,
    noise_rel: float = 0.02,
    free_gain: bool = False,
) -> Classification:
    """Rank candidate targets by weighted RMS misfit to the data.

    ``candidates`` is a list of (name, config) pairs; ``forward`` maps
    (config, times) to predicted values.  Per-gate weights are relative,
    1/(noise_rel |V_data|).  With ``free_gain`` an overall amplitude
    nuisance factor is profiled out analytically before computing the
    misfit, making the ranking insensitive to unknown system gain.
    """
    if not candidates:
        raise ParameterError("candidate library is empty")
    t, d = data.times_s, data.values
    w = 1.0 / (noise_rel * np.maximum(np.abs(d), 1e-300))
    results = []
    failures = []
    for name, config in candidates:
        try:
            m = np.asarray(forward(config, t), dtype=float)
        except (ParameterError, NumericalError) as exc:
            failures.append((name, type(exc).__name__, str(exc)))
            continue
        if free_gain:
            denom = float(np.sum(w * w * m * m))
            gain = float(np.sum(w * w * d * m)) / denom if denom > 0 else 0.0
            m = gain * m
        resid = (m - d) * w
        # scaled before squaring: far candidates overflow the squares otherwise
        peak = float(np.max(np.abs(resid)))
        misfit = 0.0 if peak == 0.0 else peak * float(np.sqrt(np.mean((resid / peak) ** 2)))
        results.append((name, misfit))
    if not results:
        raise ParameterError(f"no candidate valid for the data gates: {failures}")
    results.sort(key=lambda item: item[1])
    margin = (
        (results[1][1] - results[0][1]) / results[0][1]
        if len(results) > 1 and results[0][1] > 0
        else np.inf
    )
    return Classification(
        ranking=tuple(results), margin=float(margin), rejected=tuple(f[:2] for f in failures)
    )
