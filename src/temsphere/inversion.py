"""Decay-curve fitting and model-search classification.

Measured TDEM decays are fitted to a baseline + power-law + sum-of-
exponentials model.  Rate estimation from noisy data is notoriously
unstable, so the exponential fit uses separable (variable-projection)
least squares: at fixed rates the amplitudes are solved exactly by
weighted linear least squares, and only the rates are optimized, by a
numpy Levenberg-Marquardt on the projected residual with the Kaufman
Jacobian (Golub & Pereyra 2003, Inverse Problems 19:R1), from a
deterministic multistart protocol, with strict ordering enforced through a
log-gap parameterization.  Classification avoids rate estimation entirely:
candidate targets are forward-modeled and ranked by weighted RMS misfit.
"""

from __future__ import annotations

import math
from collections import namedtuple
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

    ``converged`` is False only when no start that Levenberg-Marquardt
    reports converged reached the selected objective (within 1e-6 relative).
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


def _rates_from_params(u: np.ndarray) -> np.ndarray:
    """lambda_0 = exp(u_0), lambda_i = lambda_(i-1) (1 + exp(u_i))."""
    return np.cumprod(np.concatenate((np.exp(u[:1]), 1.0 + np.exp(u[1:]))))


def _params_from_rates(rates: np.ndarray) -> np.ndarray:
    return np.concatenate((np.log(rates[:1]), np.log(rates[1:] / rates[:-1] - 1.0)))


# evaluations of one Levenberg-Marquardt start; a start that uses them all
# is reported unconverged
LM_MAX_EVALS = 100
_Projection = namedtuple("_Projection", "sse coef design jac resid")


def _project(u, t, w, wy, extra, below=math.inf):
    """Variable-projection residual at log-gap parameters ``u``, or None.

    ``t``, ``w`` are gate and weight columns, ``extra`` the weighted power-law
    and baseline columns.  ``jac`` is the Kaufman Jacobian -P_perp (d design/du)
    coef; ``2 jac^T resid`` is the exact SSE gradient, since the term it drops
    lies in the design's range, orthogonal to ``resid``.  None outside the rate
    box (1e-12..1e12 /s), for a gap parameter below -20 (two rates merging), or
    where the SSE is not below ``below`` or the solve is not finite.  Far probes
    overflow: callers use ``np.errstate(over="ignore", invalid="ignore")``.
    """
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
    # d column_i / d u_j = -t column_i lambda_i sigma_j for i >= j, with
    # sigma_0 = 1 and sigma_j the logistic of u_j
    dcol = (t * design[:, :k]) * (coef[:k] * -rates)
    sigma = np.concatenate(([1.0], 1.0 / (1.0 + np.exp(-u[1:]))))
    d = np.cumsum(dcol[:, ::-1], axis=1)[:, ::-1] * sigma
    jac = q @ (q.T @ d) - d
    if not (np.isfinite(coef).all() and np.isfinite(jac).all()):
        return None
    return _Projection(sse, coef, design, jac, resid)


def _levenberg_marquardt(u, args):
    """Minimize the projected SSE from ``u``: (u, evaluation, converged).

    Nielsen's damping update; a step is rejected when ``_project`` rejects its
    end point, which it does when the SSE does not fall.  Converged when a step
    is below 1e-8 in every parameter within LM_MAX_EVALS evaluations.  The
    evaluation is None when ``u`` itself is rejected.
    """
    ev = _project(u, *args)
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
            return u, ev, True
        trial = None if step is None else _project(u + step, *args, ev.sse)
        if trial is not None:
            # gain ratio: actual over the linear model's predicted SSE fall
            gain = (ev.sse - trial.sse) / float(step @ (mu * step - grad))
            u, ev = u + step, trial
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return u, ev, False


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
    Levenberg-Marquardt on the projected residual (``_levenberg_marquardt``)
    in a log-gap parameterization that keeps them positive and strictly
    increasing.  Multistart: ``restarts`` log-uniform rate ladders
    spanning the data's time window, plus a nested start built from the
    (k-1)-term fit, all derived deterministically from ``seed``.  The fit
    is converged when a start that LM reports converged reached the
    selected objective within 1e-6 relative, whichever start that was;
    non-convergence of every such start yields converged=False, never a
    silent best-so-far.  NumericalError when no start has a finite SSE.
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
        base = np.sort(np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=k)))
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

    extra = ([t**p_exp] if with_power else []) + ([np.ones_like(t)] if with_baseline else [])
    args = (t[:, None], w[:, None], y * w,
            np.array(extra).reshape(len(extra), t.size).T * w[:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per evaluation
        results = [_levenberg_marquardt(u0, args) for u0 in starts]
    finite = [res for res in results if res[1] is not None]
    if not finite:
        raise NumericalError("no start of the fit has a finite objective")
    u_best, best, _ = min(finite, key=lambda res: res[1].sse)
    sse, coef, wd = best.sse, best.coef, best.design
    rates = _rates_from_params(u_best)
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
    ill_conditioned = cond > 1e8 or bool(np.any(ratios < 1.1)) or max_rel_sigma > 0.5
    converged = any(ok and abs(ev.sse - sse) <= 1e-6 * sse for _, ev, ok in finite)
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
