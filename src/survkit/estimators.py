"""Nonparametric and semiparametric survival building blocks.

Kaplan-Meier, Nelson-Aalen, the censoring-distribution estimator used for
IPCW weighting, the Breslow cumulative baseline hazard, and a
single-covariate Cox calibration used to attach survival curves to pure
risk scorers.

All estimators return right-continuous step functions. The tie convention
throughout is deaths-before-censorings: at a tied time, deaths are
processed first, so they reduce the risk set seen by the censoring
estimator at that time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write
from .errors import ConvergenceError, DataError

__all__ = [
    "StepFunction",
    "kaplan_meier",
    "nelson_aalen",
    "censoring_survival",
    "breslow_baseline",
    "breslow_survival",
    "cox_calibrate",
    "CoxCalibration",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function over time.

    ``f(t)`` equals ``values[i]`` for the largest ``times[i] <= t``,
    ``value_before_first`` for ``t < times[0]``, and ``values[-1]`` beyond
    the last step (no extrapolation model).
    """

    times: np.ndarray
    values: np.ndarray
    value_before_first: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise DataError("step function needs matching 1-d times and values")
        if times.size and np.any(np.diff(times) <= 0):
            raise DataError("step times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise DataError("step function entries must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_before_first", float(self.value_before_first))

    def _eval(self, t, side: str):
        t_arr = np.asarray(t, dtype=float)
        if self.values.size == 0:
            out = np.full(t_arr.shape, self.value_before_first, dtype=float)
        else:
            idx = np.searchsorted(self.times, t_arr, side=side) - 1
            out = np.where(idx >= 0, self.values[np.clip(idx, 0, None)],
                           self.value_before_first)
        return float(out) if t_arr.ndim == 0 else out

    def __call__(self, t) -> np.ndarray | float:
        return self._eval(t, "right")

    def left_limit(self, t) -> np.ndarray | float:
        """Value just before ``t``: the value of the largest step time < t."""
        return self._eval(t, "left")

    def to_csv(self, path) -> None:
        """Export as two-column CSV (time, value)."""
        with atomic_write(path) as fh:
            fh.write("time,value\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")


@dataclass(frozen=True)
class CoxCalibration:
    """Fitted single-coefficient Cox model: eta = beta * score."""

    beta: float
    baseline: StepFunction = field(repr=False)

    def survival(self, score) -> list[StepFunction]:
        """Subject survival curves S(t|score) = exp(-H0(t) * exp(beta*score))."""
        scores = np.atleast_1d(np.asarray(score, dtype=float))
        times = self.baseline.times
        return [StepFunction(times, row, 1.0) for row in
                breslow_survival(self.baseline, self.beta * scores, times)]


def _check_targets(time, event):
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    if time.ndim != 1 or event.shape != time.shape:
        raise DataError("time and event must be matching 1-d arrays")
    if time.size == 0:
        raise DataError("empty target set")
    if np.any(time < 0) or not np.all(np.isfinite(time)):
        raise DataError("times must be finite and nonnegative")
    event = event.astype(int)
    if not np.all((event == 0) | (event == 1)):
        raise DataError("event indicator must be 0 or 1")
    return time, event


def _life_table(time, event):
    """Risk-set bookkeeping: distinct times with deaths, censorings, at-risk."""
    order, uniq, start = _time_blocks(time)
    deaths = np.add.reduceat(event[order].astype(float), start)
    leaving = np.add.reduceat(np.ones_like(time), start)
    at_risk = time.size - np.concatenate(([0.0], np.cumsum(leaving)[:-1]))
    censored = leaving - deaths
    return uniq, deaths, censored, at_risk


def kaplan_meier(time, event) -> StepFunction:
    """Product-limit survival estimate.

    S(t) = prod_{t_i <= t} (1 - d_i / n_i) over distinct event times, with
    d_i deaths and n_i at risk. Censored-only times affect only the at-risk
    bookkeeping; they add no step.
    """
    time, event = _check_targets(time, event)
    uniq, deaths, _, at_risk = _life_table(time, event)
    has_event = deaths > 0
    factors = 1.0 - deaths[has_event] / at_risk[has_event]
    return StepFunction(uniq[has_event], np.cumprod(factors), 1.0)


def nelson_aalen(time, event) -> StepFunction:
    """Cumulative-hazard estimate H(t) = sum_{t_i <= t} d_i / n_i."""
    time, event = _check_targets(time, event)
    uniq, deaths, _, at_risk = _life_table(time, event)
    has_event = deaths > 0
    increments = deaths[has_event] / at_risk[has_event]
    return StepFunction(uniq[has_event], np.cumsum(increments), 0.0)


def censoring_survival(time, event) -> StepFunction:
    """Kaplan-Meier estimate G(t) of the censoring distribution.

    Censorings play the role of events. At tied times deaths are processed
    first, so the factor at a time with c_i censorings, d_i deaths and n_i
    at risk is (1 - c_i / (n_i - d_i)).
    """
    time, event = _check_targets(time, event)
    uniq, deaths, censored, at_risk = _life_table(time, event)
    has_cens = censored > 0
    factors = 1.0 - censored[has_cens] / (at_risk[has_cens] - deaths[has_cens])
    return StepFunction(uniq[has_cens], np.cumprod(factors), 1.0)


def breslow_baseline(time, event, eta) -> StepFunction:
    """Breslow cumulative baseline hazard for a fitted linear predictor.

    H0(t) = sum over event times t_i <= t of d_i / sum_{j in R(t_i)} exp(eta_j).
    Subject curves follow as S(t|x) = exp(-H0(t) * exp(eta(x))).
    """
    time, event = _check_targets(time, event)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != time.shape:
        raise DataError("eta length must match targets")
    if not np.all(np.isfinite(eta)):
        raise DataError("eta must be finite")

    order, uniq, start = _time_blocks(time)
    return _breslow_sorted(event[order], uniq, start, eta[order])


def _time_blocks(time):
    """Stable time order, the distinct times and where each one's block of
    tied subjects starts in that order."""
    order = np.argsort(time, kind="stable")
    uniq, start = np.unique(time[order], return_index=True)
    return order, uniq, start


def _breslow_sorted(e, uniq, start, eta) -> StepFunction:
    """``breslow_baseline`` with events and eta in stable time order."""
    eta_max = eta.max()
    shift = eta - eta_max
    # suffix sums of exp(eta - max) give the risk-set denominators
    rev_cumsum = np.cumsum(np.exp(shift)[::-1])[::-1]
    deaths = np.add.reduceat(e.astype(float), start)
    s0_scaled = rev_cumsum[start]
    has_event = deaths > 0
    increments = deaths[has_event] / s0_scaled[has_event] * np.exp(-eta_max)
    return StepFunction(uniq[has_event], np.cumsum(increments), 0.0)


def breslow_survival(baseline: StepFunction, eta, times) -> np.ndarray:
    """Survival matrix S(t|x) = exp(-H0(t) * exp(eta(x))).

    One C-contiguous row per linear predictor and one column per time; H0
    is looked up right-continuously and S is 1 before the first step.
    """
    idx = np.searchsorted(baseline.times, np.asarray(times, dtype=float),
                          side="right") - 1
    h0 = baseline.values[np.clip(idx, 0, None)]
    surv = np.multiply(-h0[None, :],
                       np.exp(np.asarray(eta, dtype=float))[:, None])
    np.exp(surv, out=surv)
    surv[:, idx < 0] = 1.0
    return surv


def _cox_profile(s, ev, rs, beta):
    """Log partial likelihood, score and information for eta = beta*score.

    ``s`` holds the scores in stable time order, ``ev`` marks its events
    and ``rs`` gives each event's risk-set start in that order.
    """
    eta = beta * s
    eta_max = eta.max()
    shift = eta - eta_max
    w = np.exp(shift)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w * s)[::-1])[::-1]
    s2 = np.cumsum((w * s * s)[::-1])[::-1]
    # a risk set whose weights all underflow gives s0 = 0 and a non-finite
    # loglik, which the Newton step halving in cox_calibrate handles
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = float(np.sum(eta[ev] - (np.log(s0[rs]) + eta_max)))
        mean1 = s1[rs] / s0[rs]
        score = float(np.sum(s[ev] - mean1))
        info = float(np.sum(s2[rs] / s0[rs] - mean1 ** 2))
    return loglik, score, info


_COX_TOL = 1e-8
_COX_MAX_ITER = 100


def cox_calibrate(scores, time, event) -> CoxCalibration:
    """Fit eta = beta * score by Newton iteration on the Cox partial likelihood.

    Step halving guards each Newton update; convergence is |delta beta| <= 1e-8.
    Constant scores have an identically zero gradient and return beta = 0.
    Divergence raises ConvergenceError rather than clamping.
    """
    time, event = _check_targets(time, event)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != time.shape:
        raise DataError("scores length must match targets")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if int(event.sum()) < 2:
        raise DataError("cox_calibrate needs at least 2 events")

    # one sort for every profile evaluation and the baseline
    order, uniq, start = _time_blocks(time)
    s, e = scores[order], event[order]
    ev = e == 1
    # Breslow ties: every event at a tied time shares the full risk set
    rs = start[np.searchsorted(uniq, time[order])][ev]
    if np.ptp(scores) == 0.0:
        beta = 0.0
    else:
        beta = 0.0
        loglik, score, info = _cox_profile(s, ev, rs, beta)
        converged = score == 0.0
        for _ in range(_COX_MAX_ITER):
            if converged:
                break
            if info <= 0:
                raise ConvergenceError("Cox information is not positive")
            step = score / info
            new_beta = beta + step
            new_ll, new_score, new_info = _cox_profile(s, ev, rs, new_beta)
            halvings = 0
            while (not np.isfinite(new_ll) or new_ll < loglik) and halvings < 30:
                step *= 0.5
                new_beta = beta + step
                new_ll, new_score, new_info = _cox_profile(s, ev, rs, new_beta)
                halvings += 1
            if not np.isfinite(new_ll):
                raise ConvergenceError("Cox partial likelihood became non-finite")
            if abs(new_beta) * np.ptp(scores) > 500.0:
                # eta range beyond exp() headroom: monotone likelihood
                raise ConvergenceError("Cox calibration diverged")
            converged = abs(new_beta - beta) <= _COX_TOL
            beta, loglik, score, info = new_beta, new_ll, new_score, new_info
        else:
            raise ConvergenceError(
                f"Cox calibration did not converge in {_COX_MAX_ITER} iterations")

    baseline = _breslow_sorted(e, uniq, start, beta * s)
    return CoxCalibration(beta=float(beta), baseline=baseline)
