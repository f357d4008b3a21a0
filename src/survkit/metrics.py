"""Censoring-aware evaluation metrics.

Risk convention for every operation here: higher score means higher risk,
i.e. an earlier expected event. Model adapters are responsible for sign
normalization before calling in.

IPCW weighting evaluates the censoring survival G at the left limit of
event times (deaths-before-censorings convention), and at the evaluation
time itself for still-at-risk subjects.

Cost: harrell_c and ipcw_c count risk ranks over time-sorted prefixes in
O(n log^2 n); td_auc sorts the risks once and costs O(n log n) per
evaluation time; brier and ibs are O(n) per grid time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimators import StepFunction

__all__ = [
    "ConcordanceResult",
    "TimeGrid",
    "TdAucResult",
    "harrell_c",
    "ipcw_c",
    "brier",
    "ibs",
    "td_auc",
    "default_tau",
    "default_time_grid",
]

@dataclass(frozen=True)
class ConcordanceResult:
    """Concordance statistic with its pair bookkeeping.

    Counts are plain pair counts for harrell_c and weighted sums for
    ipcw_c. c_index = (concordant + 0.5 * tied_risk) / comparable.
    """

    c_index: float
    concordant: float
    discordant: float
    tied_risk: float
    comparable: float


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing evaluation times for IBS / time-dependent AUC."""

    times: np.ndarray
    resolution: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size == 0:
            raise DataError("time grid is empty")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise DataError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class TdAucResult:
    """Per-time IPCW AUC values plus the two summary conventions."""

    times: np.ndarray
    values: np.ndarray
    mean: float
    endpoint_mean: float


def _check_inputs(time, event, risk):
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    risk = np.asarray(risk, dtype=float)
    if not (time.shape == event.shape == risk.shape) or time.ndim != 1:
        raise DataError("time, event and risk must be matching 1-d arrays")
    if not np.all(np.isfinite(risk)):
        raise DataError("risks must be finite")
    return time, event, risk


def _prefix_rank_counts(rank, prefix_len, query_rank):
    """Count, for each query q, the entries of ``rank[:prefix_len[q]]``
    below and equal to ``query_rank[q]``.

    The prefix [0, L) splits into one aligned block of size 2^b per set bit
    b of L. Per level b, one sort of (block, rank) keys places every block's
    ranks in order at its own offset, so a searchsorted per query counts
    inside its block. Ranks are dense integers; O(n log^2 n) overall.
    """
    n = rank.size
    n_ranks = int(rank.max()) + 2
    position = np.arange(n)
    less = np.zeros(prefix_len.size, dtype=np.int64)
    equal = np.zeros(prefix_len.size, dtype=np.int64)
    for b in range(n.bit_length()):
        hit = ((prefix_len >> b) & 1).astype(bool)
        if not hit.any():
            continue
        keys = np.sort((position >> b) * n_ranks + rank)
        block = (prefix_len[hit] >> b) - 1
        target = block * n_ranks + query_rank[hit]
        lo = np.searchsorted(keys, target, side="left")
        less[hit] += lo - (block << b)
        equal[hit] += np.searchsorted(keys, target, side="right") - lo
    return less, equal


def _later_risk_counts(time, event, risk, query, censored_ties: bool):
    """Comparable-set sizes and lower/equal risk counts for query subjects.

    Subject j is comparable to query subject i when T_j > T_i, or, with
    ``censored_ties``, when T_j == T_i and j is censored. Sorting by time
    descending with censorings before events at a tied time makes each
    comparable set a prefix of that order. Results follow the original
    order of the subjects selected by ``query``.
    """
    order = np.lexsort((event, -time))
    t_sorted = time[order]
    changes = np.empty(time.size, dtype=bool)
    changes[0] = True
    changes[1:] = t_sorted[1:] != t_sorted[:-1]
    if censored_ties:
        e_sorted = event[order]
        changes[1:] |= e_sorted[1:] != e_sorted[:-1]
    group_start = np.maximum.accumulate(
        np.where(changes, np.arange(time.size), 0))
    position = np.empty(time.size, dtype=np.int64)
    position[order] = np.arange(time.size)
    rank = np.unique(risk, return_inverse=True)[1][order]
    queried = position[np.flatnonzero(query)]
    prefix_len = group_start[queried]
    less, equal = _prefix_rank_counts(rank, prefix_len, rank[queried])
    return prefix_len, less, equal


def harrell_c(time, event, risk) -> ConcordanceResult:
    """Harrell's concordance index.

    A pair is comparable when the shorter time belongs to an event subject
    and the times differ, or when the times tie with exactly one event (the
    event subject must then be ranked riskier). Risk ties count 0.5.
    """
    time, event, risk = _check_inputs(time, event, risk)
    query = event == 1
    comparable = concordant = tied = 0.0
    if query.any():
        counts = _later_risk_counts(time, event, risk, query,
                                    censored_ties=True)
        comparable, concordant, tied = (float(c.sum()) for c in counts)
    if comparable == 0:
        raise DataError("no comparable pairs")
    c = (concordant + 0.5 * tied) / comparable
    return ConcordanceResult(c_index=float(c), concordant=concordant,
                             discordant=float(comparable - concordant - tied),
                             tied_risk=tied, comparable=comparable)


def ipcw_c(time, event, risk, censor_dist: StepFunction,
           tau: float | None = None) -> ConcordanceResult:
    """Uno's IPCW concordance estimator.

    Event subjects i with T_i < T_j and T_i < tau contribute weight
    1 / G(T_i-)^2; risk ties count half weight. G must be positive at tau.
    """
    time, event, risk = _check_inputs(time, event, risk)
    if tau is None:
        tau = default_tau(time, event, censor_dist)
    g_tau = censor_dist(tau)
    if g_tau <= 0:
        raise DataError(f"censoring survival is zero at tau={tau}")
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    with np.errstate(divide="ignore"):
        w = np.where((event == 1) & (time < tau), 1.0 / g_left ** 2, 0.0)
    if not np.all(np.isfinite(w)):
        raise DataError("zero censoring survival at a contributing event")
    query = w > 0
    comparable = concordant = tied = 0.0
    if query.any():
        counts = _later_risk_counts(time, event, risk, query,
                                    censored_ties=False)
        comparable, concordant, tied = (float(np.sum(w[query] * c))
                                        for c in counts)
    if comparable == 0:
        raise DataError("no weighted comparable mass")
    c = (concordant + 0.5 * tied) / comparable
    return ConcordanceResult(c_index=float(c), concordant=concordant,
                             discordant=float(comparable - concordant - tied),
                             tied_risk=tied, comparable=comparable)


def brier(t: float, predicted_survival, time, event,
          censor_dist: StepFunction) -> float:
    """Graf's censoring-weighted Brier score at a single time point.

    Subjects dead by t contribute (0 - S_hat)^2 / G(T_i-), subjects still
    at risk contribute (1 - S_hat)^2 / G(t); subjects censored by t
    contribute nothing. The mean is over all n subjects.
    """
    time = np.asarray(time, dtype=float)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    return _brier(t, predicted_survival, time, np.asarray(event, dtype=int),
                  censor_dist, g_left)


def _brier(t, predicted_survival, time, event, censor_dist, g_left):
    """``brier`` with G(T_i-) of every subject given as ``g_left``."""
    s_hat = np.asarray(predicted_survival, dtype=float)
    if s_hat.shape != time.shape:
        raise DataError("predictions must match the evaluation set")
    if np.any((s_hat < 0) | (s_hat > 1)):
        raise DataError("survival predictions must lie in [0, 1]")
    g_t = censor_dist(t)
    if g_t <= 0:
        raise DataError(f"censoring survival is zero at t={t}")
    dead = (time <= t) & (event == 1)
    alive = time > t
    total = 0.0
    if dead.any():
        g_dead = g_left[dead]
        if np.any(g_dead <= 0):
            raise DataError("zero censoring survival at an event time")
        total += np.sum(s_hat[dead] ** 2 / g_dead)
    total += np.sum((1.0 - s_hat[alive]) ** 2 / g_t)
    return float(total / time.size)


def _curves_on_grid(curves, grid_times, n) -> np.ndarray:
    if isinstance(curves, np.ndarray):
        mat = np.asarray(curves, dtype=float)
        if mat.shape != (n, grid_times.size):
            raise DataError("curve matrix shape must be (n, len(grid))")
        return mat
    mat = np.empty((n, grid_times.size))
    if len(curves) != n:
        raise DataError("need one curve per evaluation subject")
    for i, fn in enumerate(curves):
        mat[i] = fn(grid_times)
    return mat


def ibs(grid: TimeGrid, curves, time, event,
        censor_dist: StepFunction) -> float:
    """Integrated Brier score: trapezoidal integral of brier(t) over the
    grid, normalized by the grid span. G(T_i-) is evaluated once per call
    and shared by every grid time."""
    if grid.times.size < 2:
        raise DataError("IBS needs a grid with at least 2 points")
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    mat = _curves_on_grid(curves, grid.times, time.size)
    # G(T_i-) once for every subject, not once per grid time
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    scores = np.array([_brier(t, mat[:, k], time, event, censor_dist, g_left)
                       for k, t in enumerate(grid.times)])
    span = grid.times[-1] - grid.times[0]
    return float(np.trapezoid(scores, grid.times) / span)


def td_auc(time, event, risk, eval_times: TimeGrid,
           censor_dist: StepFunction) -> TdAucResult:
    """Cumulative/dynamic time-dependent AUC with IPCW case weights.

    AUC(t) compares cases (T_i <= t, event) against controls (T_j > t),
    weighting cases by 1/G(T_i-). Times with no cases or no controls are
    dropped with a warning. The mean is the simple average over retained
    times; endpoint_mean averages the first and last retained values.
    """
    time, event, risk = _check_inputs(time, event, risk)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    by_risk = np.argsort(risk, kind="stable")
    risk_sorted, time_by_risk = risk[by_risk], time[by_risk]
    kept_times, values = [], []
    for t in np.asarray(eval_times.times, dtype=float):
        cases = (time <= t) & (event == 1)
        controls = time > t
        if not cases.any() or not controls.any():
            warnings.warn(f"dropping evaluation time {t}: no cases or no "
                          "controls", stacklevel=2)
            continue
        if np.any(g_left[cases] <= 0):
            raise DataError("zero censoring survival at a case time")
        w = 1.0 / g_left[cases]
        rc = risk[cases]
        rk = risk_sorted[time_by_risk > t]
        wins = np.searchsorted(rk, rc, side="left")
        ties = np.searchsorted(rk, rc, side="right") - wins
        numer = np.sum(w * (wins + 0.5 * ties))
        denom = w.sum() * controls.sum()
        kept_times.append(t)
        values.append(float(numer / denom))
    if not kept_times:
        raise DataError("every evaluation time was dropped")
    values_arr = np.asarray(values)
    return TdAucResult(times=np.asarray(kept_times), values=values_arr,
                       mean=float(values_arr.mean()),
                       endpoint_mean=float(0.5 * (values_arr[0] + values_arr[-1])))


def default_tau(time, event, censor_dist: StepFunction) -> float:
    """Largest evaluation-set event time with positive censoring survival."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    event_times = np.unique(time[event == 1])
    ok = np.asarray(censor_dist(event_times), dtype=float) > 0
    if not ok.any():
        raise DataError("no event time has positive censoring survival")
    return float(event_times[ok].max())


def default_time_grid(time, event, censor_dist: StepFunction,
                      resolution: int = 100) -> TimeGrid:
    """100 equally spaced times between the 5th and 95th percentile of the
    observed times, clipped into (min observed, max event] and to positive
    censoring survival."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    if event.sum() == 0:
        raise DataError("grid needs at least one event time")
    lo = max(float(np.percentile(time, 5)),
             float(np.nextafter(time.min(), np.inf)))
    hi = min(float(np.percentile(time, 95)),
             default_tau(time, event, censor_dist))
    if not lo < hi:
        raise DataError("degenerate time grid")
    return TimeGrid(times=np.linspace(lo, hi, resolution), resolution=resolution)
