"""Censoring-aware evaluation metrics.

Risk convention for every operation here: higher score means higher risk,
i.e. an earlier expected event. Model adapters are responsible for sign
normalization before calling in.

IPCW weighting evaluates the censoring survival G at the left limit of
event times (deaths-before-censorings convention), and at the evaluation
time itself for still-at-risk subjects.

Cost: harrell_c and ipcw_c count risk ranks over time-sorted prefixes in
O(n log^2 n), and compare every pair directly below a few hundred
subjects. td_auc and ibs place every subject on the grid once per call
(one searchsorted) and evaluate G once per call; td_auc also ranks the
risks once and counts controls per (grid time, rank) in a table built in
blocks, so it costs O(n log n + |grid| * (cases + distinct risks)); ibs
costs O(n * |grid|). Each grid time still sums its own subjects in
subject order, so the values are those of one call per grid time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .estimators import StepFunction, censoring_survival

__all__ = [
    "ConcordanceResult",
    "TimeGrid",
    "TdAucResult",
    "harrell_c",
    "ipcw_c",
    "concordance_scorer",
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
        if not np.all(np.isfinite(times)):
            raise DataError("grid times must be finite")
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
    if np.any(np.isnan(time)):
        raise DataError("times must not be NaN")
    if not np.all(np.isfinite(risk)):
        raise DataError("risks must be finite")
    return time, event, risk


# Subjects below which _later_risk_counts compares every query with every
# subject instead of counting ranks over sorted prefixes. harrell_c with 70%
# events took as long either way between 300 and 400 rows (2-CPU x86 host).
_DIRECT_COUNT_ROWS = 320


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
    order of the subjects selected by ``query``. Below
    ``_DIRECT_COUNT_ROWS`` subjects every count comes from comparing each
    query with every subject, which is cheaper there and gives the same
    integers.
    """
    if time.size < _DIRECT_COUNT_ROWS:
        queried = np.flatnonzero(query)
        t_q = time[queried, None]
        later = time > t_q
        if censored_ties:
            later |= (time == t_q) & (event < event[queried, None])
        r_q = risk[queried, None]
        return (np.count_nonzero(later, axis=1),
                np.count_nonzero(later & (risk < r_q), axis=1),
                np.count_nonzero(later & (risk == r_q), axis=1))
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


def concordance_scorer(metric: str, time, event):
    """``harrell_c`` or ``ipcw_c`` (under these targets' censoring survival,
    built once) of fixed targets, as a function of risks."""
    if metric == "harrell_c":
        return lambda risk: harrell_c(time, event, risk).c_index
    if metric == "ipcw_c":
        g = censoring_survival(time, event)
        return lambda risk: ipcw_c(time, event, risk, g).c_index
    raise ConfigError(f"unknown concordance metric {metric!r}")


def brier(t: float, predicted_survival, time, event,
          censor_dist: StepFunction) -> float:
    """Graf's censoring-weighted Brier score at a single time point.

    Subjects dead by t contribute (0 - S_hat)^2 / G(T_i-), subjects still
    at risk contribute (1 - S_hat)^2 / G(t); subjects censored by t
    contribute nothing. The mean is over all n subjects.
    """
    time = np.asarray(time, dtype=float)
    s_hat = np.asarray(predicted_survival, dtype=float)
    if s_hat.shape != time.shape:
        raise DataError("predictions must match the evaluation set")
    if not np.isfinite(t):
        raise DataError("the evaluation time must be finite")
    return float(_brier_scores(np.array([float(t)]), s_hat.reshape(-1, 1),
                               time.ravel(),
                               np.asarray(event, dtype=int).ravel(),
                               censor_dist)[0])


def _grid_positions(grid_times, time) -> np.ndarray:
    """Each subject's ``kc``: the number of grid times before its time.

    For a finite, strictly increasing grid, subject i has T_i <= t_k
    exactly when k >= kc[i], and T_i > t_k exactly when k < kc[i].
    """
    if np.any(np.isnan(time)):
        raise DataError("times must not be NaN")
    return np.searchsorted(grid_times, time, side="left")


def _brier_scores(grid_times, mat, time, event, censor_dist) -> np.ndarray:
    """brier at every grid time, column k of ``mat`` holding S_hat(t_k).

    G is evaluated once per call at every grid time and every T_i-. A
    failed check raises what the first failing grid time raises, in the
    order brier checks: predictions in [0, 1], G(t) > 0, then G(T_i-) > 0
    over the subjects dead by t.
    """
    if mat.shape != time.shape + grid_times.shape:
        raise DataError("predictions must match the evaluation set")
    kc = _grid_positions(grid_times, time)
    dead_from = kc.copy()  # the first grid index at which i counts as dead
    dead_from[event != 1] = grid_times.size
    g_t = np.asarray(censor_dist(grid_times), dtype=float)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    zero_g_from = dead_from[g_left <= 0].min(initial=grid_times.size)
    in_range = ((mat.min(axis=0, initial=0.0) >= 0)
                & (mat.max(axis=0, initial=1.0) <= 1))  # NaN fails both
    failing = (~in_range | (g_t <= 0)
               | (np.arange(grid_times.size) >= zero_g_from))
    if failing.any():
        k = int(np.argmax(failing))
        if not in_range[k]:
            raise DataError("survival predictions must lie in [0, 1]")
        if g_t[k] <= 0:
            raise DataError(f"censoring survival is zero at t={grid_times[k]}")
        raise DataError("zero censoring survival at an event time")
    scores = np.empty(grid_times.size)
    for k in range(grid_times.size):
        s_hat = mat[:, k]
        dead = dead_from <= k
        total = 0.0
        if dead.any():
            total += np.sum(s_hat.compress(dead) ** 2 / g_left.compress(dead))
        total += np.sum((1.0 - s_hat.compress(kc > k)) ** 2 / g_t[k])
        scores[k] = total / time.size
    return scores


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
    grid, normalized by the grid span."""
    if grid.times.size < 2:
        raise DataError("IBS needs a grid with at least 2 points")
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    mat = _curves_on_grid(curves, grid.times, time.size)
    scores = _brier_scores(grid.times, mat, time, event, censor_dist)
    span = grid.times[-1] - grid.times[0]
    return float(np.trapezoid(scores, grid.times) / span)


# Elements in one block of td_auc's (grid time, risk rank) control counts
_TABLE_BLOCK = 1 << 16


def td_auc(time, event, risk, eval_times: TimeGrid,
           censor_dist: StepFunction) -> TdAucResult:
    """Cumulative/dynamic time-dependent AUC with IPCW case weights.

    AUC(t) compares cases (T_i <= t, event) against controls (T_j > t),
    weighting cases by 1/G(T_i-). Times with no cases or no controls are
    dropped with a warning. The mean is the simple average over retained
    times; endpoint_mean averages the first and last retained values.

    With kc the subjects' grid positions (``_grid_positions``) and risks
    as dense ranks, a table counts the controls of each grid time per
    rank; a case's wins are its row's exclusive cumsum over ranks at its
    own rank, and its ties the row's entry there. The table is built
    backwards from the last grid time, in blocks of grid times of about
    ``_TABLE_BLOCK`` elements.
    """
    time, event, risk = _check_inputs(time, event, risk)
    grid_times = np.asarray(eval_times.times, dtype=float)
    n_times = grid_times.size
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    kc = _grid_positions(grid_times, time)
    cases = np.flatnonzero(event == 1)
    case_kc = kc[cases]
    n_cases = np.cumsum(np.bincount(case_kc, minlength=n_times + 1))[:n_times]
    n_controls = time.size - np.cumsum(
        np.bincount(kc, minlength=n_times + 1))[:n_times]
    kept = (n_cases > 0) & (n_controls > 0)
    zero_g_from = case_kc[g_left[cases] <= 0].min(initial=n_times)
    failing = kept & (np.arange(n_times) >= zero_g_from)
    stop = int(np.argmax(failing)) if failing.any() else n_times
    for t in grid_times[:stop][~kept[:stop]]:
        warnings.warn(f"dropping evaluation time {t}: no cases or no "
                      "controls", stacklevel=2)
    if stop < n_times:
        raise DataError("zero censoring survival at a case time")
    if not kept.any():
        raise DataError("every evaluation time was dropped")

    rank = np.unique(risk, return_inverse=True)[1]
    n_ranks = int(rank.max()) + 1
    cases = cases[case_kc <= np.flatnonzero(kept)[-1]]  # each has G(T-) > 0
    case_kc, case_rank = kc[cases], rank[cases]
    case_w = 1.0 / g_left[cases]
    by_kc = np.argsort(kc, kind="stable")
    kc_sorted, rank_by_kc = kc[by_kc], rank[by_kc]
    starts = np.searchsorted(kc_sorted, np.arange(n_times + 2))
    values = np.empty(n_times)
    step = max(1, _TABLE_BLOCK // n_ranks)
    carry = np.zeros(n_ranks, dtype=np.int64)  # controls with kc > hi
    for hi in range(n_times, 0, -step):
        lo = max(0, hi - step)
        # controls of grid index k in [lo, hi): carry plus kc in (k, hi]
        part = slice(starts[lo + 1], starts[hi + 1])
        equal = np.bincount(
            (kc_sorted[part] - lo - 1) * n_ranks + rank_by_kc[part],
            minlength=(hi - lo) * n_ranks).reshape(hi - lo, n_ranks)
        np.cumsum(equal[::-1], axis=0, out=equal[::-1])
        equal += carry
        carry = equal[0].copy()
        below = equal.cumsum(axis=1)
        below -= equal
        for j in np.flatnonzero(kept[lo:hi]):
            # every case's term, then the sums over this time's cases
            terms = case_w * (below[j][case_rank] + 0.5 * equal[j][case_rank])
            sel = case_kc <= lo + j
            values[lo + j] = (np.sum(terms.compress(sel))
                              / (case_w.compress(sel).sum()
                                 * n_controls[lo + j]))
        del equal, below  # before the next block's table is allocated
    values_arr = values[kept]
    return TdAucResult(times=grid_times[kept], values=values_arr,
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
