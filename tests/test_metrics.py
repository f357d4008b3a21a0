import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (harrell_oracle, ibs_per_time_oracle, ipcw_oracle,
                      random_survival_instance, td_auc_oracle,
                      td_auc_per_time_oracle)
from survkit.data import synth_cohort
from survkit.errors import ConfigError, DataError
from survkit.estimators import StepFunction, censoring_survival, kaplan_meier
from survkit.metrics import (TimeGrid, brier, concordance_scorer, default_tau,
                             default_time_grid, harrell_c, ibs, ipcw_c, td_auc)


class TestHarrellC:
    def test_perfect_ranking(self):
        assert harrell_c([1, 2, 3], [1, 1, 1], [3, 2, 1]).c_index == 1.0

    def test_reversed_ranking(self):
        assert harrell_c([1, 2, 3], [1, 1, 1], [1, 2, 3]).c_index == 0.0

    def test_pair_enumeration_fixture(self):
        r = harrell_c([1, 2, 3, 4], [1, 1, 0, 1], [4, 4, 2, 1])
        assert (r.comparable, r.concordant, r.tied_risk) == (5, 4, 1)
        assert r.c_index == pytest.approx(0.9)

    def test_matches_pairwise_oracle(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            time, event, risk = random_survival_instance(rng, max_n=120)
            if event.sum() == 0:
                continue
            conc, tied, comp = harrell_oracle(time, event, risk)
            r = harrell_c(time, event, risk)
            assert (r.concordant, r.tied_risk, r.comparable) == (conc, tied, comp)

    def test_zero_comparable_errors(self):
        with pytest.raises(DataError):
            harrell_c([1, 1], [1, 1], [0.3, 0.7])

    def test_nan_time_is_refused(self):
        with pytest.raises(DataError, match="times must not be NaN"):
            harrell_c([1, np.nan, 3, 4], [1, 1, 0, 1], [4, 3, 2, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        time, event, risk = random_survival_instance(rng, n=150)
        a = harrell_c(time, event, risk)
        b = harrell_c(time, event, np.exp(0.5 * risk) + 7)
        assert (a.concordant, a.tied_risk, a.comparable) == \
               (b.concordant, b.tied_risk, b.comparable)

    def test_negation_complement_without_ties(self):
        rng = np.random.default_rng(4)
        time, event, risk = random_survival_instance(rng, n=100, tie_risks=False)
        a = harrell_c(time, event, risk).c_index
        b = harrell_c(time, event, -risk).c_index
        assert a + b == pytest.approx(1.0)


class TestIpcwC:
    def test_reduces_to_harrell_without_censoring(self):
        rng = np.random.default_rng(10)
        time = rng.exponential(1, 300)
        event = np.ones(300, dtype=int)
        risk = rng.standard_normal(300)
        g = censoring_survival(time, event)
        a = harrell_c(time, event, risk).c_index
        b = ipcw_c(time, event, risk, g).c_index
        assert b == pytest.approx(a, abs=1e-12)

    def test_perfect_ranking_with_censoring(self):
        time = np.array([1, 2, 3, 4, 5, 6.0])
        event = np.array([1, 0, 1, 1, 0, 1])
        risk = -time
        g = censoring_survival(time, event)
        assert ipcw_c(time, event, risk, g).c_index == 1.0

    def test_close_to_latent_harrell_on_synthetic(self):
        cohort = synth_cohort(2000, 3, "ph", [1.0, 0.5, 0.0],
                              censor_rate=0.4, seed=21)
        risk = cohort.meta["linear_predictor"]
        latent = cohort.meta["latent_time"]
        oracle = harrell_c(latent, np.ones_like(cohort.event), risk).c_index
        g = censoring_survival(cohort.time, cohort.event)
        est = ipcw_c(cohort.time, cohort.event, risk, g).c_index
        assert abs(est - oracle) <= 0.03

    def test_tau_with_zero_g_errors(self):
        time = np.array([1, 2, 3.0])
        event = np.array([1, 1, 0])
        g = censoring_survival(time, event)  # G(3) = 0
        with pytest.raises(DataError):
            ipcw_c(time, event, [3, 2, 1.0], g, tau=3.5)

    def test_nan_time_is_refused(self):
        g = censoring_survival([1, 2, 3, 4.0], [1, 1, 0, 1])
        with pytest.raises(DataError, match="times must not be NaN"):
            ipcw_c([1, np.nan, 3, 4], [1, 1, 0, 1], [4, 3, 2, 1], g, tau=3.5)


def _value_or_refusal(score):
    try:
        return score()
    except DataError as exc:
        return str(exc)


class TestConcordanceScorer:
    def test_scores_equal_the_metrics(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            time, event, risk = random_survival_instance(rng)
            g = censoring_survival(time, event)
            harrell = concordance_scorer("harrell_c", time, event)
            ipcw = concordance_scorer("ipcw_c", time, event)
            for r in (risk, -risk):
                assert _value_or_refusal(lambda: harrell(r)) == \
                    _value_or_refusal(lambda: harrell_c(time, event, r).c_index)
                assert _value_or_refusal(lambda: ipcw(r)) == \
                    _value_or_refusal(lambda: ipcw_c(time, event, r, g).c_index)

    @pytest.mark.parametrize("name", ["harrell", "ipcw", "td_auc", ""])
    def test_unknown_name_is_config_error(self, name):
        with pytest.raises(ConfigError, match="unknown concordance metric"):
            concordance_scorer(name, [1, 2, 3.0], [1, 1, 0])


class TestBrier:
    def test_perfect_prediction_is_zero(self):
        time = np.array([1, 2, 3, 4.0])
        event = np.ones(4, dtype=int)
        g = censoring_survival(time, event)
        t = 2.5
        s_hat = (time > t).astype(float)
        assert brier(t, s_hat, time, event, g) == 0.0

    def test_hand_fixture(self):
        # one subject, event at 2, S_hat(1) = 0.9, no censoring
        g = censoring_survival([2.0], [1])
        assert brier(1.0, [0.9], [2.0], [1], g) == pytest.approx(0.01)

    def test_constant_half_prediction(self):
        rng = np.random.default_rng(2)
        time = rng.exponential(1, 200)
        event = np.ones(200, dtype=int)
        g = censoring_survival(time, event)
        for t in [0.2, 0.7, 1.5]:
            assert brier(t, np.full(200, 0.5), time, event, g) == pytest.approx(0.25)

    def test_bounds_without_censoring(self):
        rng = np.random.default_rng(8)
        time = rng.exponential(1, 100)
        event = np.ones(100, dtype=int)
        g = censoring_survival(time, event)
        for seed in range(5):
            s_hat = np.random.default_rng(seed).random(100)
            b = brier(float(np.median(time)), s_hat, time, event, g)
            assert 0.0 <= b <= 1.0

    def test_zero_g_errors(self):
        time = np.array([1.0, 2.0])
        event = np.array([1, 0])
        g = censoring_survival(time, event)
        with pytest.raises(DataError):
            brier(2.5, [0.5, 0.5], time, event, g)


def _ibs_oracle(grid_times, surv_matrix, time, event):
    """Direct-summation IBS: own censoring KM, explicit loops, trapezoid."""
    n = len(time)
    order = sorted(range(n), key=lambda i: time[i])
    g_times, g_vals = [], []
    at_risk, g = n, 1.0
    k = 0
    while k < n:
        j = k
        deaths = cens = 0
        while j < n and time[order[j]] == time[order[k]]:
            if event[order[j]] == 1:
                deaths += 1
            else:
                cens += 1
            j += 1
        if cens:
            g *= 1.0 - cens / (at_risk - deaths)
            g_times.append(time[order[k]])
            g_vals.append(g)
        at_risk -= (j - k)
        k = j

    def g_at(t, left=False):
        val = 1.0
        for gt, gv in zip(g_times, g_vals):
            if (gt < t) if left else (gt <= t):
                val = gv
            else:
                break
        return val

    scores = []
    for gi, t in enumerate(grid_times):
        total = 0.0
        for i in range(n):
            if time[i] <= t and event[i] == 1:
                total += surv_matrix[i][gi] ** 2 / g_at(time[i], left=True)
            elif time[i] > t:
                total += (1 - surv_matrix[i][gi]) ** 2 / g_at(t)
        scores.append(total / n)
    integral = 0.0
    for k in range(len(grid_times) - 1):
        integral += 0.5 * (scores[k] + scores[k + 1]) * (
            grid_times[k + 1] - grid_times[k])
    return integral / (grid_times[-1] - grid_times[0])


class TestIbs:
    def test_perfect_curves_zero(self):
        rng = np.random.default_rng(3)
        time = rng.exponential(1, 100)
        event = np.ones(100, dtype=int)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.linspace(0.1, 1.5, 20), 20)
        mat = (time[:, None] > grid.times[None, :]).astype(float)
        assert ibs(grid, mat, time, event, g) == 0.0

    def test_constant_half(self):
        rng = np.random.default_rng(4)
        time = rng.exponential(1, 100)
        event = np.ones(100, dtype=int)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.linspace(0.1, 1.5, 20), 20)
        mat = np.full((100, 20), 0.5)
        assert ibs(grid, mat, time, event, g) == pytest.approx(0.25)

    def test_km_predictor_matches_direct_oracle(self):
        cohort = synth_cohort(500, 2, "ph", [0.7, 0.0], censor_rate=0.3, seed=33)
        time, event = cohort.time, cohort.event
        g = censoring_survival(time, event)
        grid = default_time_grid(time, event, g, resolution=60)
        km = kaplan_meier(time, event)
        mat = np.tile(km(grid.times), (500, 1))
        got = ibs(grid, mat, time, event, g)
        want = _ibs_oracle(list(grid.times), mat.tolist(), list(time), list(event))
        assert got == pytest.approx(want, abs=1e-9)

    def test_accepts_step_functions(self):
        time = np.array([1, 2, 3.0])
        event = np.array([1, 1, 1])
        g = censoring_survival(time, event)
        grid = TimeGrid(np.array([0.5, 1.5, 2.5]), 3)
        km = kaplan_meier(time, event)
        as_fn = ibs(grid, [km, km, km], time, event, g)
        as_mat = ibs(grid, np.tile(km(grid.times), (3, 1)), time, event, g)
        assert as_fn == pytest.approx(as_mat)

    def test_small_grid_errors(self):
        time = np.array([1, 2.0])
        event = np.array([1, 1])
        g = censoring_survival(time, event)
        with pytest.raises(DataError):
            ibs(TimeGrid(np.array([1.0]), 1), np.ones((2, 1)), time, event, g)

    def test_improves_toward_truth(self):
        rng = np.random.default_rng(6)
        time = rng.exponential(1, 150)
        event = np.ones(150, dtype=int)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.linspace(0.1, 2.0, 25), 25)
        truth = (time[:, None] > grid.times[None, :]).astype(float)
        blurred = 0.5 * truth + 0.25
        closer = 0.8 * truth + 0.1
        assert ibs(grid, closer, time, event, g) < ibs(grid, blurred, time, event, g)


def _binary_auc_oracle(labels, risk):
    pos = [r for r, y in zip(risk, labels) if y == 1]
    neg = [r for r, y in zip(risk, labels) if y == 0]
    total = 0.0
    for rp in pos:
        for rn in neg:
            total += 1.0 if rp > rn else (0.5 if rp == rn else 0.0)
    return total / (len(pos) * len(neg))


class TestTdAuc:
    def test_perfect_ranking(self):
        rng = np.random.default_rng(1)
        time = rng.exponential(1, 200)
        event = np.ones(200, dtype=int)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.quantile(time, [0.2, 0.5, 0.8]), 3)
        res = td_auc(time, event, -time, grid, g)
        np.testing.assert_allclose(res.values, 1.0)

    def test_null_risks_near_half(self):
        rng = np.random.default_rng(2)
        time = rng.exponential(1, 5000)
        event = (rng.random(5000) < 0.7).astype(int)
        risk = rng.standard_normal(5000)
        g = censoring_survival(time, event)
        grid = default_time_grid(time, event, g, resolution=20)
        res = td_auc(time, event, risk, grid, g)
        assert abs(res.mean - 0.5) <= 0.03

    def test_reduces_to_binary_auc_without_censoring(self):
        rng = np.random.default_rng(7)
        time = rng.exponential(1, 80)
        event = np.ones(80, dtype=int)
        risk = rng.integers(0, 10, 80).astype(float)
        g = censoring_survival(time, event)
        t = float(np.median(time))
        res = td_auc(time, event, risk, TimeGrid(np.array([t]), 1), g)
        labels = (time <= t).astype(int)
        assert res.values[0] == pytest.approx(_binary_auc_oracle(labels, risk))

    def test_drops_degenerate_times_with_warning(self):
        time = np.array([1, 2, 3, 4.0])
        event = np.array([1, 1, 1, 1])
        g = censoring_survival(time, event)
        grid = TimeGrid(np.array([0.5, 2.5]), 2)  # no cases at 0.5
        with pytest.warns(UserWarning):
            res = td_auc(time, event, [4, 3, 2, 1.0], grid, g)
        assert res.times.tolist() == [2.5]

    def test_all_dropped_errors(self):
        time = np.array([1, 2.0])
        event = np.array([1, 1])
        g = censoring_survival(time, event)
        with pytest.warns(UserWarning):
            with pytest.raises(DataError):
                td_auc(time, event, [1, 0.0], TimeGrid(np.array([0.5]), 1), g)

    def test_endpoint_mean(self):
        rng = np.random.default_rng(9)
        time = rng.exponential(1, 300)
        event = np.ones(300, dtype=int)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.quantile(time, [0.2, 0.5, 0.8]), 3)
        res = td_auc(time, event, -time + rng.normal(0, 0.3, 300), grid, g)
        assert res.endpoint_mean == pytest.approx(
            0.5 * (res.values[0] + res.values[-1]))


class TestGrids:
    def test_default_tau_is_last_event_with_positive_g(self):
        time = np.array([1, 2, 3, 4.0])
        event = np.array([1, 1, 1, 0])
        g = censoring_survival(time, event)
        assert default_tau(time, event, g) == 3.0

    def test_default_grid_bounds(self):
        cohort = synth_cohort(800, 2, "ph", [0.5, 0.0], censor_rate=0.3, seed=5)
        g = censoring_survival(cohort.time, cohort.event)
        grid = default_time_grid(cohort.time, cohort.event, g)
        assert grid.times.size == 100
        assert grid.times[0] > cohort.time.min()
        assert np.all(np.asarray(g(grid.times)) > 0)
        assert np.all(np.diff(grid.times) > 0)

    def test_grid_validation(self):
        with pytest.raises(DataError):
            TimeGrid(np.array([2.0, 1.0]), 2)

    @pytest.mark.parametrize("times", [[1.0, np.nan, 3.0], [1.0, np.inf],
                                       [-np.inf, 1.0], [np.nan]])
    def test_non_finite_grid_is_refused(self, times):
        with pytest.raises(DataError, match="grid times must be finite"):
            TimeGrid(np.array(times), len(times))


TIE_MODES = [(True, True), (True, False), (False, True), (False, False)]


def _oracle_instance(seed, tie_times, tie_risks, max_n=150):
    rng = np.random.default_rng(seed)
    time, event, risk = random_survival_instance(
        rng, max_n=max_n, tie_times=tie_times, tie_risks=tie_risks)
    event[0] = 1
    return time, event, risk


class TestSortedPathsMatchOracles:
    """The sort-based metrics against the O(n^2) pair-matrix oracles."""

    @pytest.mark.parametrize("tie_times,tie_risks", TIE_MODES)
    def test_harrell_counts_exact(self, tie_times, tie_risks):
        for seed in range(30):
            time, event, risk = _oracle_instance(seed, tie_times, tie_risks)
            conc, tied, comp = harrell_oracle(time, event, risk)
            if comp == 0:
                continue
            r = harrell_c(time, event, risk)
            assert (r.concordant, r.tied_risk, r.comparable) == (conc, tied, comp)

    @pytest.mark.parametrize("tie_times,tie_risks", TIE_MODES)
    def test_ipcw_within_1e12(self, tie_times, tie_risks):
        checked = 0
        for seed in range(40):
            time, event, risk = _oracle_instance(seed, tie_times, tie_risks,
                                                 max_n=400)
            g = censoring_survival(time, event)
            tau = default_tau(time, event, g)
            want = ipcw_oracle(time, event, risk, g, tau)
            if want[2] == 0:
                continue
            r = ipcw_c(time, event, risk, g)
            got = (r.concordant, r.tied_risk, r.comparable)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("tie_times,tie_risks", TIE_MODES)
    def test_td_auc_exact(self, tie_times, tie_risks):
        for seed in range(30):
            time, event, risk = _oracle_instance(seed, tie_times, tie_risks,
                                                 max_n=400)
            g = censoring_survival(time, event)
            cuts = np.unique(time)[:-1] + 1e-9
            if cuts.size == 0:
                continue
            grid = TimeGrid(cuts, cuts.size)
            want_t, want_v = td_auc_oracle(time, event, risk, grid.times, g)
            if want_t.size == 0:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                r = td_auc(time, event, risk, grid, g)
            assert np.array_equal(r.times, want_t)
            assert np.array_equal(r.values, want_v)

    def test_single_subject_has_no_pairs(self):
        g = censoring_survival([2.0], [1])
        with pytest.raises(DataError):
            harrell_c([2.0], [1], [0.5])
        with pytest.raises(DataError):
            ipcw_c([2.0], [1], [0.5], g, tau=3.0)

    def test_all_risks_tied(self):
        rng = np.random.default_rng(5)
        time, event, _ = random_survival_instance(rng, n=200)
        risk = np.full(200, 0.25)
        r = harrell_c(time, event, risk)
        assert (r.concordant, r.tied_risk, r.comparable) == \
            harrell_oracle(time, event, risk)
        assert r.c_index == 0.5
        g = censoring_survival(time, event)
        u = ipcw_c(time, event, risk, g)
        assert u.concordant == 0.0 and u.c_index == 0.5
        grid = TimeGrid(np.quantile(time, [0.3, 0.6]), 2)
        np.testing.assert_array_equal(td_auc(time, event, risk, grid, g).values,
                                      0.5)

    def test_no_comparable_pairs_still_errors(self):
        # every subject is censored or shares its time with the other events
        time = np.array([3.0, 3.0, 3.0, 5.0])
        event = np.array([1, 1, 1, 0])
        with pytest.raises(DataError):
            harrell_c(time[:3], event[:3], [1.0, 2.0, 3.0])
        g = censoring_survival(time, event)
        with pytest.raises(DataError):
            ipcw_c(time, event, [1.0, 2.0, 3.0, 4.0], g, tau=2.0)

    def test_tau_cuts_off_events(self):
        for seed in range(20):
            time, event, risk = _oracle_instance(seed, True, True, max_n=300)
            g = censoring_survival(time, event)
            tau = float(np.median(time))
            want = ipcw_oracle(time, event, risk, g, tau)
            if want[2] == 0:
                continue
            r = ipcw_c(time, event, risk, g, tau=tau)
            np.testing.assert_allclose(
                (r.concordant, r.tied_risk, r.comparable), want,
                rtol=1e-12, atol=0)
            assert r.comparable < ipcw_c(time, event, risk, g).comparable


def _outcome(fn):
    """A metric call's result, or its DataError message, and the messages
    of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except DataError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


def _td_auc_outcome(time, event, risk, grid, g):
    """td_auc's outcome after asserting it is the per-time oracle's."""
    got, got_warnings = _outcome(lambda: td_auc(time, event, risk, grid, g))
    want, want_warnings = _outcome(
        lambda: td_auc_per_time_oracle(time, event, risk, grid.times, g))
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.times, want[0])
        assert np.array_equal(got.values, want[1])
        assert (got.mean, got.endpoint_mean) == want[2:]
    return got, got_warnings


def _ibs_outcome(grid, mat, time, event, g):
    """ibs's outcome after asserting it is the per-time oracle's."""
    got = _outcome(lambda: ibs(grid, mat, time, event, g))
    assert got == _outcome(
        lambda: ibs_per_time_oracle(grid.times, mat, time, event, g))
    return got[0]


def _random_grid(rng, time):
    """Grid times on observed times and between them, some before the
    first and some past the last."""
    observed = np.unique(time)
    on = rng.choice(observed, size=int(rng.integers(0, min(8, observed.size)
                                                    + 1)), replace=False)
    between = rng.uniform(time.min() - 1.0, time.max() + 1.0,
                          size=int(rng.integers(1, 20)))
    times = np.unique(np.concatenate([on, between]))
    return TimeGrid(times, times.size)


class TestPerCallTablesMatchOracles:
    """td_auc and ibs against the per-time bodies they replaced: the same
    times, values, warnings and errors, bit for bit."""

    @pytest.mark.parametrize("tie_times,tie_risks", TIE_MODES)
    def test_td_auc_matches_per_time_oracle(self, tie_times, tie_risks):
        kinds = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            time, event, risk = random_survival_instance(
                rng, max_n=300, tie_times=tie_times, tie_risks=tie_risks)
            g = censoring_survival(time, event)
            got, caught = _td_auc_outcome(time, event, risk,
                                          _random_grid(rng, time), g)
            kinds.add((isinstance(got, str), bool(caught)))
        assert (False, True) in kinds and (False, False) in kinds

    @pytest.mark.parametrize("tie_times,tie_risks", TIE_MODES)
    def test_ibs_matches_per_time_oracle(self, tie_times, tie_risks):
        errors = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            time, event, _ = random_survival_instance(
                rng, max_n=300, tie_times=tie_times, tie_risks=tie_risks)
            g = censoring_survival(time, event)
            grid = _random_grid(rng, time)
            mat = rng.random((time.size, grid.times.size))
            if seed % 4 == 0:  # one prediction out of range
                mat[rng.integers(time.size),
                    rng.integers(grid.times.size)] = 1.25
            got = _ibs_outcome(grid, mat, time, event, g)
            errors.add(got.split(" at ")[0] if isinstance(got, str) else None)
        assert None in errors and len(errors) >= 2

    def test_td_auc_large_grid_in_blocks(self):
        # more (grid time, rank) cells than one table block holds
        rng = np.random.default_rng(12)
        time, event, risk = random_survival_instance(
            rng, n=3000, tie_times=False, tie_risks=False)
        g = censoring_survival(time, event)
        times = np.quantile(time, np.linspace(0.0, 1.0, 60))
        got, _ = _td_auc_outcome(time, event, risk,
                                 TimeGrid(times, times.size), g)
        assert got.times.size >= 55

    def test_dropped_times_at_both_ends(self):
        time = np.array([1, 2, 3, 4.0])
        event = np.array([1, 1, 1, 1])
        g = censoring_survival(time, event)
        grid = TimeGrid(np.array([0.5, 0.75, 2.0, 2.5, 4.0, 9.0]), 6)
        got, caught = _td_auc_outcome(time, event, [4, 3, 2, 1.0], grid, g)
        assert got.times.tolist() == [2.0, 2.5]
        assert got.values.tolist() == [1.0, 1.0]
        assert len(caught) == 4

    def test_grid_past_the_last_observed_time(self):
        time = np.array([1, 2, 3, 4, 5.0])
        event = np.array([1, 0, 1, 1, 0])
        g = censoring_survival(time, event)
        grid = TimeGrid(np.array([2.5, 4.5, 5.0, 6.0]), 4)
        got, caught = _td_auc_outcome(time, event, [5, 1, 3, 2, 4.0], grid, g)
        assert got.times.tolist() == [2.5, 4.5] and len(caught) == 2
        mat = np.tile([0.8, 0.5, 0.2, 0.1], (5, 1))
        assert _ibs_outcome(grid, mat, time, event, g) == \
            "censoring survival is zero at t=5.0"
        assert isinstance(_ibs_outcome(TimeGrid(grid.times[:2], 2), mat[:, :2],
                                       time, event, g), float)

    def test_case_with_zero_censoring_survival(self):
        # G from other data: zero before 2, so the case at 2 has G(2-) = 0;
        # the step back up to 0.5 keeps G(2.5) positive
        time = np.array([1, 2, 3, 4.0])
        event = np.array([1, 1, 1, 0])
        g = StepFunction(np.array([1.5, 2.2]), np.array([0.0, 0.5]), 1.0)
        grid = TimeGrid(np.array([0.5, 1.2, 2.5, 5.0]), 4)
        got, caught = _td_auc_outcome(time, event, [4, 3, 2, 1.0], grid, g)
        assert got == "zero censoring survival at a case time"
        assert len(caught) == 1
        mat = np.full((4, 4), 0.5)
        assert _ibs_outcome(grid, mat, time, event, g) == \
            "zero censoring survival at an event time"
        mat[0, 3] = 1.5  # a later time's fault is not the first one
        assert _ibs_outcome(grid, mat, time, event, g) == \
            "zero censoring survival at an event time"
        mat[0, 1] = -0.5
        assert _ibs_outcome(grid, mat, time, event, g) == \
            "survival predictions must lie in [0, 1]"

    def test_all_risks_tied_and_one_event(self):
        rng = np.random.default_rng(5)
        time, event, _ = random_survival_instance(rng, n=200)
        g = censoring_survival(time, event)
        grid = TimeGrid(np.quantile(time, [0.1, 0.3, 0.6, 0.9]), 4)
        got, _ = _td_auc_outcome(time, event, np.full(200, 0.25), grid, g)
        np.testing.assert_allclose(got.values, 0.5, rtol=1e-14)
        event = np.zeros(200, dtype=int)
        event[np.argsort(time)[100]] = 1
        g = censoring_survival(time, event)
        risk = rng.standard_normal(200)
        got, _ = _td_auc_outcome(time, event, risk, grid, g)
        assert got.times.size >= 1
        mat = rng.random((200, 4))
        assert isinstance(_ibs_outcome(grid, mat, time, event, g), float)

    def test_td_auc_memory_is_blocked(self):
        rng = np.random.default_rng(0)
        n = 20_000
        time = rng.exponential(1.0, n)
        event = (rng.random(n) < 0.7).astype(int)
        risk = rng.standard_normal(n)
        g = censoring_survival(time, event)
        grid = default_time_grid(time, event, g)
        assert grid.times.size == 100
        tracemalloc.start()
        try:
            td_auc(time, event, risk, grid, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_nan_survival_prediction_is_refused(self):
        time = np.array([1, 2, 3, 4.0])
        event = np.array([1, 1, 0, 1])
        g = censoring_survival(time, event)
        grid = TimeGrid(np.array([1.5, 2.5, 3.5]), 3)
        mat = np.full((4, 3), 0.5)
        mat[2, 1] = np.nan
        with pytest.raises(DataError, match=r"must lie in \[0, 1\]"):
            ibs(grid, mat, time, event, g)
        with pytest.raises(DataError, match=r"must lie in \[0, 1\]"):
            brier(2.5, mat[:, 1], time, event, g)

    def test_nan_time_is_refused(self):
        time = np.array([1, 2, np.nan, 4.0])
        event = np.array([1, 1, 0, 1])
        g = censoring_survival([1, 2, 3, 4.0], event)
        grid = TimeGrid(np.array([1.5, 2.5]), 2)
        with pytest.raises(DataError, match="times must not be NaN"):
            td_auc(time, event, [1, 2, 3, 4.0], grid, g)
        with pytest.raises(DataError, match="times must not be NaN"):
            ibs(grid, np.full((4, 2), 0.5), time, event, g)
