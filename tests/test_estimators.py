import numpy as np
import pytest

from survkit.data import synth_cohort
from survkit.errors import ConvergenceError, DataError
from survkit.estimators import (StepFunction, breslow_baseline,
                                censoring_survival, cox_calibrate,
                                kaplan_meier, nelson_aalen)

FIX_T = [2.0, 3.0, 3.0, 5.0]
FIX_E = [1, 1, 1, 0]


class TestStepFunction:
    def test_right_continuous_eval(self):
        fn = StepFunction([1.0, 3.0], [0.5, 0.2], 1.0)
        assert fn(0.5) == 1.0
        assert fn(1.0) == 0.5
        assert fn(2.9) == 0.5
        assert fn(3.0) == 0.2
        assert fn(100.0) == 0.2  # last value beyond the support

    def test_left_limit(self):
        fn = StepFunction([1.0, 3.0], [0.5, 0.2], 1.0)
        assert fn.left_limit(1.0) == 1.0
        assert fn.left_limit(3.0) == 0.5
        assert fn.left_limit(3.5) == 0.2

    def test_vector_eval(self):
        fn = StepFunction([1.0, 3.0], [0.5, 0.2], 1.0)
        np.testing.assert_allclose(fn([0.0, 1.0, 4.0]), [1.0, 0.5, 0.2])

    def test_rejects_unsorted_times(self):
        with pytest.raises(DataError):
            StepFunction([2.0, 1.0], [0.5, 0.2], 1.0)

    def test_csv_export(self, tmp_path):
        fn = StepFunction([1.0, 3.0], [0.5, 0.2], 1.0)
        dest = tmp_path / "curve.csv"
        fn.to_csv(dest)
        lines = dest.read_text().splitlines()
        assert lines[0] == "time,value"
        assert lines[1] == "1.0,0.5"


class TestKaplanMeier:
    def test_fixture(self):
        km = kaplan_meier(FIX_T, FIX_E)
        assert km(2) == pytest.approx(0.75)
        assert km(3) == pytest.approx(0.25)
        assert km(5) == pytest.approx(0.25)  # censored-only time: no step
        assert list(km.times) == [2.0, 3.0]

    def test_all_censored(self):
        km = kaplan_meier([1, 2, 3], [0, 0, 0])
        assert km(10) == 1.0 and km.times.size == 0

    def test_all_events_distinct(self):
        km = kaplan_meier([1, 2, 3, 4], [1, 1, 1, 1])
        for k, t in enumerate([1, 2, 3, 4], start=1):
            assert km(t) == pytest.approx((4 - k) / 4)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            kaplan_meier([], [])


class TestNelsonAalen:
    def test_fixture(self):
        na = nelson_aalen(FIX_T, FIX_E)
        assert na(2) == pytest.approx(0.25)
        assert na(3) == pytest.approx(0.25 + 2 / 3)

    def test_all_censored(self):
        na = nelson_aalen([1, 2], [0, 0])
        assert na(5) == 0.0

    def test_single_event(self):
        assert nelson_aalen([1.0], [1])(1.0) == pytest.approx(1.0)


class TestCensoringSurvival:
    def test_no_censoring(self):
        g = censoring_survival([1, 2, 3], [1, 1, 1])
        assert g(10) == 1.0

    def test_fixture_death_before_censoring(self):
        g = censoring_survival(FIX_T, FIX_E)
        assert g(4.99) == 1.0
        assert g(5) == 0.0

    def test_all_censored_distinct(self):
        g = censoring_survival([1, 2, 3, 4], [0, 0, 0, 0])
        for k, t in enumerate([1, 2, 3, 4], start=1):
            assert g(t) == pytest.approx((4 - k) / 4)

    def test_equals_flipped_km_without_cross_ties(self):
        rng = np.random.default_rng(5)
        time = rng.exponential(1, 200)  # continuous: no ties at all
        event = (rng.random(200) < 0.6).astype(int)
        g = censoring_survival(time, event)
        km_flip = kaplan_meier(time, 1 - event)
        np.testing.assert_allclose(g.times, km_flip.times)
        np.testing.assert_allclose(g.values, km_flip.values)


class TestBreslowBaseline:
    def test_fixture(self):
        h0 = breslow_baseline([1, 2], [1, 1], [0.0, 0.0])
        assert h0(1) == pytest.approx(0.5)
        assert h0(2) == pytest.approx(1.5)

    def test_shift_reparameterization(self):
        rng = np.random.default_rng(0)
        time = rng.exponential(1, 50)
        event = (rng.random(50) < 0.7).astype(int)
        eta = rng.standard_normal(50)
        h0 = breslow_baseline(time, event, eta)
        h0_shift = breslow_baseline(time, event, eta + 1.7)
        np.testing.assert_allclose(h0_shift.values, h0.values * np.exp(-1.7),
                                   rtol=1e-10)
        # subject curves are unchanged under the shift
        s = np.exp(-h0.values * np.exp(eta[0]))
        s_shift = np.exp(-h0_shift.values * np.exp(eta[0] + 1.7))
        np.testing.assert_allclose(s, s_shift, rtol=1e-10)

    def test_all_censored(self):
        h0 = breslow_baseline([1, 2], [0, 0], [0.3, -0.2])
        assert h0(5) == 0.0

    def test_zero_eta_equals_nelson_aalen(self):
        rng = np.random.default_rng(1)
        time = rng.integers(1, 20, 300).astype(float)
        event = (rng.random(300) < 0.6).astype(int)
        h0 = breslow_baseline(time, event, np.zeros(300))
        na = nelson_aalen(time, event)
        np.testing.assert_allclose(h0.values, na.values, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            breslow_baseline([1, 2], [1, 1], [0.0])


class TestCoxCalibrate:
    def test_constant_scores_give_zero_beta(self):
        calib = cox_calibrate(np.full(20, 3.0), np.arange(1, 21.0),
                              np.ones(20, dtype=int))
        assert calib.beta == 0.0

    def test_recovers_unit_coefficient_on_ph_data(self):
        cohort = synth_cohort(5000, 3, "ph", [0.8, -0.5, 0.3],
                              censor_rate=0.2, seed=42)
        scores = cohort.meta["linear_predictor"]
        calib = cox_calibrate(scores, cohort.time, cohort.event)
        assert 0.9 <= calib.beta <= 1.1

    def test_negated_scores_negate_beta_same_curves(self):
        cohort = synth_cohort(400, 2, "ph", [1.0, 0.0], censor_rate=0.2, seed=3)
        scores = cohort.meta["linear_predictor"]
        c1 = cox_calibrate(scores, cohort.time, cohort.event)
        c2 = cox_calibrate(-scores, cohort.time, cohort.event)
        assert c2.beta == pytest.approx(-c1.beta, rel=1e-6)
        s1 = c1.survival([scores[0]])[0]
        s2 = c2.survival([-scores[0]])[0]
        np.testing.assert_allclose(s1.values, s2.values, rtol=1e-8)

    def test_requires_two_events(self):
        with pytest.raises(DataError):
            cox_calibrate([1.0, 2.0], [1.0, 2.0], [1, 0])

    def test_divergence_reported(self):
        # perfectly separating scores push beta to infinity
        time = np.arange(1.0, 41.0)
        event = np.ones(40, dtype=int)
        scores = -np.arange(40.0)
        with pytest.raises(ConvergenceError):
            cox_calibrate(scores, time, event)


class TestCrossEstimatorProperties:
    def test_km_close_to_exp_neg_na(self):
        cohort = synth_cohort(500, 2, "ph", [0.5, 0.0], censor_rate=0.3, seed=9)
        km = kaplan_meier(cohort.time, cohort.event)
        na = nelson_aalen(cohort.time, cohort.event)
        gap = np.abs(km.values - np.exp(-na(km.times)))
        assert gap.max() <= 0.05

    def test_survival_invariants_after_constructors(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 80))
            time = rng.integers(1, 15, n).astype(float)
            event = (rng.random(n) < 0.5).astype(int)
            if event.sum() == 0:
                event[0] = 1
            km = kaplan_meier(time, event)
            assert km.value_before_first == 1.0
            assert np.all(np.diff(km.values) <= 0)
            assert np.all((km.values >= 0) & (km.values <= 1))
            na = nelson_aalen(time, event)
            assert na.value_before_first == 0.0
            assert np.all(np.diff(na.values) >= 0) and np.all(na.values >= 0)
            g = censoring_survival(time, event)
            assert np.all(np.diff(g.values) <= 0)
            assert np.all((g.values >= 0) & (g.values <= 1))
