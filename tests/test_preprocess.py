import numpy as np
import pytest

from survkit.data import Cohort, ColumnSpec, synth_cohort
from survkit.errors import DataError
from survkit.preprocess import (EncoderState, fit_encoder, kfold, split,
                                transform)


def mixed_cohort():
    features = np.array([
        ["I", 2.0], ["II", 4.0], ["III", 2.0], ["IV", 4.0],
    ], dtype=object)
    columns = [ColumnSpec("stage", "ordinal"), ColumnSpec("age", "numeric")]
    return Cohort(features=features, columns=columns,
                  time=[1, 2, 3, 4.0], event=[1, 0, 1, 0])


class TestFitEncoder:
    def test_supplied_order_ranks(self):
        state = fit_encoder(mixed_cohort(),
                            {"stage": ["I", "II", "III", "IV"]})
        assert state.ordinal["stage"] == ["I", "II", "III", "IV"]

    def test_numeric_population_sd(self):
        state = fit_encoder(mixed_cohort(),
                            {"stage": ["I", "II", "III", "IV"]})
        mean, sd = state.numeric["age"]
        assert mean == pytest.approx(3.0)
        assert sd == pytest.approx(1.0)  # denominator n

    def test_lexicographic_fallback_flagged(self):
        state = fit_encoder(mixed_cohort())
        assert state.ordinal["stage"] == ["I", "II", "III", "IV"]
        assert "stage" in state.lexicographic_fallback

    def test_constant_column_warns_and_records_zero_sd(self):
        cohort = Cohort(features=np.full((3, 1), 7.0),
                        columns=[ColumnSpec("c", "numeric")],
                        time=[1, 2, 3.0], event=[1, 1, 0])
        with pytest.warns(UserWarning, match="constant"):
            state = fit_encoder(cohort)
        assert state.numeric["c"][1] == 0.0

    def test_empty_cohort_errors(self):
        cohort = Cohort(features=np.empty((0, 1)),
                        columns=[ColumnSpec("x", "numeric")],
                        time=[], event=[])
        with pytest.raises(DataError):
            fit_encoder(cohort)


class TestTransform:
    def test_center_and_scale(self):
        cohort = mixed_cohort()
        state = fit_encoder(cohort, {"stage": ["I", "II", "III", "IV"]})
        out = transform(state, cohort)
        assert out.features[0, 1] == pytest.approx(-1.0)  # (2-3)/1
        assert out.features[1, 1] == pytest.approx(1.0)   # (4-3)/1
        assert out.features[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_value_at_mean_maps_to_zero(self):
        cohort = Cohort(features=np.array([[1.0], [3.0]]),
                        columns=[ColumnSpec("x", "numeric")],
                        time=[1, 2.0], event=[1, 0])
        state = fit_encoder(cohort)
        probe = Cohort(features=np.array([[2.0]]),
                       columns=cohort.columns, time=[1.0], event=[1])
        assert transform(state, probe).features[0, 0] == 0.0

    def test_unseen_category_errors_with_names(self):
        cohort = mixed_cohort()
        state = fit_encoder(cohort, {"stage": ["I", "II", "III", "IV"]})
        probe = Cohort(features=np.array([["X", 2.0]], dtype=object),
                       columns=cohort.columns, time=[1.0], event=[1])
        with pytest.raises(DataError, match="stage.*X"):
            transform(state, probe)

    def test_zero_sd_column_maps_to_zero(self):
        cohort = Cohort(features=np.full((3, 1), 7.0),
                        columns=[ColumnSpec("c", "numeric")],
                        time=[1, 2, 3.0], event=[1, 1, 0])
        with pytest.warns(UserWarning):
            state = fit_encoder(cohort)
        out = transform(state, cohort)
        np.testing.assert_array_equal(out.features[:, 0], 0.0)

    def test_targets_and_weights_pass_through(self):
        cohort = mixed_cohort()
        cohort.weights = np.array([1.0, 2.0, 3.0, 4.0])
        state = fit_encoder(cohort, {"stage": ["I", "II", "III", "IV"]})
        out = transform(state, cohort)
        np.testing.assert_array_equal(out.time, cohort.time)
        np.testing.assert_array_equal(out.weights, cohort.weights)

    def test_train_statistics_normalized(self):
        cohort = synth_cohort(500, 4, "ph", [1, 0, 0, 0], censor_rate=0.2,
                              seed=1)
        state = fit_encoder(cohort)
        out = transform(state, cohort)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-9)

    def test_numeric_round_trip_invertible(self):
        cohort = synth_cohort(100, 2, "ph", [1, 0], censor_rate=0.0, seed=2)
        state = fit_encoder(cohort)
        out = transform(state, cohort)
        for j, col in enumerate(cohort.columns):
            mean, sd = state.numeric[col.name]
            back = out.features[:, j] * sd + mean
            np.testing.assert_allclose(back, cohort.features[:, j], rtol=1e-12)


class TestEncoderSerialization:
    def test_json_round_trip(self):
        state = fit_encoder(mixed_cohort(), {"stage": ["I", "II", "III", "IV"]})
        back = EncoderState.from_json(state.to_json())
        assert back.ordinal == state.ordinal
        assert back.numeric == state.numeric
        assert back.lexicographic_fallback == state.lexicographic_fallback


class TestSplit:
    def test_sizes(self):
        cohort = synth_cohort(10, 2, "ph", [1, 0], censor_rate=0.0, seed=3)
        train, test = split(cohort, 0.2, seed=0)
        assert (train.n, test.n) == (8, 2)

    def test_deterministic(self):
        cohort = synth_cohort(100, 2, "ph", [1, 0], censor_rate=0.3, seed=4)
        a_train, a_test = split(cohort, 0.25, seed=5)
        b_train, b_test = split(cohort, 0.25, seed=5)
        np.testing.assert_array_equal(a_train.time, b_train.time)
        np.testing.assert_array_equal(a_test.time, b_test.time)

    def test_disjoint_union(self):
        cohort = synth_cohort(97, 2, "ph", [1, 0], censor_rate=0.3, seed=6)
        train, test = split(cohort, 0.3, seed=7)
        combined = np.sort(np.concatenate([train.time, test.time]))
        np.testing.assert_array_equal(combined, np.sort(cohort.time))
        assert train.n + test.n == 97

    def test_stratified_event_rate(self):
        cohort = synth_cohort(10000, 2, "ph", [1, 0], censor_rate=0.6, seed=8)
        # force roughly 40% events by construction check
        train, test = split(cohort, 0.2, stratify_on_event=True, seed=9)
        whole = cohort.event.mean()
        assert abs(test.event.mean() - whole) <= 0.01
        assert abs(train.event.mean() - whole) <= 0.01

    def test_too_small_errors(self):
        cohort = synth_cohort(2, 1, "ph", [1.0], censor_rate=0.0, seed=10)
        with pytest.raises(DataError):
            split(cohort, 0.01, seed=0)

    def test_bad_fraction(self):
        cohort = synth_cohort(10, 1, "ph", [1.0], censor_rate=0.0, seed=11)
        with pytest.raises(DataError):
            split(cohort, 1.5, seed=0)


class TestKfold:
    def test_ten_singletons(self):
        folds = kfold(np.zeros(10), 10, seed=0)
        assert all(f.size == 1 for f in folds)

    def test_balanced_sizes(self):
        folds = kfold(np.zeros(10), 3, seed=1)
        assert sorted(f.size for f in folds) == [3, 3, 4]

    def test_deterministic(self):
        a = kfold(np.zeros(50), 5, seed=2)
        b = kfold(np.zeros(50), 5, seed=2)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_partition(self):
        folds = kfold(np.zeros(37), 4, seed=3)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(37))

    def test_stratified_partition_and_balance(self):
        rng = np.random.default_rng(4)
        event = (rng.random(1000) < 0.4).astype(int)
        folds = kfold(event, 5, seed=5)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.arange(1000))
        rates = [event[f].mean() for f in folds]
        assert max(rates) - min(rates) <= 0.02
        assert max(f.size for f in folds) - min(f.size for f in folds) <= 1

    def test_k_exceeding_n_errors(self):
        with pytest.raises(DataError):
            kfold(np.zeros(3), 4, seed=0)
