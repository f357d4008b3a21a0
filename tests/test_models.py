import io
import json
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import forest_leaf_chf
from survkit.data import Cohort, ColumnSpec, synth_cohort
from survkit.engine import boost
from survkit.errors import ConfigError, DataError, NoSurvivalFunctionError
from survkit.estimators import nelson_aalen
from survkit.losses import SquaredLoss
from survkit.metrics import TimeGrid, harrell_c
from survkit import models as M
from survkit.models import (CURVE_FAMILIES, FAMILIES, FAMILY_TABLE,
                            AftParams, FittedModel, GbParams, HorizonParams,
                            RegWeightedParams, RsfParams, SsvmParams,
                            fit_family, fit_gb_aft, fit_gb_cox,
                            fit_gb_reg_weighted, fit_gbsa,
                            fit_horizon_classifier, fit_rsf, fit_ssvm,
                            load_model, predict_curves, predict_risk,
                            save_model, survival_matrix)


MODEL_FILES = Path(__file__).parent / "model_files"


def _as_v1(obj: dict, model: FittedModel) -> dict:
    """A saved rsf file in the v1 form: dense ``leaf_chf`` rows."""
    obj = {k: v for k, v in obj.items() if k != "leaf_steps"}
    return {**obj, "version": 1,
            "leaf_chf": [chf.tolist()
                         for chf in forest_leaf_chf(model.artifact)]}


def _busiest_leaf(obj: dict) -> tuple[list, list]:
    """Step positions and values of the first tree's leaf with the most
    steps (at least two in the fitted forests used here)."""
    steps = obj["leaf_steps"][0]
    positions, values = steps["positions"], steps["values"]
    k = max(range(len(positions)), key=lambda i: len(positions[i]))
    assert len(positions[k]) >= 2
    return positions[k], values[k]


def _set(index: int, value, part: int = 0):
    def mutate(obj):
        _busiest_leaf(obj)[part][index] = value
    return mutate


def _drop_last_leaf(obj):
    steps = obj["leaf_steps"][0]
    del steps["positions"][-1], steps["values"][-1]


def _swap_first_positions(obj):
    positions = _busiest_leaf(obj)[0]
    positions[0], positions[1] = positions[1], positions[0]


# Each defect turns a valid saved rsf file into one the reader must refuse.
LEAF_STEP_DEFECTS = {
    "repeated_position": lambda obj: _set(1, _busiest_leaf(obj)[0][0])(obj),
    "falling_positions": _swap_first_positions,
    "position_below_grid": _set(0, -1),
    "position_at_grid_end": lambda obj: _set(-1, len(obj["grid"]))(obj),
    "bool_position": _set(0, True),
    "float_position": _set(0, 1.5),
    "null_position": _set(0, None),
    "string_position": _set(0, "0"),
    "short_values": lambda obj: _busiest_leaf(obj)[1].pop(),
    "extra_values": lambda obj: _busiest_leaf(obj)[1].append(1.0),
    "values_not_a_list": lambda obj: obj["leaf_steps"][0].update(
        values=[0.5] * len(obj["leaf_steps"][0]["values"])),
    "null_value": _set(0, None, part=1),
    "string_value": _set(0, "0.1", part=1),
    "bool_value": _set(0, True, part=1),
    "list_value": _set(0, [0.1], part=1),
    "huge_value": _set(0, 10 ** 400, part=1),
    "leaf_count_short": _drop_last_leaf,
    "tree_missing": lambda obj: obj["leaf_steps"].pop(),
    "tree_not_an_object": lambda obj: obj["leaf_steps"].__setitem__(0, []),
    "no_leaf_steps": lambda obj: obj.pop("leaf_steps"),
    "no_trees": lambda obj: (obj["trees"].clear(), obj["leaf_steps"].clear()),
    "version_3": lambda obj: obj.update(version=3),
}


@pytest.fixture(scope="module")
def ph_cohorts():
    cohort = synth_cohort(800, 5, "ph", [1, 1, 0, 0, 0], censor_rate=0.3,
                          seed=100)
    from survkit.preprocess import split
    return split(cohort, 0.2, seed=101)


@pytest.mark.parametrize("params,field", [
    (RsfParams, "max_depth"), (RsfParams, "min_samples_leaf"),
    (GbParams, "n_rounds"), (GbParams, "max_depth"),
    (GbParams, "min_samples_leaf"), (AftParams, "n_rounds"),
    (HorizonParams, "max_depth"), (SsvmParams, "epochs"),
    (SsvmParams, "max_pairs")])
def test_negative_counts_are_config_errors(params, field):
    with pytest.raises(ConfigError, match=f"{field} must be nonnegative"):
        params(**{field: -1})
    assert getattr(params(**{field: 0}), field) == 0  # zero stays valid


@pytest.mark.parametrize("params,field,bad,good", [
    (GbParams, "learning_rate", -0.1, 0.0),
    (GbParams, "learning_rate", float("inf"), 0.3),
    (GbParams, "learning_rate", float("nan"), 1.0),
    (RegWeightedParams, "learning_rate", -1.0, 0.0),
    (HorizonParams, "learning_rate", -float("inf"), 0.1),
    (SsvmParams, "gamma", -1.0, 0.0),
    (SsvmParams, "gamma", float("inf"), 10.0),
    (SsvmParams, "gamma", float("nan"), 1e-3),
    (GbParams, "reg_lambda", -5.0, 0.0),
    (GbParams, "min_child_weight", float("nan"), 0.0),
    (GbParams, "min_split_gain", float("inf"), 0.5),
    (AftParams, "reg_lambda", -1e-9, 2.0),
    (RegWeightedParams, "event_weight", -1.0, 0.0),
    (RegWeightedParams, "censored_weight", float("nan"), 0.0),
    (HorizonParams, "min_child_weight", -1.0, 1.0),
    (SsvmParams, "tol", -1e-12, 0.0),
    (SsvmParams, "tol", float("inf"), 1e-6)])
def test_bad_rates_are_config_errors(params, field, bad, good):
    with pytest.raises(ConfigError, match=f"{field} must be finite and "
                                          "nonnegative"):
        params(**{field: bad})
    assert getattr(params(**{field: good}), field) == good


@pytest.mark.parametrize("params,field,bad,good,message", [
    (RsfParams, "mtry", 0, 1, "mtry must be at least 1"),
    (RsfParams, "mtry", -2, None, "mtry must be at least 1"),
    (RsfParams, "bootstrap_fraction", 0.0, 0.5,
     "bootstrap_fraction must be finite and positive"),
    (RsfParams, "bootstrap_fraction", float("nan"), 2.0,
     "bootstrap_fraction must be finite and positive"),
    (AftParams, "distribution", "weibull", "logistic",
     "distribution must be one of normal, logistic"),
    (AftParams, "sigma", 0.0, 0.5, "sigma must be finite and positive"),
    (AftParams, "sigma", float("inf"), 2.0, "sigma must be finite and positive"),
    (HorizonParams, "horizon", 0.0, 0.25, "horizon must be finite and positive"),
    (HorizonParams, "horizon", float("nan"), 12.0,
     "horizon must be finite and positive"),
    (SsvmParams, "pair_mode", "foo", "all",
     "pair_mode must be one of all, nearest"),
    (SsvmParams, "step_size", -1.0, 0.5, "step_size must be finite and positive"),
    (SsvmParams, "step_size", 0.0, 1e-4, "step_size must be finite and positive")])
def test_out_of_range_values_are_config_errors(params, field, bad, good,
                                               message):
    with pytest.raises(ConfigError, match=message):
        params(**{field: bad})
    assert getattr(params(**{field: good}), field) == good


@pytest.mark.parametrize("params", [GbParams, AftParams, HorizonParams])
@pytest.mark.parametrize("subsample", [0.0, -0.5, 1.0 + 1e-12, 2.0,
                                       float("nan"), float("inf")])
def test_subsample_outside_unit_interval_is_config_error(params, subsample):
    with pytest.raises(ConfigError, match=r"subsample must be in \(0, 1\]"):
        params(subsample=subsample)
    assert params(subsample=1.0).subsample == 1.0
    assert params(subsample=1e-9).subsample == 1e-9


class TestRsf:
    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_is_config_error(self, n_trees):
        cohort = synth_cohort(40, 2, "ph", [1, 0], censor_rate=0.3, seed=1)
        with pytest.raises(ConfigError, match="n_trees must be at least 1"):
            fit_family("rsf", cohort, n_trees=n_trees)
        with pytest.raises(ConfigError, match="n_trees must be at least 1"):
            RsfParams(n_trees=n_trees)

    def test_prediction_memory_is_bounded(self):
        cohort = synth_cohort(600, 3, "ph", [1, 0.5, 0], censor_rate=0.3,
                              seed=81)
        model = fit_family("rsf", cohort, n_trees=3, seed=82)
        X = np.tile(np.asarray(cohort.features, dtype=float), (7, 1))[:4000]
        whole = X.shape[0] * model.artifact.grid.size * 8  # one n x |grid|
        tracemalloc.start()
        try:
            predict_risk(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole / 4

    def test_single_leaf_forest_reproduces_nelson_aalen(self):
        cohort = synth_cohort(150, 2, "ph", [1, 0], censor_rate=0.3, seed=1)
        model = fit_rsf(cohort, RsfParams(n_trees=1, bootstrap=False,
                                          max_depth=0, seed=2))
        curves = predict_curves(model, cohort.features[:4])
        na = nelson_aalen(cohort.time, cohort.event)
        expected = np.exp(-na(model.artifact.grid))
        for fn in curves:
            np.testing.assert_allclose(fn.values, expected, rtol=1e-12)

    def test_holdout_concordance(self, ph_cohorts):
        train, test = ph_cohorts
        model = fit_rsf(train, RsfParams(n_trees=30, seed=3))
        c = harrell_c(test.time, test.event,
                      predict_risk(model, test.features)).c_index
        assert c >= 0.70

    def test_deterministic(self):
        cohort = synth_cohort(200, 3, "ph", [1, 0.5, 0], censor_rate=0.3,
                              seed=4)
        r1 = predict_risk(fit_rsf(cohort, RsfParams(n_trees=5, seed=9)),
                          cohort.features)
        r2 = predict_risk(fit_rsf(cohort, RsfParams(n_trees=5, seed=9)),
                          cohort.features)
        np.testing.assert_array_equal(r1, r2)

    def test_no_events_errors(self):
        cohort = synth_cohort(30, 2, "ph", [1, 0], censor_rate=0.0, seed=5)
        cohort.event[:] = 0
        with pytest.raises(DataError):
            fit_rsf(cohort, RsfParams(n_trees=2))


class TestGbsa:
    def test_zero_rounds_gives_baseline_curve(self):
        cohort = synth_cohort(100, 2, "ph", [1, 0], censor_rate=0.2, seed=6)
        model = fit_gbsa(cohort, GbParams(n_rounds=0))
        curves = predict_curves(model, cohort.features[:3])
        na = nelson_aalen(cohort.time, cohort.event)
        for fn in curves:
            np.testing.assert_allclose(fn.values, np.exp(-na(fn.times)),
                                       rtol=1e-12)

    def test_training_loss_nonincreasing(self):
        cohort = synth_cohort(300, 3, "ph", [1, 0.5, 0], censor_rate=0.3,
                              seed=7)
        model = fit_gbsa(cohort, GbParams(n_rounds=40, learning_rate=0.1))
        ensemble, _ = model.artifact
        assert np.all(np.diff(ensemble.loss_trace) <= 1e-12)

    def test_holdout_concordance(self, ph_cohorts):
        train, test = ph_cohorts
        model = fit_gbsa(train, GbParams(n_rounds=100, seed=8))
        c = harrell_c(test.time, test.event,
                      predict_risk(model, test.features)).c_index
        assert c >= 0.70

    def test_curve_formula_trace(self):
        cohort = synth_cohort(120, 2, "ph", [1, 0], censor_rate=0.2, seed=9)
        model = fit_gbsa(cohort, GbParams(n_rounds=20, seed=10))
        ensemble, baseline = model.artifact
        eta = ensemble.predict(cohort.features[:1])[0]
        fn = predict_curves(model, cohort.features[:1])[0]
        np.testing.assert_allclose(fn.values,
                                   np.exp(-baseline.values * np.exp(eta)),
                                   atol=1e-9)


class TestBoostedFamilies:
    def test_gb_aft_on_aft_cohort(self):
        cohort = synth_cohort(800, 5, "aft", [1, 1, 0, 0, 0], censor_rate=0.3,
                              seed=11)
        from survkit.preprocess import split
        train, test = split(cohort, 0.2, seed=12)
        model = fit_gb_aft(train, AftParams(n_rounds=100, seed=13))
        c = harrell_c(test.time, test.event,
                      predict_risk(model, test.features)).c_index
        assert c >= 0.70

    def test_gb_reg_degenerates_to_plain_squared_boost(self):
        cohort = synth_cohort(150, 3, "ph", [1, 0, 0], censor_rate=0.0, seed=14)
        params = RegWeightedParams(n_rounds=15, event_weight=1.0,
                                   censored_weight=1.0, seed=15)
        model = fit_gb_reg_weighted(cohort, params)
        plain = boost(np.asarray(cohort.features, float), cohort.time,
                      cohort.event, SquaredLoss(), params.boost_params(),
                      weights=np.ones(cohort.n))
        np.testing.assert_array_equal(-model.artifact.predict(cohort.features),
                                      -plain.predict(cohort.features))

    def test_gb_cox_is_second_order(self):
        cohort = synth_cohort(200, 3, "ph", [1, 0.5, 0], censor_rate=0.2,
                              seed=16)
        a = fit_gb_cox(cohort, GbParams(n_rounds=10, seed=17))
        b = fit_gbsa(cohort, GbParams(n_rounds=10, seed=17))
        assert not np.array_equal(predict_risk(a, cohort.features),
                                  predict_risk(b, cohort.features))


class TestHorizonClassifier:
    def _cohort(self):
        time = np.array([6.0, 20.0, 5.0, 30.0, 8.0, 14.0, 2.0, 40.0])
        event = np.array([0, 0, 1, 1, 1, 0, 1, 0])
        rng = np.random.default_rng(18)
        features = rng.standard_normal((8, 2))
        return Cohort(features=features,
                      columns=[ColumnSpec("a", "numeric"),
                               ColumnSpec("b", "numeric")],
                      time=time, event=event)

    def test_exclusion_rule(self):
        cohort = self._cohort()
        model = fit_horizon_classifier(cohort,
                                       HorizonParams(horizon=12.0, n_rounds=3,
                                                     min_samples_leaf=1))
        # censored before 12: times 6; censored at 20/14/40 are retained
        expected_excluded = int(np.sum((cohort.time < 12) & (cohort.event == 0)))
        assert model.meta["n_excluded"] == expected_excluded == 1
        assert model.meta["n_trained"] == 7

    def test_probability_output(self):
        cohort = self._cohort()
        model = fit_horizon_classifier(cohort,
                                       HorizonParams(horizon=12.0, n_rounds=3,
                                                     min_samples_leaf=1))
        p = predict_risk(model, cohort.features)
        assert np.all((p >= 0) & (p <= 1))

    def test_zero_retained_errors(self):
        cohort = self._cohort()
        cohort.event[:] = 0
        with pytest.raises(DataError):
            fit_horizon_classifier(cohort, HorizonParams(horizon=100.0))


class TestSsvm:
    def test_zero_gamma_gives_zero_weights(self):
        cohort = synth_cohort(100, 3, "ph", [1, 0, 0], censor_rate=0.2, seed=19)
        model = fit_ssvm(cohort, SsvmParams(gamma=0.0))
        np.testing.assert_array_equal(model.artifact.weights, 0.0)

    def test_perfectly_ordering_feature(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 1, 60)
        time = 10.0 - 9.0 * x  # higher feature value = earlier event
        cohort = Cohort(features=x[:, None],
                        columns=[ColumnSpec("x", "numeric")],
                        time=time, event=np.ones(60, dtype=int))
        with pytest.warns(UserWarning, match="calibration unavailable"):
            # separable ranking: the risk model fits but no finite Cox
            # calibration exists for the curves
            model = fit_ssvm(cohort, SsvmParams(gamma=2.0, epochs=300))
        c = harrell_c(cohort.time, cohort.event,
                      predict_risk(model, cohort.features)).c_index
        assert c == 1.0

    def test_deterministic(self):
        cohort = synth_cohort(150, 4, "ph", [1, 1, 0, 0], censor_rate=0.3,
                              seed=21)
        m1 = fit_ssvm(cohort, SsvmParams(max_pairs=100, seed=22))
        m2 = fit_ssvm(cohort, SsvmParams(max_pairs=100, seed=22))
        np.testing.assert_array_equal(m1.artifact.weights, m2.artifact.weights)

    def test_all_pairs_mode(self):
        cohort = synth_cohort(80, 2, "ph", [1, 0], censor_rate=0.2, seed=23)
        model = fit_ssvm(cohort, SsvmParams(pair_mode="all", max_pairs=500))
        assert model.meta["n_pairs"] <= 500

    def test_risk_only_fit(self):
        cohort = synth_cohort(150, 3, "ph", [1, 0.5, 0], censor_rate=0.3,
                              seed=24)
        full = fit_family("ssvm", cohort, seed=25)
        risk_only = fit_family("ssvm", cohort, seed=25, curves=False)
        assert risk_only.artifact.calibration is None
        assert (risk_only.artifact.weights.tobytes()
                == full.artifact.weights.tobytes())
        assert (predict_risk(risk_only, cohort.features).tobytes()
                == predict_risk(full, cohort.features).tobytes())
        with pytest.raises(NoSurvivalFunctionError):
            predict_curves(risk_only, cohort.features[:2])
        with pytest.raises(NoSurvivalFunctionError):
            survival_matrix(risk_only, cohort.features[:2], [1.0])

    def test_separable_risk_only_fit_is_silent(self):
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 1, 60)
        cohort = Cohort(features=x[:, None],
                        columns=[ColumnSpec("x", "numeric")],
                        time=10.0 - 9.0 * x, event=np.ones(60, dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_family("ssvm", cohort, gamma=2.0, epochs=300,
                               curves=False)
        assert "calibration_error" not in model.meta

    def test_curves_flag_leaves_other_families_alone(self):
        cohort = synth_cohort(120, 2, "ph", [1, 0], censor_rate=0.2, seed=26)
        for family, kw in [("rsf", {"n_trees": 3}), ("gbsa", {"n_rounds": 3})]:
            a = fit_family(family, cohort, seed=27, **kw)
            b = fit_family(family, cohort, seed=27, curves=False, **kw)
            assert (survival_matrix(a, cohort.features, [1.0]).tobytes()
                    == survival_matrix(b, cohort.features, [1.0]).tobytes())

    def test_no_comparable_pairs_errors(self):
        cohort = Cohort(features=np.ones((3, 1)),
                        columns=[ColumnSpec("x", "numeric")],
                        time=[5.0, 5.0, 5.0], event=[1, 1, 1])
        with pytest.raises(DataError):
            fit_ssvm(cohort, SsvmParams())


class TestRiskConventions:
    def test_aft_negation(self):
        cohort = synth_cohort(200, 2, "aft", [1.0, 0.0], censor_rate=0.2,
                              seed=24)
        model = fit_gb_aft(cohort, AftParams(n_rounds=30, seed=25))
        log_t = model.artifact.predict(np.asarray(cohort.features, float))
        risk = predict_risk(model, cohort.features)
        # longer predicted log-time must mean lower risk
        i, j = np.argmax(log_t), np.argmin(log_t)
        assert risk[i] < risk[j]

    def test_single_leaf_rsf_equal_risks(self):
        cohort = synth_cohort(60, 2, "ph", [1, 0], censor_rate=0.2, seed=26)
        model = fit_rsf(cohort, RsfParams(n_trees=3, bootstrap=False,
                                          max_depth=0, seed=27))
        risks = predict_risk(model, cohort.features)
        assert np.ptp(risks) == 0.0

    def test_row_permutation_equivariance(self):
        cohort = synth_cohort(100, 3, "ph", [1, 0.5, 0], censor_rate=0.2,
                              seed=28)
        model = fit_gb_cox(cohort, GbParams(n_rounds=10, seed=29))
        X = np.asarray(cohort.features, float)
        perm = np.random.default_rng(30).permutation(100)
        np.testing.assert_array_equal(predict_risk(model, X)[perm],
                                      predict_risk(model, X[perm]))

    def test_dimension_mismatch(self):
        cohort = synth_cohort(50, 3, "ph", [1, 0, 0], censor_rate=0.2, seed=31)
        model = fit_gb_cox(cohort, GbParams(n_rounds=2))
        with pytest.raises(DataError):
            predict_risk(model, np.ones((5, 2)))


class TestPredictCurves:
    def test_risk_only_families_raise_typed_error(self):
        cohort = synth_cohort(120, 2, "ph", [1, 0], censor_rate=0.2, seed=32)
        for fitter, params in [(fit_gb_cox, GbParams(n_rounds=3)),
                               (fit_gb_aft, AftParams(n_rounds=3)),
                               (fit_gb_reg_weighted,
                                RegWeightedParams(n_rounds=3))]:
            model = fitter(cohort, params)
            with pytest.raises(NoSurvivalFunctionError,
                               match="no survival function defined"):
                predict_curves(model, cohort.features[:2])

    def test_curve_invariants(self, ph_cohorts):
        train, test = ph_cohorts
        grid = TimeGrid(np.quantile(test.time, [0.1, 0.3, 0.5, 0.7, 0.9]), 5)
        for family, kw in [("rsf", {"n_trees": 10}), ("gbsa", {"n_rounds": 20}),
                           ("ssvm", {})]:
            model = fit_family(family, train, seed=33, **kw)
            for fn in predict_curves(model, test.features[:5], grid):
                vals = np.asarray(fn.values)
                assert vals[0] <= 1.0 + 1e-12
                assert np.all(np.diff(vals) <= 1e-12)
                assert np.all(vals >= 0)


class TestSaveLoad:
    @pytest.mark.parametrize("family,kw", [
        ("rsf", {"n_trees": 4}),
        ("gbsa", {"n_rounds": 5}),
        ("gb_cox", {"n_rounds": 5}),
        ("gb_aft", {"n_rounds": 5}),
        ("gb_reg_weighted", {"n_rounds": 5}),
        ("ssvm", {}),
    ])
    def test_round_trip_risks(self, tmp_path, family, kw):
        cohort = synth_cohort(120, 3, "ph", [1, 0.5, 0], censor_rate=0.25,
                              seed=34)
        model = fit_family(family, cohort, seed=35, **kw)
        path = tmp_path / f"{family}.json"
        save_model(model, path)
        clone = load_model(path)
        np.testing.assert_allclose(predict_risk(clone, cohort.features),
                                   predict_risk(model, cohort.features),
                                   rtol=1e-12, atol=1e-15)
        if family in ("rsf", "gbsa", "ssvm"):
            a = predict_curves(model, cohort.features[:2])
            b = predict_curves(clone, cohort.features[:2])
            for fa, fb in zip(a, b):
                np.testing.assert_allclose(fa.values, fb.values, rtol=1e-12)

    def test_rsf_reload_is_bit_identical(self, tmp_path):
        cohort = synth_cohort(150, 3, "ph", [1, 0.5, 0], censor_rate=0.25,
                              seed=34)
        model = fit_family("rsf", cohort, seed=35, n_trees=6)
        save_model(model, tmp_path / "rsf.json")
        obj = json.loads((tmp_path / "rsf.json").read_text(encoding="utf-8"))
        assert obj["version"] == 2 and "leaf_chf" not in obj
        clone = load_model(tmp_path / "rsf.json")
        for a, b in zip(model.artifact.steps, clone.artifact.steps):
            for name in ("offsets", "positions", "values", "sums"):
                assert (getattr(a, name).tobytes()
                        == getattr(b, name).tobytes()), name
        X = np.asarray(cohort.features, dtype=float)
        grid = model.artifact.grid
        times = np.concatenate([[grid[0] - 1.0], grid, [grid[-1] + 1.0]])
        assert (predict_risk(clone, X).tobytes()
                == predict_risk(model, X).tobytes())
        assert (survival_matrix(clone, X, times).tobytes()
                == survival_matrix(model, X, times).tobytes())


class TestSameSeedReproducibility:
    @pytest.mark.parametrize("family,kw", [
        ("rsf", {"n_trees": 5}),
        ("gbsa", {"n_rounds": 8, "subsample": 0.8}),
        ("gb_cox", {"n_rounds": 8, "subsample": 0.8}),
        ("gb_aft", {"n_rounds": 8}),
        ("gb_reg_weighted", {"n_rounds": 8}),
        ("ssvm", {"max_pairs": 50}),
    ])
    def test_bitwise_identical_risks(self, family, kw):
        cohort = synth_cohort(150, 3, "ph", [1, 0.5, 0], censor_rate=0.25,
                              seed=36)
        r1 = predict_risk(fit_family(family, cohort, seed=37, **kw),
                          cohort.features)
        r2 = predict_risk(fit_family(family, cohort, seed=37, **kw),
                          cohort.features)
        np.testing.assert_array_equal(r1, r2)


@pytest.fixture(scope="module")
def fitted_families():
    """One small fitted model per family in the table."""
    cohort = synth_cohort(120, 3, "ph", [1, 0.5, 0], censor_rate=0.25,
                          seed=38)
    kw = {"rsf": {"n_trees": 4}, "ssvm": {}, "horizon": {"horizon": 0.6}}
    return cohort, {family: fit_family(family, cohort, seed=39,
                                       **kw.get(family, {"n_rounds": 4}))
                    for family in FAMILY_TABLE}


class TestFamilyTable:
    def test_resave_byte_identical(self, tmp_path, fitted_families):
        _, models = fitted_families
        assert set(models) == set(FAMILIES) | {"horizon"}
        for family, model in models.items():
            first, second = tmp_path / "a.json", tmp_path / "b.json"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes(), family

    def test_survival_matrix_exactly_for_curve_families(self, fitted_families):
        cohort, models = fitted_families
        times = np.quantile(cohort.time, [0.2, 0.5, 0.8])
        for family, model in models.items():
            if family in CURVE_FAMILIES:
                mat = survival_matrix(model, cohort.features[:4], times)
                assert mat.shape == (4, 3), family
            else:
                with pytest.raises(NoSurvivalFunctionError):
                    survival_matrix(model, cohort.features[:4], times)

    def test_unknown_family_rejected(self, tmp_path, fitted_families):
        cohort, models = fitted_families
        with pytest.raises(ConfigError, match="unknown model family"):
            fit_family("cox_ph", cohort)
        bogus = FittedModel(family="cox_ph", artifact=None, params={},
                            n_features=3, event_time_grid=np.ones(1))
        for call in (lambda: predict_risk(bogus, cohort.features),
                     lambda: survival_matrix(bogus, cohort.features, [1.0]),
                     lambda: save_model(bogus, tmp_path / "m.json")):
            with pytest.raises(DataError, match="unknown model family"):
                call()

    def test_file_equals_json_dumps(self, tmp_path, fitted_families):
        _, models = fitted_families
        meta = {"nan": float("nan"), "inf": float("inf"),
                "ninf": -float("inf"), "n": 3, "ok": True, "s": "\u00e9"}
        for family, model in models.items():
            model = replace(model, meta={**model.meta, **meta})
            path = tmp_path / f"{family}.json"
            save_model(model, path)
            expected = json.dumps(M._file_fields(model), sort_keys=True,
                                  default=list)
            assert path.read_bytes() == expected.encode("utf-8"), family
            assert b"NaN" in path.read_bytes() and b"-Infinity" in path.read_bytes()

    def test_writer_matches_json_dumps_on_edge_values(self):
        def cases():  # iterators are single-use, so each pass makes its own
            fields = {"b": [], "a": [{}, {"z": [1, {"y": None}],
                                          "\u00e9": float("nan")}],
                      "c": [[1.5], [2]], "d": {"k": [{"x": -float("inf")}]},
                      "e": [{"x": 1}, 2], "f": [{"x": [{"y": True}]}],
                      "g": "\u2603", "h": {}, "i": iter([]),
                      "j": iter([{"x": float("nan"), "w": -float("inf")}, {}]),
                      "k": iter([1, [2.5], "\u2603", None, {"y": True}])}
            return (fields, {}, {"only": [{"x": 1}]}, {"it": iter([{"x": 1}])})
        for obj, same in zip(cases(), cases()):
            fh = io.StringIO()
            M._write_fields(fh, obj)
            assert fh.getvalue() == json.dumps(same, sort_keys=True,
                                               default=list)

    def test_save_encodes_in_pieces(self, tmp_path):
        cohort = synth_cohort(200, 3, "ph", [1, 0.5, 0], censor_rate=0.3,
                              seed=83)
        model = fit_family("rsf", cohort, n_trees=40, seed=84)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            json.dumps(M._file_fields(model), sort_keys=True, default=list)
            whole = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            save_model(model, tmp_path / "m.json")
            pieces = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert pieces < 0.6 * whole

    def test_failed_save_keeps_old_file(self, tmp_path, fitted_families):
        _, models = fitted_families
        path = tmp_path / "model.json"
        save_model(models["gb_cox"], path)
        before = path.read_bytes()
        model = models["gb_cox"]
        broken = FittedModel(family=model.family, artifact=model.artifact,
                             params={**model.params, "zz": object()},
                             n_features=model.n_features,
                             event_time_grid=model.event_time_grid)
        with pytest.raises(TypeError):
            save_model(broken, path)  # fails midway through the JSON
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestLoadModelErrors:
    def _saved(self, tmp_path, model) -> dict:
        save_model(model, tmp_path / "m.json")
        return json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))

    def _load(self, tmp_path, obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return load_model(path)

    def test_truncated_and_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in ('{"version": 1, "fam', "[1, 2]", ""):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="malformed model file"):
                load_model(path)

    @pytest.mark.parametrize("family,key", [
        ("gb_cox", "n_features"), ("gb_cox", "ensemble"), ("rsf", "grid"),
        ("gbsa", "baseline"), ("ssvm", "weights"), ("horizon", "params"),
    ])
    def test_missing_key(self, tmp_path, fitted_families, family, key):
        obj = self._saved(tmp_path, fitted_families[1][family])
        del obj[key]
        with pytest.raises(DataError, match="malformed model file"):
            self._load(tmp_path, obj)

    def test_unknown_family(self, tmp_path, fitted_families):
        obj = self._saved(tmp_path, fitted_families[1]["gb_cox"])
        obj["family"] = "cox_ph"
        with pytest.raises(DataError, match="unknown model family"):
            self._load(tmp_path, obj)

    def test_shape_mismatches(self, tmp_path, fitted_families):
        models = fitted_families[1]
        rsf = _as_v1(self._saved(tmp_path, models["rsf"]), models["rsf"])
        self._load(tmp_path, rsf)  # the dense v1 form is read
        rsf["leaf_chf"][0] = [row[:-1] for row in rsf["leaf_chf"][0]]
        cox = self._saved(tmp_path, models["gb_cox"])
        cox["n_features"] = 4
        gbsa = self._saved(tmp_path, models["gbsa"])
        gbsa["ensemble"]["n_features"] = 2
        ssvm = self._saved(tmp_path, models["ssvm"])
        ssvm["weights"] = ssvm["weights"][:-1]
        for obj in (rsf, cox, gbsa, ssvm):
            with pytest.raises(DataError, match="malformed model file"):
                self._load(tmp_path, obj)

    @pytest.mark.parametrize("family", ["rsf", "gb_cox"])
    @pytest.mark.parametrize("feature", [3, 7, -1, True, 1.5, 1.0, None, "0"])
    def test_bad_split_feature(self, tmp_path, fitted_families, family,
                               feature):
        obj = self._saved(tmp_path, fitted_families[1][family])
        trees = obj["trees"] if family == "rsf" else obj["ensemble"]["trees"]
        node = trees[-1]
        while "feature" in node["right"]:
            node = node["right"]
        node["feature"] = feature  # the file has 3 features
        with pytest.raises(DataError, match="malformed model file"):
            self._load(tmp_path, obj)

    @pytest.mark.parametrize("family", ["gb_cox", "gbsa"])
    @pytest.mark.parametrize("key", ["base_score", "learning_rate"])
    @pytest.mark.parametrize("bad", ["abc", None, True])
    def test_non_numeric_ensemble_scalar(self, tmp_path, fitted_families,
                                         family, key, bad):
        obj = self._saved(tmp_path, fitted_families[1][family])
        obj["ensemble"][key] = bad
        with pytest.raises(DataError, match="malformed model file"):
            self._load(tmp_path, obj)

    @pytest.mark.parametrize("family", ["rsf", "gbsa"])
    @pytest.mark.parametrize("child", [None, 5, [], "leaf"])
    def test_split_child_not_an_object(self, tmp_path, fitted_families,
                                       family, child):
        obj = self._saved(tmp_path, fitted_families[1][family])
        trees = obj["trees"] if family == "rsf" else obj["ensemble"]["trees"]
        node = trees[0]
        assert "feature" in node
        node["left"] = child
        with pytest.raises(DataError, match="malformed model file"):
            self._load(tmp_path, obj)

    @pytest.mark.parametrize("leaf_id", [999, -1, 1.5, None, "0"])
    def test_out_of_range_leaf_id(self, tmp_path, fitted_families, leaf_id):
        obj = self._saved(tmp_path, fitted_families[1]["rsf"])
        node = obj["trees"][0]
        while "feature" in node:
            node = node["left"]
        node["value"] = leaf_id
        with pytest.raises(DataError, match="malformed model file"):
            self._load(tmp_path, obj)

    @pytest.mark.parametrize("defect", sorted(LEAF_STEP_DEFECTS))
    def test_bad_leaf_steps(self, tmp_path, fitted_families, defect):
        obj = self._saved(tmp_path, fitted_families[1]["rsf"])
        self._load(tmp_path, obj)
        LEAF_STEP_DEFECTS[defect](obj)
        with pytest.raises(DataError, match="malformed model file|"
                           "unsupported model file version"):
            self._load(tmp_path, obj)


class TestModelFileCompatibility:
    """Model files written before trees became node tables, and the same
    models in the current format.

    ``tests/model_files`` holds model file v1 as that code saved it, and
    ``risks.json`` the risks it predicted on 25 rows; ``tests/model_files/v2``
    holds the same models as this code writes them. The files come from
    ``synth_cohort(60, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3, seed=71)``
    with rsf (4 trees, depth 3, min_samples_leaf 5), gbsa and gb_cox (6
    rounds, depth 2), all seeded 73; the rows are the features of the
    same generator at n=25, seed 72. ``v2`` also holds, from the same
    cohort and seed, the other boosted families with 6 rounds of depth 2:
    gb_aft (normal; logistic with sigma 0.8), gb_reg_weighted, and horizon
    (horizon 0.6, subsample 0.7); they have no v1 file.
    """

    @pytest.mark.parametrize("family", ["rsf", "gbsa", "gb_cox"])
    def test_load_predict_resave(self, tmp_path, family):
        recorded = json.loads((MODEL_FILES / "risks.json").read_text(
            encoding="utf-8"))
        for version, path in ((1, MODEL_FILES / f"{family}.json"),
                              (2, MODEL_FILES / "v2" / f"{family}.json")):
            assert json.loads(path.read_text(encoding="utf-8"))["version"] \
                == version
            model = load_model(path)
            risk = predict_risk(model, np.asarray(recorded["features"]))
            assert (risk.tobytes()
                    == np.asarray(recorded["risk"][family]).tobytes())
            save_model(model, tmp_path / "again.json")
            assert ((tmp_path / "again.json").read_bytes()
                    == (MODEL_FILES / "v2" / f"{family}.json").read_bytes())

    def test_refit_writes_the_same_files(self, tmp_path):
        train = synth_cohort(60, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                             seed=71)
        boosted = dict(n_rounds=6, max_depth=2)
        for name, family, kw in (
                ("rsf", "rsf", dict(n_trees=4, max_depth=3,
                                    min_samples_leaf=5)),
                ("gbsa", "gbsa", boosted),
                ("gb_cox", "gb_cox", boosted),
                ("gb_aft_normal", "gb_aft", boosted),
                ("gb_aft_logistic", "gb_aft",
                 dict(boosted, distribution="logistic", sigma=0.8)),
                ("gb_reg_weighted", "gb_reg_weighted", boosted),
                ("horizon", "horizon",
                 dict(boosted, horizon=0.6, subsample=0.7))):
            save_model(fit_family(family, train, seed=73, **kw),
                       tmp_path / "m.json")
            assert ((tmp_path / "m.json").read_bytes()
                    == (MODEL_FILES / "v2" / f"{name}.json").read_bytes()), \
                name


def _json_slots(obj, slots, lists):
    """Every (container, key) slot and every list in a JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    if isinstance(obj, list):
        lists.append(obj)
    for key, value in items:
        slots.append((obj, key))
        _json_slots(value, slots, lists)


_WRONG_TYPES = (None, True, "0", 1.5, -1, 10 ** 400, float("nan"),
                float("inf"), [], {}, [[0]], {"positions": []})


def _mutate(obj: dict, rng) -> str:
    """Apply one seeded structural defect to ``obj``; return its name."""
    slots, lists = [], []
    _json_slots(obj, slots, lists)
    kind = ("drop", "retype", "shorten", "disorder")[rng.integers(4)]
    if kind in ("drop", "retype"):
        parent, key = slots[rng.integers(len(slots))]
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = _WRONG_TYPES[rng.integers(len(_WRONG_TYPES))]
        return f"{kind} {key!r}"
    lists = [x for x in lists if len(x) >= (2 if kind == "disorder" else 1)]
    target = lists[rng.integers(len(lists))]
    if kind == "shorten":
        del target[rng.integers(len(target)):]
    else:
        i, j = rng.choice(len(target), size=2, replace=False)
        target[i], target[j] = target[j], target[i]
    return f"{kind} a list of {len(target)}"


@pytest.mark.parametrize("name, seed", [
    pytest.param("rsf.json", 161, id="1"),
    pytest.param("v2/rsf.json", 162, id="2"),
    *[pytest.param(name, 163 + k, id=name) for k, name in enumerate([
        "gbsa.json", "gb_cox.json", "v2/gbsa.json", "v2/gb_cox.json",
        "v2/gb_aft_normal.json", "v2/gb_aft_logistic.json",
        "v2/gb_reg_weighted.json", "v2/horizon.json"])]])
def test_mutated_rsf_files_load_or_are_data_errors(tmp_path, name, seed):
    """Seeded mutants of every pinned model file (the rsf ones first): each
    one loads and predicts without a warning, or raises DataError; no other
    exception reaches the caller."""
    text = (MODEL_FILES / name).read_text(encoding="utf-8")
    X = np.asarray(json.loads((MODEL_FILES / "risks.json").read_text(
        encoding="utf-8"))["features"])
    rng = np.random.default_rng(seed)
    path = tmp_path / "mutant.json"
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(200):
        obj = json.loads(text)
        # most defects land in the hazards, which hold most of the slots
        defect = [_mutate(obj, rng) for _ in range(rng.integers(1, 3))]
        path.write_text(json.dumps(obj), encoding="utf-8")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = load_model(path)
                predict_risk(model, X)
                if model.family in CURVE_FAMILIES:
                    survival_matrix(model, X, model.event_time_grid[::4])
            outcomes["loaded"] += 1
        except DataError:
            outcomes["refused"] += 1
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{defect}: {exc!r}")
    assert min(outcomes.values()) > 10, outcomes
