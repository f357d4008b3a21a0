import json

import numpy as np
import pytest

from survkit.data import synth_cohort
from survkit.engine import (BoostedEnsemble, BoostParams, SurvivalTreeParams,
                            TreeParams, _route, boost, ensemble_from_dict,
                            ensemble_to_dict, fit_regression_tree,
                            fit_survival_tree, predict_tree, tree_from_dict,
                            tree_to_dict)
from survkit.errors import DataError
from survkit.losses import (AftLoss, CoxLoss, FirstOrder, LogisticLoss,
                            SquaredLoss)


def logrank_oracle(time, event, group):
    """Two-group log-rank statistic by direct summation over event times."""
    times = sorted({t for t, e in zip(time, event) if e == 1})
    num = var = 0.0
    for t in times:
        at_risk = [i for i in range(len(time)) if time[i] >= t]
        n = len(at_risk)
        d = sum(1 for i in at_risk if time[i] == t and event[i] == 1)
        n1 = sum(1 for i in at_risk if group[i] == 1)
        d1 = sum(1 for i in at_risk if group[i] == 1 and time[i] == t
                 and event[i] == 1)
        num += d1 - n1 * d / n
        if n > 1:
            var += n1 * (n - n1) * d * (n - d) / (n ** 2 * (n - 1))
    return num, var


class TestRegressionTree:
    def test_equal_gradients_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        g = np.full(8, 0.7)
        h = np.full(8, 2.0)
        tree = fit_regression_tree(X, g, h, TreeParams(reg_lambda=0.0))
        assert tree.feature[0] < 0
        assert tree.value[0] == pytest.approx(-0.7 / 2.0)

    def test_sign_boundary_fixture(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        tree = fit_regression_tree(X, g, h, TreeParams(reg_lambda=0.0))
        assert tree.feature[0] == 0 and tree.threshold[0] == 0.0
        assert tree.value[tree.left[0]] == pytest.approx(1.0)
        assert tree.value[tree.right[0]] == pytest.approx(-1.0)

    def test_gain_floor_gives_single_leaf(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        probe = fit_regression_tree(X, g, h, TreeParams(reg_lambda=0.0))
        best_gain = probe.gain[0]
        tree = fit_regression_tree(
            X, g, h, TreeParams(reg_lambda=0.0, min_split_gain=best_gain + 1e-9))
        assert tree.feature[0] < 0

    def test_gain_recomputation_invariant(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 4))
        g = rng.standard_normal(200)
        h = rng.uniform(0.5, 2.0, 200)
        lam = 0.7
        tree = fit_regression_tree(X, g, h, TreeParams(max_depth=4,
                                                       reg_lambda=lam))

        def recompute(i, idx):
            if tree.feature[i] < 0:
                return
            mask = X[idx, tree.feature[i]] <= tree.threshold[i]
            left, right = idx[mask], idx[~mask]
            def score(sel):
                return g[sel].sum() ** 2 / (h[sel].sum() + lam)
            gain = 0.5 * (score(left) + score(right) - score(idx))
            assert gain == pytest.approx(tree.gain[i], abs=1e-9)
            recompute(tree.left[i], left)
            recompute(tree.right[i], right)

        recompute(0, np.arange(200))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2))
        g = rng.standard_normal(60)
        h = np.ones(60)
        tree = fit_regression_tree(X, g, h,
                                   TreeParams(max_depth=6, min_samples_leaf=10))

        def check(i, idx):
            if tree.feature[i] < 0:
                assert idx.size >= 10
                return
            mask = X[idx, tree.feature[i]] <= tree.threshold[i]
            check(tree.left[i], idx[mask])
            check(tree.right[i], idx[~mask])

        check(0, np.arange(60))

    def test_non_finite_inputs_error(self):
        with pytest.raises(DataError):
            fit_regression_tree(np.ones((3, 1)), np.array([1.0, np.nan, 0.0]),
                                np.ones(3))


class TestSurvivalTree:
    def test_perfect_separator_wins_root(self):
        rng = np.random.default_rng(2)
        n = 120
        group = (np.arange(n) < n // 2).astype(float)
        time = np.where(group == 1, rng.uniform(0.1, 1.0, n),
                        rng.uniform(3.0, 5.0, n))
        X = np.column_stack([group, rng.standard_normal(n)])
        tree = fit_survival_tree(X, time, np.ones(n, int),
                                 SurvivalTreeParams(max_depth=2,
                                                    min_samples_leaf=5,
                                                    mtry=2, seed=0))
        assert tree.feature[0] == 0

    def test_statistic_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        n = 60
        time = rng.integers(1, 15, n).astype(float)
        event = (rng.random(n) < 0.7).astype(int)
        event[0] = 1
        X = rng.standard_normal((n, 1))
        tree = fit_survival_tree(X, time, event,
                                 SurvivalTreeParams(max_depth=1,
                                                    min_samples_leaf=1,
                                                    mtry=1, seed=0))
        assert tree.feature[0] >= 0
        group = (X[:, 0] <= tree.threshold[0]).astype(int)
        num, var = logrank_oracle(time, event, group)
        assert abs(num) / np.sqrt(var) == pytest.approx(tree.gain[0], rel=1e-9)

    def test_constant_features_single_leaf(self):
        X = np.ones((20, 2))
        time = np.arange(1.0, 21.0)
        tree = fit_survival_tree(X, time, np.ones(20, int))
        assert tree.feature[0] < 0

    def test_depth_one_is_a_stump(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        time = rng.exponential(1, 50)
        tree = fit_survival_tree(X, time, np.ones(50, int),
                                 SurvivalTreeParams(max_depth=1,
                                                    min_samples_leaf=2,
                                                    mtry=3, seed=1))
        assert tree.feature[0] >= 0
        assert tree.feature[tree.left[0]] < 0 and tree.feature[tree.right[0]] < 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        time = rng.exponential(1, 80)
        event = (rng.random(80) < 0.8).astype(int)
        event[0] = 1
        params = SurvivalTreeParams(max_depth=4, min_samples_leaf=3, mtry=2,
                                    seed=77)
        t1 = fit_survival_tree(X, time, event, params)
        t2 = fit_survival_tree(X, time, event, params)
        assert tree_to_dict(t1) == tree_to_dict(t2)

    def test_leaf_members_partition_rows(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((70, 3))
        time = rng.exponential(1, 70)
        event = (rng.random(70) < 0.7).astype(int)
        event[0] = 1
        tree = fit_survival_tree(X, time, event,
                                 SurvivalTreeParams(max_depth=3,
                                                    min_samples_leaf=5,
                                                    seed=2))
        leaf = _route([tree], X)[0]
        members = []

        def collect(i):
            if tree.feature[i] < 0:
                members.extend(np.flatnonzero(leaf == i).tolist())
            else:
                collect(tree.left[i])
                collect(tree.right[i])

        collect(0)
        assert sorted(members) == list(range(70))

    def test_no_events_errors(self):
        with pytest.raises(DataError):
            fit_survival_tree(np.ones((5, 1)), np.arange(5.0), np.zeros(5, int))


class TestBoost:
    def test_noiseless_linear_converges(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((300, 3))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1]
        params = BoostParams(n_rounds=200, learning_rate=0.1,
                             tree=TreeParams(max_depth=3, reg_lambda=0.0))
        model = boost(X, y, np.zeros(300, int), SquaredLoss(), params)
        assert model.loss_trace[-1] < 0.01 * model.loss_trace[0]

    def test_zero_rounds_is_base_score(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        model = boost(X, y, np.zeros(10, int), SquaredLoss(),
                      BoostParams(n_rounds=0))
        np.testing.assert_allclose(model.predict(X), y.mean())

    def test_zero_learning_rate_stays_at_base(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        model = boost(X, y, np.zeros(50, int), SquaredLoss(),
                      BoostParams(n_rounds=5, learning_rate=0.0))
        np.testing.assert_allclose(model.predict(X), y.mean())

    @pytest.mark.parametrize("loss_maker", [
        CoxLoss, lambda: FirstOrder(CoxLoss()), SquaredLoss, LogisticLoss,
        AftLoss])
    def test_training_loss_nonincreasing(self, loss_maker):
        cohort = synth_cohort(300, 3, "ph", [1.0, 0.5, 0.0],
                              censor_rate=0.3, seed=9)
        loss = loss_maker()
        params = BoostParams(n_rounds=40, learning_rate=0.1,
                             tree=TreeParams(max_depth=2))
        model = boost(cohort.features, cohort.time, cohort.event, loss, params)
        trace = np.asarray(model.loss_trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_subsample_draws_rows(self):
        cohort = synth_cohort(200, 2, "ph", [1.0, 0.0], censor_rate=0.2, seed=10)
        params = BoostParams(n_rounds=10, subsample=0.6, seed=3)
        model = boost(cohort.features, cohort.time, cohort.event, CoxLoss(),
                      params)
        assert len(model.trees) == 10

    def test_deterministic(self):
        cohort = synth_cohort(150, 2, "ph", [1.0, 0.0], censor_rate=0.2, seed=11)
        params = BoostParams(n_rounds=15, subsample=0.8, seed=4)
        m1 = boost(cohort.features, cohort.time, cohort.event, CoxLoss(), params)
        m2 = boost(cohort.features, cohort.time, cohort.event, CoxLoss(), params)
        np.testing.assert_array_equal(m1.predict(cohort.features),
                                      m2.predict(cohort.features))


class TestPredictEnsemble:
    def test_empty_trees_returns_base(self):
        model = BoostedEnsemble(base_score=1.5, trees=[], learning_rate=0.1,
                                loss_id="squared", n_features=2)
        np.testing.assert_allclose(model.predict(np.ones((4, 2))), 1.5)

    def test_single_stump_trace(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        stump = fit_regression_tree(X, g, np.ones(4), TreeParams(reg_lambda=0.0))
        model = BoostedEnsemble(base_score=0.5, trees=[stump],
                                learning_rate=0.3, loss_id="squared",
                                n_features=1)
        np.testing.assert_allclose(model.predict(X),
                                   0.5 + 0.3 * np.array([1, 1, -1, -1.0]))

    def test_batch_equals_rowwise(self):
        cohort = synth_cohort(100, 3, "ph", [1, 0, 0], censor_rate=0.2, seed=12)
        model = boost(cohort.features, cohort.time, cohort.event, CoxLoss(),
                      BoostParams(n_rounds=8))
        batch = model.predict(cohort.features)
        rowwise = np.concatenate([
            model.predict(cohort.features[i:i + 1])
            for i in range(cohort.n)])
        np.testing.assert_array_equal(batch, rowwise)

    def test_dimension_mismatch(self):
        model = BoostedEnsemble(base_score=0.0, trees=[], learning_rate=0.1,
                                loss_id="squared", n_features=3)
        with pytest.raises(DataError):
            model.predict(np.ones((2, 2)))


class TestSerialization:
    def test_tree_round_trip(self):
        X = np.random.default_rng(13).standard_normal((50, 2))
        g = np.random.default_rng(14).standard_normal(50)
        root = fit_regression_tree(X, g, np.ones(50), TreeParams(max_depth=3))
        clone = tree_from_dict(json.loads(json.dumps(tree_to_dict(root))))
        np.testing.assert_array_equal(predict_tree(root, X),
                                      predict_tree(clone, X))

    def test_ensemble_round_trip_with_version(self):
        cohort = synth_cohort(80, 2, "ph", [1, 0], censor_rate=0.2, seed=15)
        model = boost(cohort.features, cohort.time, cohort.event, CoxLoss(),
                      BoostParams(n_rounds=5))
        payload = ensemble_to_dict(model)
        assert payload["version"] == 2
        for version in (2, 1):  # version 1 ensembles are still read
            payload["version"] = version
            clone = ensemble_from_dict(json.loads(json.dumps(payload)))
            np.testing.assert_array_equal(model.predict(cohort.features),
                                          clone.predict(cohort.features))

    def test_bad_version_rejected(self):
        for version in (99, 3, 0, True, 1.0, "1", None):
            with pytest.raises(DataError,
                               match="unsupported model file version"):
                ensemble_from_dict({"version": version})

    def test_survival_tree_round_trip(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((40, 2))
        time = rng.exponential(1, 40)
        tree = fit_survival_tree(X, time, np.ones(40, int),
                                 SurvivalTreeParams(max_depth=3,
                                                    min_samples_leaf=4))
        payload = tree_to_dict(tree)
        clone = tree_from_dict(json.loads(json.dumps(payload)))
        assert tree_to_dict(clone) == payload
        assert (_route([clone], X)[0].tolist()
                == _route([tree], X)[0].tolist())
