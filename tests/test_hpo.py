import json
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

import survkit.hpo as hpo
from conftest import cma_replay_oracle
from survkit.data import synth_cohort
from survkit.errors import ConfigError, DataError, TrainingError
from survkit.hpo import (ParamSpec, Study, Trial, _cma_replay, run_study,
                         sample_cmaes, sample_random, sample_tpe, tpe_split)


def make_history(values, xs):
    return [Trial(index=i, params={"x": x}, value=v, fold_values=[v])
            for i, (x, v) in enumerate(zip(xs, values))]


class TestParamSpec:
    def test_float_bounds_validated(self):
        with pytest.raises(ConfigError):
            ParamSpec("x", "float", 1.0, 1.0)

    def test_log_needs_positive_low(self):
        with pytest.raises(ConfigError):
            ParamSpec("x", "float", 0.0, 1.0, log=True)

    def test_categorical_needs_choices(self):
        with pytest.raises(ConfigError):
            ParamSpec("x", "categorical", choices=())

    def test_unit_round_trip(self):
        spec = ParamSpec("lr", "float", 0.01, 1.0, log=True)
        for v in [0.01, 0.1, 1.0]:
            assert spec.from_unit(spec.to_unit(v)) == pytest.approx(v)


class TestTrialStudy:
    def test_value_xor_failure(self):
        with pytest.raises(ConfigError):
            Trial(index=0, params={}, value=1.0, error="boom")
        with pytest.raises(ConfigError):
            Trial(index=0, params={})

    def test_best_tracking(self):
        study = Study(space=[ParamSpec("x", "float", 0, 1)])
        study.record(Trial(index=0, params={"x": 0.1}, value=0.5,
                           fold_values=[0.5]))
        study.record(Trial(index=1, params={"x": 0.2}, error="fail"))
        study.record(Trial(index=2, params={"x": 0.3}, value=0.8,
                           fold_values=[0.8]))
        assert study.best_index == 2

    def test_json_round_trip(self):
        study = Study(space=[ParamSpec("x", "float", 0, 1),
                             ParamSpec("c", "categorical", choices=("a", "b"))],
                      sampler="tpe", seed=3)
        study.record(Trial(index=0, params={"x": 0.5, "c": "a"}, value=0.7,
                           fold_values=[0.6, 0.8]))
        back = Study.from_json(study.to_json())
        assert back.to_json() == study.to_json()

    def test_truncated_json_is_data_error(self):
        study = Study(space=[ParamSpec("x", "float", 0, 1)], sampler="tpe")
        text = study.to_json()
        with pytest.raises(DataError, match="malformed study JSON"):
            Study.from_json(text[:len(text) // 2])


def _two_fold_study() -> dict:
    """A written 2-fold study: trial 0 completed, trial 1 failed."""
    study = Study(space=[ParamSpec("x", "float", 0, 1)], sampler="random",
                  meta={"k_folds": 2})
    study.record(Trial(index=0, params={"x": 0.5}, value=0.7,
                       fold_values=[0.6, 0.8]))
    study.record(Trial(index=1, params={"x": 0.2}, error="fold 0: boom"))
    return json.loads(study.to_json())


# (trial, field, value) that no run writes
FOLD_MUTANTS = [
    (0, "fold_values", "zz"),
    (0, "fold_values", [1.0]),
    (0, "fold_values", [1, 2, float("nan")]),
    (0, "fold_values", [0.6, float("nan")]),
    (0, "fold_values", [0.6, float("inf")]),
    (0, "fold_values", [0.6, True]),
    (0, "fold_values", [0.6, "0.8"]),
    (0, "fold_values", None),
    (1, "error", 5),
    (1, "error", ["boom"]),
    (1, "fold_values", [0.6, 0.8]),
    (1, "fold_values", []),
]


class TestStudyFoldValues:
    def test_written_study_loads(self):
        text = json.dumps(_two_fold_study())
        assert Study.from_json(text).to_json() == json.dumps(
            json.loads(text), sort_keys=True)

    @pytest.mark.parametrize("position,key,value", FOLD_MUTANTS)
    def test_bad_fold_values_or_error_refused(self, position, key, value):
        obj = _two_fold_study()
        obj["trials"][position][key] = value
        with pytest.raises(DataError, match="malformed study JSON"):
            Study.from_json(json.dumps(obj))


class TestRandomSampler:
    def test_bounds_and_kinds(self):
        space = [ParamSpec("f", "float", -2.0, 3.0),
                 ParamSpec("g", "float", 0.1, 10.0, log=True),
                 ParamSpec("i", "int", 1, 9),
                 ParamSpec("c", "categorical", choices=("a", "b", "c"))]
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = sample_random(space, [], rng)
            assert -2.0 <= p["f"] <= 3.0
            assert 0.1 <= p["g"] <= 10.0
            assert isinstance(p["i"], int) and 1 <= p["i"] <= 9
            assert p["c"] in ("a", "b", "c")

    def test_uniformity(self):
        space = [ParamSpec("x", "float", 0.0, 1.0)]
        rng = np.random.default_rng(1)
        draws = [sample_random(space, [], rng)["x"] for _ in range(10000)]
        assert 0.48 <= np.mean(draws) <= 0.52

    def test_single_choice_categorical(self):
        space = [ParamSpec("c", "categorical", choices=("only",))]
        rng = np.random.default_rng(2)
        assert sample_random(space, [], rng)["c"] == "only"

    def test_deterministic_stream(self):
        space = [ParamSpec("x", "float", 0.0, 1.0)]
        a = sample_random(space, [], np.random.default_rng(3))
        b = sample_random(space, [], np.random.default_rng(3))
        assert a == b


class TestTpeSampler:
    def test_startup_delegates_to_random(self):
        space = [ParamSpec("x", "float", 0.0, 1.0)]
        hist = make_history([0.1] * 5, [0.5] * 5)
        got = sample_tpe(space, hist, np.random.default_rng(4))
        want = sample_random(space, hist, np.random.default_rng(4))
        assert got == want

    def test_good_group_size(self):
        hist = make_history(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
        good, bad = tpe_split(hist, 0.25)
        assert len(good) == 2  # ceil(0.25 * 8)
        assert len(bad) == 6
        assert min(t.value for t in good) >= max(t.value for t in bad)

    def test_gamma_one_degenerates_gracefully(self, monkeypatch):
        space = [ParamSpec("x", "float", 0.0, 1.0),
                 ParamSpec("c", "categorical", choices=("a", "b"))]
        rng = np.random.default_rng(5)
        hist = [Trial(index=i, params={"x": x, "c": "a"}, value=-(x - 0.5) ** 2,
                      fold_values=[0.0])
                for i, x in enumerate(np.linspace(0, 1, 20))]
        monkeypatch.setattr(hpo, "_TPE_GAMMA", 1.0)
        for _ in range(20):
            p = sample_tpe(space, hist, rng)
            assert 0.0 <= p["x"] <= 1.0 and p["c"] in ("a", "b")

    def test_quadratic_convergence(self):
        def one_run(seed):
            space = [ParamSpec("x", "float", 0.0, 1.0)]
            hist = []
            for t in range(150):
                rng = np.random.default_rng((seed, t))
                p = sample_tpe(space, hist, rng)
                v = -(p["x"] - 0.7) ** 2
                hist.append(Trial(index=t, params=p, value=v, fold_values=[v]))
            return max(hist, key=lambda tr: tr.value).params["x"]

        hits = sum(abs(one_run(s) - 0.7) <= 0.05 for s in range(20))
        assert hits >= 19

    def test_respects_bounds_with_log_and_int(self):
        space = [ParamSpec("lr", "float", 0.001, 0.5, log=True),
                 ParamSpec("n", "int", 3, 17)]
        rng = np.random.default_rng(6)
        hist = [Trial(index=i, params={"lr": float(l), "n": int(n)},
                      value=float(v), fold_values=[float(v)])
                for i, (l, n, v) in enumerate(zip(
                    np.geomspace(0.001, 0.5, 30),
                    np.linspace(3, 17, 30).round(),
                    np.random.default_rng(7).random(30)))]
        for _ in range(50):
            p = sample_tpe(space, hist, rng)
            assert 0.001 <= p["lr"] <= 0.5
            assert isinstance(p["n"], int) and 3 <= p["n"] <= 17


class TestCmaesSampler:
    def test_first_generation_distribution(self):
        space = [ParamSpec("x", "float", 0.0, 1.0),
                 ParamSpec("y", "float", 0.0, 1.0)]
        draws = np.array([[sample_cmaes(space, [], np.random.default_rng(s))[k]
                           for k in ("x", "y")] for s in range(400)])
        # N(0.5, 0.2^2 I) clipped to the unit box
        assert np.abs(draws.mean(axis=0) - 0.5).max() < 0.05
        assert np.abs(draws.std(axis=0) - 0.2).max() < 0.05

    def test_covariance_stays_spd(self):
        space = [ParamSpec(f"x{i}", "float", 0.0, 1.0) for i in range(3)]
        hist = []
        for t in range(120):
            rng = np.random.default_rng((8, t))
            p = sample_cmaes(space, hist, rng)
            v = -sum((p[f"x{i}"] - 0.5) ** 2 for i in range(3))
            hist.append(Trial(index=t, params=p, value=v, fold_values=[v]))
            state, lam, _ = _cma_replay(space, hist)
            evals = np.linalg.eigvalsh(0.5 * (state.cov + state.cov.T))
            assert np.all(evals > 0)

    def test_sphere_convergence(self):
        def one_run(seed):
            space = [ParamSpec(f"x{i}", "float", 0.0, 1.0) for i in range(3)]
            hist = []
            for t in range(300):
                rng = np.random.default_rng((seed, t))
                p = sample_cmaes(space, hist, rng)
                v = -sum((p[f"x{i}"] - 0.5) ** 2 for i in range(3))
                hist.append(Trial(index=t, params=p, value=v, fold_values=[v]))
            return max(tr.value for tr in hist)

        gaps = [-one_run(s) for s in range(5)]
        assert max(gaps) < 1e-3

    def test_all_categorical_errors(self):
        space = [ParamSpec("c", "categorical", choices=("a", "b"))]
        with pytest.raises(ConfigError):
            sample_cmaes(space, [], np.random.default_rng(9))

    def test_categorical_sampled_alongside_numeric(self):
        space = [ParamSpec("x", "float", 0.0, 1.0),
                 ParamSpec("c", "categorical", choices=("a", "b"))]
        p = sample_cmaes(space, [], np.random.default_rng(10))
        assert p["c"] in ("a", "b") and 0.0 <= p["x"] <= 1.0

    @staticmethod
    def _state_bits(state):
        return (state.mean.tobytes(), state.cov.tobytes(),
                state.p_sigma.tobytes(), state.p_c.tobytes(),
                np.float64(state.sigma).tobytes(), state.gen)

    def test_resumed_replay_equals_full_replay(self):
        space = [ParamSpec("x", "float", 0.0, 1.0),
                 ParamSpec("lr", "float", 1e-3, 1.0, log=True),
                 ParamSpec("n", "int", 1, 9),
                 ParamSpec("c", "categorical", choices=("a", "b"))]

        def objective(p, t):
            if t % 11 == 5:
                return None  # a failed trial
            return -((p["x"] - 0.3) ** 2 + (np.log10(p["lr"]) + 2) ** 2
                     + 0.01 * p["n"])

        def step(hist, seed, t):
            # every proposal against the state replayed from the start
            proposal = sample_cmaes(space, hist, np.random.default_rng((seed, t)))
            state, _, numeric = cma_replay_oracle(space, hist)
            rng = np.random.default_rng((seed, t))
            x = np.clip(state.sample(rng), 0.0, 1.0)
            expected = {s.name: s.from_unit(float(u)) for s, u in zip(numeric, x)}
            expected["c"] = sample_random([space[3]], hist, rng)["c"]
            assert repr(proposal) == repr(expected)
            cached = _cma_replay(space, hist)[0]
            assert self._state_bits(cached) == self._state_bits(state)
            value = objective(proposal, t)
            hist.append(Trial(index=t, params=proposal, value=value,
                              fold_values=None if value is None else [value],
                              error="boom" if value is None else None))

        a, b = [], []
        for t in range(40):  # two studies interleaved: each call misses
            step(a, 1, t)
            step(b, 2, t)
        held = _cma_replay(space, a)[0]
        held_bits = self._state_bits(held)
        for t in range(40, 80):  # one study: each call resumes
            step(a, 1, t)
        assert self._state_bits(held) == held_bits  # never updated in place
        step(a[:25], 3, 25)  # a shorter history replays from the start
        a[30].value += 1e-9  # a changed prefix replays from the start
        step(a, 4, len(a))
        # another space replays from the start
        _cma_replay(space, a)
        assert (self._state_bits(_cma_replay(space[:2], a)[0])
                == self._state_bits(cma_replay_oracle(space[:2], a)[0]))

    def test_failures_ranked_last(self):
        space = [ParamSpec("x", "float", 0.0, 1.0)]
        lam = 4  # population for d=1
        hist = []
        for i in range(lam):
            if i == 0:
                hist.append(Trial(index=i, params={"x": 0.9}, error="boom"))
            else:
                hist.append(Trial(index=i, params={"x": 0.5 + 0.01 * i},
                                  value=1.0 - 0.01 * i,
                                  fold_values=[1.0]))
        state, _, _ = _cma_replay(space, hist)
        # the failed 0.9 draw must not dominate the recombined mean
        assert abs(state.mean[0] - 0.5) < 0.2


SMALL_SPACE = [ParamSpec("learning_rate", "float", 0.05, 0.3),
               ParamSpec("max_depth", "int", 1, 3)]


@pytest.fixture(scope="module")
def small_cohort():
    return synth_cohort(120, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.25,
                        seed=50)


class TestRunStudy:
    def test_single_trial(self, small_cohort):
        study = run_study(small_cohort, "gb_cox", SMALL_SPACE, sampler="random",
                          n_trials=1, k_folds=3, seed=1,
                          base_params={"n_rounds": 5})
        assert len(study.trials) == 1
        assert study.best_index == 0
        assert study.trials[0].fold_values is not None
        assert len(study.trials[0].fold_values) == 3

    def test_deterministic(self, small_cohort):
        kw = dict(sampler="tpe", n_trials=4, k_folds=3, seed=2,
                  base_params={"n_rounds": 5})
        a = run_study(small_cohort, "gb_cox", SMALL_SPACE, **kw)
        b = run_study(small_cohort, "gb_cox", SMALL_SPACE, **kw)
        assert a.to_json() == b.to_json()

    def test_prefix_property_and_resume(self, small_cohort):
        kw = dict(sampler="random", k_folds=3, seed=3,
                  base_params={"n_rounds": 5})
        short = run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=3, **kw)
        full = run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=6, **kw)
        for t_short, t_full in zip(short.trials, full.trials):
            assert t_short.params == t_full.params
            assert t_short.value == t_full.value
        # best value is nondecreasing in the trial prefix
        best_3 = max(t.value for t in full.trials[:3] if not t.failed)
        best_6 = max(t.value for t in full.trials if not t.failed)
        assert best_6 >= best_3
        # resuming the short study reproduces the full study bitwise
        resumed = run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=6,
                            study=short, **kw)
        assert resumed.to_json() == full.to_json()

    def test_resume_with_other_k_folds_refused(self, small_cohort):
        kw = dict(sampler="random", seed=3, base_params={"n_rounds": 5})
        study = run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=2,
                          k_folds=2, **kw)
        with pytest.raises(ConfigError, match="k_folds"):
            run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=4,
                      k_folds=3, study=study, **kw)
        assert len(study.trials) == 2

    @pytest.mark.parametrize("change", [
        {"family": "gb_aft"},
        {"space": SMALL_SPACE[:1]},
        {"objective": "ipcw"},
        {"sampler": "tpe"},
        {"seed": 4},
    ])
    def test_resume_with_other_settings_refused(self, small_cohort, change):
        kw = dict(family="gb_cox", space=SMALL_SPACE, sampler="random",
                  k_folds=2, seed=3, base_params={"n_rounds": 5})
        study = run_study(small_cohort, n_trials=1, **kw)
        with pytest.raises(ConfigError, match="different"):
            run_study(small_cohort, n_trials=2, study=study,
                      **{**kw, **change})

    def test_resume_of_unstratified_study_refused(self, small_cohort):
        kw = dict(family="gb_cox", space=SMALL_SPACE, sampler="random",
                  k_folds=2, seed=3, base_params={"n_rounds": 5})
        study = run_study(small_cohort, n_trials=1, **kw)
        assert study.meta["stratified_folds"] is True
        study.meta["stratified_folds"] = False  # a study from other folds
        with pytest.raises(ConfigError, match="stratified_folds"):
            run_study(small_cohort, n_trials=2, study=study, **kw)

    def test_failed_trials_recorded_and_study_continues(self, small_cohort,
                                                        monkeypatch):
        calls = {"n": 0}
        real = hpo.fit_family

        def flaky(family, cohort, **kw):
            calls["n"] += 1
            if calls["n"] == 1:  # first trial aborts on its first fold
                raise TrainingError("synthetic failure")
            return real(family, cohort, **kw)

        monkeypatch.setattr(hpo, "fit_family", flaky)
        study = run_study(small_cohort, "gb_cox", SMALL_SPACE, sampler="random",
                          n_trials=3, k_folds=3, seed=4,
                          base_params={"n_rounds": 5})
        assert study.trials[0].failed
        assert not study.trials[1].failed
        assert study.best_index is not None

    def test_all_failed_raises(self, small_cohort, monkeypatch):
        def broken(family, cohort, **kw):
            raise TrainingError("always down")

        monkeypatch.setattr(hpo, "fit_family", broken)
        with pytest.raises(TrainingError, match="every trial failed"):
            run_study(small_cohort, "gb_cox", SMALL_SPACE, sampler="random",
                      n_trials=2, k_folds=3, seed=5)

    def test_dummy_parameter_does_not_shift_objective(self, small_cohort):
        # max_pairs far above the available pair count never binds, so the
        # objective ignores it; best values grouped by its sampled half must
        # share one distribution
        space = [ParamSpec("gamma", "float", 0.1, 5.0),
                 ParamSpec("max_pairs", "int", 10_000, 20_000)]
        low, high = [], []
        for seed in range(50):
            study = run_study(small_cohort, "ssvm", space, sampler="random",
                              n_trials=3, k_folds=2, seed=seed,
                              base_params={"epochs": 40})
            best = study.best_trial
            (low if best.params["max_pairs"] < 15_000 else high).append(
                best.value)
        stat = scipy_stats.ks_2samp(low, high)
        assert stat.pvalue > 0.01

    def test_sampler_bounds_respected(self, small_cohort):
        for sampler in ("random", "tpe", "cmaes"):
            study = run_study(small_cohort, "gb_cox", SMALL_SPACE,
                              sampler=sampler, n_trials=6, k_folds=2, seed=6,
                              base_params={"n_rounds": 4})
            for trial in study.trials:
                assert 0.05 <= trial.params["learning_rate"] <= 0.3
                assert 1 <= trial.params["max_depth"] <= 3

    @pytest.mark.parametrize("sampler", ["random", "tpe", "cmaes"])
    def test_risk_only_fits_write_the_same_study(self, small_cohort,
                                                 monkeypatch, sampler):
        space = [ParamSpec("gamma", "float", 1e-3, 10.0, log=True),
                 ParamSpec("epochs", "int", 20, 80)]

        def study_json():
            return run_study(small_cohort, "ssvm", space, sampler=sampler,
                             n_trials=12, k_folds=3, seed=8).to_json()

        risk_only = study_json()
        real = hpo.fit_family
        monkeypatch.setattr(hpo, "fit_family", lambda *a, curves, **kw:
                            real(*a, curves=True, **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # calibration unavailable
            full = study_json()
        assert risk_only == full

    def test_ipcw_objective(self, small_cohort):
        study = run_study(small_cohort, "gb_cox", SMALL_SPACE, sampler="random",
                          n_trials=2, k_folds=2, seed=7, objective="ipcw",
                          base_params={"n_rounds": 4})
        assert study.meta["objective"] == "ipcw"
        assert study.best_trial.value is not None

    def test_config_validation(self, small_cohort):
        with pytest.raises(ConfigError):
            run_study(small_cohort, "gb_cox", SMALL_SPACE, n_trials=0)
        with pytest.raises(ConfigError):
            run_study(small_cohort, "gb_cox", SMALL_SPACE, sampler="nope")

    def test_documented_defaults(self):
        import inspect
        sig = inspect.signature(run_study)
        assert sig.parameters["n_trials"].default == 150
        assert sig.parameters["k_folds"].default == 10
