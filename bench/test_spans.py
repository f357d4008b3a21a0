"""Tests of the benchmark's own span arithmetic and wrapper transparency.

    python3 -m pytest bench/test_spans.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from spans import (Tracer, aggregate, install, metric_name,  # noqa: E402
                   self_times, traced)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def nested_spans():
    # cli.train_eval [0, 10] > models.fit.rsf [1, 7] > engine.survival_tree
    # [2, 5]; then metrics.harrell_c [8, 9] directly under the verb
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0]))
    verb = tracer.start("cli.train_eval")
    fit = tracer.start("models.fit.rsf")
    tree = tracer.start("engine.survival_tree")
    tracer.end(tree)
    tracer.count(tree, {"engine.survival_tree_nodes": 7})
    tracer.end(fit)
    metric = tracer.start("metrics.harrell_c")
    tracer.end(metric)
    tracer.end(verb)
    return tracer.spans


def test_parents_follow_nesting():
    assert [s[3] for s in nested_spans()] == [-1, 0, 1, 0]


def test_self_time_is_duration_minus_direct_children():
    assert self_times(nested_spans()) == [10 - 6 - 1, 6 - 3, 3, 1]


def test_aggregate_names_layers_verbs_and_counts():
    m = aggregate(nested_spans())
    assert m["models.fit_s.rsf"] == 3.0
    assert m["engine.survival_tree_s"] == 3.0
    assert m["engine.survival_tree_nodes"] == 7
    assert m["metrics.harrell_c_s"] == 1.0
    assert m["layer.cli_s"] == 3.0
    assert m["layer.hpo_s"] == 0.0
    assert m["verb.train_eval_s"] == 10.0
    assert m["trace.spans"] == 4
    # self times of all layers add up to the verb wall time
    assert sum(v for k, v in m.items() if k.startswith("layer.")) == 10.0


def test_metric_name():
    assert metric_name("hpo.sample.tpe") == "hpo.sample_s.tpe"
    assert metric_name("metrics.harrell_c") == "metrics.harrell_c_s"


def test_wrapper_returns_the_same_object_and_closes_its_span():
    tracer = Tracer()
    payload = object()
    fn = traced(tracer, lambda x: payload, "models.save")
    assert fn(1) is payload
    assert tracer.spans[0][2] is not None and tracer._stack == []


def test_wrapper_reraises_the_same_exception():
    tracer = Tracer()
    error = ValueError("boom")

    def fail():
        raise error

    fn = traced(tracer, fail, "models.load", lambda a, k, r: {"never": 1})
    with pytest.raises(ValueError) as caught:
        fn()
    assert caught.value is error
    assert tracer._stack == [] and tracer.spans[0][4] is None
    assert fn.__name__ == "fail"


def test_failure_is_counted_and_reraised():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    fn = traced(tracer, fail, "estimators.cox_calibrate",
                failure=(KeyError, "estimators.cox_calibrate_failed"))
    with pytest.raises(KeyError):
        fn()
    assert aggregate(tracer.spans)["estimators.cox_calibrate_failed"] == 1


def test_install_is_transparent_and_uninstalls():
    import survkit.cli as cli
    import survkit.hpo as hpo
    import survkit.metrics as metrics
    from survkit import fit_family, harrell_c, predict_risk, synth_cohort

    cohort = synth_cohort(n=120, d=3, seed=4)
    X = np.asarray(cohort.features, dtype=float)
    plain_model = fit_family("gb_cox", cohort, n_rounds=5, seed=1)
    plain = predict_risk(plain_model, X)
    plain_c = harrell_c(cohort.time, cohort.event, plain).c_index

    original = cli.harrell_c
    tracer = Tracer()
    inst = install(tracer)
    try:
        assert cli.harrell_c is not original
        model = cli.M.fit_family("gb_cox", cohort, n_rounds=5, seed=1)
        risks = cli.M.predict_risk(model, X)
        c = cli.harrell_c(cohort.time, cohort.event, risks).c_index
        with pytest.raises(cli.DataError):
            cli.harrell_c(cohort.time[:3], cohort.event[:2], risks[:3])
    finally:
        inst.uninstall()
    assert cli.harrell_c is original is metrics.harrell_c
    assert isinstance(vars(hpo.Study)["from_json"], classmethod)
    np.testing.assert_array_equal(risks, plain)
    assert c == plain_c
    m = aggregate(tracer.spans)
    assert m["engine.boost_rounds"] == 5
    assert m["metrics.harrell_c_calls"] == 1
    assert m["models.predict_risk_rows"] == cohort.n
    assert m["models.fit_s.gb_cox"] > 0


def test_trials_are_counted_on_resume():
    from survkit import ParamSpec, run_study, synth_cohort

    cohort = synth_cohort(n=90, d=2, seed=5)
    space = [ParamSpec("gamma", "float", 0.01, 1.0, log=True)]
    tracer = Tracer()
    inst = install(tracer)
    try:
        import survkit.hpo as hpo
        study = hpo.run_study(cohort, "ssvm", space, n_trials=2, k_folds=2)
        hpo.run_study(cohort, "ssvm", space, n_trials=5, k_folds=2,
                      study=study)
    finally:
        inst.uninstall()
    assert run_study is hpo.run_study
    m = aggregate(tracer.spans)
    assert (m["hpo.trials"], m["hpo.trials_failed"]) == (5, 0)
    assert m["hpo.sample_s.random"] > 0 and m["preprocess.kfold_s"] > 0


def test_result_dev():
    ref = {"a": 0.5, "b": None}
    assert run.result_dev({"a": 0.5, "b": None}, ref) == 0.0
    assert run.result_dev({"a": 0.75, "b": None}, ref) == 0.25
    assert math.isinf(run.result_dev({"a": 0.5}, ref))
    assert math.isinf(run.result_dev({"a": 0.5, "b": 1.0}, ref))


def test_spec_lists_only_metrics_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    for metric in spec["end_to_end"]:
        assert run.E2E_UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
