"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report inline.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import harrell_oracle, random_survival_instance
from survkit.cli import main as cli_main
from survkit.data import synth_cohort
from survkit.errors import NoSurvivalFunctionError
from survkit.estimators import (breslow_baseline, censoring_survival,
                                kaplan_meier, nelson_aalen)
from survkit.explain import permutation_importance, shapley_values
from survkit.hpo import ParamSpec, Trial, sample_cmaes, sample_random, sample_tpe
from survkit.losses import AftLoss, CoxLoss, LogisticLoss, SquaredLoss
from survkit.metrics import (default_time_grid, harrell_c, ibs, ipcw_c,
                             TimeGrid)
from survkit.models import fit_family, predict_curves, predict_risk
from survkit.preprocess import split


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} [{name}]: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} [{name}]: PASS")
        return wrapper
    return deco


@criterion(1, "harrell_c matches the O(n^2) pairwise oracle")
def test_metric_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        time_arr, event, risk = random_survival_instance(rng, max_n=500)
        if not event.any():
            event[0] = 1
        conc, tied, comp = harrell_oracle(time_arr, event, risk)
        if comp == 0:
            continue
        got = harrell_c(time_arr, event, risk)
        assert (got.concordant, got.tied_risk, got.comparable) == \
            (conc, tied, comp), f"seed {seed}"
        assert got.c_index == (conc + 0.5 * tied) / comp
    assert time.perf_counter() - started < 10.0


@criterion(2, "ipcw_c equals harrell_c at zero censoring")
def test_ipcw_reduction():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 300))
        time_arr = rng.exponential(1.0, n)
        event = np.ones(n, dtype=int)
        risk = rng.integers(0, max(2, n // 4), n).astype(float)
        g = censoring_survival(time_arr, event)
        a = harrell_c(time_arr, event, risk).c_index
        b = ipcw_c(time_arr, event, risk, g).c_index
        assert abs(a - b) <= 1e-12, f"seed {seed}"


@criterion(3, "estimator fixtures reproduce hand computations")
def test_estimator_fixtures():
    t, e = [2.0, 3.0, 3.0, 5.0], [1, 1, 1, 0]
    km = kaplan_meier(t, e)
    assert km(2) == pytest.approx(0.75, abs=1e-15)
    assert km(3) == pytest.approx(0.25, abs=1e-15)
    assert km(5) == pytest.approx(0.25, abs=1e-15)
    na = nelson_aalen(t, e)
    assert na(2) == pytest.approx(0.25, abs=1e-15)
    assert na(3) == pytest.approx(0.25 + 2 / 3, abs=1e-15)
    g = censoring_survival(t, e)
    assert g(4.999) == 1.0 and g(5) == 0.0
    h0 = breslow_baseline([1.0, 2.0], [1, 1], [0.0, 0.0])
    assert h0(1) == pytest.approx(0.5, abs=1e-15)
    assert h0(2) == pytest.approx(1.5, abs=1e-15)
    # breslow with flat eta equals nelson-aalen
    rng = np.random.default_rng(42)
    time_arr = rng.integers(1, 25, 400).astype(float)
    event = (rng.random(400) < 0.65).astype(int)
    event[0] = 1
    nb = breslow_baseline(time_arr, event, np.zeros(400))
    nn = nelson_aalen(time_arr, event)
    np.testing.assert_allclose(nb.values, nn.values, atol=1e-12)


def _fd_gradient(fn, pred, step=1e-5):
    grad = np.empty_like(pred)
    for k in range(pred.size):
        up, down = pred.copy(), pred.copy()
        up[k] += step
        down[k] -= step
        grad[k] = (fn(up) - fn(down)) / (2 * step)
    return grad


@criterion(4, "analytic gradients match finite differences")
def test_gradient_checks():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(5, 40))
        time_arr = rng.uniform(0.2, 6.0, n)
        event = (rng.random(n) < 0.6).astype(int)
        event[int(rng.integers(n))] = 1
        w = rng.uniform(0.5, 2.0, n)
        pred = rng.standard_normal(n)
        cases = {
            "cox": lambda p: CoxLoss().value_grad_hess(time_arr, event, p, w),
            "aft_normal": lambda p: AftLoss("normal", 1.2).value_grad_hess(
                time_arr, event, p, w),
            "aft_logistic": lambda p: AftLoss("logistic", 0.9).value_grad_hess(
                time_arr, event, p, w),
            "squared": lambda p: SquaredLoss().value_grad_hess(
                time_arr, None, p, w),
            "logistic": lambda p: LogisticLoss().value_grad_hess(
                None, event, p, w),
        }
        for name, fn in cases.items():
            _, grad, _ = fn(pred)
            approx = _fd_gradient(lambda p: fn(p)[0], pred)
            scale = np.maximum(np.abs(approx), 1e-6)
            rel = np.abs(grad - approx) / scale
            assert rel.max() < 1e-5, f"{name} seed {seed}: {rel.max()}"
        # score identity under uniform weights
        _, grad, _ = CoxLoss().value_grad_hess(time_arr, event, pred)
        assert abs(grad.sum()) < 1e-9


@criterion(5, "model sanity on synthetic cohorts")
def test_model_sanity():
    started = time.perf_counter()
    beta = [1.0, 1.0, 0.0, 0.0, 0.0]
    ph = synth_cohort(3000, 5, "ph", beta, censor_rate=0.3, seed=71)
    aft = synth_cohort(3000, 5, "aft", beta, censor_rate=0.3, seed=72)
    null = synth_cohort(3000, 5, "ph", None, censor_rate=0.3, seed=73)
    ph_tr, ph_te = split(ph, 0.2, seed=74)
    aft_tr, aft_te = split(aft, 0.2, seed=74)
    null_tr, null_te = split(null, 0.2, seed=74)

    def heldout_c(family, train, test):
        model = fit_family(family, train, seed=75)
        risks = predict_risk(model, np.asarray(test.features, float))
        return harrell_c(test.time, test.event, risks).c_index

    for family, floor in [("rsf", 0.70), ("gbsa", 0.70), ("gb_cox", 0.70)]:
        c = heldout_c(family, ph_tr, ph_te)
        assert c >= floor, f"{family}: {c:.4f}"
    c = heldout_c("gb_aft", aft_tr, aft_te)
    assert c >= 0.70, f"gb_aft: {c:.4f}"
    c = heldout_c("ssvm", ph_tr, ph_te)
    assert c >= 0.65, f"ssvm: {c:.4f}"

    for family in ("rsf", "gbsa", "ssvm", "gb_cox", "gb_aft",
                   "gb_reg_weighted"):
        c = heldout_c(family, null_tr, null_te)
        assert abs(c - 0.5) <= 0.04, f"{family} on null cohort: {c:.4f}"
    assert time.perf_counter() - started < 300.0


@criterion(6, "IBS oracle equivalence and fixed points")
def test_ibs_oracle():
    from test_metrics import _ibs_oracle
    cohort = synth_cohort(500, 2, "ph", [0.8, 0.0], censor_rate=0.3, seed=81)
    t, e = cohort.time, cohort.event
    g = censoring_survival(t, e)
    grid = default_time_grid(t, e, g, resolution=50)
    km = kaplan_meier(t, e)
    mat = np.tile(km(grid.times), (500, 1))
    got = ibs(grid, mat, t, e, g)
    want = _ibs_oracle(list(grid.times), mat.tolist(), list(t), list(e))
    assert abs(got - want) <= 1e-9

    # no-censoring fixed points
    rng = np.random.default_rng(82)
    t2 = rng.exponential(1.0, 300)
    e2 = np.ones(300, dtype=int)
    g2 = censoring_survival(t2, e2)
    grid2 = TimeGrid(np.linspace(0.05, 2.0, 40), 40)
    perfect = (t2[:, None] > grid2.times[None, :]).astype(float)
    assert ibs(grid2, perfect, t2, e2, g2) == 0.0
    constant = np.full((300, 40), 0.5)
    assert ibs(grid2, constant, t2, e2, g2) == pytest.approx(0.25)


@criterion(7, "sampler convergence and uniformity")
def test_sampler_convergence():
    # TPE on the 1-D quadratic
    def tpe_best_x(seed):
        space = [ParamSpec("x", "float", 0.0, 1.0)]
        hist = []
        for t in range(150):
            rng = np.random.default_rng((seed, t))
            p = sample_tpe(space, hist, rng)
            v = -(p["x"] - 0.7) ** 2
            hist.append(Trial(index=t, params=p, value=v, fold_values=[v]))
        return max(hist, key=lambda tr: tr.value).params["x"]

    hits = sum(abs(tpe_best_x(s) - 0.7) <= 0.05 for s in range(100))
    assert hits >= 95, f"TPE: {hits}/100"

    # CMA-ES on the 3-D sphere
    def cma_gap(seed):
        space = [ParamSpec(f"x{i}", "float", 0.0, 1.0) for i in range(3)]
        hist = []
        for t in range(300):
            rng = np.random.default_rng((seed, t))
            p = sample_cmaes(space, hist, rng)
            v = -sum((p[f"x{i}"] - 0.5) ** 2 for i in range(3))
            hist.append(Trial(index=t, params=p, value=v, fold_values=[v]))
        return -max(tr.value for tr in hist)

    hits = sum(cma_gap(s) <= 1e-3 for s in range(100))
    assert hits >= 95, f"CMA-ES: {hits}/100"

    # random sampler uniformity
    space = [ParamSpec("x", "float", 0.0, 1.0)]
    rng = np.random.default_rng(83)
    draws = [sample_random(space, [], rng)["x"] for _ in range(10000)]
    assert 0.48 <= float(np.mean(draws)) <= 0.52


@criterion(8, "attribution axioms, MC agreement and PI margin")
def test_attribution_axioms():
    from test_explain import linear_model, oracle_cohort

    # efficiency / symmetry / dummy on constructed models
    rng = np.random.default_rng(91)
    w = np.array([2.0, 0.0, -1.0, 1.0])
    model = linear_model(w)
    half = rng.standard_normal((25, 4))
    background = rng.standard_normal((50, 4))
    instance = rng.standard_normal(4)
    res = shapley_values(model, instance, background, mode="exact")
    assert abs(res.efficiency_residual) <= 1e-9
    assert res.values[1] == pytest.approx(0.0, abs=1e-12)  # dummy feature
    sym_model = linear_model([1.0, 1.0, 0.0, 0.0])
    mirrored = np.vstack([half, half[:, [1, 0, 2, 3]]])
    sym = shapley_values(sym_model, np.array([0.4, 0.4, 1.0, -1.0]), mirrored,
                         mode="exact")
    assert sym.values[0] == pytest.approx(sym.values[1], abs=1e-10)

    # Monte Carlo vs exact at d=6 on a tree ensemble
    cohort = synth_cohort(400, 6, "ph", [1, 1, 0.5, 0, 0, 0],
                          censor_rate=0.3, seed=92)
    tree_model = fit_family("gb_cox", cohort, n_rounds=25, max_depth=2,
                            seed=93)
    bg = np.asarray(cohort.features, float)[:25]
    inst = np.asarray(cohort.features, float)[300]
    exact = shapley_values(tree_model, inst, bg, mode="exact")
    mc = shapley_values(tree_model, inst, bg, mode="montecarlo",
                        n_permutations=2000, seed=94)
    assert np.abs(mc.values - exact.values).max() < \
        0.02 * np.abs(exact.values).max()
    span = abs(exact.v_full - exact.v_empty)
    assert abs(mc.efficiency_residual) < 0.05 * max(span, 1e-12)

    # permutation importance margin on an oracle model
    oracle = oracle_cohort(n=500, d=4, seed=95)
    pi = permutation_importance(linear_model([1.0, 0.0, 0.0, 0.0]), oracle,
                                n_repeats=10, seed=96)
    informative = pi.values[0]
    noise = np.abs(pi.values[1:]).max()
    assert informative >= 10 * max(noise, 1e-12)


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Run prep -> hpo(5 trials) -> train-eval -> explain twice, same seed."""
    started = time.perf_counter()
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path_factory.mktemp(f"e2e_{tag}") / "run"
        base = {"out": str(out), "seed": "2024"}

        def cfg(path, **keys):
            text = "\n".join(f"{k} = {v}" for k, v in {**base, **keys}.items())
            path.write_text(text + "\n", encoding="utf-8")
            return str(path)

        cfgdir = out.parent
        assert cli_main(["synth", "--config", cfg(
            cfgdir / "synth.cfg", **{"synth.n": "420", "synth.d": "4",
                                     "synth.beta": "1.0,0.8,0.0,0.0",
                                     "synth.censor_rate": "0.3"})]) == 0
        assert cli_main(["prep", "--config", cfg(
            cfgdir / "prep.cfg", **{"prep.mode": "survival",
                                    "prep.input": str(out / "cohort.csv")})]) == 0
        assert cli_main(["hpo", "--config", cfg(
            cfgdir / "hpo.cfg", **{
                "families": "gb_cox", "sampler": "tpe", "trials": "5",
                "folds": "3",
                "hpo.space.gb_cox.n_rounds": "int:10:40",
                "hpo.space.gb_cox.learning_rate": "float:0.05:0.3:log",
            })]) == 0
        assert cli_main(["train-eval", "--config", cfg(
            cfgdir / "te.cfg", **{
                "families": "rsf,gbsa,ssvm,gb_cox,gb_aft,gb_reg_weighted",
                "family.rsf.n_trees": "30",
                "family.gbsa.n_rounds": "40",
                "family.gb_aft.n_rounds": "40",
                "family.gb_reg_weighted.n_rounds": "40",
                "horizons": "6,12",
            })]) == 0
        assert cli_main(["explain", "--config", cfg(
            cfgdir / "ex.cfg", **{
                "explain.model": "gb_cox", "explain.n_repeats": "3",
                "explain.sample_size": "15",
            })]) == 0
        outputs.append(out)
    elapsed = time.perf_counter() - started
    return outputs, elapsed


@criterion(9, "metric applicability matrix mirrors the reference table")
def test_applicability_matrix(pipeline_runs):
    outputs, _ = pipeline_runs
    out = outputs[0]
    payload = json.loads((out / "metrics.json").read_text())
    rows = {r["model"]: r for r in payload["models"]}
    assert set(rows) == {"rsf", "gbsa", "ssvm", "gb_cox", "gb_aft",
                         "gb_reg_weighted"}
    for fam in ("rsf", "gbsa", "ssvm"):
        assert rows[fam]["ibs"] is not None, fam
    for fam in ("gb_cox", "gb_aft", "gb_reg_weighted"):
        assert rows[fam]["ibs"] is None, fam
    for fam in ("rsf", "gbsa", "ssvm", "gb_cox"):
        assert rows[fam]["mean_td_auc"] is not None, fam
    for fam in ("gb_aft", "gb_reg_weighted"):
        assert rows[fam]["mean_td_auc"] is None, fam

    # typed error for curve requests on risk-only families
    cohort = synth_cohort(150, 3, "ph", [1, 0, 0], censor_rate=0.2, seed=97)
    for family in ("gb_cox", "gb_aft", "gb_reg_weighted"):
        model = fit_family(family, cohort, n_rounds=3, seed=98)
        with pytest.raises(NoSurvivalFunctionError):
            predict_curves(model, np.asarray(cohort.features, float)[:2])


@criterion(10, "end-to-end determinism with one master seed")
def test_end_to_end_determinism(pipeline_runs):
    (out_a, out_b), elapsed = pipeline_runs
    assert elapsed < 600.0

    def collect(root):
        files = {}
        for path in sorted(root.rglob("*")):
            if path.suffix in (".json", ".csv"):
                files[str(path.relative_to(root))] = path.read_bytes()
        return files

    a, b = collect(out_a), collect(out_b)
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], f"output differs: {name}"
    expected = {"metrics.json", "curves.csv", "horizons.csv",
                "best_params_gb_cox.json", "importance_pi_gb_cox.csv",
                "importance_shap_gb_cox.csv"}
    assert expected.issubset(set(a))
