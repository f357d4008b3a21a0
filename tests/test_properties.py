"""Property tests: metric invariances, survival-matrix consistency, the
fast paths (RSF scan and screened split search, the lockstep forest, leaf
hazards and survival, leaf-step storage, IBS, regression split search and
presorted trees, tree and ensemble routing, the boosting loop, comparable
SSVM pairs, the SSVM descent, the presorted Cox calibration, direct
concordance counts, the batched Shapley sums) against their oracles, and
Cox derivatives against finite differences."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (_node_logrank_scan, _node_logrank_screen, _scan_split,
                      apply_tree_oracle, boost_oracle,
                      breslow_oracle, chf_on_grid_oracle, chf_steps_oracle,
                      comparable_pairs_oracle, cox_calibrate_oracle,
                      cox_profile_oracle, forest_leaf_chf, harrell_oracle,
                      leaf_chf_oracle, leaf_sum_oracle,
                      logrank_scan_oracle, predict_tree_oracle,
                      regression_split_oracle, regression_tree_oracle,
                      rsf_ensemble_chf_oracle, rsf_leaf_sum_risk_oracle,
                      rsf_risk_oracle, rsf_survival_oracle,
                      shapley_exact_oracle, shapley_mc_oracle, ssvm_fit_oracle,
                      survival_tree_oracle)
from survkit import metrics
from survkit import engine
from survkit import models
from survkit.data import Cohort, ColumnSpec, synth_cohort
from survkit.engine import (_SCREEN_MIN_ROWS, BoostParams,
                            SurvivalTreeParams, TreeParams,
                            _best_regression_split, _sorted_rows, boost,
                            fit_regression_tree, fit_survival_forest,
                            predict_tree, tree_from_dict, tree_to_dict)
from survkit.losses import (AftLoss, CoxLoss, FirstOrder, LogisticLoss,
                            SquaredLoss)
from survkit.errors import ConvergenceError, DataError, TrainingError
from survkit.estimators import (_cox_profile, _time_blocks,
                                breslow_baseline, censoring_survival,
                                cox_calibrate)
from survkit.explain import shapley_values
from survkit.metrics import TimeGrid, brier, harrell_c, ibs, ipcw_c, td_auc
from survkit.models import (LeafSteps, SsvmParams, _comparable_pairs,
                            _leaf_chf, fit_family,
                            fit_ssvm, predict_curves, predict_risk,
                            survival_matrix)
from survkit.preprocess import split

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

# strictly increasing on the integer risks drawn below, without collisions
MONOTONE = [
    lambda r: 3.0 * r - 7.0,
    lambda r: r ** 3,
    lambda r: np.exp(r / 4.0),
    np.arctan,
]


@st.composite
def instances(draw):
    n = draw(st.integers(2, 40))
    times = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    risks = draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n))
    event = np.asarray(events)
    event[0] = 1
    return (np.asarray(times, dtype=float), event,
            np.asarray(risks, dtype=float))


def _metrics(time, event, risk):
    """(harrell counts, ipcw counts, td-AUC values), None where undefined."""
    g = censoring_survival(time, event)
    out = []
    for fn in (lambda: harrell_c(time, event, risk),
               lambda: ipcw_c(time, event, risk, g)):
        try:
            r = fn()
            out.append((r.concordant, r.tied_risk, r.comparable))
        except DataError:
            out.append(None)
    grid = TimeGrid(np.array([3.5, 6.5, 9.5]), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out.append(td_auc(time, event, risk, grid, g).values)
        except DataError:
            out.append(None)
    return out


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(MONOTONE))
def test_metrics_invariant_under_monotone_risk_transform(inst, transform):
    time, event, risk = inst
    before = _metrics(time, event, risk)
    after = _metrics(time, event, transform(risk))
    assert before[:2] == after[:2]
    if before[2] is None:
        assert after[2] is None
    else:
        assert np.array_equal(before[2], after[2])


@PROPERTY_SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_metrics_invariant_under_row_permutation(inst, rnd):
    time, event, risk = inst
    perm = np.asarray(rnd.sample(range(time.size), time.size))
    before = _metrics(time, event, risk)
    after = _metrics(time[perm], event[perm], risk[perm])
    assert before[0] == after[0]
    for a, b in zip(before[1:], after[1:]):
        if a is None:
            assert b is None
        else:
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def curve_models():
    cohort = synth_cohort(300, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                          seed=61)
    train, test = split(cohort, 0.3, seed=62)
    models = [fit_family("rsf", train, seed=63, n_trees=5),
              fit_family("gbsa", train, seed=63, n_rounds=10),
              fit_family("ssvm", train, seed=63)]
    return models, np.asarray(test.features, dtype=float)


@PROPERTY_SETTINGS
@given(family=st.integers(0, 2),
       rows=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
       times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=25,
                      unique=True))
def test_survival_matrix_equals_stacked_curves(curve_models, family, rows,
                                               times):
    models, X = curve_models
    model = models[family]
    X_rows = X[np.asarray(rows) % X.shape[0]]
    times = np.sort(np.asarray(times))
    mat = survival_matrix(model, X_rows, times)
    assert mat.shape == (len(rows), times.size)
    assert mat.flags.c_contiguous
    native = np.vstack([fn(times) for fn in predict_curves(model, X_rows)])
    assert np.array_equal(mat, native)
    on_grid = predict_curves(model, X_rows, TimeGrid(times, times.size))
    assert np.array_equal(mat, np.vstack([fn.values for fn in on_grid]))


def _assert_scan_equals_oracle(X, time, event, msl, chunk):
    """Block scan == column-by-column oracle, bit for bit, per feature."""
    z, thresholds = _node_logrank_scan(X, time, event, msl, chunk)
    assert z.shape == thresholds.shape == (X.shape[0], X.shape[1] - 1)
    for f in range(X.shape[0]):
        found = logrank_scan_oracle(X[f], time, event, msl, chunk)
        if found is None:
            assert np.all(z[f] == -np.inf)
        else:
            assert z[f].tobytes() == found[0].tobytes()
            assert thresholds[f].tobytes() == found[1].tobytes()


@st.composite
def scan_nodes(draw):
    """A node's (mtry, m) feature block, tied features and times, with m on
    both sides of a ``chunk`` boundary or at m = 2 * min_samples_leaf."""
    chunk = draw(st.sampled_from([2, 3, 4, 8, 16]))
    msl = draw(st.sampled_from([1, 1, 2, 3, 5]))
    m = draw(st.one_of(
        st.builds(lambda k, off: k * chunk + off + 1,
                  st.integers(1, 6), st.integers(-1, 2)),
        st.just(2 * msl),
        st.integers(2, 70)))
    m = max(m, 2 * msl)
    n_feat = draw(st.integers(1, 5))
    levels = draw(st.integers(1, m))
    X = np.asarray(draw(st.lists(st.integers(0, levels), min_size=n_feat * m,
                                 max_size=n_feat * m)),
                   dtype=float).reshape(n_feat, m)
    n_times = draw(st.integers(1, m))
    time = np.asarray(draw(st.lists(st.integers(1, n_times), min_size=m,
                                    max_size=m)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=m,
                                     max_size=m)))
    event[0] = 1
    return X, time, event, msl, chunk


@PROPERTY_SETTINGS
@given(scan_nodes())
def test_logrank_scan_equals_oracle(node):
    _assert_scan_equals_oracle(*node)


@pytest.mark.parametrize("chunk,m", [
    (512, 255), (512, 256), (512, 257),
    (512, 512), (512, 513), (512, 514), (512, 515), (512, 1026),
    (16, 33), (16, 34), (16, 35), (4, 21), (4, 22), (2, 41), (2, 42)])
@pytest.mark.parametrize("msl", [1, 2])
def test_logrank_scan_equals_oracle_at_block_edges(chunk, m, msl):
    # m - 1 = 1 (mod chunk) leaves the oracle a lone last column, which
    # numpy sums pairwise; many distinct event times make that show
    rng = np.random.default_rng(m + 7 * msl + chunk)
    X = np.round(rng.standard_normal((3, m)), 1)
    time = rng.exponential(1.0, size=m)
    event = (rng.random(m) < 0.7).astype(int)
    _assert_scan_equals_oracle(X, time, event, msl, chunk)


@pytest.mark.parametrize("seed", [9, 20, 32])
def test_logrank_scan_equals_oracle_at_one_position(seed):
    # m = 2 * msl admits one position of one feature: a single (K,) column
    # would be summed pairwise by numpy, and at these seeds that differs
    # from the oracle's k-order sum in the last bit
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((1, 20)), 1)
    time = rng.exponential(1.0, size=20)
    event = (rng.random(20) < 0.7).astype(int)
    _assert_scan_equals_oracle(X, time, event, 10, 512)


@st.composite
def screen_nodes(draw):
    """A node on either side of the screen's size cutoff: tied, discrete or
    continuous features, tied or distinct times, light to heavy censoring."""
    m = draw(st.one_of(st.integers(2, 60),
                       st.integers(_SCREEN_MIN_ROWS, _SCREEN_MIN_ROWS + 200)))
    msl = min(draw(st.sampled_from([1, 1, 2, 3, 5, 10])), m // 2)
    chunk = draw(st.sampled_from([2, 3, 16, 512]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_feat = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["levels", "binary", "rounded", "continuous"]))
    if kind == "levels":
        X = rng.integers(0, draw(st.integers(1, m)) + 1, (n_feat, m))
    elif kind == "binary":
        X = rng.integers(0, 2, (n_feat, m))
    elif kind == "rounded":
        X = np.round(rng.standard_normal((n_feat, m)), 1)
    else:
        X = rng.standard_normal((n_feat, m))
    if draw(st.booleans()):
        time = rng.integers(1, draw(st.integers(1, m)) + 1, m).astype(float)
    else:
        time = rng.exponential(1.0, m)
    event = (rng.random(m) < draw(st.sampled_from([0.05, 0.3, 0.7, 1.0])))
    event = event.astype(int)
    event[rng.integers(m)] = 1
    return np.asarray(X, dtype=float), time, event, msl, chunk


def _found_bits(found):
    if found is None:
        return None
    z, feat, thr = found
    return np.float64(z).tobytes(), feat, np.float64(thr).tobytes()


@PROPERTY_SETTINGS
@given(screen_nodes())
def test_logrank_screen_equals_scan_first_max(node):
    X, time, event, msl, chunk = node
    expected = _scan_split(*_node_logrank_scan(X, time, event, msl, chunk))
    found = _node_logrank_screen(X, time, event, msl, chunk)
    assert _found_bits(found) == _found_bits(expected)


@pytest.mark.parametrize("chunk,m,events,seed", [
    (2, 41, 1.0, 2043), (4, 22, 1.0, 2026), (16, 210, 1.0, 1226),
    (16, 258, 0.7, 274), (8, 250, 1.0, 258), (8, 250, 0.7, 1258)])
def test_logrank_screen_equals_scan_at_lone_position(chunk, m, events, seed):
    # msl = 1 and m - 1 = 1 (mod chunk): the scan sums the last position
    # pairwise. The last subject censored alone at the top of feature 1
    # puts the maximum in that column, and at these seeds a pairwise sum
    # there differs from the time-ordered one in the last bit.
    rng = np.random.default_rng(seed)
    time = rng.exponential(1.0, m)
    event = (rng.random(m) < events).astype(int)
    last = np.argmax(time)
    event[last], event[np.argmin(time)] = 0, 1
    X = np.round(rng.standard_normal((3, m)), 1)
    X[1, last] = 10.0
    z, thresholds = _node_logrank_scan(X, time, event, 1, chunk)
    assert np.argmax(z) % (m - 1) == m - 2
    assert _found_bits(_node_logrank_screen(X, time, event, 1, chunk)) \
        == _found_bits(_scan_split(z, thresholds))


@pytest.mark.parametrize("block", [1, 4000])
def test_logrank_screen_in_small_blocks(monkeypatch, block):
    # features and verified positions go through in several passes
    monkeypatch.setattr(engine, "_SCREEN_BLOCK", block)
    rng = np.random.default_rng(block)
    for m in (40, 250):
        X = np.round(rng.standard_normal((4, m)), 1)
        time = rng.integers(1, m // 2, m).astype(float)
        event = (rng.random(m) < 0.6).astype(int)
        # identical features tie at their best position: several are
        # verified, and the first feature must win
        for Xn, ev in ((X, event), (np.tile(np.arange(m, dtype=float), (4, 1)),
                                    np.ones(m, int))):
            _assert_scan_equals_oracle(Xn, time, ev, 3, 512)
            expected = _scan_split(*_node_logrank_scan(Xn, time, ev, 3))
            assert _found_bits(_node_logrank_screen(Xn, time, ev, 3)) \
                == _found_bits(expected)


def _assert_same_table(table, expected):
    for name in ("feature", "threshold", "left", "right", "value", "gain"):
        assert getattr(table, name).dtype == getattr(expected, name).dtype
        assert (getattr(table, name).tobytes()
                == getattr(expected, name).tobytes()), name


def _assert_forest_equals_oracle(X, samples, time, event, params, seeds):
    """Every tree of the lockstep forest == the recursive one-tree grower,
    and to its model-file round trip, and routing its sample (repeats
    included) reaches the grower's leaves."""
    tables = fit_survival_forest(X, samples, time, event, params, seeds)
    assert len(tables) == len(samples)
    for table, sample, seed in zip(tables, samples, seeds):
        expected, leaf = survival_tree_oracle(
            X[sample], time[sample], event[sample],
            replace(params, seed=int(seed)))
        _assert_same_table(table, expected)
        _assert_same_table(
            tree_from_dict(json.loads(json.dumps(tree_to_dict(table)))), table)
        assert engine._route([table], X[sample])[0].tolist() == leaf.tolist()
    return tables


@st.composite
def forests(draw):
    """Small forests on either side of the screen's size cutoff: tied,
    discrete or continuous features, tied or distinct times, light to full
    censoring, bootstrap samples with repeats, 1 to 10 rows per leaf."""
    n = draw(st.one_of(st.integers(2, 60),
                       st.integers(_SCREEN_MIN_ROWS - 10, _SCREEN_MIN_ROWS + 60)))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["levels", "binary", "rounded", "continuous"]))
    if kind == "levels":
        X = rng.integers(0, draw(st.integers(1, n)) + 1, (n, d))
    elif kind == "binary":
        X = rng.integers(0, 2, (n, d))
    elif kind == "rounded":
        X = np.round(rng.standard_normal((n, d)), 1)
    else:
        X = rng.standard_normal((n, d))
    if draw(st.booleans()):
        time = rng.integers(1, draw(st.integers(1, n)) + 1, n).astype(float)
    else:
        time = rng.exponential(1.0, n)
    event = (rng.random(n) < draw(st.sampled_from([0.05, 0.3, 0.7, 1.0])))
    event = event.astype(int)
    event[rng.integers(n)] = 1
    n_trees = draw(st.sampled_from([1, 2, 7]))
    if draw(st.booleans()):
        samples = [rng.integers(0, n, n) for _ in range(n_trees)]
    else:
        samples = [np.arange(n)] * n_trees
    params = SurvivalTreeParams(
        max_depth=draw(st.integers(0, 8)),
        min_samples_leaf=draw(st.integers(1, 10)),
        mtry=draw(st.one_of(st.none(), st.integers(1, d))))
    seeds = rng.integers(0, 2 ** 31, n_trees)
    return np.asarray(X, dtype=float), samples, time, event, params, seeds


@PROPERTY_SETTINGS
@given(forests())
def test_survival_forest_equals_recursive_oracle(forest):
    _assert_forest_equals_oracle(*forest)


@pytest.mark.parametrize("block", [1, 300, 4000])
def test_survival_forest_in_small_blocks(monkeypatch, block):
    # every batched temporary goes through in many small blocks and chunks,
    # including the lone position (msl = 1, m - 1 = 1 mod 512)
    monkeypatch.setattr(engine, "_SCREEN_BLOCK", block)
    rng = np.random.default_rng(block)
    for n, msl in ((40, 3), (250, 5), (514, 1)):
        X = np.round(rng.standard_normal((n, 4)), 1)
        time = rng.integers(1, n // 2, n).astype(float)
        event = (rng.random(n) < 0.6).astype(int)
        samples = [np.arange(n), rng.integers(0, n, n)]
        _assert_forest_equals_oracle(
            X, samples, time, event,
            SurvivalTreeParams(max_depth=3, min_samples_leaf=msl, mtry=2),
            [block, block + 1])


def test_survival_forest_screens_nodes_together():
    # roots of different bootstraps share one screened search, and so do
    # their large children, padded to a common width
    rng = np.random.default_rng(31)
    n = 3 * _SCREEN_MIN_ROWS
    X = np.round(rng.standard_normal((n, 4)), 2)
    time = rng.exponential(1.0, n)
    event = (rng.random(n) < 0.7).astype(int)
    samples = [rng.integers(0, n, n) for _ in range(6)]
    tables = _assert_forest_equals_oracle(
        X, samples, time, event,
        SurvivalTreeParams(max_depth=3, min_samples_leaf=5, mtry=2),
        np.arange(6))
    assert len({t.threshold[0] for t in tables}) > 1


def test_survival_forest_of_two_rows():
    # m = 2 with msl = 1: one split position, summed as a lone column
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    tables = _assert_forest_equals_oracle(
        X, [np.arange(2), np.array([1, 0]), np.array([0, 0])],
        np.array([1.0, 2.0]), np.array([1, 1]),
        SurvivalTreeParams(max_depth=2, min_samples_leaf=1), [3, 4, 5])
    assert tables[0].feature[0] >= 0 and tables[2].feature[0] < 0


@pytest.mark.parametrize("seed", range(4))
def test_min_samples_leaf_zero(seed):
    # msl = 0 admits every position 1..m-1, as msl = 1 does, including the
    # lone last position (m = 514); a node of one row is a leaf
    rng = np.random.default_rng(seed)
    m = (40, 250, 514, 3)[seed]
    X = np.round(rng.standard_normal((3, m)), 1)
    time = rng.exponential(1.0, m)
    event = (rng.random(m) < 0.7).astype(int)
    event[0] = 1
    _assert_scan_equals_oracle(X, time, event, 0, 512)
    expected = _scan_split(*_node_logrank_scan(X, time, event, 0))
    assert _found_bits(_node_logrank_screen(X, time, event, 0)) \
        == _found_bits(expected)
    _assert_forest_equals_oracle(
        X.T, [np.arange(m), rng.integers(0, m, m)], time, event,
        SurvivalTreeParams(max_depth=8, min_samples_leaf=0, mtry=2), [1, 2])


def test_survival_forest_bootstraps_without_events():
    rng = np.random.default_rng(12)
    n = 30
    X = rng.standard_normal((n, 3))
    time = rng.exponential(1.0, n)
    event = np.zeros(n, int)
    event[[4, 17]] = 1
    samples = [rng.integers(0, n, n) for _ in range(7)]
    samples[2] = np.setdiff1d(np.arange(n), [4, 17])
    tables = _assert_forest_equals_oracle(
        X, samples, time, event,
        SurvivalTreeParams(max_depth=4, min_samples_leaf=2), np.arange(7))
    empty = [event[s].sum() == 0 for s in samples]
    assert any(empty) and not all(empty)
    for table, sample, none in zip(tables, samples, empty):
        if none:  # a single leaf holding every sampled row
            assert table.feature.tolist() == [-1]
            leaf = engine._route([table], X[sample])[0]
            assert leaf.tolist() == [0] * sample.size


@PROPERTY_SETTINGS
@given(instances(), st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
def test_ibs_equals_per_time_brier_sum(inst, n_times, seed):
    # ibs evaluates G(T_i-) once; the per-time brier calls evaluate it
    # afresh, and the scores must not move a bit
    time, event, _ = inst
    rng = np.random.default_rng(seed)
    censor = censoring_survival(time, event)
    times = np.unique(rng.uniform(0.5, time.max(), n_times))
    if times.size < 2:
        return
    mat = rng.random((time.size, times.size))
    grid = TimeGrid(times, times.size)

    def outcome(fn):
        try:
            return np.float64(fn()).tobytes()
        except DataError as exc:
            return str(exc)

    per_time = lambda: np.trapezoid(
        [brier(t, mat[:, k], time, event, censor) for k, t in enumerate(times)],
        times) / (times[-1] - times[0])
    assert outcome(lambda: ibs(grid, mat, time, event, censor)) \
        == outcome(per_time)


@st.composite
def leaf_partitions(draw):
    n = draw(st.integers(1, 60))
    n_leaves = draw(st.integers(1, 6))
    leaf = np.asarray(draw(st.lists(st.integers(0, n_leaves - 1), min_size=n,
                                    max_size=n)))
    time = np.asarray(draw(st.lists(st.integers(1, 15), min_size=n,
                                    max_size=n)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    # the grid comes from the whole training set, a superset of the rows
    extra = draw(st.lists(st.integers(1, 15), max_size=10))
    grid = np.unique(np.concatenate([time[event == 1], np.asarray(extra, float)]))
    return leaf, n_leaves, time, event, grid


@PROPERTY_SETTINGS
@given(leaf_partitions())
def test_leaf_chf_equals_stacked_oracle_rows(part):
    leaf, n_leaves, time, event, grid = part
    if grid.size == 0:
        return
    steps = _leaf_chf(leaf, n_leaves, time, event, grid)
    expected = np.vstack([chf_on_grid_oracle(time[leaf == k], event[leaf == k],
                                             grid)
                          for k in range(n_leaves)])
    assert leaf_chf_oracle(steps, grid.size).tobytes() == expected.tobytes()
    # the steps the save code found on the dense rows, and their sums
    assert steps.to_dict() == chf_steps_oracle(expected)
    assert steps.sums.tobytes() == leaf_sum_oracle(expected).tobytes()


@pytest.mark.parametrize("msl", [1, 5])
def test_forest_leaf_chf_equals_stacked_oracle_rows(msl):
    cohort = synth_cohort(150, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                          seed=64)
    X = np.asarray(cohort.features, dtype=float)
    forest = fit_family("rsf", cohort, n_trees=3, bootstrap=False,
                        min_samples_leaf=msl, seed=65).artifact
    grid = np.unique(cohort.time[cohort.event == 1])
    for tree, chf in zip(forest.trees, forest_leaf_chf(forest)):
        leaf_of = tree.value[engine._route([tree], X)[0]].astype(int)
        expected = np.vstack([
            chf_on_grid_oracle(cohort.time[leaf_of == k],
                               cohort.event[leaf_of == k], grid)
            for k in range(int(np.sum(tree.feature < 0)))])
        assert chf.tobytes() == expected.tobytes()


@st.composite
def split_nodes(draw):
    """A node's rows and the params that gate its split: tied integer
    features, hessians with zeros, and gradients at a drawn scale; at 1e200
    G^2 overflows, so every admissible gain is NaN or -inf."""
    n = draw(st.integers(2, 50))
    d = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 6))
    X = np.asarray(draw(st.lists(st.integers(0, levels), min_size=n * d,
                                 max_size=n * d)), dtype=float).reshape(n, d)
    scale = draw(st.sampled_from([1.0, 1e-3, 1e200]))
    g = scale * np.asarray(draw(st.lists(st.integers(-5, 5), min_size=n,
                                         max_size=n)), dtype=float)
    h = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                   dtype=float) / 2
    params = TreeParams(max_depth=draw(st.integers(0, 4)),
                        min_samples_leaf=draw(st.integers(1, 5)),
                        min_child_weight=draw(st.sampled_from([0.0, 0.5, 2.0])),
                        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])))
    return X, g, h, params


def _split_bits(found):
    if found is None:
        return None
    gain, feat, thr = found
    return np.float64(gain).tobytes(), feat, np.float64(thr).tobytes()


@PROPERTY_SETTINGS
@given(split_nodes(), st.data())
def test_regression_split_equals_oracle(node, data):
    X, g, h, params = node
    keep = data.draw(st.lists(st.booleans(), min_size=X.shape[0],
                              max_size=X.shape[0]))
    idx = np.flatnonzero(keep)
    with np.errstate(over="ignore"):
        found = _best_regression_split(X, g, h, idx, params,
                                       idx[_sorted_rows(X[idx])])
        expected = regression_split_oracle(X, g, h, idx, params)
    assert _split_bits(found) == _split_bits(expected)


@PROPERTY_SETTINGS
@given(split_nodes())
def test_presorted_regression_tree_equals_per_node_sorts(node):
    X, g, h, params = node
    with np.errstate(over="ignore", invalid="ignore"):
        tree = fit_regression_tree(X, g, h, params)
        expected = regression_tree_oracle(X, g, h, params)
    assert json.dumps(tree_to_dict(tree)) == json.dumps(expected)
    _assert_same_table(tree_from_dict(json.loads(json.dumps(expected))), tree)


def test_regression_split_skips_nan_gains_like_oracle():
    # G^2 overflows: feature 0's admissible gains are NaN (inf - inf), which
    # the one-feature scan skips, and feature 1 admits no split
    X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    g = np.full(4, 1e200)
    h = np.ones(4)
    idx = np.arange(4)
    params = TreeParams(reg_lambda=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gl = np.cumsum(g)[:-1]
        parent = g.sum() ** 2 / 4
        assert np.all(np.isnan(gl ** 2 / np.arange(1, 4)
                               + (g.sum() - gl) ** 2 / np.arange(3, 0, -1)
                               - parent))
        assert _best_regression_split(X, g, h, idx, params,
                                      idx[_sorted_rows(X[idx])]) is None
        assert regression_split_oracle(X, g, h, idx, params) is None


def _query_rows(X, tables, data):
    """Training rows plus rows drawn from the training values and the split
    thresholds, so some rows lie exactly on a threshold."""
    d = X.shape[1]
    values = np.concatenate([np.unique(X)] + [t.threshold[t.feature >= 0]
                                              for t in tables])
    k = data.draw(st.integers(1, 30))
    picks = data.draw(st.lists(st.integers(0, values.size - 1),
                               min_size=k * d, max_size=k * d))
    return np.vstack([X, values[np.asarray(picks)].reshape(k, d)])


@PROPERTY_SETTINGS
@given(split_nodes(), st.data())
def test_tree_routing_equals_recursive_oracle(node, data):
    X, g, h, params = node
    with np.errstate(over="ignore"):
        tree = fit_regression_tree(X, g, h, params)
    Xq = _query_rows(X, [tree], data)
    assert (predict_tree(tree, Xq).tobytes()
            == predict_tree_oracle(tree, Xq).tobytes())
    assert (engine._route([tree], Xq)[0].tobytes()
            == apply_tree_oracle(tree, Xq).tobytes())


@PROPERTY_SETTINGS
@given(n_rounds=st.integers(0, 6), depth=st.integers(0, 3),
       msl=st.integers(1, 5), subsample=st.sampled_from([0.5, 1.0]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_predict_ensemble_equals_sequential_tree_sum(n_rounds, depth, msl,
                                                     subsample, seed, data):
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((40, 3)), 1)
    y = rng.standard_normal(40)
    model = boost(X, y, np.zeros(40, int), SquaredLoss(),
                  BoostParams(n_rounds=n_rounds, learning_rate=0.3,
                              subsample=subsample, seed=seed,
                              tree=TreeParams(max_depth=depth,
                                              min_samples_leaf=msl)))
    Xq = _query_rows(X, model.trees, data)
    expected = np.full(Xq.shape[0], model.base_score)
    for tree in model.trees:
        expected += model.learning_rate * predict_tree_oracle(tree, Xq)
    assert model.predict(Xq).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_blocked_routing_equals_oracle(monkeypatch, block):
    monkeypatch.setattr(engine, "_ROUTE_BLOCK", block)
    cohort = synth_cohort(150, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                          seed=66)
    X = np.asarray(cohort.features, dtype=float)
    ensemble = fit_family("gb_cox", cohort, n_rounds=9, max_depth=3,
                          seed=67).artifact
    expected = np.full(X.shape[0], ensemble.base_score)
    for tree in ensemble.trees:
        expected += ensemble.learning_rate * predict_tree_oracle(tree, X)
    assert ensemble.predict(X).tobytes() == expected.tobytes()
    forest = fit_family("rsf", cohort, n_trees=5, seed=68).artifact
    total = np.zeros((X.shape[0], forest.grid.size))
    for tree, chf in zip(forest.trees, forest_leaf_chf(forest)):
        total += chf[predict_tree_oracle(tree, X).astype(int)]
    assert (forest.ensemble_chf(X).tobytes()
            == (total / len(forest.trees)).tobytes())


@PROPERTY_SETTINGS
@given(n_trees=st.integers(1, 4), depth=st.integers(0, 4),
       seed=st.integers(0, 2 ** 16),
       rows=st.lists(st.integers(0, 59), min_size=1, max_size=20),
       times=st.lists(st.floats(-1.0, 5.0), min_size=1, max_size=12))
def test_rsf_survival_equals_whole_matrix_oracle(n_trees, depth, seed, rows,
                                                 times):
    cohort = synth_cohort(60, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                          seed=seed)
    forest = fit_family("rsf", cohort, n_trees=n_trees, max_depth=depth,
                        min_samples_leaf=3, seed=seed).artifact
    X = np.asarray(cohort.features, dtype=float)[rows]
    # times before the first grid point, on grid points and between them
    times = np.concatenate([times, forest.grid[:3], [forest.grid[0] - 1e-9]])
    assert (forest.survival(X, times).tobytes()
            == rsf_survival_oracle(forest, X, times).tobytes())


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_blocked_rsf_prediction_equals_whole_matrix_oracle(monkeypatch,
                                                           block_rows):
    cohort = synth_cohort(200, 3, "ph", [1.0, 0.5, 0.0], censor_rate=0.3,
                          seed=71)
    model = fit_family("rsf", cohort, n_trees=6, min_samples_leaf=3, seed=72)
    forest = model.artifact
    X = np.asarray(synth_cohort(150, 3, "ph", [1.0, 0.5, 0.0],
                                censor_rate=0.3, seed=73).features,
                   dtype=float)
    grid = forest.grid
    # before the first grid point, on grid points, between them, past them
    times = np.concatenate([[grid[0] - 1.0], grid[::7],
                            (grid[:-1:5] + grid[1::5]) / 2, [grid[-1] + 1.0]])
    rows = X.shape[0] + 1 if block_rows is None else block_rows

    def budget(width):
        monkeypatch.setattr(models, "_CHF_BLOCK",
                            rows * width * len(forest.trees))
        # one leaf expansion per row block, for all the trees
        expand, calls = models.LeafSteps.at, []
        with monkeypatch.context() as patch:
            patch.setattr(models.LeafSteps, "at",
                          lambda *args: calls.append(1) or expand(*args))
            forest.ensemble_chf(X, np.arange(width))
        assert len(calls) == -(-X.shape[0] // rows)

    budget(grid.size)
    risk = predict_risk(model, X)
    assert risk.tobytes() == rsf_leaf_sum_risk_oracle(forest, X).tobytes()
    np.testing.assert_allclose(risk, rsf_risk_oracle(forest, X), rtol=1e-12,
                               atol=0)
    assert (forest.ensemble_chf(X).tobytes()
            == rsf_ensemble_chf_oracle(forest, X).tobytes())
    budget(times.size)
    assert (survival_matrix(model, X, times).tobytes()
            == rsf_survival_oracle(forest, X, times).tobytes())
    columns = np.searchsorted(grid, times[1:-1], side="right") - 1
    assert (forest.ensemble_chf(X, columns).tobytes()
            == rsf_ensemble_chf_oracle(forest, X, columns).tobytes())
    # columns out of order are expanded in rising order and put back
    falling = np.unique(columns)[::-1]
    assert (forest.ensemble_chf(X, falling).tobytes()
            == rsf_ensemble_chf_oracle(forest, X, falling).tobytes())


@st.composite
def leaf_hazards(draw):
    """(n_leaves, width) nondecreasing hazard rows: leading zeros, flat
    stretches and all-zero rows."""
    n_leaves, width = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 1 / 3, 0.25, 2.0]),
                          min_size=n_leaves * width,
                          max_size=n_leaves * width))
    return np.cumsum(np.reshape(steps, (n_leaves, width)), axis=1)


@PROPERTY_SETTINGS
@given(leaf_hazards())
@example(np.zeros((3, 5)))
@example(np.array([[0.0], [0.5], [0.0]]))
@example(np.array([[0.0, 0.0, 0.2, 0.2], [0.0, 0.0, 0.0, 0.0],
                   [0.1, 0.1, 0.1, 0.3]]))
def test_leaf_steps_expand_bit_for_bit(chf):
    width = chf.shape[1]
    fields = json.loads(json.dumps(LeafSteps.from_dense(chf, width).to_dict()))
    assert fields == chf_steps_oracle(chf)
    assert len(fields["positions"]) == chf.shape[0]
    # a step only where the row changes, so flat stretches cost nothing
    assert (sum(map(len, fields["positions"]))
            == int((np.diff(chf, axis=1, prepend=0.0) != 0).sum()))
    steps = LeafSteps.from_dict(fields, width)
    assert leaf_chf_oracle(steps, width).tobytes() == chf.tobytes()
    assert steps.sums.tobytes() == leaf_sum_oracle(chf).tobytes()


_LOSSES = [SquaredLoss(), LogisticLoss(), CoxLoss(), FirstOrder(CoxLoss()),
           AftLoss()]


@PROPERTY_SETTINGS
@given(loss=st.integers(0, len(_LOSSES) - 1), n_rounds=st.integers(0, 6),
       depth=st.integers(0, 3), subsample=st.sampled_from([0.5, 1.0]),
       weighted=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_boost_equals_two_call_oracle(loss, n_rounds, depth, subsample,
                                      weighted, seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((40, 3)), 1)
    time = rng.exponential(1.0, 40) + 0.01
    event = (rng.random(40) < 0.7).astype(int)
    event[0] = 1
    weights = rng.uniform(0.5, 2.0, 40) if weighted else None
    params = BoostParams(n_rounds=n_rounds, learning_rate=0.3,
                         subsample=subsample, seed=seed,
                         tree=TreeParams(max_depth=depth, min_samples_leaf=2))
    model = boost(X, time, event, _LOSSES[loss], params, weights=weights)
    base, trees, trace = boost_oracle(X, time, event, _LOSSES[loss], params,
                                      weights=weights)
    assert model.base_score == base
    assert [tree_to_dict(t) for t in model.trees] == [tree_to_dict(t)
                                                      for t in trees]
    assert np.asarray(model.loss_trace).tobytes() == np.asarray(trace).tobytes()


@PROPERTY_SETTINGS
@given(loss=st.integers(0, len(_LOSSES) - 1), n_rounds=st.integers(1, 5),
       depth=st.integers(1, 4), subsample=st.sampled_from([0.3, 0.7, 1.0]),
       levels=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_presorted_boost_equals_oracle_on_tied_features(loss, n_rounds, depth,
                                                        subsample, levels,
                                                        seed):
    # integer features: long runs of tied values in every sorted column
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels + 1, (50, 4)).astype(float)
    time = rng.integers(1, 12, 50).astype(float)
    event = (rng.random(50) < 0.6).astype(int)
    event[0] = 1
    params = BoostParams(n_rounds=n_rounds, learning_rate=0.3,
                         subsample=subsample, seed=seed,
                         tree=TreeParams(max_depth=depth, min_samples_leaf=1))
    model = boost(X, time, event, _LOSSES[loss], params)
    base, trees, trace = boost_oracle(X, time, event, _LOSSES[loss], params)
    assert model.base_score == base
    assert [tree_to_dict(t) for t in model.trees] == [tree_to_dict(t)
                                                      for t in trees]
    assert np.asarray(model.loss_trace).tobytes() == np.asarray(trace).tobytes()


class _BreakingLoss:
    """Squared loss whose value or gradient turns non-finite once any
    prediction passes ``limit``."""

    name = "breaking"

    def __init__(self, broken: str, limit: float):
        self.broken, self.limit = broken, limit

    def value_grad_hess(self, time, event, pred, weights=None):
        value, g, h = SquaredLoss().value_grad_hess(time, event, pred, weights)
        if np.any(np.asarray(pred) > self.limit):
            if self.broken == "value":
                value = float("nan")
            else:
                g = np.full_like(g, np.inf)
        return value, g, h

    def intercept(self, time, event, weights=None):
        return 0.0


def _trace_or_error(fit):
    try:
        return np.asarray(fit()).tobytes()
    except TrainingError as exc:
        return str(exc)


@pytest.mark.parametrize("broken", ["value", "gradient"])
@pytest.mark.parametrize("limit", [-1.0, 0.5, 1.5, 2.5, 100.0])
@pytest.mark.parametrize("subsample", [0.5, 1.0])
def test_boost_non_finite_loss_raises_like_oracle(broken, limit, subsample):
    rng = np.random.default_rng(69)
    X = rng.standard_normal((30, 2))
    y, event = 3.0 + X[:, 0], np.zeros(30, int)
    params = BoostParams(n_rounds=8, learning_rate=0.3, subsample=subsample,
                         tree=TreeParams(max_depth=2, min_samples_leaf=2))
    loss = _BreakingLoss(broken, limit)
    new = _trace_or_error(lambda: boost(X, y, event, loss, params).loss_trace)
    old = _trace_or_error(lambda: boost_oracle(X, y, event, loss, params)[2])
    assert new == old
    # the predictions climb from 0 towards 3, so every limit below 3 breaks
    assert isinstance(old, str) == (limit < 3.0)


@st.composite
def pair_instances(draw):
    """Tied times and event patterns: random, an all-censored prefix in
    time order, a single event, or none."""
    n = draw(st.integers(1, 40))
    time = np.asarray(draw(st.lists(st.integers(1, 8), min_size=n,
                                    max_size=n)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    pattern = draw(st.sampled_from(["random", "censored prefix", "single",
                                    "none"]))
    if pattern == "censored prefix":
        event[time <= np.median(time)] = 0
    elif pattern == "single":
        event[:] = 0
        event[draw(st.integers(0, n - 1))] = 1
    elif pattern == "none":
        event[:] = 0
    return time, event


@PROPERTY_SETTINGS
@given(pair_instances(), st.sampled_from(["all", "nearest"]))
def test_comparable_pairs_equal_loop_oracle(inst, mode):
    time, event = inst
    ii, jj = _comparable_pairs(time, event, mode)
    old_ii, old_jj = comparable_pairs_oracle(time, event, mode)
    assert ii.tolist() == old_ii.tolist()
    assert jj.tolist() == old_jj.tolist()


def test_all_comparable_pairs_span_row_blocks(monkeypatch):
    rng = np.random.default_rng(70)
    time = rng.integers(1, 30, 200).astype(float)
    event = (rng.random(200) < 0.5).astype(int)
    expected = [a.tolist() for a in comparable_pairs_oracle(time, event, "all")]
    for block in (1, 199, 200, 401):
        monkeypatch.setattr("survkit.models._PAIR_BLOCK", block)
        assert [a.tolist() for a in _comparable_pairs(time, event, "all")] \
            == expected


@st.composite
def cox_instances(draw):
    n = draw(st.integers(1, 30))
    time = np.asarray(draw(st.lists(st.integers(1, 6), min_size=n,
                                    max_size=n)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    event[draw(st.integers(0, n - 1))] = 1
    weights = np.asarray(draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0,
                                                        3.0]),
                                       min_size=n, max_size=n)))
    eta = np.asarray(draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                   max_size=n)))
    return time, event, eta, weights


@PROPERTY_SETTINGS
@given(cox_instances(), st.booleans())
def test_cox_derivatives_match_central_differences(inst, weighted):
    time, event, eta, weights = inst
    w = weights if weighted else None
    _, grad, hess = CoxLoss().value_grad_hess(time, event, eta, w)
    step = 1e-5
    for j in range(eta.size):
        up, down = eta.copy(), eta.copy()
        up[j] += step
        down[j] -= step
        l_up, g_up, _ = CoxLoss().value_grad_hess(time, event, up, w)
        l_down, g_down, _ = CoxLoss().value_grad_hess(time, event, down, w)
        fd_grad = (l_up - l_down) / (2 * step)
        fd_hess = (g_up[j] - g_down[j]) / (2 * step)
        assert grad[j] == pytest.approx(fd_grad, rel=1e-6, abs=1e-7)
        # the hessian is the diagonal second derivative, floored at 1e-16
        assert hess[j] == pytest.approx(max(fd_hess, 1e-16), rel=1e-6,
                                        abs=1e-7)


@st.composite
def ssvm_instances(draw):
    """Tied times and tied or continuous features, with at least one event."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    time = np.asarray(draw(st.lists(st.integers(1, 10), min_size=n,
                                    max_size=n)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    event[draw(st.integers(0, n - 1))] = 1
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-3.0, 3.0, allow_nan=False))
    X = np.asarray(draw(st.lists(value, min_size=n * d, max_size=n * d)))
    return X.reshape(n, d), time, event


@PROPERTY_SETTINGS
@given(ssvm_instances(),
       st.sampled_from([1e-3, 0.1, 1.0, 10.0]) | st.floats(1e-3, 10.0),
       st.floats(1e-3, 0.5), st.integers(0, 80),
       st.sampled_from(["all", "nearest"]), st.sampled_from([0, 3, 25, 200_000]),
       st.integers(0, 2 ** 31 - 1))
def test_ssvm_weights_equal_descent_oracle(inst, gamma, step_size, epochs,
                                           mode, max_pairs, seed):
    X, time, event = inst
    cohort = Cohort(X, [ColumnSpec(f"x{j}", "numeric")
                        for j in range(X.shape[1])], time, event)
    params = SsvmParams(gamma=gamma, pair_mode=mode, max_pairs=max_pairs,
                        epochs=epochs, step_size=step_size, seed=seed)
    if _comparable_pairs(time, event, mode)[0].size == 0:
        with pytest.raises(DataError, match="no comparable pairs"):
            fit_ssvm(cohort, params, calibrate=False)
        return
    expected = ssvm_fit_oracle(X, time, event, params).tobytes()
    risk_only = fit_ssvm(cohort, params, calibrate=False)
    assert risk_only.artifact.weights.tobytes() == expected
    assert risk_only.artifact.calibration is None
    assert "calibration_error" not in risk_only.meta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # calibration unavailable
        full = fit_ssvm(cohort, params)
    assert full.artifact.weights.tobytes() == expected


@st.composite
def calibration_instances(draw):
    """Tied times, at least two events, and tied, continuous or constant
    scores."""
    n = draw(st.integers(2, 40))
    time = np.asarray(draw(st.lists(st.integers(1, 10), min_size=n,
                                    max_size=n)), dtype=float)
    event = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n,
                                     max_size=n)))
    event[:2] = 1
    kind = draw(st.sampled_from(["tied", "continuous", "constant"]))
    if kind == "tied":
        scores = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    elif kind == "continuous":
        scores = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                               min_size=n, max_size=n))
    else:
        scores = [draw(st.floats(-3.0, 3.0, allow_nan=False))] * n
    order = draw(st.permutations(range(n)))
    return (np.asarray(scores, dtype=float)[order], time[order],
            event[order])


def _bits(*values):
    return np.asarray(values, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(calibration_instances(), st.floats(-5.0, 5.0))
def test_cox_profile_equals_sort_per_call_oracle(inst, beta):
    scores, time, event = inst
    order, uniq, start = _time_blocks(time)
    ev = event[order] == 1
    rs = start[np.searchsorted(uniq, time[order])][ev]
    assert (_bits(*_cox_profile(scores[order], ev, rs, beta))
            == _bits(*cox_profile_oracle(scores, time, event, beta)))
    times, values = breslow_oracle(time, event, beta * scores)
    baseline = breslow_baseline(time, event, beta * scores)
    assert baseline.times.tobytes() == times.tobytes()
    assert baseline.values.tobytes() == values.tobytes()


@PROPERTY_SETTINGS
@given(calibration_instances())
def test_cox_calibrate_equals_sort_per_call_oracle(inst):
    scores, time, event = inst
    try:
        beta, times, values = cox_calibrate_oracle(scores, time, event)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            cox_calibrate(scores, time, event)
        return
    calib = cox_calibrate(scores, time, event)
    assert _bits(calib.beta) == _bits(beta)
    assert calib.baseline.times.tobytes() == times.tobytes()
    assert calib.baseline.values.tobytes() == values.tobytes()


def _concordance_by_path(cutoff, time, event, risk, censor_dist):
    """harrell_c and ipcw_c with ``_DIRECT_COUNT_ROWS`` set to ``cutoff``
    (0: always the sorted prefixes; above n: always direct counts)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_DIRECT_COUNT_ROWS", cutoff)
        out = []
        for fn, args in ((harrell_c, ()), (ipcw_c, (censor_dist,))):
            try:
                out.append(fn(time, event, risk, *args))
            except DataError as exc:
                out.append(str(exc))
        return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 60, "cut-1", "cut", "cut+1", 700]),
       st.sampled_from(["random", "censored tail", "all censored",
                        "all events"]),
       st.booleans(), st.booleans())
def test_direct_counts_equal_prefix_counts(seed, n, pattern, tie_times,
                                           tie_risks):
    cut = metrics._DIRECT_COUNT_ROWS
    n = {"cut-1": cut - 1, "cut": cut, "cut+1": cut + 1}.get(n, n)
    rng = np.random.default_rng(seed)
    time = (rng.integers(1, max(2, n // 3) + 1, n).astype(float) if tie_times
            else rng.exponential(1.0, n))
    risk = (rng.integers(0, max(2, n // 4) + 1, n).astype(float) if tie_risks
            else rng.standard_normal(n))
    event = (rng.random(n) < 0.7).astype(int)
    if pattern == "censored tail":  # the latest times are all censored
        event[time >= np.quantile(time, 0.6)] = 0
    elif pattern == "all censored":
        event[:] = 0
    elif pattern == "all events":
        event[:] = 1
    g = censoring_survival(time, event)
    prefix = _concordance_by_path(0, time, event, risk, g)
    direct = _concordance_by_path(n + 1, time, event, risk, g)
    default = _concordance_by_path(cut, time, event, risk, g)
    assert prefix == direct == default
    for query, censored_ties in ((event == 1, True), (rng.random(n) < 0.5,
                                                      False)):
        counts = []
        for cutoff in (0, n + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "_DIRECT_COUNT_ROWS", cutoff)
                counts.append(metrics._later_risk_counts(
                    time, event, risk, query, censored_ties))
        for a, b in zip(*counts):
            assert a.dtype == b.dtype == np.int64
            assert a.tolist() == b.tolist()
    if n <= 60 and not isinstance(prefix[0], str):
        concordant, tied, comparable = harrell_oracle(time, event, risk)
        assert (direct[0].concordant, direct[0].tied_risk,
                direct[0].comparable) == (concordant, tied, comparable)


_SHAPLEY_FAMILIES = {"gb_cox": {"n_rounds": 5, "max_depth": 2},
                     "rsf": {"n_trees": 3, "max_depth": 3},
                     "horizon": {"n_rounds": 5, "max_depth": 2, "horizon": 0.7},
                     "ssvm": {}}


@pytest.fixture(scope="module")
def shapley_models():
    """(model, features) per (family, d), fitted on first use."""
    fitted = {}

    def get(family, d):
        if (family, d) not in fitted:
            cohort = synth_cohort(120, d, censor_rate=0.3, seed=90 + d)
            model = fit_family(family, cohort, seed=91,
                               **_SHAPLEY_FAMILIES[family])
            fitted[family, d] = model, np.asarray(cohort.features, dtype=float)
        return fitted[family, d]
    return get


@PROPERTY_SETTINGS
@given(family=st.sampled_from(sorted(_SHAPLEY_FAMILIES)), d=st.integers(1, 8),
       mode=st.sampled_from(["exact", "montecarlo"]),
       n_permutations=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       # 700 background rows split the coalitions over several chunks
       n_background=st.one_of(st.integers(1, 30), st.just(700)))
def test_shapley_equals_loop_oracle(shapley_models, family, d, mode,
                                    n_permutations, seed, n_background):
    model, X = shapley_models(family, d)
    rng = np.random.default_rng(seed)
    instance = X[rng.integers(X.shape[0])]
    bg = X[rng.integers(X.shape[0], size=n_background)]
    result = shapley_values(model, instance, bg, mode=mode,
                            n_permutations=n_permutations, seed=seed)
    got = (result.values, result.v_full, result.v_empty,
           result.efficiency_residual)
    want = (shapley_exact_oracle(model, instance, bg) if mode == "exact"
            else shapley_mc_oracle(model, instance, bg, n_permutations, seed))
    if family == "ssvm" and mode == "montecarlo":
        # one batched X @ w may round some rows differently from per-call ones
        scale = max(abs(want[1]), abs(want[2]), np.abs(want[0]).max())
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale)
    else:
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
