"""Property tests: metric invariances and survival-matrix consistency."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from survkit.data import synth_cohort
from survkit.errors import DataError
from survkit.estimators import censoring_survival
from survkit.metrics import TimeGrid, harrell_c, ipcw_c, td_auc
from survkit.models import fit_family, predict_curves, survival_matrix
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
