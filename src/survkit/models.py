"""Survival model families behind one train/predict surface.

Every family exposes risk scores under a single convention (higher risk
means earlier expected event); the forest, the first-order Cox booster and
the ranking SVM additionally expose survival curves. The AFT, weighted
regression and second-order Cox boosters are risk-only: asking them for
curves raises NoSurvivalFunctionError.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain, pairwise
from typing import Callable

import numpy as np
from scipy import special

from . import engine
from .data import Cohort, atomic_write
from .engine import (BoostParams, NodeTable, SurvivalTreeParams, TreeParams,
                     boost)
from .errors import (ConfigError, ConvergenceError, DataError,
                     NoSurvivalFunctionError, TrainingError)
from .estimators import (CoxCalibration, StepFunction, breslow_baseline,
                         breslow_survival, cox_calibrate)
from .losses import AftLoss, CoxLoss, FirstOrder, LogisticLoss, SquaredLoss
from .metrics import TimeGrid

__all__ = [
    "FAMILIES",
    "CURVE_FAMILIES",
    "TDAUC_FAMILIES",
    "FAMILY_TABLE",
    "Family",
    "FittedModel",
    "RsfParams", "GbParams", "AftParams", "RegWeightedParams",
    "HorizonParams", "SsvmParams", "SsvmModel",
    "fit_rsf", "fit_gbsa", "fit_gb_cox", "fit_gb_aft",
    "fit_gb_reg_weighted", "fit_horizon_classifier", "fit_ssvm",
    "fit_family", "predict_risk", "predict_curves", "survival_matrix",
    "save_model", "load_model", "PARAM_CLASSES",
]

RSF = "rsf"
GBSA = "gbsa"
SSVM = "ssvm"
GB_COX = "gb_cox"
GB_AFT = "gb_aft"
GB_REG = "gb_reg_weighted"
HORIZON = "horizon"

FAMILIES = (RSF, GBSA, SSVM, GB_COX, GB_AFT, GB_REG)

# (event, subject) comparisons per block when listing all comparable pairs
_PAIR_BLOCK = 1 << 20
# float64 leaf hazards that one row block of a forest's CHF expands at once
_CHF_BLOCK = 1 << 19


def _refuse_negative(params, *names) -> None:
    """Raise ConfigError if any named count of ``params`` is negative."""
    for name in names:
        if getattr(params, name) < 0:
            raise ConfigError(f"{name} must be nonnegative, got "
                              f"{getattr(params, name)}")


def _refuse_bad_rate(params, *names, positive: bool = False) -> None:
    """Raise ConfigError if a named rate of ``params`` is not finite, or
    negative (or zero, when ``positive``)."""
    sign = "positive" if positive else "nonnegative"
    for name in names:
        value = getattr(params, name)
        above = 0 < value if positive else 0 <= value
        if not (above and value < math.inf):
            raise ConfigError(f"{name} must be finite and {sign}, got {value}")


def _refuse_unknown(params, name, choices) -> None:
    """Raise ConfigError if the named option of ``params`` is not one of
    ``choices``."""
    if getattr(params, name) not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got "
                          f"{getattr(params, name)!r}")


@dataclass(frozen=True)
class RsfParams:
    n_trees: int = 100
    mtry: int | None = None  # None: ceil(sqrt(d))
    max_depth: int = 8
    min_samples_leaf: int = 10
    bootstrap: bool = True
    bootstrap_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"mtry must be at least 1, got {self.mtry}")
        _refuse_negative(self, "max_depth", "min_samples_leaf")
        _refuse_bad_rate(self, "bootstrap_fraction", positive=True)


@dataclass(frozen=True)
class GbParams:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 5
    min_child_weight: float = 0.0
    reg_lambda: float = 1.0
    min_split_gain: float = 0.0
    subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _refuse_negative(self, "n_rounds", "max_depth", "min_samples_leaf")
        _refuse_bad_rate(self, "learning_rate", "min_child_weight",
                         "reg_lambda", "min_split_gain")
        if not 0 < self.subsample <= 1:
            raise ConfigError(f"subsample must be in (0, 1], got "
                              f"{self.subsample}")

    def boost_params(self, reg_lambda: float | None = None) -> BoostParams:
        lam = self.reg_lambda if reg_lambda is None else reg_lambda
        return BoostParams(
            n_rounds=self.n_rounds, learning_rate=self.learning_rate,
            subsample=self.subsample, seed=self.seed,
            tree=TreeParams(max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            min_child_weight=self.min_child_weight,
                            reg_lambda=lam,
                            min_split_gain=self.min_split_gain))


@dataclass(frozen=True)
class AftParams(GbParams):
    distribution: str = "normal"
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _refuse_unknown(self, "distribution", ("normal", "logistic"))
        _refuse_bad_rate(self, "sigma", positive=True)


@dataclass(frozen=True)
class RegWeightedParams(GbParams):
    event_weight: float = 1.0
    censored_weight: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        _refuse_bad_rate(self, "event_weight", "censored_weight")


@dataclass(frozen=True)
class HorizonParams(GbParams):
    horizon: float = 12.0

    def __post_init__(self):
        super().__post_init__()
        _refuse_bad_rate(self, "horizon", positive=True)


@dataclass(frozen=True)
class SsvmParams:
    gamma: float = 1.0
    pair_mode: str = "nearest"  # "all" or "nearest"
    max_pairs: int = 200_000
    epochs: int = 500
    step_size: float = 0.01
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _refuse_negative(self, "max_pairs", "epochs")
        _refuse_unknown(self, "pair_mode", ("all", "nearest"))
        _refuse_bad_rate(self, "gamma", "tol")
        _refuse_bad_rate(self, "step_size", positive=True)


def _step_fields(step: StepFunction) -> dict:
    return {"times": step.times.tolist(), "values": step.values.tolist()}


def _step_from(obj: dict) -> StepFunction:
    return StepFunction(np.asarray(obj["times"]), np.asarray(obj["values"]),
                        0.0)


def _running_sums(counts: np.ndarray, flat: np.ndarray):
    """Each run of ``counts`` in ``flat`` added left to right: a matrix of
    running sums, one row per run and flat past its end, and its mask."""
    mask = np.arange(counts.max(initial=0) + 1) < counts[:, None]
    out = np.zeros(mask.shape)
    out[mask] = flat
    return np.cumsum(out, axis=1, out=out), mask


@dataclass(frozen=True, eq=False)
class LeafSteps:
    """One tree's leaf hazards as steps: for j in offsets[k]:offsets[k + 1],
    leaf k's hazard is values[j] from grid column positions[j] on (0 before
    them); sums[k] adds value times run length over them, in step order."""

    offsets: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    sums: np.ndarray

    @classmethod
    def build(cls, counts, positions, values, width: int) -> "LeafSteps":
        offsets = np.concatenate(([0], np.cumsum(counts)))
        ends = np.append(positions[1:], width)
        ends[offsets[1:][counts > 0] - 1] = width  # a leaf's last run
        sums, _ = _running_sums(counts, values * (ends - positions))
        return cls(offsets, positions, values, sums[:, -1])

    @classmethod
    def from_dense(cls, chf, width: int) -> "LeafSteps":
        """Steps where a row's bits change (from 0.0 before column 0)."""
        chf = np.asarray(chf, dtype=float)
        if chf.ndim != 2 or chf.shape[1] != width:
            raise ValueError("leaf hazards do not match the grid")
        bits = np.pad(chf, ((0, 0), (1, 0))).view(np.int64)
        rows, cols = np.nonzero(bits[:, 1:] != bits[:, :-1])
        return cls.build(np.bincount(rows, minlength=chf.shape[0]), cols,
                         chf[rows, cols], width)

    @classmethod
    def from_dict(cls, steps: dict, width: int) -> "LeafSteps":
        """Read a v2 file's steps: each leaf needs one numeric value per int
        position, rising strictly within [0, width); else ValueError."""
        positions, values = steps["positions"], steps["values"]
        if not (isinstance(positions, list) and isinstance(values, list)
                and len(positions) == len(values) and all(
                    isinstance(p, list) and isinstance(v, list)
                    and len(p) == len(v) for p, v in zip(positions, values))):
            raise ValueError("leaf steps need one value per position, in "
                             "one positions and one values list per leaf")
        flat_pos = list(chain.from_iterable(positions))
        flat_val = list(chain.from_iterable(values))
        if not all(type(p) is int and 0 <= p < width for p in flat_pos):
            raise ValueError(f"step positions must be ints in [0, {width})")
        if not all(type(v) is float or type(v) is int for v in flat_val):
            raise ValueError("a step value is not a number")
        counts = np.array([len(p) for p in positions], dtype=np.intp)
        pos = np.asarray(flat_pos, dtype=np.intp)
        # within each leaf, so strictly across the (leaf, position) keys
        if np.any(np.diff(np.repeat(np.arange(counts.size), counts) * width
                          + pos) <= 0):
            raise ValueError("leaf step positions do not rise strictly")
        return cls.build(counts, pos, np.asarray(flat_val, dtype=float), width)

    @classmethod
    def concat(cls, parts) -> "LeafSteps":  # the parts' leaves, in turn
        counts = np.concatenate([np.diff(p.offsets) for p in parts])
        return cls(np.concatenate(([0], np.cumsum(counts))), *(
            np.concatenate([getattr(p, name) for p in parts])
            for name in ("positions", "values", "sums")))

    def to_dict(self) -> dict:
        bounds = list(pairwise(self.offsets.tolist()))
        positions, values = self.positions.tolist(), self.values.tolist()
        return {"positions": [positions[a:b] for a, b in bounds],
                "values": [values[a:b] for a, b in bounds]}

    def at(self, leaves, first, width: int) -> np.ndarray:
        """The hazards of the distinct ``leaves`` at ``width`` columns: each
        step's value from its ``first`` column on, 0.0 before a leaf's first."""
        start = self.offsets[leaves]
        counts = self.offsets[leaves + 1] - start
        local = np.cumsum(counts) - counts
        j = np.arange(counts.sum()) + np.repeat(start - local, counts)
        cols = np.insert(first[j], local, 0)
        ends = np.append(cols[1:], width)
        ends[np.cumsum(counts + 1) - 1] = width
        return np.repeat(np.insert(self.values[j], local, 0.0),
                         ends - cols).reshape(leaves.size, width)


@dataclass
class RsfForest:
    """Forest artifact: trees whose leaf values index their leaf steps."""

    trees: list[NodeTable]
    steps: list[LeafSteps]  # per tree
    grid: np.ndarray        # distinct training event times

    def _leaves(self, X) -> list[np.ndarray]:  # the rows routed once
        return [tree.value[leaf].astype(int) for tree, leaf
                in zip(self.trees, engine._route(self.trees, X))]

    def ensemble_chf(self, X, columns=slice(None)) -> np.ndarray:
        """The tree-averaged CHF of every row on the grid ``columns``: a row
        block expands the leaves it reaches in all trees at once, about
        ``_CHF_BLOCK`` elements at the rising columns, then adds by tree."""
        cols = np.arange(self.grid.size)[columns]
        order = np.argsort(cols, kind="stable")
        steps, cols = LeafSteps.concat(self.steps), cols[order]
        first = np.searchsorted(cols, steps.positions)  # at or after each step
        starts = np.cumsum([0] + [s.sums.size for s in self.steps[:-1]])
        leaves = np.add(self._leaves(X), starts[:, None])  # ids into steps
        out = np.zeros((X.shape[0], cols.size))
        step = max(1, _CHF_BLOCK // max(cols.size * len(self.trees), 1))
        for a in range(0, X.shape[0], step):
            reached, row_of = np.unique(leaves[:, a:a + step],
                                        return_inverse=True)
            chf, block = steps.at(reached, first, cols.size), out[a:a + step]
            for rows in row_of.reshape(len(self.trees), -1):
                block += chf[rows]
            block[:, order] = block / len(self.trees)  # the requested order
        return out

    def risk(self, X) -> np.ndarray:
        """The mortality score: the tree average of each row's leaf sum,
        which is its ensemble CHF summed over the grid up to rounding."""
        total = np.zeros(X.shape[0])
        for steps, leaf in zip(self.steps, self._leaves(X)):
            total += steps.sums[leaf]
        return total / len(self.trees)

    def survival(self, X, times) -> np.ndarray:
        idx = np.searchsorted(self.grid, np.asarray(times, dtype=float),
                              side="right") - 1
        surv = self.ensemble_chf(X, np.clip(idx, 0, None))
        np.negative(surv, out=surv)
        np.exp(surv, out=surv)
        surv[:, idx < 0] = 1.0
        return surv

    def to_fields(self) -> dict:  # trees, leaf_steps: one-shot iterators
        return {"grid": [float(t) for t in self.grid],
                "trees": map(engine.tree_to_dict, self.trees),
                "leaf_steps": map(LeafSteps.to_dict, self.steps)}

    @classmethod
    def from_fields(cls, obj: dict) -> "RsfForest":
        """Read the dense ``leaf_chf`` of v1 or the ``leaf_steps`` of v2."""
        grid = np.asarray(obj["grid"], dtype=float)
        read, key = ((LeafSteps.from_dense, "leaf_chf") if obj["version"] == 1
                     else (LeafSteps.from_dict, "leaf_steps"))
        forest = cls(trees=[engine.tree_from_dict(t) for t in obj["trees"]],
                     steps=[read(s, grid.size) for s in obj[key]], grid=grid)
        if (grid.ndim != 1 or not forest.trees
                or len(forest.trees) != len(forest.steps)):
            raise ValueError("a forest needs a 1-d grid and trees with hazards")
        engine._check_split_features(forest.trees, obj["n_features"])
        for tree, steps in zip(forest.trees, forest.steps):
            ids = tree.value[tree.feature < 0]
            ok = (ids >= 0) & (ids < steps.sums.size) & (ids == np.floor(ids))
            if not ok.all():
                raise ValueError(f"leaf id {float(ids[~ok][0])!r} is not a "
                                 "leaf of the leaf hazards")
        return forest


@dataclass
class SsvmModel:
    """Linear ranking model with optional Cox calibration for curves."""

    weights: np.ndarray
    gamma: float
    pair_mode: str
    calibration: CoxCalibration | None = None

    def calibrated(self) -> CoxCalibration:
        if self.calibration is None:
            raise NoSurvivalFunctionError("SSVM model was fit without calibration")
        return self.calibration

    def survival(self, X, times) -> np.ndarray:
        calib = self.calibrated()
        return breslow_survival(calib.baseline, calib.beta * (X @ self.weights),
                                times)

    def to_fields(self) -> dict:
        fields = {"weights": self.weights.tolist(), "gamma": self.gamma,
                  "pair_mode": self.pair_mode}
        if self.calibration is not None:
            fields["calibration"] = {"beta": self.calibration.beta,
                                     **_step_fields(self.calibration.baseline)}
        return fields

    @classmethod
    def from_fields(cls, obj: dict) -> "SsvmModel":
        weights = np.asarray(obj["weights"], dtype=float)
        if weights.shape != (obj["n_features"],):
            raise ValueError("SSVM weights do not match n_features")
        calib = obj.get("calibration")
        return cls(weights=weights, gamma=obj["gamma"],
                   pair_mode=obj["pair_mode"],
                   calibration=None if calib is None else CoxCalibration(
                       beta=calib["beta"], baseline=_step_from(calib)))


@dataclass
class FittedModel:
    """Immutable trained artifact with a uniform risk convention."""

    family: str
    artifact: object
    params: dict
    n_features: int
    event_time_grid: np.ndarray
    meta: dict = field(default_factory=dict)


def _fitted(family: str, train: Cohort, X, artifact, params,
            meta: dict | None = None) -> FittedModel:
    return FittedModel(family=family, artifact=artifact, params=asdict(params),
                       n_features=X.shape[1],
                       event_time_grid=np.unique(train.time[train.event == 1]),
                       meta=meta or {})


def _check_events(cohort: Cohort) -> None:
    if cohort.event.sum() == 0:
        raise DataError("training cohort has no events")


def _float_features(cohort: Cohort) -> np.ndarray:
    X = np.asarray(cohort.features, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite (encode the cohort first)")
    return X


def _leaf_chf(leaf, n_leaves: int, time, event, grid: np.ndarray) -> LeafSteps:
    """Nelson-Aalen cumulative hazard of every leaf as steps, in one pass.

    ``leaf`` gives each row's leaf id. With q the number of grid times <= t,
    a row is at risk at grid[g] iff q > g and, if it had an event, dies at
    grid[q - 1]. With the rows sorted by (leaf, q), a leaf's at-risk count
    at each of its death times is a difference of two binary searches. Each
    death time is a step (it adds a positive hazard) to the running sum of
    the leaf's increments: bit for bit its own Nelson-Aalen estimate.
    """
    width = grid.size + 1
    key = leaf * width + np.searchsorted(grid, time, side="right")
    rows = np.sort(key)
    dies, deaths = np.unique(key[event == 1], return_counts=True)
    at_risk = (np.searchsorted(rows, dies // width * width + width)
               - np.searchsorted(rows, dies))
    counts = np.bincount(dies // width, minlength=n_leaves)
    hazard, at = _running_sums(counts, deaths / at_risk)
    return LeafSteps.build(counts, dies % width - 1, hazard[at], grid.size)


def fit_rsf(train: Cohort, params: RsfParams = RsfParams()) -> FittedModel:
    """Random survival forest: bagged log-rank trees with Nelson-Aalen leaves.

    The ensemble cumulative hazard is the tree average; the scalar risk is
    the mortality score, the sum of the ensemble CHF over the training
    event-time grid.
    """
    _check_events(train)
    X = _float_features(train)
    n, d = X.shape
    grid = np.unique(train.time[train.event == 1])
    mtry = params.mtry if params.mtry is not None else int(np.ceil(np.sqrt(d)))
    samples, seeds = [], []
    for ss in np.random.SeedSequence(params.seed).spawn(params.n_trees):
        rng = np.random.default_rng(ss)
        if params.bootstrap:
            m = max(1, int(round(params.bootstrap_fraction * n)))
            samples.append(rng.integers(0, n, size=m))
        else:
            samples.append(np.arange(n))
        seeds.append(int(rng.integers(2 ** 31)))
    tables = engine.fit_survival_forest(
        X, samples, train.time, train.event,
        SurvivalTreeParams(max_depth=params.max_depth,
                           min_samples_leaf=params.min_samples_leaf,
                           mtry=mtry), seeds)
    trees, steps = [], []
    for table, sample, leaf in zip(tables, samples, engine._route(tables, X)):
        # a leaf's id is its rank among the leaves in preorder; the value
        # slot holds it
        is_leaf = table.feature < 0
        rank = np.cumsum(is_leaf) - 1
        trees.append(replace(table, value=np.where(is_leaf, rank, np.nan)))
        steps.append(_leaf_chf(rank[leaf[sample]], int(is_leaf.sum()),
                               train.time[sample], train.event[sample], grid))
    return _fitted(RSF, train, X,
                   RsfForest(trees=trees, steps=steps, grid=grid), params)


def fit_gbsa(train: Cohort, params: GbParams = GbParams()) -> FittedModel:
    """First-order Cox boosting (classical formulation): unit hessians and
    no leaf regularization. Curves come from the Breslow baseline at the
    fitted training linear predictor."""
    _check_events(train)
    X = _float_features(train)
    loss = FirstOrder(CoxLoss())
    model = boost(X, train.time, train.event, loss,
                  params.boost_params(reg_lambda=0.0), weights=train.weights)
    eta = model.predict(X)
    baseline = breslow_baseline(train.time, train.event, eta)
    return _fitted(GBSA, train, X, (model, baseline), params)


def fit_gb_cox(train: Cohort, params: GbParams = GbParams()) -> FittedModel:
    """Second-order boosting on the Cox partial likelihood."""
    _check_events(train)
    X = _float_features(train)
    model = boost(X, train.time, train.event, CoxLoss(), params.boost_params(),
                  weights=train.weights)
    return _fitted(GB_COX, train, X, model, params)


def fit_gb_aft(train: Cohort, params: AftParams = AftParams()) -> FittedModel:
    """Second-order boosting on the AFT loss; predictions are log-times."""
    X = _float_features(train)
    loss = AftLoss(params.distribution, params.sigma)
    model = boost(X, train.time, train.event, loss, params.boost_params(),
                  weights=train.weights)
    return _fitted(GB_AFT, train, X, model, params)


def fit_gb_reg_weighted(train: Cohort,
                        params: RegWeightedParams = RegWeightedParams()) -> FittedModel:
    """Weighted squared-loss boosting on time: the status indicator enters
    as a weighting factor (deaths weigh more than censored follow-ups).
    Cohort weights, when present, multiply the status weights."""
    X = _float_features(train)
    w = np.where(train.event == 1, params.event_weight, params.censored_weight)
    if train.weights is not None:
        w = w * train.weights
    model = boost(X, train.time, train.event, SquaredLoss(),
                  params.boost_params(), weights=w)
    return _fitted(GB_REG, train, X, model, params)


def fit_horizon_classifier(train: Cohort,
                           params: HorizonParams = HorizonParams()) -> FittedModel:
    """Fixed-horizon death classifier baseline.

    Subjects censored before the horizon carry no label and are excluded
    from training; the exclusion count is kept in the model metadata.
    """
    X = _float_features(train)
    excluded = (train.time < params.horizon) & (train.event == 0)
    kept = ~excluded
    if not kept.any():
        raise DataError("no subjects retained at this horizon")
    label = ((train.time <= params.horizon) & (train.event == 1)).astype(int)
    w = None if train.weights is None else train.weights[kept]
    model = boost(X[kept], train.time[kept], label[kept], LogisticLoss(),
                  params.boost_params(), weights=w)
    return _fitted(HORIZON, train, X, model, params,
                   meta={"horizon": params.horizon,
                         "n_excluded": int(excluded.sum()),
                         "n_trained": int(kept.sum())})


def _comparable_pairs(time, event, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) with T_i < T_j and subject i an event (i is riskier).

    ``"all"`` lists every such pair, by event i and then j, both ascending.
    ``"nearest"`` pairs each subject j, in stable time order, with the last
    event (in that order) among the subjects strictly before j's tied block.
    """
    n = time.size
    if mode == "all":
        ev = np.flatnonzero(event == 1)
        ii, jj = [], []
        step = max(1, _PAIR_BLOCK // max(n, 1))
        for a in range(0, ev.size, step):
            r, c = np.nonzero(time[ev[a:a + step], None] < time[None, :])
            ii.append(ev[a:a + step][r])
            jj.append(c)
        if not ii:
            return np.empty(0, int), np.empty(0, int)
        return np.concatenate(ii), np.concatenate(jj)
    order = np.argsort(time, kind="stable")
    ts = time[order]
    # position of the last event before each tied block starts
    last = np.maximum.accumulate(np.where(event[order] == 1, np.arange(n), -1))
    block_start = np.searchsorted(ts, ts, side="left")
    prior = np.where(block_start > 0, last[block_start - 1], -1)
    has = prior >= 0
    return order[prior[has]], order[has]


def fit_ssvm(train: Cohort, params: SsvmParams = SsvmParams(),
             calibrate: bool = True) -> FittedModel:
    """Ranking survival SVM with squared hinge on comparable pairs.

    Minimizes 1/2 ||w||^2 + gamma * sum max(0, 1 - w.(x_i - x_j))^2 over
    pairs where subject i dies strictly before subject j is last seen, so
    w.x is a risk utility. Deterministic full-batch gradient descent with
    step halving; curves come from a Cox calibration of the training scores.
    With ``calibrate=False`` the model is risk-only (no calibration).
    """
    _check_events(train)
    X = _float_features(train)
    ii, jj = _comparable_pairs(train.time, train.event, params.pair_mode)
    if ii.size == 0:
        raise DataError("no comparable pairs")
    if params.max_pairs and ii.size > params.max_pairs:
        rng = np.random.default_rng(params.seed)
        pick = np.sort(rng.choice(ii.size, size=params.max_pairs, replace=False))
        ii, jj = ii[pick], jj[pick]
    D = X[ii] - X[jj]
    DT = D.T
    gamma = params.gamma
    twice_gamma = 2.0 * gamma

    def objective(w):
        # max(0, 1 - D @ w), built in place
        slack = D @ w
        np.subtract(1.0, slack, out=slack)
        np.maximum(0.0, slack, out=slack)
        return 0.5 * w @ w + gamma * np.add.reduce(slack * slack), slack

    w = np.zeros(X.shape[1])
    fval, slack = objective(w)
    step = params.step_size
    for _ in range(params.epochs):
        grad = w - twice_gamma * (DT @ slack)
        gnorm = math.sqrt(grad.dot(grad))  # what np.linalg.norm computes
        if gnorm <= params.tol:
            break
        new_w = w - step * grad
        new_f, new_slack = objective(new_w)
        halved = 0
        while new_f >= fval and halved < 40:
            step *= 0.5
            new_w = w - step * grad
            new_f, new_slack = objective(new_w)
            halved += 1
        if new_f >= fval:
            break
        w, fval, slack = new_w, new_f, new_slack
        step *= 2.0  # re-expand after a successful move
    if not np.all(np.isfinite(w)):
        raise TrainingError("SSVM weights became non-finite")

    scores = X @ w
    calibration = None
    meta = {"n_pairs": int(ii.size)}
    if calibrate and train.event.sum() >= 2:
        try:
            calibration = cox_calibrate(scores, train.time, train.event)
        except ConvergenceError as exc:
            # separable scores have no finite Cox MLE; keep the risk model
            warnings.warn(f"SSVM curve calibration unavailable: {exc}",
                          stacklevel=2)
            meta["calibration_error"] = str(exc)
    artifact = SsvmModel(weights=w, gamma=params.gamma,
                         pair_mode=params.pair_mode, calibration=calibration)
    return _fitted(SSVM, train, X, artifact, params, meta)


# ------------------------------------------------------------ family table

def _ensemble_fields(ensemble: engine.BoostedEnsemble) -> dict:
    return {"ensemble": engine.ensemble_to_dict(ensemble)}


def _ensemble_from(obj: dict) -> engine.BoostedEnsemble:
    ensemble = engine.ensemble_from_dict(obj["ensemble"])
    if ensemble.n_features != obj["n_features"]:
        raise ValueError("ensemble n_features does not match the model")
    return ensemble


@dataclass(frozen=True)
class Family:
    """Everything survkit knows about one model family.

    ``risk`` follows the package convention (higher = earlier event).
    ``survival`` returns the (n, len(times)) matrix; it is None for
    risk-only families.
    ``fields`` and ``from_fields`` map the artifact to and from its
    model-file keys (by default, one boosted ensemble); the readers raise
    ValueError on a malformed file. ``space`` is the default HPO space as
    (name, kind, low, high[, log]) tuples; empty means the family has none.
    ``fit_risk_only`` fits a model whose risks equal ``fit``'s while
    skipping work that only its curves need; None means ``fit`` does no
    such work.
    """

    params: type
    fit: Callable[[Cohort, object], FittedModel]
    risk: Callable[[object, np.ndarray], np.ndarray]
    fields: Callable[[object], dict] = _ensemble_fields
    from_fields: Callable[[dict], object] = _ensemble_from
    survival: Callable[[object, np.ndarray, object], np.ndarray] | None = None
    td_auc: bool = False
    space: tuple = ()
    fit_risk_only: Callable[[Cohort, object], FittedModel] | None = None


_BOOST_SPACE = (("n_rounds", "int", 50, 300),
                ("learning_rate", "float", 0.01, 0.3, True),
                ("max_depth", "int", 2, 5),
                ("subsample", "float", 0.5, 1.0))
_REG_BOOST_SPACE = _BOOST_SPACE + (("reg_lambda", "float", 1e-3, 10.0, True),)

# The one place that knows each family: adding a family means one fit
# function plus one entry here.
FAMILY_TABLE: dict[str, Family] = {
    RSF: Family(
        RsfParams, fit_rsf,
        risk=RsfForest.risk,
        survival=RsfForest.survival,
        fields=RsfForest.to_fields, from_fields=RsfForest.from_fields,
        td_auc=True,
        space=(("n_trees", "int", 30, 150), ("max_depth", "int", 3, 10),
               ("min_samples_leaf", "int", 5, 50))),
    GBSA: Family(
        GbParams, fit_gbsa,
        risk=lambda art, X: art[0].predict(X),
        survival=lambda art, X, times: breslow_survival(
            art[1], art[0].predict(X), times),
        fields=lambda art: {**_ensemble_fields(art[0]),
                            "baseline": _step_fields(art[1])},
        from_fields=lambda obj: (_ensemble_from(obj),
                                 _step_from(obj["baseline"])),
        td_auc=True,
        space=_BOOST_SPACE),
    SSVM: Family(
        SsvmParams, fit_ssvm,
        risk=lambda svm, X: X @ svm.weights,
        survival=SsvmModel.survival,
        fields=SsvmModel.to_fields, from_fields=SsvmModel.from_fields,
        td_auc=True,
        space=(("gamma", "float", 1e-3, 10.0, True),),
        fit_risk_only=partial(fit_ssvm, calibrate=False)),
    GB_COX: Family(
        GbParams, fit_gb_cox,
        risk=lambda ensemble, X: ensemble.predict(X),
        td_auc=True, space=_REG_BOOST_SPACE),
    GB_AFT: Family(
        AftParams, fit_gb_aft,
        risk=lambda ensemble, X: -ensemble.predict(X),  # log-time
        space=_REG_BOOST_SPACE + (("sigma", "float", 0.5, 2.0),)),
    GB_REG: Family(
        RegWeightedParams, fit_gb_reg_weighted,
        risk=lambda ensemble, X: -ensemble.predict(X),  # time
        space=_REG_BOOST_SPACE + (("censored_weight", "float", 0.1, 1.0),)),
    HORIZON: Family(
        HorizonParams, fit_horizon_classifier,
        risk=lambda ensemble, X: special.expit(ensemble.predict(X))),
}

PARAM_CLASSES = {name: fam.params for name, fam in FAMILY_TABLE.items()}
CURVE_FAMILIES = tuple(f for f in FAMILIES if FAMILY_TABLE[f].survival)
TDAUC_FAMILIES = tuple(f for f in FAMILIES if FAMILY_TABLE[f].td_auc)


def _family(name: str, error: type = DataError) -> Family:
    if name not in FAMILY_TABLE:
        raise error(f"unknown model family {name!r}")
    return FAMILY_TABLE[name]


def fit_family(family: str, train: Cohort, *, curves: bool = True,
               **overrides) -> FittedModel:
    """Train one family by name; ``overrides`` update the default params.

    ``curves=False`` asks for a model that is only scored by its risks: a
    family with a ``fit_risk_only`` then skips its curve work, so asking
    the model for curves may raise NoSurvivalFunctionError.
    """
    fam = _family(family, ConfigError)
    try:
        params = fam.params(**overrides)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {family}: {exc}") from None
    if not curves and fam.fit_risk_only is not None:
        return fam.fit_risk_only(train, params)
    return fam.fit(train, params)


def _check_dim(model: FittedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    return X


def predict_risk(model: FittedModel, features) -> np.ndarray:
    """Family-specific score, sign-normalized so higher = earlier event."""
    X = _check_dim(model, features)
    return _family(model.family).risk(model.artifact, X)


def survival_matrix(model: FittedModel, features, times) -> np.ndarray:
    """Survival probabilities of the curve-capable families on ``times``.

    Returns a C-contiguous (n, len(times)) matrix: row i is S(t | x_i),
    looked up right-continuously on the family's curve support and 1 before
    its first step. Risk-only families raise NoSurvivalFunctionError.
    """
    X = _check_dim(model, features)
    survival = _family(model.family).survival
    if survival is None:
        raise NoSurvivalFunctionError(
            f"no survival function defined for family {model.family!r}")
    return survival(model.artifact, X, times)


def predict_curves(model: FittedModel, features,
                   grid: TimeGrid | None = None) -> list[StepFunction]:
    """Per-row survival curves for the curve-capable families.

    Curve support is the training event-time grid, where every curve
    family steps; an explicit evaluation grid resamples by right-continuous
    step lookup. Risk-only families raise NoSurvivalFunctionError.
    """
    times = model.event_time_grid if grid is None else grid.times
    return [StepFunction(times, row, 1.0)
            for row in survival_matrix(model, features, times)]


def _file_fields(model: FittedModel) -> dict:
    """The model file's top-level object: family header + artifact."""
    return {
        "version": engine.MODEL_FILE_VERSION,
        "family": model.family,
        "params": model.params,
        "n_features": model.n_features,
        "event_time_grid": [float(t) for t in model.event_time_grid],
        "meta": {k: v for k, v in model.meta.items()
                 if isinstance(v, (int, float, str, bool))},
        **_family(model.family).fields(model.artifact),
    }


def _write_fields(fh, fields: dict) -> None:
    """Write ``json.dumps(fields, sort_keys=True, default=list)`` in pieces.

    One ``json.dumps`` call allocates several times its output, so the
    top-level values are encoded one at a time, and an iterator (a
    forest's ``trees`` and ``leaf_steps``) as a list, one element at a time.
    """
    encode = json.JSONEncoder(sort_keys=True).encode  # what dumps builds
    fh.write("{")
    for i, key in enumerate(sorted(fields)):
        value = fields[key]
        fh.write(f"{', ' if i else ''}{encode(key)}: ")
        if not isinstance(value, Iterator):
            fh.write(encode(value))
            continue
        fh.write("[")
        for j, item in enumerate(value):
            fh.write(f"{', ' if j else ''}{encode(item)}")
        fh.write("]")
    fh.write("}")


def save_model(model: FittedModel, path) -> None:
    """Serialize a fitted model to a JSON file, byte for byte
    ``json.dumps(fields, sort_keys=True, default=list)``."""
    with atomic_write(path) as fh:
        _write_fields(fh, _file_fields(model))


def load_model(path) -> FittedModel:
    """Read a model file written by save_model; a malformed file raises
    DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        engine.check_model_version(obj)
        artifact = _family(obj["family"]).from_fields(obj)
        return FittedModel(family=obj["family"], artifact=artifact,
                           params=obj["params"], n_features=obj["n_features"],
                           event_time_grid=np.asarray(obj["event_time_grid"],
                                                      dtype=float),
                           meta=obj.get("meta", {}))
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError, RecursionError) as exc:
        raise DataError(f"malformed model file {path}: {exc!r}") from None
