"""Feature attribution: permutation importance and Shapley values.

Both methods explain the model's risk score. The Shapley value function
is interventional: v(S) averages the risk over hybrid rows that take the
explained instance's values on S and background values elsewhere, which
works uniformly across every model family here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import Cohort, atomic_write
from .errors import DataError
from .metrics import concordance_scorer
from .models import FittedModel, predict_risk

__all__ = [
    "ImportanceReport",
    "ShapleyResult",
    "permutation_importance",
    "shapley_values",
    "global_attribution",
]

EXACT_MAX_FEATURES = 12


@dataclass
class ImportanceReport:
    """Per-feature attribution with raw values for dispersion estimates."""

    features: list[str]
    values: np.ndarray      # mean score drop (PI) or mean |phi| (Shapley)
    dispersion: np.ndarray  # standard deviation over repeats/samples
    raw: np.ndarray         # (n_features, n_repeats) or (n_samples, n_features)
    kind: str

    def ranking(self) -> list[str]:
        return [self.features[i] for i in np.argsort(-self.values)]

    def to_csv(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write("feature,value,dispersion\n")
            for name, v, s in zip(self.features, self.values, self.dispersion):
                fh.write(f"{name},{float(v)!r},{float(s)!r}\n")


@dataclass
class ShapleyResult:
    """Per-feature attribution of one prediction, with the efficiency check."""

    values: np.ndarray
    v_full: float
    v_empty: float
    efficiency_residual: float


def _at_least_one(**counts) -> None:
    for name, value in counts.items():
        if value < 1:
            raise DataError(f"{name} must be at least 1, got {value}")


def permutation_importance(model: FittedModel, eval_cohort: Cohort,
                           metric: str = "harrell_c", n_repeats: int = 10,
                           seed: int = 0, permute=None) -> ImportanceReport:
    """Mean metric drop when one column at a time is shuffled.

    ``permute``, when given, replaces the random permutation (test hook:
    pass an identity to verify zero drops). Per-(feature, repeat) streams
    are derived from the seed, so results do not depend on execution order.
    """
    if eval_cohort.n == 0:
        raise DataError("empty evaluation cohort")
    _at_least_one(n_repeats=n_repeats)
    X = np.asarray(eval_cohort.features, dtype=float)
    score = concordance_scorer(metric, eval_cohort.time, eval_cohort.event)
    baseline = score(predict_risk(model, X))
    d = X.shape[1]
    raw = np.empty((d, n_repeats))
    for j in range(d):
        for r in range(n_repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(j, r)))
            idx = permute(rng, X.shape[0]) if permute else rng.permutation(X.shape[0])
            shuffled = X.copy()
            shuffled[:, j] = X[idx, j]
            raw[j, r] = baseline - score(predict_risk(model, shuffled))
    return ImportanceReport(features=eval_cohort.column_names(),
                            values=raw.mean(axis=1), dispersion=raw.std(axis=1),
                            raw=raw, kind="permutation_importance")


def _coalition_values(model, instance, background, members) -> np.ndarray:
    """v(S) for each row of the boolean (coalitions, d) ``members``: the
    mean risk over hybrid rows that take the instance's values on S and a
    background row's elsewhere."""
    m, d = background.shape
    chunk = max(1, 65536 // max(m, 1))
    out = np.empty(len(members))
    for a in range(0, len(members), chunk):
        batch = members[a:a + chunk]
        rows = np.where(batch[:, None, :], instance, background).reshape(-1, d)
        risks = predict_risk(model, rows)
        out[a:a + len(batch)] = risks.reshape(len(batch), m).mean(axis=1)
    return out


def shapley_values(model: FittedModel, instance, background: Cohort | np.ndarray,
                   mode: str = "exact", n_permutations: int = 2000,
                   seed: int = 0) -> ShapleyResult:
    """Shapley attribution of one prediction's risk score.

    Exact mode enumerates all feature coalitions (requires d <= 12);
    Monte Carlo averages marginal contributions over random feature
    orderings. Each mode scores all its coalitions in one batched pass;
    Monte Carlo's member matrix holds n_permutations * d**2 booleans (128 kB
    at 500 permutations and 16 features). Efficiency (sum of values =
    v(full) - v(empty)) is enforced at 1e-9 in exact mode and reported as a
    residual in Monte Carlo mode.
    """
    bg = (np.asarray(background.features, dtype=float)
          if isinstance(background, Cohort)
          else np.asarray(background, dtype=float))
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise DataError("background must be a nonempty matrix")
    instance = np.asarray(instance, dtype=float).ravel()
    d = instance.size
    if bg.shape[1] != d:
        raise DataError("background width must match the instance")

    phi = np.zeros(d)
    if mode == "exact":
        if d > EXACT_MAX_FEATURES:
            raise DataError(f"exact mode supports at most {EXACT_MAX_FEATURES} "
                            f"features, got {d}")
        # coalition S as its bitmask: feature j is in S iff bit j is set
        members = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(bool)
        v = _coalition_values(model, instance, bg, members)
        fact = [math.factorial(k) for k in range(d + 1)]
        weight = np.array([fact[k] * fact[d - k - 1] / fact[d] for k in range(d)])
        # each S by size, then in combinations order, paired with every
        # feature i outside it in ascending i: np.add.at sums in this
        # order, which fixes the rounding of each phi_i
        masks = np.array([sum(1 << j for j in s) for k in range(d)
                          for s in combinations(range(d), k)], dtype=np.int64)
        pair, feature = np.nonzero(~members[masks])
        without = masks[pair]
        np.add.at(phi, feature, weight[members[without].sum(axis=1)]
                  * (v[without | 1 << feature] - v[without]))
        v_empty, v_full = float(v[0]), float(v[-1])
    elif mode == "montecarlo":
        _at_least_one(n_permutations=n_permutations)
        rng = np.random.default_rng(seed)
        orders = np.array([rng.permutation(d) for _ in range(n_permutations)])
        # the empty and full coalitions, then coalition (p, t) holding the
        # first t + 1 features of order p
        prefixes = np.argsort(orders, axis=1)[:, None, :] <= np.arange(d)[:, None]
        members = np.concatenate([np.repeat([[False], [True]], d, axis=1),
                                  prefixes.reshape(-1, d)])
        v = _coalition_values(model, instance, bg, members)
        v_empty, v_full = float(v[0]), float(v[1])
        np.add.at(phi, orders, np.diff(v[2:].reshape(n_permutations, d),
                                       axis=1, prepend=v_empty))
        phi /= n_permutations
    else:
        raise DataError(f"unknown mode {mode!r}")
    residual = float(phi.sum() - (v_full - v_empty))
    if mode == "exact" and abs(residual) > 1e-9 * max(1.0, abs(v_full - v_empty)):
        raise DataError(f"Shapley efficiency violated: residual {residual}")
    return ShapleyResult(values=phi, v_full=v_full, v_empty=v_empty,
                         efficiency_residual=residual)


def global_attribution(model: FittedModel, eval_cohort: Cohort,
                       sample_size: int = 100, mode: str = "exact",
                       n_permutations: int = 2000, seed: int = 0,
                       background: Cohort | np.ndarray | None = None,
                       background_size: int = 100) -> ImportanceReport:
    """Mean absolute Shapley value over a seeded subsample of rows.

    The background defaults to a seeded sample of the evaluation cohort;
    pass training data to follow the usual convention. Per-row seeds are
    derived from the master seed by row position, so the result is
    independent of evaluation order.
    """
    _at_least_one(sample_size=sample_size, background_size=background_size)
    if sample_size > eval_cohort.n:
        raise DataError("sample size exceeds the evaluation cohort")
    X = np.asarray(eval_cohort.features, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rows = np.sort(rng.choice(eval_cohort.n, size=sample_size, replace=False))
    if background is None:
        bg_pool = X
    elif isinstance(background, Cohort):
        bg_pool = np.asarray(background.features, dtype=float)
    else:
        bg_pool = np.asarray(background, dtype=float)
    if bg_pool.shape[0] > background_size:
        bg_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        keep = np.sort(bg_rng.choice(bg_pool.shape[0], size=background_size,
                                     replace=False))
        bg_pool = bg_pool[keep]
    raw = np.empty((sample_size, X.shape[1]))
    for k, row in enumerate(rows):
        row_seed = int(np.random.SeedSequence(seed, spawn_key=(2, int(row)))
                       .generate_state(1)[0])
        result = shapley_values(model, X[row], bg_pool, mode=mode,
                                n_permutations=n_permutations, seed=row_seed)
        raw[k] = np.abs(result.values)
    return ImportanceReport(features=eval_cohort.column_names(),
                            values=raw.mean(axis=0), dispersion=raw.std(axis=0),
                            raw=raw, kind="shapley_global")
