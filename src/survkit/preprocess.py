"""Ordinal encoding, z-score standardization and data splitting.

Categorical columns are encoded ordinally (supplied order, else
lexicographic) and numeric columns are standardized to zero mean and unit
standard deviation with population (denominator n) statistics, fitted on
training data only.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Cohort, ColumnSpec
from .errors import DataError

__all__ = ["EncoderState", "fit_encoder", "transform", "split", "kfold"]


@dataclass
class EncoderState:
    """Fitted per-column encoding: category ranks and z-score statistics."""

    ordinal: dict[str, list]         # column -> ordered categories
    numeric: dict[str, tuple[float, float]]  # column -> (mean, sd)
    lexicographic_fallback: list[str]        # ordinal columns without a supplied order

    def to_json(self) -> str:
        return json.dumps({
            "ordinal": self.ordinal,
            "numeric": {k: list(v) for k, v in self.numeric.items()},
            "lexicographic_fallback": self.lexicographic_fallback,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EncoderState":
        obj = json.loads(text)
        return cls(ordinal=obj["ordinal"],
                   numeric={k: (float(v[0]), float(v[1]))
                            for k, v in obj["numeric"].items()},
                   lexicographic_fallback=list(obj["lexicographic_fallback"]))


def fit_encoder(train: Cohort,
                category_orders: dict[str, list] | None = None) -> EncoderState:
    """Fit encoding state on training data.

    Ordinal columns use the supplied category order when given, otherwise
    the lexicographic order of observed categories (flagged, since a
    hierarchy-preserving order should come from configuration). Numeric
    columns record the sample mean and population standard deviation.
    """
    if train.n == 0:
        raise DataError("cannot fit encoder on an empty cohort")
    category_orders = category_orders or {}
    ordinal: dict[str, list] = {}
    numeric: dict[str, tuple[float, float]] = {}
    fallback: list[str] = []
    for j, col in enumerate(train.columns):
        values = train.features[:, j]
        if col.kind == "ordinal":
            if col.name in category_orders:
                order = list(category_orders[col.name])
            elif col.categories is not None:
                order = list(col.categories)
            else:
                order = sorted({str(v) for v in values})
                fallback.append(col.name)
            observed = {str(v) for v in values}
            missing = observed - {str(c) for c in order}
            if missing:
                raise DataError(
                    f"column {col.name!r}: categories {sorted(missing)} not in "
                    "the supplied order")
            ordinal[col.name] = order
        else:
            x = values.astype(float)
            mean = float(np.mean(x))
            sd = float(np.std(x))  # population sd, denominator n
            if sd == 0.0:
                warnings.warn(f"column {col.name!r} is constant; transformed "
                              "values will be 0", stacklevel=2)
            numeric[col.name] = (mean, sd)
    return EncoderState(ordinal=ordinal, numeric=numeric,
                        lexicographic_fallback=fallback)


def transform(state: EncoderState, cohort: Cohort) -> Cohort:
    """Apply a fitted encoder: ordinal -> rank, numeric -> (x - mean) / sd.

    Zero-sd columns map to 0 everywhere. Targets and weights pass through.
    """
    out = np.empty((cohort.n, cohort.n_features), dtype=float)
    new_cols = []
    for j, col in enumerate(cohort.columns):
        values = cohort.features[:, j]
        if col.kind == "ordinal":
            if col.name not in state.ordinal:
                raise DataError(f"column {col.name!r} not fitted as ordinal")
            order = state.ordinal[col.name]
            rank = {str(c): r for r, c in enumerate(order)}
            try:
                out[:, j] = [rank[str(v)] for v in values]
            except KeyError as exc:
                raise DataError(f"column {col.name!r}: category {exc.args[0]!r} "
                                "unseen at fit time") from None
            new_cols.append(ColumnSpec(col.name, "ordinal", tuple(order)))
        else:
            if col.name not in state.numeric:
                raise DataError(f"column {col.name!r} not fitted as numeric")
            mean, sd = state.numeric[col.name]
            x = values.astype(float)
            out[:, j] = 0.0 if sd == 0.0 else (x - mean) / sd
            new_cols.append(col)
    return Cohort(features=out, columns=new_cols, time=cohort.time,
                  event=cohort.event, weights=cohort.weights,
                  meta=dict(cohort.meta))


def _apportion(sizes: np.ndarray, total: int, fraction: float) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` across strata."""
    exact = sizes * fraction
    base = np.floor(exact).astype(int)
    short = total - int(base.sum())
    if short > 0:
        # ties broken toward larger strata, then lower index: deterministic
        order = np.lexsort((np.arange(sizes.size), -sizes, -(exact - base)))
        base[order[:short]] += 1
    elif short < 0:
        order = np.lexsort((np.arange(sizes.size), sizes, exact - base))
        take = order[base[order] > 0][: -short]
        base[take] -= 1
    return base


def split(cohort: Cohort, test_fraction: float, stratify_on_event: bool = True,
          seed: int = 0) -> tuple[Cohort, Cohort]:
    """Deterministic train/test split, optionally stratified on the event flag."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    n = cohort.n
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n - n_test < 1:
        raise DataError("cohort too small to place at least one row per part")
    rng = np.random.default_rng(seed)
    if stratify_on_event:
        strata = [np.flatnonzero(cohort.event == v) for v in (1, 0)]
        strata = [s for s in strata if s.size]
        counts = _apportion(np.array([s.size for s in strata]), n_test,
                            test_fraction)
        test_parts = []
        for s, c in zip(strata, counts):
            perm = rng.permutation(s)
            test_parts.append(perm[:c])
        test_idx = np.sort(np.concatenate(test_parts))
    else:
        perm = rng.permutation(n)
        test_idx = np.sort(perm[:n_test])
    train_idx = np.delete(np.arange(n), test_idx)
    return cohort.subset(train_idx), cohort.subset(test_idx)


def kfold(event: np.ndarray, k: int, seed: int = 0) -> list[np.ndarray]:
    """Partition indices 0..n-1 (n = ``event.size``) into k folds.

    Fold assignment is round-robin within each event stratum, so fold
    sizes differ by at most one and event rates stay balanced.
    """
    event = np.asarray(event)
    if k < 2:
        raise DataError("k must be at least 2")
    if k > event.size:
        raise DataError("more folds than samples")
    rng = np.random.default_rng(seed)
    parts = [rng.permutation(np.flatnonzero(event == v)) for v in (1, 0)]
    order = np.concatenate([p for p in parts if p.size])
    return [np.sort(order[j::k]) for j in range(k)]
