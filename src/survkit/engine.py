"""Shared tree and boosting machinery.

One exact-greedy tree grower serves the whole model zoo: regression trees
on gradient/hessian statistics for the boosted families, and survival
trees with log-rank splitting for the forest. Exact splits (midpoints of
consecutive distinct values) keep fits affordable at the cohort sizes in
scope and make results reproducible across platforms; gain ties break
toward the lower feature index, then the lower threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingError
from .estimators import _life_table

__all__ = [
    "TreeNode",
    "TreeParams",
    "SurvivalTreeParams",
    "BoostParams",
    "BoostedEnsemble",
    "fit_regression_tree",
    "fit_survival_tree",
    "boost",
    "predict_ensemble",
    "predict_tree",
    "apply_tree",
    "tree_to_dict",
    "tree_from_dict",
]

MODEL_FILE_VERSION = 1


@dataclass
class TreeNode:
    """Binary tree node. Routing rule: go left iff x[feature] <= threshold.

    Leaves carry either a regression ``value`` or a ``members`` index list
    (survival trees).
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None
    members: np.ndarray | None = None
    gain: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_samples_leaf: int = 1
    min_child_weight: float = 0.0
    reg_lambda: float = 1.0
    min_split_gain: float = 0.0


@dataclass(frozen=True)
class SurvivalTreeParams:
    max_depth: int = 8
    min_samples_leaf: int = 10
    mtry: int | None = None  # None: all features
    seed: int = 0


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    subsample: float = 1.0
    seed: int = 0
    tree: TreeParams = field(default_factory=TreeParams)


@dataclass
class BoostedEnsemble:
    """Additive tree model: prediction = base_score + lr * sum of trees."""

    base_score: float
    trees: list[TreeNode]
    learning_rate: float
    loss_id: str
    n_features: int
    loss_trace: list[float] = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        return predict_ensemble(self, X)


def _check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("features must be 2-d")
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    return X


def _best_regression_split(X, g, h, idx, params: TreeParams):
    """Exact greedy split search over one node's rows.

    Gain = 1/2 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)].
    Returns (gain, feature, threshold) or None.
    """
    lam = params.reg_lambda
    msl = params.min_samples_leaf
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    m = idx.size
    best_gain, best_feat, best_thr = -np.inf, -1, 0.0
    positions = np.arange(1, m)
    for f in range(X.shape[1]):
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        gl = np.cumsum(g[idx][order])[:-1]
        hl = np.cumsum(h[idx][order])[:-1]
        gr, hr = G - gl, H - hl
        ok = (xs[:-1] != xs[1:])
        ok &= (positions >= msl) & (m - positions >= msl)
        ok &= (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
        ok &= (hl + lam > 0) & (hr + lam > 0)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - parent)
        # floating-point jitter on a flat objective must not trigger a split
        gain[~ok | (gain < 1e-12 * (1.0 + abs(parent)))] = -np.inf
        k = int(np.argmax(gain))  # first max: lowest threshold wins ties
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_feat = f
            best_thr = 0.5 * (xs[k] + xs[k + 1])
    if best_feat < 0:
        return None
    return best_gain, best_feat, best_thr


def fit_regression_tree(X, gradients, hessians,
                        params: TreeParams = TreeParams()) -> TreeNode:
    """Grow an exact-greedy regression tree on gradient/hessian statistics.

    Leaf value is the Newton step -G_leaf / (H_leaf + lam). Splitting stops
    on depth, sample, child-weight or gain floors.
    """
    X = _check_matrix(X)
    g = np.asarray(gradients, dtype=float)
    h = np.asarray(hessians, dtype=float)
    if g.shape != (X.shape[0],) or h.shape != g.shape:
        raise DataError("gradients/hessians must match the number of rows")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise DataError("non-finite gradient or hessian")
    if np.any(h < 0):
        raise DataError("hessians must be nonnegative")
    lam = params.reg_lambda

    def leaf(idx):
        denom = h[idx].sum() + lam
        val = 0.0 if denom <= 0 else -g[idx].sum() / denom
        return TreeNode(value=float(val))

    def build(idx, depth):
        if depth >= params.max_depth or idx.size < 2 * params.min_samples_leaf:
            return leaf(idx)
        found = _best_regression_split(X, g, h, idx, params)
        if found is None or found[0] <= params.min_split_gain:
            return leaf(idx)
        gain, feat, thr = found
        mask = X[idx, feat] <= thr
        node = TreeNode(feature=feat, threshold=thr, gain=gain)
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def _node_logrank_scan(Xb, time, event, msl: int, chunk: int = 512):
    """Standardized two-group log-rank statistic for every candidate split
    of every column of one node's (mtry, m) feature block.

    The node's event-time statistics are computed once. The numerator
    decomposes into per-subject scores delta_j - H(T_j) (cumulative hazard
    of the whole node), so it is a cumulative sum in each feature's order.
    The variance sums var_coef * n1 * (N - n1) over event times in time
    order, with n1 the left group's at-risk count; it is built only on the
    admissible positions, in (mtry, K, width) blocks of about K * chunk
    elements, skipping event times whose var_coef is 0 (adding +0.0 is
    exact).

    Every block is at least two positions wide, so numpy sums each position
    in time order; a lone position would be summed pairwise. A column-at-a-
    time scan in ``chunk``-wide blocks leaves the last position alone when
    m - 1 = 1 (mod chunk), admissible only for msl = 1; that position is
    summed pairwise here too, so the gains match it to the last bit.

    Returns (z, thresholds), both (mtry, m - 1): |z| per feature and split
    position with -inf where inadmissible, and the midpoint thresholds.
    """
    n_feat, m = Xb.shape
    order = np.argsort(Xb, axis=1, kind="stable")
    xs = np.take_along_axis(Xb, order, axis=1)

    grid, deaths, _, at_risk = _life_table(time, event)
    has_event = deaths > 0
    grid, deaths, at_risk = grid[has_event], deaths[has_event], at_risk[has_event]
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(at_risk > 1,
                            deaths * (at_risk - deaths) / (at_risk ** 2 * (at_risk - 1)),
                            0.0)
    cumhaz = np.cumsum(deaths / at_risk)
    # per-subject log-rank score: event indicator minus node cumulative hazard
    pos = np.searchsorted(grid, time, side="right") - 1
    scores = event - np.where(pos >= 0, cumhaz[np.clip(pos, 0, None)], 0.0)
    num = np.cumsum(scores[order], axis=1)[:, :-1]

    variance = np.zeros((n_feat, m - 1))
    lo, hi = msl - 1, m - msl  # admissible columns: positions msl..m-msl
    if msl == 1 and (m - 1) % chunk == 1:
        hi -= 1
        last_at_risk = grid[None, :] <= time[order[:, -1]][:, None]
        n1 = at_risk - last_at_risk
        variance[:, hi] = np.sum(var_coef * n1 * (at_risk - n1), axis=1)
    if hi > lo:
        keep = var_coef > 0
        coef, n_risk = var_coef[keep][:, None], at_risk[keep][:, None]
        # a subject is at risk at the k-th kept event time iff level > k
        level = np.searchsorted(grid[keep], time, side="right")[order]
        ks = np.arange(coef.shape[0])[None, :, None]
        # a lone admissible column borrows its left neighbour's block
        first = max(0, min(lo, hi - 2))
        starts = list(range(first, hi, max(2, chunk // n_feat)))
        if len(starts) > 1 and hi - starts[-1] == 1:
            starts.pop()
        base = (ks < level[:, None, :first]).sum(axis=2, dtype=float)
        for a, b in zip(starts, starts[1:] + [hi]):
            n1 = (ks < level[:, None, a:b]).astype(float)
            n1[:, :, 0] += base
            np.cumsum(n1, axis=2, out=n1)
            base = n1[:, :, -1].copy()
            n2 = n_risk - n1
            n1 *= coef  # (coef * n1) * (N - n1), as products commute
            n1 *= n2
            variance[:, a:b] = n1.sum(axis=1)

    positions = np.arange(1, m)
    ok = (xs[:, :-1] != xs[:, 1:]) & (positions >= msl) & (m - positions >= msl)
    ok &= variance > 0
    z = np.full((n_feat, m - 1), -np.inf)
    z[ok] = np.abs(num[ok]) / np.sqrt(variance[ok])
    thresholds = 0.5 * (xs[:, :-1] + xs[:, 1:])
    return z, thresholds


def fit_survival_tree(X, time, event,
                      params: SurvivalTreeParams = SurvivalTreeParams()) -> TreeNode:
    """Grow a survival tree by maximizing the standardized log-rank statistic.

    At each node a random subset of ``mtry`` features is scanned in one
    pass; leaves hold the member row indices so callers can attach
    nonparametric estimates. Nodes without events or without an admissible
    split become leaves.
    """
    X = _check_matrix(X)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    if event.sum() == 0:
        raise DataError("survival tree needs at least one event")
    d = X.shape[1]
    mtry = d if params.mtry is None else min(params.mtry, d)
    rng = np.random.default_rng(params.seed)
    XT = np.ascontiguousarray(X.T)

    def build(idx, depth):
        if (depth >= params.max_depth or idx.size < 2 * params.min_samples_leaf
                or event[idx].sum() == 0):
            return TreeNode(members=idx.copy())
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
        z, thresholds = _node_logrank_scan(XT[np.ix_(feats, idx)], time[idx],
                                           event[idx], params.min_samples_leaf)
        # row-major first max: lowest feature, then lowest threshold wins ties
        f, k = np.unravel_index(int(np.argmax(z)), z.shape)
        if z[f, k] == -np.inf:
            return TreeNode(members=idx.copy())
        best_feat, best_thr = int(feats[f]), float(thresholds[f, k])
        mask = X[idx, best_feat] <= best_thr
        node = TreeNode(feature=best_feat, threshold=best_thr, gain=float(z[f, k]))
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def apply_tree(root: TreeNode, X) -> list[TreeNode]:
    """Route every row to its leaf; returns the leaf node per row."""
    X = _check_matrix(X)
    out: list[TreeNode | None] = [None] * X.shape[0]

    def walk(node, idx):
        if node.is_leaf:
            for i in idx:
                out[i] = node
            return
        mask = X[idx, node.feature] <= node.threshold
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(root, np.arange(X.shape[0]))
    return out  # type: ignore[return-value]


def predict_tree(root: TreeNode, X) -> np.ndarray:
    """Regression-tree output per row."""
    leaves = apply_tree(root, X)
    return np.array([leaf.value for leaf in leaves], dtype=float)


def boost(X, time, event, loss, params: BoostParams = BoostParams(),
          weights=None) -> BoostedEnsemble:
    """Second-order boosting loop with a pluggable loss.

    Per round: compute gradients/hessians at the current predictions (on a
    row subsample when subsample < 1), fit an exact-greedy tree to them,
    and add it with shrinkage. The training-loss trace (full data) is
    recorded per round.
    """
    X = _check_matrix(X)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    n = X.shape[0]
    if not 0.0 < params.subsample <= 1.0:
        raise DataError("subsample must lie in (0, 1]")
    rng = np.random.default_rng(params.seed)
    base = float(loss.intercept(time, event, weights))
    preds = np.full(n, base)
    trees: list[TreeNode] = []
    trace: list[float] = []
    l0, _, _ = loss.value_grad_hess(time, event, preds, weights)
    trace.append(float(l0))
    for rnd in range(params.n_rounds):
        if params.subsample < 1.0:
            k = max(1, int(round(params.subsample * n)))
            sub = np.sort(rng.choice(n, size=k, replace=False))
        else:
            sub = np.arange(n)
        w_sub = None if weights is None else np.asarray(weights, float)[sub]
        _, g, h = loss.value_grad_hess(time[sub], event[sub], preds[sub], w_sub)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise TrainingError(f"non-finite loss statistics at round {rnd}")
        tree = fit_regression_tree(X[sub], g, h, params.tree)
        trees.append(tree)
        preds += params.learning_rate * predict_tree(tree, X)
        lval, _, _ = loss.value_grad_hess(time, event, preds, weights)
        if not np.isfinite(lval):
            raise TrainingError(f"non-finite loss value at round {rnd}")
        trace.append(float(lval))
    return BoostedEnsemble(base_score=base, trees=trees,
                           learning_rate=params.learning_rate,
                           loss_id=getattr(loss, "name", "custom"),
                           n_features=X.shape[1], loss_trace=trace)


def predict_ensemble(model: BoostedEnsemble, X) -> np.ndarray:
    """base_score + learning_rate * sum of tree outputs, per row."""
    X = _check_matrix(X)
    if X.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, got {X.shape[1]}")
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.learning_rate * predict_tree(tree, X)
    return out


def tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        leaf: dict = {}
        if node.value is not None:
            leaf["value"] = node.value
        if node.members is not None:
            leaf["members"] = [int(i) for i in node.members]
        return leaf
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "gain": node.gain,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(obj: dict) -> TreeNode:
    if "feature" in obj:
        return TreeNode(feature=obj["feature"], threshold=obj["threshold"],
                        gain=obj.get("gain"),
                        left=tree_from_dict(obj["left"]),
                        right=tree_from_dict(obj["right"]))
    return TreeNode(value=obj.get("value"),
                    members=None if "members" not in obj
                    else np.asarray(obj["members"], dtype=int))


def ensemble_to_dict(model: BoostedEnsemble) -> dict:
    return {
        "version": MODEL_FILE_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "loss": model.loss_id,
        "n_features": model.n_features,
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def ensemble_from_dict(obj: dict) -> BoostedEnsemble:
    if obj.get("version") != MODEL_FILE_VERSION:
        raise DataError(f"unsupported model file version {obj.get('version')!r}")
    return BoostedEnsemble(base_score=obj["base_score"],
                           trees=[tree_from_dict(t) for t in obj["trees"]],
                           learning_rate=obj["learning_rate"],
                           loss_id=obj["loss"],
                           n_features=obj["n_features"])
