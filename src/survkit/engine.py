"""Shared tree and boosting machinery.

One exact-greedy tree grower serves the whole model zoo: regression trees
on gradient/hessian statistics for the boosted families, and survival
trees with log-rank splitting for the forest. Exact splits (midpoints of
consecutive distinct values) keep fits affordable at the cohort sizes in
scope and make results reproducible across platforms; gain ties break
toward the lower feature index, then the lower threshold.

A tree is one ``NodeTable``: parallel node arrays in preorder. Growers
append to it, ``TreeNode`` is a read-only view of one of its nodes, and
``_route`` sends rows through a whole list of trees at once, one numpy
step per depth level.

Both split searches are exact without repeating work at every node.
Regression trees sort each column once (once per ``boost`` call, filtered
to each round's subsample) and hand every child the stable partition of
its parent's sorted rows. Large survival-tree nodes screen the log-rank
statistic with a cheap variance whose distance from the exact
time-ordered sum is bounded, and compute that exact sum only where the
bound leaves the maximum undecided (``_node_logrank_screen``). Either way
the trees are those of a per-node sort and a full scan, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingError

__all__ = [
    "NodeTable",
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
    "tree_to_dict",
    "tree_from_dict",
]

MODEL_FILE_VERSION = 2  # the version every file is written as
READ_VERSIONS = (1, 2)  # v1 stores RSF leaf hazards densely, v2 as steps

# (row, tree) pairs routed per block: bounds the per-level temporaries
_ROUTE_BLOCK = 1 << 15
# nodes this large take the screened log-rank search; below, the full scan
# is faster (the crossover measured on forest nodes at n = 320 to 2400)
_SCREEN_MIN_ROWS = 192
# elements per block of the screen's temporaries
_SCREEN_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class NodeTable:
    """One tree as parallel arrays over its nodes in preorder: a node, then
    its left subtree, then its right subtree, so node 0 is the root.

    ``feature`` is -1 at leaves and a split sends a row left iff
    x[feature] <= threshold. ``left``/``right`` are child node ids (-1 at
    leaves). ``value`` (leaf output) and ``gain`` (split gain) are NaN
    where a node has none. ``row_leaf`` gives each training row's leaf for
    survival trees and is None otherwise.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    row_leaf: np.ndarray | None = None

    @classmethod
    def from_lists(cls, feature, threshold, right, value, gain,
                   row_leaf=None) -> "NodeTable":
        feature = np.asarray(feature, dtype=np.intp)
        # in preorder a split's left child is the next node
        left = np.where(feature >= 0, np.arange(1, feature.size + 1), -1)
        return cls(feature, np.asarray(threshold, dtype=float), left,
                   np.asarray(right, dtype=np.intp),
                   np.asarray(value, dtype=float), np.asarray(gain, dtype=float),
                   row_leaf)


class TreeNode:
    """Read-only view of node ``i`` of a node table. Routing rule: go left
    iff x[feature] <= threshold.

    ``feature``, ``threshold``, ``left`` and ``right`` are None at leaves;
    ``value`` and ``gain`` are None where the node has none. ``members``
    lists a survival-tree leaf's training rows.
    """

    __slots__ = ("table", "i")

    def __init__(self, table: NodeTable, i: int = 0):
        self.table = table
        self.i = int(i)

    @property
    def is_leaf(self) -> bool:
        return bool(self.table.feature[self.i] < 0)

    @property
    def feature(self) -> int | None:
        return None if self.is_leaf else int(self.table.feature[self.i])

    @property
    def threshold(self) -> float | None:
        return None if self.is_leaf else float(self.table.threshold[self.i])

    @property
    def left(self) -> "TreeNode | None":
        if self.is_leaf:
            return None
        return TreeNode(self.table, self.table.left[self.i])

    @property
    def right(self) -> "TreeNode | None":
        if self.is_leaf:
            return None
        return TreeNode(self.table, self.table.right[self.i])

    @property
    def value(self) -> float | None:
        v = float(self.table.value[self.i])
        return None if np.isnan(v) else v

    @property
    def gain(self) -> float | None:
        v = float(self.table.gain[self.i])
        return None if np.isnan(v) else v

    @property
    def members(self) -> np.ndarray | None:
        if self.table.row_leaf is None or not self.is_leaf:
            return None
        return np.flatnonzero(self.table.row_leaf == self.i)


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


def _sorted_rows(X) -> np.ndarray:
    """Each column's row indices in (value, row) order, as a (d, n) array."""
    return np.argsort(np.ascontiguousarray(X.T), axis=1, kind="stable")


def _best_regression_split(X, g, h, idx, params: TreeParams, rows=None):
    """Exact greedy split search over one node's rows, all features at once.

    Gain = 1/2 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)].
    ``rows`` lists the node's rows in each column's (value, row) order, a
    (d, m) array; without it the node's block is sorted here with one
    stable argsort, which gives the same order since ``idx`` ascends. The
    left gradient and hessian sums are row-wise cumulative sums in that
    order, so each feature's gains equal a one-feature scan's bit for bit.
    Per feature the first maximum wins (lowest threshold); a feature whose
    first maximum is NaN is skipped; the lowest feature wins ties.
    Returns (gain, feature, threshold) or None.
    """
    lam = params.reg_lambda
    msl = params.min_samples_leaf
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    m = idx.size
    if m < 2 or X.shape[1] == 0:
        return None
    if rows is None:
        rows = idx[_sorted_rows(X[idx])]
    xs = X[rows, np.arange(X.shape[1])[:, None]]
    gl = np.cumsum(g[rows], axis=1)[:, :-1]
    hl = np.cumsum(h[rows], axis=1)[:, :-1]
    gr, hr = G - gl, H - hl
    positions = np.arange(1, m)
    ok = (xs[:, :-1] != xs[:, 1:])
    ok &= (positions >= msl) & (m - positions >= msl)
    ok &= (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
    ok &= (hl + lam > 0) & (hr + lam > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam) - parent)
    # floating-point jitter on a flat objective must not trigger a split
    gain[~ok | (gain < 1e-12 * (1.0 + abs(parent)))] = -np.inf
    k = np.argmax(gain, axis=1)  # first max per feature (NaN counts as max)
    best = gain[np.arange(gain.shape[0]), k]
    best[np.isnan(best)] = -np.inf
    f = int(np.argmax(best))
    if best[f] == -np.inf:
        return None
    return float(best[f]), f, 0.5 * (xs[f, k[f]] + xs[f, k[f] + 1])


def _grow(X, split, leaf_value, record_rows: bool, rows=None) -> TreeNode:
    """Grow a tree depth first, appending each node to its table in preorder.

    ``split(idx, node_rows, depth)`` gives (gain, feature, threshold) for a
    split or None for a leaf, and ``leaf_value(idx)`` a leaf's value. Given
    ``rows``, each column's rows in (value, row) order, every node gets its
    own as ``node_rows``: the stable partition of its parent's (None
    otherwise). With ``record_rows`` the table keeps each row's leaf.
    """
    feature, threshold, right, value, gain = [], [], [], [], []
    row_leaf = np.full(X.shape[0], -1, dtype=np.intp) if record_rows else None

    def build(idx, node_rows, depth):
        i = len(feature)
        found = split(idx, node_rows, depth)
        if found is None:
            feature.append(-1)
            threshold.append(np.nan)
            right.append(-1)
            value.append(leaf_value(idx))
            gain.append(np.nan)
            if row_leaf is not None:
                row_leaf[idx] = i
            return
        node_gain, feat, thr = found
        feature.append(feat)
        threshold.append(thr)
        right.append(-1)
        value.append(np.nan)
        gain.append(node_gain)
        mask = X[idx, feat] <= thr
        left_rows = right_rows = None
        if node_rows is not None:
            go = X[node_rows, feat] <= thr
            left_rows = node_rows[go].reshape(node_rows.shape[0], -1)
            right_rows = node_rows[~go].reshape(node_rows.shape[0], -1)
        build(idx[mask], left_rows, depth + 1)
        right[i] = len(feature)
        build(idx[~mask], right_rows, depth + 1)

    build(np.arange(X.shape[0]), rows, 0)
    return TreeNode(NodeTable.from_lists(feature, threshold, right, value,
                                         gain, row_leaf))


def fit_regression_tree(X, gradients, hessians,
                        params: TreeParams = TreeParams(),
                        presorted=None) -> TreeNode:
    """Grow an exact-greedy regression tree on gradient/hessian statistics.

    Leaf value is the Newton step -G_leaf / (H_leaf + lam). Splitting stops
    on depth, sample, child-weight or gain floors. The columns are sorted
    once, at the root, and each child takes the stable partition of its
    parent's sorted rows; ``presorted`` passes that root sort in, as
    ``_sorted_rows(X)`` gives it. Returns the root's view.
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
    rows = _sorted_rows(X) if presorted is None else presorted
    if rows.shape != X.shape[::-1]:
        raise DataError("presorted rows must be a (features, rows) array")
    lam = params.reg_lambda

    def leaf_value(idx):
        denom = h[idx].sum() + lam
        return 0.0 if denom <= 0 else -g[idx].sum() / denom

    def split(idx, node_rows, depth):
        if depth >= params.max_depth or idx.size < 2 * params.min_samples_leaf:
            return None
        found = _best_regression_split(X, g, h, idx, params, node_rows)
        if found is None or found[0] <= params.min_split_gain:
            return None
        return found

    return _grow(X, split, leaf_value, record_rows=False, rows=rows)


def _logrank_stats(time, event):
    """One node's log-rank bookkeeping: its event times, the at-risk count
    and variance coefficient at each, and each subject's score
    delta_j - H(T_j), with H the node's Nelson-Aalen cumulative hazard."""
    order = np.argsort(time, kind="stable")
    t = time[order]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    deaths = np.add.reduceat(event[order].astype(float), start)
    has_event = deaths > 0
    start, deaths = start[has_event], deaths[has_event]
    grid, at_risk = t[start], (time.size - start).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(at_risk > 1,
                            deaths * (at_risk - deaths) / (at_risk ** 2 * (at_risk - 1)),
                            0.0)
    cumhaz = np.concatenate(([0.0], np.cumsum(deaths / at_risk)))
    scores = event - cumhaz[np.searchsorted(grid, time, side="right")]
    return grid, at_risk, var_coef, scores


def _lone_variance(grid, at_risk, var_coef, last_time):
    """Variance at the last split position of each column (every subject
    left but the one at ``last_time``), summed pairwise over all event
    times as numpy sums a lone column."""
    last_at_risk = grid[None, :] <= last_time[:, None]
    n1 = at_risk - last_at_risk
    return np.sum(var_coef * n1 * (at_risk - n1), axis=1)


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
    grid, at_risk, var_coef, scores = _logrank_stats(time, event)
    num = np.cumsum(scores[order], axis=1)[:, :-1]

    variance = np.zeros((n_feat, m - 1))
    lo, hi = msl - 1, m - msl  # admissible columns: positions msl..m-msl
    if msl == 1 and (m - 1) % chunk == 1:
        hi -= 1
        variance[:, hi] = _lone_variance(grid, at_risk, var_coef,
                                         time[order[:, -1]])
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


def _scan_split(z, thresholds):
    """The row-major first maximum of a scan (lowest feature, then lowest
    threshold, wins ties) as (|z|, feature row, threshold), or None."""
    f, k = np.unravel_index(int(np.argmax(z)), z.shape)
    if z[f, k] == -np.inf:
        return None
    return float(z[f, k]), int(f), float(thresholds[f, k])


def _prefix_variance(levels, p, coef, n_risk):
    """Exact log-rank variance of each row's first p[i] subjects, as
    ``_node_logrank_scan`` sums it: (coef * n1) * (N - n1) over the kept
    event times in time order. ``levels`` holds each subject's count of
    kept event times at or before its time."""
    rows, m = levels.shape
    width = coef.size + 1
    out = np.empty(rows)
    step = max(1, _SCREEN_BLOCK // (m + width))
    for a in range(0, rows, step):
        lv, q = levels[a:a + step], p[a:a + step]
        shift = width * np.arange(lv.shape[0])[:, None]
        hist = np.bincount((lv + shift)[np.arange(m) < q[:, None]],
                           minlength=lv.shape[0] * width).reshape(-1, width)
        # n1[:, k]: subjects at risk at kept time k, i.e. with level > k
        n1 = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1].astype(float)
        n2 = n_risk - n1
        n1 *= coef
        n1 *= n2
        out[a:a + step] = np.cumsum(n1, axis=1)[:, -1]
    return out


def _pair_sums(order, level, cum_coef):
    """For each position of each feature order, the sum of
    C(min(L_i, L_j)) = min(C(L_i), C(L_j)) over the subjects i placed
    before subject j there, where L is a subject's level and C(l) the sum
    of the first l kept variance coefficients (nondecreasing in l).

    Positions fall into chunks and subjects, by level rank, into blocks,
    both of about m^(1/3). Pairs within one chunk are summed directly, and
    so are pairs within one block across chunks. Any other pair takes C of
    the subject in the lower block, read from per-chunk, per-block sums
    and counts accumulated over the earlier chunks. That is O(m^(4/3)) per
    feature, and every step adds nonnegative terms.
    """
    n_feat, m = order.shape
    span = max(2, int(np.ceil(m ** (1 / 3))))  # subjects per block
    size = 2 * span  # positions per chunk (the measured best ratio)
    step = max(1, _SCREEN_BLOCK // (m * size))  # features per pass
    if n_feat > step:
        return np.vstack([_pair_sums(order[a:a + step], level, cum_coef)
                          for a in range(0, n_feat, step)])
    n_chunks, n_blocks = -(-m // size), -(-m // span)
    pad, bpad = n_chunks * size, n_blocks * span  # padding comes last
    rows = np.arange(n_feat)[:, None]
    by_rank = np.argsort(level, kind="stable")
    block = np.empty(m, dtype=np.intp)
    block[by_rank] = np.arange(m) // span
    lv = np.zeros((n_feat, pad), dtype=np.intp)
    lv[:, :m] = level[order]
    cl = cum_coef[lv]
    bo = np.full((n_feat, pad), n_blocks - 1)
    bo[:, :m] = block[order]
    chunk = np.arange(pad) // size

    # within a chunk: the earlier position of each pair
    cc = cl.reshape(n_feat, n_chunks, size)
    earlier = np.arange(size)[:, None] < np.arange(size)
    out = np.zeros((n_feat, pad + 1))  # column pad collects the padding
    out[:, :pad] = (np.minimum(cc[:, :, :, None], cc[:, :, None, :])
                    * earlier).sum(axis=2).reshape(n_feat, pad)

    # within a block, across chunks: members in level-rank order
    members = np.full(bpad, m)
    members[:m] = by_rank
    members = members.reshape(n_blocks, span)
    cm = np.append(cum_coef[level], 0.0)[members]
    pos = np.empty((n_feat, m + 1), dtype=np.intp)
    pos[rows, order] = np.arange(m)
    pos[:, m] = pad  # in no earlier chunk than anyone
    cp = pos[:, members] // size
    before = cp[:, :, :, None] < cp[:, :, None, :]
    pair = (before * np.minimum(cm[:, :, None], cm[:, None, :])).sum(axis=2)
    out[rows[:, :, None], pos[:, members]] += pair

    # across chunks and blocks: C sums over (earlier chunk, lower block)
    # and counts over (earlier chunk, same or lower block)
    cell = ((rows * n_chunks + chunk) * n_blocks + bo).ravel()
    n_cells = n_feat * n_chunks * n_blocks
    prefix = np.zeros((2, n_feat, n_chunks + 1, n_blocks + 1))
    prefix[:, :, 1:, 1:] = np.cumsum(np.cumsum(np.stack([
        np.bincount(cell, cl.ravel(), n_cells),
        np.bincount(cell, None, n_cells)]).reshape(2, n_feat, n_chunks, n_blocks),
        axis=2), axis=3)
    higher = chunk * size - prefix[1][rows, chunk, bo + 1]
    out[:, :pad] += prefix[0][rows, chunk, bo] + cl * higher
    return out[:, :m]


def _node_logrank_screen(Xb, time, event, msl: int, chunk: int = 512):
    """The split ``_node_logrank_scan`` picks, (|z|, feature row,
    threshold) or None, found without its (mtry, K, m) at-risk block.

    With L a subject's count of kept event times at or before its time, the
    variance at a position is V = sum_k c_k N_k n1_k - sum_k c_k n1_k^2:
    a running sum of per-subject terms plus a running sum over pairs of
    C(min(L_i, L_j)) (``_pair_sums``). Both forms are sums of nonnegative
    terms, so they differ from the scan's time-ordered float sum by at most
    8 (K + m + 64) u times the two terms' sum. That bounds |z| at every
    position from both sides; only the positions whose upper bound reaches
    the largest lower bound get the scan's exact sum, and the row-major
    first maximum among them is the scan's. V > 0 holds exactly iff both
    sides hold a subject at risk at the first kept event time. The lone
    position ``_node_logrank_scan`` sums pairwise is summed the same way.
    """
    n_feat, m = Xb.shape
    order = np.argsort(Xb, axis=1, kind="stable")
    xs = np.take_along_axis(Xb, order, axis=1)
    grid, at_risk, var_coef, scores = _logrank_stats(time, event)
    num = np.abs(np.cumsum(scores[order], axis=1)[:, :-1])
    keep = var_coef > 0
    coef, n_risk = var_coef[keep], at_risk[keep]
    level = np.searchsorted(grid[keep], time, side="right")
    lv = level[order]

    positions = np.arange(1, m)
    ok = (xs[:, :-1] != xs[:, 1:]) & (positions >= msl) & (m - positions >= msl)
    ok &= np.maximum.accumulate(lv, axis=1)[:, :-1] > 0
    ok &= np.maximum.accumulate(lv[:, ::-1], axis=1)[:, -2::-1] > 0
    if not ok.any():
        return None

    cum_coef = np.concatenate(([0.0], np.cumsum(coef)))
    per_subject = np.concatenate(([0.0], np.cumsum(coef * n_risk)))[lv]
    first = np.cumsum(per_subject, axis=1)[:, :-1]
    pairs = _pair_sums(order, level, cum_coef)
    second = np.cumsum(cum_coef[lv] + 2.0 * pairs, axis=1)[:, :-1]
    approx = first - second
    slack = 8.0 * (coef.size + m + 64) * 2.0 ** -53 * (first + second)
    # the factors cover the rounding of these bounds and of the exact z
    with np.errstate(divide="ignore", invalid="ignore"):
        z_lo = num / np.sqrt(approx + slack) * (1.0 - 2.0 ** -50)
        z_hi = np.where(approx > slack, num / np.sqrt(approx - slack),
                        np.inf) * (1.0 + 2.0 ** -50)
    z_lo[~ok] = -np.inf
    z_hi[~ok] = -np.inf
    lone = msl == 1 and (m - 1) % chunk == 1
    if lone:
        last = ok[:, -1]
        v = _lone_variance(grid, at_risk, var_coef, time[order[last, -1]])
        z_lo[last, -1] = z_hi[last, -1] = num[last, -1] / np.sqrt(v)

    cand = np.flatnonzero(z_hi >= z_lo.max())
    f, k = np.divmod(cand, m - 1)
    z = z_lo[f, k]  # exact at the lone position
    exact = ~(lone & (k == m - 2))
    z[exact] = num[f[exact], k[exact]] / np.sqrt(
        _prefix_variance(lv[f[exact]], k[exact] + 1, coef, n_risk))
    j = int(np.argmax(z))
    f, k = int(f[j]), int(k[j])
    return float(z[j]), f, float(0.5 * (xs[f, k] + xs[f, k + 1]))


def fit_survival_tree(X, time, event,
                      params: SurvivalTreeParams = SurvivalTreeParams()) -> TreeNode:
    """Grow a survival tree by maximizing the standardized log-rank statistic.

    At each node a random subset of ``mtry`` features is searched in one
    pass: nodes of at least ``_SCREEN_MIN_ROWS`` rows by the screened search,
    smaller ones by the full scan, which costs less there; both pick the same
    split. The table records each row's leaf so callers can attach
    nonparametric estimates. Nodes without events or without an admissible
    split become leaves. Returns the root's view.
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
    msl = params.min_samples_leaf

    def split(idx, _rows, depth):
        if (depth >= params.max_depth or idx.size < 2 * msl
                or event[idx].sum() == 0):
            return None
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
        node = (XT[np.ix_(feats, idx)], time[idx], event[idx], msl)
        if idx.size >= _SCREEN_MIN_ROWS:
            found = _node_logrank_screen(*node)
        else:
            found = _scan_split(*_node_logrank_scan(*node))
        if found is None:
            return None
        return found[0], int(feats[found[1]]), found[2]

    return _grow(X, split, lambda idx: np.nan, record_rows=True)


def _route(trees: list[TreeNode], X) -> np.ndarray:
    """The leaf every row reaches in every tree: a (len(trees), n) matrix of
    node ids local to each tree's table.

    The tables are concatenated with node offsets into one child array,
    child[2 * i + 1] the left and child[2 * i] the right child of node i,
    with each leaf its own child. Every (tree, row) pair starts at its
    tree's node and takes one numpy step per depth level. Rows go in blocks
    of about ``_ROUTE_BLOCK`` pairs so the per-level temporaries stay small.
    """
    X = _check_matrix(X)
    n, d = X.shape
    out = np.empty((len(trees), n), dtype=np.intp)
    if not trees:
        return out
    tables = [t.table for t in trees]
    sizes = np.array([t.feature.size for t in tables])
    offset = np.cumsum(sizes) - sizes
    shift = np.repeat(offset, sizes)
    feature = np.concatenate([t.feature for t in tables])
    threshold = np.concatenate([t.threshold for t in tables])
    leaf = feature < 0
    ids = np.arange(feature.size)
    left = np.where(leaf, ids, np.concatenate([t.left for t in tables]) + shift)
    right = np.where(leaf, ids, np.concatenate([t.right for t in tables]) + shift)
    child = np.stack([right, left], axis=1).ravel()
    feature[leaf] = 0
    start = offset + np.array([t.i for t in trees])
    # the number of steps is the deepest level any start node reaches
    levels, frontier = 0, start
    while True:
        frontier = frontier[~leaf[frontier]]
        if frontier.size == 0:
            break
        frontier = np.concatenate([left[frontier], right[frontier]])
        levels += 1
    flat = X.ravel()
    step = max(1, _ROUTE_BLOCK // len(trees))
    for a in range(0, n, step):
        row_start = np.arange(a, min(a + step, n)) * d  # row offsets in flat
        node = np.repeat(start[:, None], row_start.size, axis=1)
        for _ in range(levels):
            go_left = flat[row_start + feature[node]] <= threshold[node]
            node = child[2 * node + go_left]
        out[:, a:a + step] = node - offset[:, None]
    return out


def predict_tree(root: TreeNode, X) -> np.ndarray:
    """Regression-tree output per row."""
    return root.table.value[_route([root], X)[0]]


def boost(X, time, event, loss, params: BoostParams = BoostParams(),
          weights=None) -> BoostedEnsemble:
    """Second-order boosting loop with a pluggable loss.

    Per round: compute gradients/hessians at the current predictions (on a
    row subsample when subsample < 1), fit an exact-greedy tree to them,
    and add it with shrinkage. The training-loss trace (full data) is
    recorded per round. Without subsampling, one loss call per round gives
    both the gradients and the previous round's trace value. The columns
    are sorted once per call; each round's tree takes those sorted rows,
    filtered to its subsample.
    """
    X = _check_matrix(X)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    n = X.shape[0]
    if not 0.0 < params.subsample <= 1.0:
        raise DataError("subsample must lie in (0, 1]")
    full = params.subsample == 1.0
    rng = np.random.default_rng(params.seed)
    base = float(loss.intercept(time, event, weights))
    preds = np.full(n, base)
    trees: list[TreeNode] = []
    trace: list[float] = []

    def record(lval, rnd):
        # the loss after round rnd; rnd = -1 is the intercept's, unchecked
        if rnd >= 0 and not np.isfinite(lval):
            raise TrainingError(f"non-finite loss value at round {rnd}")
        trace.append(float(lval))

    if not full:
        record(loss.value_grad_hess(time, event, preds, weights)[0], -1)
    rows = _sorted_rows(X)
    for rnd in range(params.n_rounds):
        if full:
            lval, g, h = loss.value_grad_hess(time, event, preds, weights)
            record(lval, rnd - 1)
            X_fit, rows_fit = X, rows
        else:
            k = max(1, int(round(params.subsample * n)))
            sub = np.sort(rng.choice(n, size=k, replace=False))
            w_sub = None if weights is None else np.asarray(weights, float)[sub]
            _, g, h = loss.value_grad_hess(time[sub], event[sub], preds[sub],
                                           w_sub)
            X_fit = X[sub]
            # the sorted rows of the subsample, renumbered 0..k-1
            local = np.full(n, -1)
            local[sub] = np.arange(k)
            rows_fit = local[rows]
            rows_fit = rows_fit[rows_fit >= 0].reshape(rows.shape[0], k)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise TrainingError(f"non-finite loss statistics at round {rnd}")
        tree = fit_regression_tree(X_fit, g, h, params.tree, presorted=rows_fit)
        trees.append(tree)
        preds += params.learning_rate * predict_tree(tree, X)
        if not full:
            record(loss.value_grad_hess(time, event, preds, weights)[0], rnd)
    if full:
        record(loss.value_grad_hess(time, event, preds, weights)[0],
               params.n_rounds - 1)
    return BoostedEnsemble(base_score=base, trees=trees,
                           learning_rate=params.learning_rate,
                           loss_id=getattr(loss, "name", "custom"),
                           n_features=X.shape[1], loss_trace=trace)


def predict_ensemble(model: BoostedEnsemble, X) -> np.ndarray:
    """base_score + learning_rate * sum of tree outputs, per row, added
    tree by tree."""
    X = _check_matrix(X)
    if X.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, got {X.shape[1]}")
    out = np.full(X.shape[0], model.base_score)
    for tree, leaf in zip(model.trees, _route(model.trees, X)):
        out += model.learning_rate * tree.table.value[leaf]
    return out


def tree_to_dict(node: TreeNode) -> dict:
    """The subtree at ``node`` as nested dicts with Python int/float values
    (the model-file form)."""
    t = node.table
    feature, threshold = t.feature.tolist(), t.threshold.tolist()
    left, right = t.left.tolist(), t.right.tolist()
    value, gain = t.value.tolist(), t.gain.tolist()

    def emit(i):
        if feature[i] < 0:
            leaf: dict = {}
            if value[i] == value[i]:  # not NaN
                leaf["value"] = value[i]
            if t.row_leaf is not None:
                leaf["members"] = np.flatnonzero(t.row_leaf == i).tolist()
            return leaf
        return {
            "feature": feature[i],
            "threshold": threshold[i],
            "gain": gain[i] if gain[i] == gain[i] else None,
            "left": emit(left[i]),
            "right": emit(right[i]),
        }

    return emit(node.i)


def _number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} {v!r} is not a number")
    return float(v)


def tree_from_dict(obj: dict) -> TreeNode:
    """Rebuild a tree from its nested-dict form; returns the root's view.

    A node that is not an object, a split feature that is not a
    nonnegative int, or a non-numeric threshold, gain or leaf value raises
    ValueError. Leaf ``members`` must partition the rows 0..n-1.
    """
    feature, threshold, right, value, gain = [], [], [], [], []
    members: dict[int, list] = {}

    def add(node):
        if not isinstance(node, dict):
            raise ValueError(f"tree node {node!r} is not an object")
        i = len(feature)
        right.append(-1)
        if "feature" not in node:
            v = node.get("value")
            feature.append(-1)
            threshold.append(np.nan)
            value.append(np.nan if v is None else _number(v, "leaf value"))
            gain.append(np.nan)
            if "members" in node:
                members[i] = node["members"]
            return
        f = node["feature"]
        if isinstance(f, bool) or not isinstance(f, int) or f < 0:
            raise ValueError(f"split feature {f!r} is not a column index")
        g = node.get("gain")
        feature.append(f)
        threshold.append(_number(node["threshold"], "threshold"))
        value.append(np.nan)
        gain.append(np.nan if g is None else _number(g, "gain"))
        add(node["left"])
        right[i] = len(feature)
        add(node["right"])

    add(obj)
    row_leaf = None
    if members:
        rows = np.concatenate([np.asarray(m, dtype=np.intp)
                               for m in members.values()])
        if not np.array_equal(np.sort(rows), np.arange(rows.size)):
            raise ValueError("leaf members do not partition the rows")
        row_leaf = np.empty(rows.size, dtype=np.intp)
        row_leaf[rows] = np.repeat(list(members),
                                   [len(m) for m in members.values()])
    return TreeNode(NodeTable.from_lists(feature, threshold, right, value,
                                         gain, row_leaf))


def _check_split_features(trees: list[TreeNode], n_features) -> None:
    """Raise ValueError unless every split feature indexes a column."""
    top = max((int(t.table.feature.max()) for t in trees), default=-1)
    if top >= n_features:
        raise ValueError(f"split feature {top} is not below n_features "
                         f"{n_features}")


def ensemble_to_dict(model: BoostedEnsemble) -> dict:
    return {
        "version": MODEL_FILE_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "loss": model.loss_id,
        "n_features": model.n_features,
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def check_model_version(obj: dict) -> None:
    """Raise DataError unless ``obj`` carries a version in READ_VERSIONS."""
    version = obj.get("version")
    if type(version) is not int or version not in READ_VERSIONS:
        raise DataError(f"unsupported model file version {version!r}")


def ensemble_from_dict(obj: dict) -> BoostedEnsemble:
    check_model_version(obj)
    trees = [tree_from_dict(t) for t in obj["trees"]]
    _check_split_features(trees, obj["n_features"])
    return BoostedEnsemble(base_score=_number(obj["base_score"], "base_score"),
                           trees=trees,
                           learning_rate=_number(obj["learning_rate"],
                                                 "learning_rate"),
                           loss_id=obj["loss"],
                           n_features=obj["n_features"])
