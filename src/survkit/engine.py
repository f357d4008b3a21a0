"""Shared tree and boosting machinery.

Exact-greedy trees serve the whole model zoo: regression trees
on gradient/hessian statistics for the boosted families, and survival
trees with log-rank splitting for the forest. Exact splits (midpoints of
consecutive distinct values) keep fits affordable at the cohort sizes in
scope and make results reproducible across platforms; gain ties break
toward the lower feature index, then the lower threshold.

A tree is one ``NodeTable``: parallel node arrays in preorder, the only
tree form that growers build, ensembles hold and model files encode.
``_route`` sends rows through a whole list of trees at once, from their
roots, one numpy step per depth level.

Both split searches are exact without repeating work at every node.
Regression trees sort each column once and hand every child the stable
partition of its parent's sorted rows. A survival forest grows all its
trees in lockstep (``fit_survival_forest``), and one batched search finds
the splits of every tree's next node: each node's subjects in each
feature's order, padded to a common width (``_survival_z``). Small nodes
count the log-rank variance exactly; large ones screen it with a bound
and compute the exact sum only where the maximum is undecided. Either way
the trees are those of a per-node sort and a full scan, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingError

__all__ = [
    "NodeTable",
    "TreeParams",
    "SurvivalTreeParams",
    "BoostParams",
    "BoostedEnsemble",
    "fit_regression_tree",
    "fit_survival_tree",
    "fit_survival_forest",
    "boost",
    "predict_tree",
    "tree_to_dict",
    "tree_from_dict",
]

MODEL_FILE_VERSION = 2  # the version every file is written as
READ_VERSIONS = (1, 2)  # v1 stores RSF leaf hazards densely, v2 as steps

# (row, tree) pairs routed per block: bounds the per-level temporaries
_ROUTE_BLOCK = 1 << 15
# nodes this large take the screened log-rank search; below, the batched
# scan is faster (re-measured on whole forest fits at n = 320, 667 and 2400,
# where cutoffs from 128 to 256 rows came out within noise of each other)
_SCREEN_MIN_ROWS = 192
# elements per block of the screen's temporaries
_SCREEN_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class NodeTable:
    """One tree as parallel arrays over its nodes in preorder: a node, then
    its left subtree, then its right subtree, so node 0 is the root. Every
    tree of a fit or a model file is one table; nothing wraps it.

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
    trees: list[NodeTable]
    learning_rate: float
    loss_id: str
    n_features: int
    loss_trace: list[float] = field(default_factory=list)

    def predict(self, X) -> np.ndarray:
        """base_score + learning_rate * sum of tree outputs, per row, added
        tree by tree."""
        X = _check_matrix(X)
        if X.shape[1] != self.n_features:
            raise DataError(f"expected {self.n_features} features, "
                            f"got {X.shape[1]}")
        out = np.full(X.shape[0], self.base_score)
        for tree, leaf in zip(self.trees, _route(self.trees, X)):
            out += self.learning_rate * tree.value[leaf]
        return out


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


def _best_regression_split(X, g, h, idx, params: TreeParams, rows):
    """Exact greedy split search over one node's rows, all features at once.

    Gain = 1/2 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)].
    ``idx`` lists the node's rows in ascending order and ``rows`` the same
    rows in each column's (value, row) order, a (d, m) array. The left
    gradient and hessian sums are row-wise cumulative sums in that order,
    so each feature's gains equal a one-feature scan's bit for bit.
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


def fit_regression_tree(X, gradients, hessians,
                        params: TreeParams = TreeParams()) -> NodeTable:
    """Grow an exact-greedy regression tree on gradient/hessian statistics.

    Leaf value is the Newton step -G_leaf / (H_leaf + lam). Splitting stops
    on depth, sample, child-weight or gain floors. The columns are sorted
    once, at the root, and each child takes the stable partition of its
    parent's sorted rows.
    """
    X = _check_matrix(X)
    return _regression_tree(X, gradients, hessians, params, _sorted_rows(X))[0]


def _regression_tree(X, gradients, hessians, params: TreeParams, rows):
    """``fit_regression_tree`` on the root sort ``rows`` (``_sorted_rows``),
    grown depth first with each node appended to its table in preorder:
    the table and each row's leaf."""
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
    feature, threshold, right, value, gain = [], [], [], [], []
    row_leaf = np.full(X.shape[0], -1, dtype=np.intp)

    def build(idx, node_rows, depth):
        i = len(feature)
        found = None
        if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
            found = _best_regression_split(X, g, h, idx, params, node_rows)
        right.append(-1)
        if found is None or found[0] <= params.min_split_gain:
            denom = h[idx].sum() + lam
            feature.append(-1)
            threshold.append(np.nan)
            value.append(0.0 if denom <= 0 else -g[idx].sum() / denom)
            gain.append(np.nan)
            row_leaf[idx] = i
            return
        node_gain, feat, thr = found
        feature.append(feat)
        threshold.append(thr)
        value.append(np.nan)
        gain.append(node_gain)
        mask = X[idx, feat] <= thr
        go = X[node_rows, feat] <= thr
        build(idx[mask], node_rows[go].reshape(X.shape[1], -1), depth + 1)
        right[i] = len(feature)
        build(idx[~mask], node_rows[~go].reshape(X.shape[1], -1), depth + 1)

    build(np.arange(X.shape[0]), rows, 0)
    return NodeTable.from_lists(feature, threshold, right, value, gain), row_leaf


@dataclass(frozen=True)
class _NodeStats:
    """Log-rank bookkeeping of a batch of nodes (``_logrank_stats``).

    Subjects are the nodes' subjects in (time, row) order, nodes one after
    another: ``start``/``m`` give each node's first subject and size, and
    ``times``, ``scores`` and ``level`` are per subject. ``coef`` and
    ``n_risk`` hold each node's kept event times (those with a positive
    variance coefficient) as zero-padded rows, ``K`` counting them.
    ``grid``, ``at_risk`` and ``var_coef`` list every event time of every
    node, node ``j``'s from ``ev_start[j]`` on.
    """

    start: np.ndarray
    m: np.ndarray
    times: np.ndarray
    scores: np.ndarray
    level: np.ndarray
    coef: np.ndarray
    n_risk: np.ndarray
    K: np.ndarray
    grid: np.ndarray
    at_risk: np.ndarray
    var_coef: np.ndarray
    ev_start: np.ndarray

    def events(self, j: int):
        """Node ``j``'s event times: (grid, at-risk count, var_coef)."""
        a = self.ev_start[j]
        b = self.ev_start[j + 1] if j + 1 < self.m.size else self.grid.size
        return self.grid[a:b], self.at_risk[a:b], self.var_coef[a:b]


def _padded_rows(node, values, n_nodes, first: int = 0):
    """``values`` (grouped by ``node``, ascending) as one zero-padded row
    per node, each node's values from column ``first`` on in their order."""
    count = np.bincount(node, minlength=n_nodes)
    out = np.zeros((n_nodes, first + int(count.max(initial=0))))
    out[node, first + np.arange(node.size)
        - (np.cumsum(count) - count)[node]] = values
    return out


def _logrank_stats(m, times, event) -> _NodeStats:
    """Log-rank bookkeeping of a batch of nodes in one pass.

    ``m`` holds the node sizes and ``times``/``event`` their subjects in
    (time, row) order, nodes one after another. Per node this gives its
    event times, the at-risk count and variance coefficient at each, and
    each subject's score delta_j - H(T_j), with H the node's Nelson-Aalen
    cumulative hazard (a cumulative sum per zero-padded row, so each node's
    is the one-node sum), and each subject's level: its count of kept
    event times at or before its time.
    """
    m = np.asarray(m, dtype=np.intp)
    start = np.cumsum(m) - m
    node = np.repeat(np.arange(m.size), m)
    new = np.ones(times.size, dtype=bool)  # first subject at each time
    new[1:] = times[1:] != times[:-1]
    new[start] = True
    first = np.flatnonzero(new)
    deaths = np.add.reduceat(event.astype(float), first)
    has_event = deaths > 0
    ev, deaths = first[has_event], deaths[has_event]
    ev_node = node[ev]
    at_risk = (m[ev_node] - (ev - start[ev_node])).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(at_risk > 1,
                            deaths * (at_risk - deaths) / (at_risk ** 2 * (at_risk - 1)),
                            0.0)
    cumhaz = np.cumsum(_padded_rows(ev_node, deaths / at_risk, m.size, 1),
                       axis=1)
    # event times (and kept ones) up to each subject's time, within its node
    ev_start = np.searchsorted(ev_node, np.arange(m.size))
    seen = np.cumsum(has_event)[np.cumsum(new) - 1] - ev_start[node]
    scores = event - cumhaz[node, seen]
    keep = var_coef > 0
    kept = np.concatenate(([0], np.cumsum(keep)))
    level = kept[ev_start[node] + seen] - kept[ev_start[node]]
    return _NodeStats(start=start, m=m, times=times, scores=scores,
                      level=level,
                      coef=_padded_rows(ev_node[keep], var_coef[keep], m.size),
                      n_risk=_padded_rows(ev_node[keep], at_risk[keep], m.size),
                      K=np.bincount(ev_node[keep], minlength=m.size),
                      grid=times[ev], at_risk=at_risk, var_coef=var_coef,
                      ev_start=ev_start)


def _scan_variance(lv, m, nodes, st: _NodeStats, msl: int):
    """Exact log-rank variance at every admissible split position of every
    row of ``lv`` (nodes, mtry, M): node j's subjects' levels in one
    feature's order, dummies last. Zero elsewhere; (nodes, mtry, M - 1).

    Position p of a row (its first p subjects on the left) is admissible
    for msl <= p <= m - msl. There n1_k, the left group's count at risk at
    the node's k-th kept event time, is a running count over the row of
    the subjects whose level exceeds k, and the variance is
    sum_k (c_k n1_k)(N_k - n1_k) in k order: a sum over axis 0 of a
    (K, rows, positions) block, which numpy adds in k order, as the
    one-node scan did. Rows go by falling K in blocks of about
    ``_SCREEN_BLOCK // 8`` counts; a row of smaller K than its block's
    first pads with c = N = 0, which adds zeros and is exact.
    """
    n_nodes, n_feat, M = lv.shape
    level = lv.reshape(-1, M)
    variance = np.zeros((level.shape[0], M - 1))
    lm, row_node = np.repeat(m, n_feat), np.repeat(nodes, n_feat)
    K = st.K[row_node]
    first = max(msl, 1)  # positions run from 1 to m - 1
    cols = np.minimum(lm - msl, lm - 1) - first + 1
    todo = np.flatnonzero((cols > 0) & (K > 0))
    todo = todo[np.argsort(-K[todo], kind="stable")]
    count_type = np.min_scalar_type(M)  # a count never exceeds M
    a = 0
    while a < todo.size:
        kb = int(K[todo[a]])
        rows = todo[a:a + max(1, _SCREEN_BLOCK // 8 // (kb * M))]
        a += rows.size
        # two columns at least: numpy would sum a lone (K,) column pairwise
        width = max(2, int(cols[rows].max()))
        n1 = np.cumsum(level[rows, :first - 1 + width]
                       > np.arange(kb)[:, None, None],
                       axis=2, dtype=count_type)[:, :, first - 1:]
        c = st.coef[row_node[rows], :kb].T[:, :, None]
        n = st.n_risk[row_node[rows], :kb].T[:, :, None]
        v = c * n1
        v *= n - n1
        v = v.sum(axis=0)
        at, col = np.nonzero(np.arange(width) < cols[rows, None])
        variance[rows[at], first - 1 + col] = v[at, col]
    return variance.reshape(n_nodes, n_feat, M - 1)


def _lone_variance(grid, at_risk, var_coef, last_time):
    """Variance at the last split position of each row (every subject
    left but the one at ``last_time``), summed pairwise over all event
    times as numpy sums a lone column."""
    last_at_risk = grid[None, :] <= last_time[:, None]
    n1 = at_risk - last_at_risk
    return np.sum(var_coef * n1 * (at_risk - n1), axis=1)


def _prefix_variance(levels, p, coef, n_risk):
    """Exact log-rank variance of each row's first p[i] subjects, as
    ``_scan_variance`` sums it: (coef * n1) * (N - n1) over the kept event
    times in time order. ``levels`` holds each subject's count of kept
    event times at or before its time, and row i of ``coef``/``n_risk`` its
    node's kept event times (zero-padded, which adds +0.0)."""
    rows, m = levels.shape
    width = coef.shape[1] + 1
    out = np.empty(rows)
    step = max(1, _SCREEN_BLOCK // (m + width))
    for a in range(0, rows, step):
        lv, q = levels[a:a + step], p[a:a + step]
        shift = width * np.arange(lv.shape[0])[:, None]
        hist = np.bincount((lv + shift)[np.arange(m) < q[:, None]],
                           minlength=lv.shape[0] * width).reshape(-1, width)
        # n1[:, k]: subjects at risk at kept time k, i.e. with level > k
        n1 = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1].astype(float)
        n2 = n_risk[a:a + step] - n1
        n1 *= coef[a:a + step]
        n1 *= n2
        out[a:a + step] = np.cumsum(n1, axis=1)[:, -1]
    return out


def _pair_sums(order, C):
    """For each position of each row, the sum of C(min(L_i, L_j)) =
    min(C_i, C_j) over the subjects i placed before subject j there, where
    L is a subject's level and C(l) the sum of the first l kept variance
    coefficients. Row r of ``order`` places subjects 0..m-1, numbered in
    level order, and row r of ``C`` holds their C (nondecreasing).

    Positions fall into chunks and subjects, by level rank, into blocks,
    both of about m^(1/3). Pairs within one chunk are summed directly, and
    so are pairs within one block across chunks. Any other pair takes C of
    the subject in the lower block, read from per-chunk, per-block sums
    and counts accumulated over the earlier chunks. That is O(m^(4/3)) per
    row, and every step adds nonnegative terms.
    """
    n_rows, m = order.shape
    span = max(2, int(np.ceil(m ** (1 / 3))))  # subjects per block
    size = 2 * span  # positions per chunk (the measured best ratio)
    step = max(1, _SCREEN_BLOCK // 4 // (m * size))  # rows per pass
    if n_rows > step:
        return np.vstack([_pair_sums(order[a:a + step], C[a:a + step])
                          for a in range(0, n_rows, step)])
    n_chunks, n_blocks = -(-m // size), -(-m // span)
    pad, bpad = n_chunks * size, n_blocks * span  # padding comes last
    rows = np.arange(n_rows)[:, None]
    cl = np.zeros((n_rows, pad))
    cl[:, :m] = np.take_along_axis(C, order, axis=1)
    bo = np.full((n_rows, pad), n_blocks - 1)
    bo[:, :m] = order // span  # subject s is in block s // span
    chunk = np.arange(pad) // size

    # within a chunk: the earlier position of each pair
    cc = cl.reshape(n_rows, n_chunks, size)
    earlier = np.arange(size)[:, None] < np.arange(size)
    out = np.zeros((n_rows, pad + 1))  # column pad collects the padding
    out[:, :pad] = (np.minimum(cc[:, :, :, None], cc[:, :, None, :])
                    * earlier).sum(axis=2).reshape(n_rows, pad)

    # within a block, across chunks (subject m pads the last block)
    members = np.minimum(np.arange(bpad), m).reshape(n_blocks, span)
    cm = np.concatenate([C, np.zeros((n_rows, 1))], axis=1)[:, members]
    pos = np.empty((n_rows, m + 1), dtype=np.intp)
    pos[rows, order] = np.arange(m)
    pos[:, m] = pad  # in no earlier chunk than anyone
    cp = pos[:, members] // size
    before = cp[:, :, :, None] < cp[:, :, None, :]
    pair = (before * np.minimum(cm[:, :, :, None], cm[:, :, None, :])
            ).sum(axis=2)
    out[rows[:, :, None], pos[:, members]] += pair

    # across chunks and blocks: C sums over (earlier chunk, lower block)
    # and counts over (earlier chunk, same or lower block)
    cell = ((rows * n_chunks + chunk) * n_blocks + bo).ravel()
    n_cells = n_rows * n_chunks * n_blocks
    prefix = np.zeros((2, n_rows, n_chunks + 1, n_blocks + 1))
    prefix[:, :, 1:, 1:] = np.cumsum(np.cumsum(np.stack([
        np.bincount(cell, cl.ravel(), n_cells),
        np.bincount(cell, None, n_cells)]).reshape(2, n_rows, n_chunks, n_blocks),
        axis=2), axis=3)
    higher = chunk * size - prefix[1][rows, chunk, bo + 1]
    out[:, :pad] += prefix[0][rows, chunk, bo] + cl * higher
    return out[:, :m]


def _survival_z(st: _NodeStats, nodes, order, xs, msl: int, screen: bool,
                chunk: int = 512):
    """Standardized two-group log-rank statistic |z| at the split positions
    of ``nodes`` (of ``st``), a (nodes, mtry, M - 1) array with -inf where a
    position is inadmissible or, screened, cannot hold its node's maximum.

    ``order`` (nodes, mtry, M) lists each node's subjects (its time ranks)
    in each feature's order and ``xs`` their values; a node of m < M
    subjects has dummies m..M-1 (level 0, score 0, value +inf) at the end of
    every row, so they change no real position's sums. The numerator is a
    running sum of scores along a row. The variance V > 0 holds exactly iff
    both sides hold a subject at risk at the first kept event time, and V
    comes either exactly from running at-risk counts (``_scan_variance``)
    or, with ``screen``, from the bound-and-verify screen below.

    A column-at-a-time scan in ``chunk``-wide blocks sums the last position
    of a column pairwise when m - 1 = 1 (mod chunk); that position is
    admissible only for msl <= 1 and is summed the same way here
    (``_lone_variance``), so the statistics match it to the last bit.

    The screen: with L a subject's count of kept event times at or before
    its time, V = sum_k c_k N_k n1_k - sum_k c_k n1_k^2, a running sum of
    per-subject terms plus a running sum over pairs of C(min(L_i, L_j))
    (``_pair_sums``). Both forms are sums of nonnegative terms, so they
    differ from the exact time-ordered float sum by at most
    8 (K + m + 64) u times the two terms' sum. That bounds |z| at every
    position from both sides; only the positions whose upper bound reaches
    the node's largest lower bound get the exact sum (``_prefix_variance``),
    so each node's row-major first maximum is the exact one's.
    """
    n_nodes, n_feat, M = order.shape
    m, K = st.m[nodes], st.K[nodes]
    subject = np.arange(M)
    real = subject < m[:, None]
    at = np.where(real, st.start[nodes][:, None] + subject, 0)
    level = np.where(real, st.level[at], 0)
    scores = np.where(real, st.scores[at], 0.0)
    num = np.take_along_axis(scores[:, None, :], order, axis=2)
    num = np.abs(np.cumsum(num, axis=2, out=num)[:, :, :-1])
    lv = np.take_along_axis(level[:, None, :], order, axis=2)
    # admissible: distinct values across the position, msl <= p <= m - msl,
    # and V > 0, i.e. a subject of level > 0 on each side
    risky = lv > 0
    lo = np.maximum(np.argmax(risky, axis=2) + 1, msl)
    hi = np.minimum(M - 1 - np.argmax(risky[:, :, ::-1], axis=2),
                    (m - msl)[:, None])
    hi[K == 0] = 0
    positions = np.arange(1, M)
    ok = ((xs[:, :, :-1] != xs[:, :, 1:]) & (positions >= lo[:, :, None])
          & (positions <= hi[:, :, None]))
    z = np.full(ok.shape, -np.inf)
    if not ok.any():
        return z
    lone = (m - 1) % chunk == 1 if msl <= 1 else np.zeros(n_nodes, dtype=bool)
    rest = ok.copy() if lone.any() else ok  # positions not summed pairwise
    for j in np.flatnonzero(lone):
        k, last = m[j] - 2, ok[j, :, m[j] - 2]
        times = st.times[st.start[nodes[j]] + order[j, last, k + 1]]
        v = _lone_variance(*st.events(nodes[j]), times)
        z[j, last, k] = num[j, last, k] / np.sqrt(v)
        rest[j, :, k] = False
    if not screen:
        variance = _scan_variance(lv, m, nodes, st, msl)
        np.divide(num, np.sqrt(variance, out=variance), out=z, where=rest)
        return z

    k_max = int(K.max())
    coef, n_risk = st.coef[nodes, :k_max], st.n_risk[nodes, :k_max]
    # C(l) and the running sum of c * N over the first l kept event times
    cum_coef, per_level = np.zeros((2, n_nodes, k_max + 1))
    np.cumsum(coef, axis=1, out=cum_coef[:, 1:])
    np.cumsum(coef * n_risk, axis=1, out=per_level[:, 1:])
    first = np.cumsum(np.take_along_axis(per_level[:, None, :], lv, axis=2),
                      axis=2)[:, :, :-1]
    C = np.take_along_axis(cum_coef, level, axis=1)  # per subject
    pairs = _pair_sums(order.reshape(-1, M), np.repeat(C, n_feat, axis=0))
    second = np.cumsum(np.take_along_axis(cum_coef[:, None, :], lv, axis=2)
                       + 2.0 * pairs.reshape(lv.shape), axis=2)[:, :, :-1]
    approx = first - second
    slack = (8.0 * (K + m + 64) * 2.0 ** -53)[:, None, None] * (first + second)
    # the factors cover the rounding of these bounds and of the exact z
    with np.errstate(divide="ignore", invalid="ignore"):
        z_lo = num / np.sqrt(approx + slack) * (1.0 - 2.0 ** -50)
        z_hi = np.where(approx > slack, num / np.sqrt(approx - slack),
                        np.inf) * (1.0 + 2.0 ** -50)
    z_lo[~ok] = -np.inf
    lone = ok & ~rest
    z_lo[lone] = z_hi[lone] = z[lone]
    best = z_lo.reshape(n_nodes, -1).max(axis=1)
    j, f, k = np.nonzero(rest & (z_hi >= best[:, None, None]))
    z[j, f, k] = num[j, f, k] / np.sqrt(_prefix_variance(
        lv[j, f], k + 1, coef[j], n_risk[j]))
    return z


def _first_maxima(z, xs):
    """Each node's row-major first maximum of ``z`` (nodes, mtry, M - 1):
    the lowest feature row, then the lowest threshold, wins ties. Returns
    (|z|, feature row, midpoint threshold) per node, or None where no
    position is admissible."""
    flat = z.reshape(z.shape[0], -1)
    found: list = []
    for j, r in enumerate(np.argmax(flat, axis=1).tolist()):
        f, k = divmod(r, z.shape[2])
        found.append(None if flat[j, r] == -np.inf else (
            float(flat[j, r]), f,
            float(0.5 * (xs[j, f, k] + xs[j, f, k + 1]))))
    return found


class _Grower:
    """One survival tree grown depth first: its node lists in preorder,
    its stack of pending nodes and its own feature draws."""

    __slots__ = ("rng", "stack", "feature", "threshold", "right", "gain",
                 "row_leaf", "offset")

    def __init__(self, seed, offset, n_rows):
        self.rng = np.random.default_rng(seed)
        self.stack = []
        self.feature, self.threshold, self.right, self.gain = [], [], [], []
        self.row_leaf = np.zeros(n_rows, dtype=np.intp)
        self.offset = offset

    def leaf(self, rows) -> int:
        """Append a leaf holding ``rows`` (forest-wide ids); its id."""
        i = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.right.append(-1)
        self.gain.append(np.nan)
        self.row_leaf[rows - self.offset] = i
        return i

    def table(self) -> NodeTable:
        return NodeTable.from_lists(self.feature, self.threshold, self.right,
                                    np.full(len(self.feature), np.nan),
                                    self.gain, self.row_leaf)


def fit_survival_forest(X, samples, time, event,
                        params: SurvivalTreeParams, seeds) -> list[NodeTable]:
    """Grow one survival tree per row sample, all trees in lockstep; each
    maximizes the standardized log-rank statistic at every node.

    Tree t is grown on rows ``samples[t]`` of ``X`` (repeats allowed; its
    table's ``row_leaf`` follows that sample) and draws each node's
    ``mtry`` features from ``default_rng(seeds[t])`` in preorder;
    ``params.seed`` is not used. Every tree keeps its own depth-first stack.
    At each step every unfinished tree pops nodes until one needs a split
    search (the others become leaves: depth, size, no events), so each tree
    draws in its own preorder; then one pass finds the splits of all those
    nodes (``_survival_z``), in parts of about
    ``_SCREEN_BLOCK / (d + 1 + mtry)`` subjects. Each tree ranks its rows
    once per feature and by time; every child takes the stable partition
    of its parent's ranked rows, for all the part's splits at once. A
    sample without events gives a single leaf, and a node of one row is a
    leaf. The trees are those of a per-node sort and a full scan of every
    node, one tree at a time, bit for bit.
    """
    X = _check_matrix(X)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    n, d = X.shape
    if time.shape != (n,) or event.shape != (n,):
        raise DataError("time and event must have one entry per row")
    mtry = d if params.mtry is None else min(params.mtry, d)
    msl = params.min_samples_leaf
    XT = np.ascontiguousarray(X.T)
    samples = [np.asarray(s, dtype=np.intp) for s in samples]
    sizes = np.array([s.size for s in samples], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    rows = np.concatenate(samples) if samples else np.empty(0, np.intp)
    t_all, e_all = time[rows], event[rows]
    where = np.empty(rows.size, dtype=np.intp)  # id -> place in a step

    growers = []
    for s, seed, off in zip(samples, seeds, offsets):
        grower = _Grower(seed, off, s.size)
        # each feature's rows, then the rows by time, as forest-wide ids
        ranked = (np.argsort(np.vstack([XT[:, s], time[s]]), axis=1,
                             kind="stable") + off).astype(np.int32)
        grower.stack.append((ranked, 0, s.size, 0, -1, int(event[s].sum())))
        growers.append(grower)

    def search(ranked, m, feats):
        """Each node's split, (|z|, feature row, threshold) or None. Nodes
        go largest first in parts, each node's rows padded to the size of
        the part's first: nodes of at least ``_SCREEN_MIN_ROWS`` subjects
        are screened, about ``_SCREEN_BLOCK // 32`` positions at a time,
        and the others counted exactly, about ``_SCREEN_BLOCK // 4`` at a
        time."""
        by_time = ranked[d]
        st = _logrank_stats(m, t_all[by_time], e_all[by_time])
        where[by_time] = np.arange(by_time.size)
        found: list = [None] * m.size
        todo = np.argsort(-m, kind="stable")
        n_big = int(np.sum(m >= _SCREEN_MIN_ROWS))
        a = 0
        while a < todo.size:
            M, screen = int(m[todo[a]]), a < n_big
            size = max(1, _SCREEN_BLOCK // (32 if screen else 4) // (mtry * M))
            nodes = todo[a:min(a + size, n_big if screen else todo.size)]
            a += nodes.size
            pad = np.arange(M)
            real = pad < m[nodes][:, None, None]
            start = st.start[nodes][:, None, None]
            node_feats = feats[nodes][:, :, None]
            ids = ranked.ravel()[node_feats * ranked.shape[1]
                                 + np.where(real, start + pad, 0)]
            order = np.where(real, where[ids] - start, pad)
            xs = np.where(real, XT.ravel()[node_feats * n + rows[ids]], np.inf)
            z = _survival_z(st, nodes, order, xs, msl, screen)
            for j, split in zip(nodes.tolist(), _first_maxima(z, xs)):
                found[j] = split
        return found

    def split_nodes(batch, feats, ranked):
        """Search the splits of ``batch`` (grower, node id, depth, events),
        whose ranked rows follow each other in ``ranked``, and push the
        children of those that split."""
        m = np.array([node[2] for node in batch], dtype=np.intp)
        start = np.cumsum(m) - m
        feats = np.array(feats, dtype=np.intp).reshape(len(batch), mtry)
        found = search(ranked, m, feats)
        by_time = ranked[d]

        # partition the split nodes' ranked rows, all at once
        split = np.array([f is not None for f in found])
        col_feat = np.repeat(np.array([feats[j, f[1]] if f else 0
                                       for j, f in enumerate(found)]), m)
        col_thr = np.repeat(np.array([f[2] if f else np.nan for f in found]), m)
        goes = XT[col_feat, rows[ranked]] <= col_thr
        to_left = goes & np.repeat(split, m)
        to_right = ~goes & np.repeat(split, m)
        n_left = np.add.reduceat(to_left[d].astype(np.intp), start)
        n_right = np.add.reduceat(to_right[d].astype(np.intp), start)
        ev_left = np.add.reduceat(to_left[d] * e_all[by_time], start)
        left = ranked[to_left].reshape(d + 1, -1)
        right = ranked[to_right].reshape(d + 1, -1)
        left_at = np.cumsum(n_left) - n_left
        right_at = np.cumsum(n_right) - n_right
        for j, (grower, i, _, depth, events) in enumerate(batch):
            if found[j] is None:
                continue
            z, f, thr = found[j]
            grower.feature[i] = int(feats[j, f])
            grower.threshold[i] = thr
            grower.gain[i] = z
            el = int(ev_left[j])
            # a right child waits for its sibling's subtree: its own copy
            # lets the step's arrays go
            a, b = right_at[j], right_at[j] + n_right[j]
            grower.stack.append((right[:, a:b].copy(), 0, b - a, depth + 1, i,
                                 events - el))
            grower.stack.append((left, left_at[j], left_at[j] + n_left[j],
                                 depth + 1, -1, el))

    active = growers
    while active:
        batch, feats, views = [], [], []
        for grower in active:
            while grower.stack:
                ranked, a, b, depth, parent, events = grower.stack.pop()
                i = grower.leaf(ranked[d, a:b])
                if parent >= 0:
                    grower.right[parent] = i
                if (depth < params.max_depth and b - a >= max(2, 2 * msl)
                        and events > 0):
                    feats.append(np.sort(grower.rng.choice(d, size=mtry,
                                                           replace=False)))
                    batch.append((grower, i, b - a, depth, events))
                    views.append(ranked[:, a:b])
                    break
        if not batch:
            break
        # the step's nodes in parts of a bounded number of subjects
        part = np.cumsum([node[2] for node in batch]) - 1
        part //= max(1, _SCREEN_BLOCK // (d + 1 + mtry))
        edges = [0, *(np.flatnonzero(np.diff(part)) + 1), len(batch)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            ranked = np.concatenate(views[lo:hi], axis=1)
            views[lo:hi] = [None] * (hi - lo)  # the popped rows may go
            split_nodes(batch[lo:hi], feats[lo:hi], ranked)
        active = [g for g in active if g.stack]
    return [g.table() for g in growers]


def fit_survival_tree(X, time, event,
                      params: SurvivalTreeParams = SurvivalTreeParams()) -> NodeTable:
    """Grow a survival tree by maximizing the standardized log-rank
    statistic: ``fit_survival_forest`` with one tree on all rows, seeded by
    ``params.seed``. The table records each row's leaf so callers can attach
    nonparametric estimates. Nodes without events or without an admissible
    split become leaves.
    """
    X = _check_matrix(X)
    if np.asarray(event, dtype=int).sum() == 0:
        raise DataError("survival tree needs at least one event")
    return fit_survival_forest(X, [np.arange(X.shape[0])], time, event,
                               params, [params.seed])[0]


def _route(tables: list[NodeTable], X) -> np.ndarray:
    """The leaf every row reaches in every tree: a (len(tables), n) matrix
    of node ids local to each table.

    The tables are concatenated with node offsets into one child array,
    child[2 * i + 1] the left and child[2 * i] the right child of node i,
    with each leaf its own child. Every (tree, row) pair starts at its
    tree's root and takes one numpy step per depth level. Rows go in blocks
    of about ``_ROUTE_BLOCK`` pairs so the per-level temporaries stay small.
    """
    X = _check_matrix(X)
    n, d = X.shape
    out = np.empty((len(tables), n), dtype=np.intp)
    if not tables:
        return out
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
    # the number of steps is the deepest level of any tree
    levels, frontier = 0, offset
    while True:
        frontier = frontier[~leaf[frontier]]
        if frontier.size == 0:
            break
        frontier = np.concatenate([left[frontier], right[frontier]])
        levels += 1
    flat = X.ravel()
    step = max(1, _ROUTE_BLOCK // len(tables))
    for a in range(0, n, step):
        row_start = np.arange(a, min(a + step, n)) * d  # row offsets in flat
        node = np.repeat(offset[:, None], row_start.size, axis=1)
        for _ in range(levels):
            go_left = flat[row_start + feature[node]] <= threshold[node]
            node = child[2 * node + go_left]
        out[:, a:a + step] = node - offset[:, None]
    return out


def predict_tree(table: NodeTable, X) -> np.ndarray:
    """Regression-tree output per row."""
    return table.value[_route([table], X)[0]]


def boost(X, time, event, loss, params: BoostParams = BoostParams(),
          weights=None) -> BoostedEnsemble:
    """Second-order boosting loop with a pluggable loss.

    Per round: one full-data loss call gives the previous round's entry of
    the training-loss trace and, at subsample == 1, the gradients and
    hessians (below it, a second call on a row subsample gives them); an
    exact-greedy tree is fitted to them and added with shrinkage. One call
    after the loop records the last entry. The columns are sorted once per
    call; each round's tree takes those sorted rows, filtered to its
    subsample. The rows a tree was fitted on take their leaf from its
    grower; only rows outside the subsample are routed.
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
    trees: list[NodeTable] = []
    trace: list[float] = []

    def full_loss(rnd):
        # the loss after round rnd; rnd = -1 is the intercept's, unchecked
        lval, g, h = loss.value_grad_hess(time, event, preds, weights)
        if rnd >= 0 and not np.isfinite(lval):
            raise TrainingError(f"non-finite loss value at round {rnd}")
        trace.append(float(lval))
        return g, h

    rows = _sorted_rows(X)
    for rnd in range(params.n_rounds):
        g, h = full_loss(rnd - 1)
        X_fit, rows_fit, sub = X, rows, None
        if params.subsample < 1.0:
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
        tree, leaf = _regression_tree(X_fit, g, h, params.tree, rows_fit)
        trees.append(tree)
        # the grower placed the fitted rows; route only the others
        step = params.learning_rate * tree.value[leaf]
        if sub is None:
            preds += step
        else:
            preds[sub] += step
            rest = np.ones(n, dtype=bool)
            rest[sub] = False
            preds[rest] += params.learning_rate * predict_tree(tree, X[rest])
    full_loss(params.n_rounds - 1)
    return BoostedEnsemble(base_score=base, trees=trees,
                           learning_rate=params.learning_rate,
                           loss_id=getattr(loss, "name", "custom"),
                           n_features=X.shape[1], loss_trace=trace)


def tree_to_dict(t: NodeTable) -> dict:
    """The tree as nested dicts with Python int/float values (the
    model-file form)."""
    feature, threshold = t.feature.tolist(), t.threshold.tolist()
    left, right = t.left.tolist(), t.right.tolist()
    value, gain = t.value.tolist(), t.gain.tolist()

    def emit(i):
        if feature[i] < 0:
            return {"value": value[i]} if value[i] == value[i] else {}
        return {
            "feature": feature[i],
            "threshold": threshold[i],
            "gain": gain[i] if gain[i] == gain[i] else None,
            "left": emit(left[i]),
            "right": emit(right[i]),
        }

    return emit(0)


def _number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} {v!r} is not a number")
    return float(v)


def tree_from_dict(obj: dict) -> NodeTable:
    """Rebuild a tree from its nested-dict form.

    A node that is not an object, a split feature that is not a
    nonnegative int, or a non-numeric threshold, gain or leaf value raises
    ValueError.
    """
    feature, threshold, right, value, gain = [], [], [], [], []

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
    return NodeTable.from_lists(feature, threshold, right, value, gain)


def _check_split_features(trees: list[NodeTable], n_features) -> None:
    """Raise ValueError unless every split feature indexes a column."""
    top = max((int(t.feature.max()) for t in trees), default=-1)
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
