import csv
import warnings

import numpy as np
import pytest

from survkit import engine
from survkit.engine import fit_regression_tree, predict_tree
from survkit.data import atomic_write
from survkit.errors import DataError, TrainingError


def random_survival_instance(rng, n=None, max_n=500, tie_times=True,
                             tie_risks=True):
    """Random censored instance with deliberate time and risk ties."""
    if n is None:
        n = int(rng.integers(5, max_n + 1))
    if tie_times:
        time = rng.integers(1, max(2, n // 3) + 1, size=n).astype(float)
    else:
        time = rng.exponential(1.0, size=n)
    event = (rng.random(n) < 0.7).astype(int)
    if tie_risks:
        risk = rng.integers(0, max(2, n // 4) + 1, size=n).astype(float)
    else:
        risk = rng.standard_normal(n)
    return time, event, risk


def harrell_oracle(time, event, risk):
    """Naive pairwise concordance enumeration (independent of the library).

    Returns (concordant, tied, comparable) as plain counts.
    """
    t = [float(v) for v in time]
    e = [int(v) for v in event]
    r = [float(v) for v in risk]
    n = len(t)
    concordant = tied = comparable = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if t[i] < t[j]:
                if e[i] != 1:
                    continue
            elif t[i] == t[j]:
                if not (e[i] == 1 and e[j] == 0):
                    continue
            else:
                continue
            comparable += 1
            if r[i] > r[j]:
                concordant += 1
            elif r[i] == r[j]:
                tied += 1
    return concordant, tied, comparable


def ipcw_oracle(time, event, risk, censor_dist, tau):
    """Chunked O(n^2) pair-matrix Uno concordance (the pre-sort-based code).

    Returns (concordant, tied, comparable) as weighted sums.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    risk = np.asarray(risk, dtype=float)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    with np.errstate(divide="ignore"):
        w = np.where((event == 1) & (time < tau), 1.0 / g_left ** 2, 0.0)
    concordant = tied = comparable = 0.0
    for a in range(0, time.size, 256):
        b = min(a + 256, time.size)
        ti, ri, wi = time[a:b, None], risk[a:b, None], w[a:b, None]
        short = (ti < time[None, :]) & (wi > 0)
        comparable += (short * wi).sum()
        concordant += ((short & (ri > risk[None, :])) * wi).sum()
        tied += ((short & (ri == risk[None, :])) * wi).sum()
    return concordant, tied, comparable


def td_auc_oracle(time, event, risk, eval_times, censor_dist):
    """O(n^2) case-by-control td-AUC (the pre-sort-based code).

    Returns (kept_times, values); times without cases or controls are
    skipped silently.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    risk = np.asarray(risk, dtype=float)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    kept_times, values = [], []
    for t in np.asarray(eval_times, dtype=float):
        cases = (time <= t) & (event == 1)
        controls = time > t
        if not cases.any() or not controls.any():
            continue
        w = 1.0 / g_left[cases]
        rc = risk[cases]
        rk = risk[controls]
        wins = (rc[:, None] > rk[None, :]).sum(axis=1)
        ties = (rc[:, None] == rk[None, :]).sum(axis=1)
        numer = np.sum(w * (wins + 0.5 * ties))
        denom = w.sum() * controls.sum()
        kept_times.append(t)
        values.append(float(numer / denom))
    return np.asarray(kept_times), np.asarray(values)


def td_auc_per_time_oracle(time, event, risk, eval_times, censor_dist):
    """td_auc rebuilding its masks and weights at every evaluation time,
    with two searchsorteds over the sorted control risks (the code before
    the per-call control-count table).

    Returns (kept_times, values, mean, endpoint_mean); warns and raises
    as td_auc does.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    risk = np.asarray(risk, dtype=float)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    by_risk = np.argsort(risk, kind="stable")
    risk_sorted, time_by_risk = risk[by_risk], time[by_risk]
    kept_times, values = [], []
    for t in np.asarray(eval_times, dtype=float):
        cases = (time <= t) & (event == 1)
        controls = time > t
        if not cases.any() or not controls.any():
            warnings.warn(f"dropping evaluation time {t}: no cases or no "
                          "controls", stacklevel=2)
            continue
        if np.any(g_left[cases] <= 0):
            raise DataError("zero censoring survival at a case time")
        w = 1.0 / g_left[cases]
        rc = risk[cases]
        rk = risk_sorted[time_by_risk > t]
        wins = np.searchsorted(rk, rc, side="left")
        ties = np.searchsorted(rk, rc, side="right") - wins
        numer = np.sum(w * (wins + 0.5 * ties))
        denom = w.sum() * controls.sum()
        kept_times.append(t)
        values.append(float(numer / denom))
    if not kept_times:
        raise DataError("every evaluation time was dropped")
    values_arr = np.asarray(values)
    return (np.asarray(kept_times), values_arr, float(values_arr.mean()),
            float(0.5 * (values_arr[0] + values_arr[-1])))


def ibs_per_time_oracle(grid_times, mat, time, event, censor_dist):
    """ibs as one Brier score per grid time, each checking its own column
    and evaluating G(t) on its own (the code before the per-call masks)."""
    grid_times = np.asarray(grid_times, dtype=float)
    if grid_times.size < 2:
        raise DataError("IBS needs a grid with at least 2 points")
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    g_left = np.asarray(censor_dist.left_limit(time), dtype=float)
    scores = []
    for k, t in enumerate(grid_times):
        s_hat = mat[:, k]
        if np.any((s_hat < 0) | (s_hat > 1)):
            raise DataError("survival predictions must lie in [0, 1]")
        g_t = censor_dist(t)
        if g_t <= 0:
            raise DataError(f"censoring survival is zero at t={t}")
        dead = (time <= t) & (event == 1)
        alive = time > t
        total = 0.0
        if dead.any():
            g_dead = g_left[dead]
            if np.any(g_dead <= 0):
                raise DataError("zero censoring survival at an event time")
            total += np.sum(s_hat[dead] ** 2 / g_dead)
        total += np.sum((1.0 - s_hat[alive]) ** 2 / g_t)
        scores.append(float(total / time.size))
    span = grid_times[-1] - grid_times[0]
    return float(np.trapezoid(np.array(scores), grid_times) / span)


def logrank_scan_oracle(X_col, time, event, msl, chunk=512):
    """One feature's log-rank scan (the pre-block code, one column at a time).

    Returns (|z| per split position, thresholds) with -inf at inadmissible
    positions, or None when the column admits no split.
    """
    m = X_col.size
    order = np.argsort(X_col, kind="stable")
    xs = X_col[order]
    t_sorted = time[order]
    e_sorted = event[order]

    # per distinct time in the node: deaths and at-risk
    order_t = np.argsort(time, kind="stable")
    tt, ee = time[order_t], event[order_t]
    grid, gstart = np.unique(tt, return_index=True)
    deaths = np.add.reduceat(ee.astype(float), gstart)
    leaving = np.add.reduceat(np.ones(m), gstart)
    at_risk = m - np.concatenate(([0.0], np.cumsum(leaving)[:-1]))
    has_event = deaths > 0
    grid, deaths, at_risk = grid[has_event], deaths[has_event], at_risk[has_event]
    if grid.size == 0:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        var_coef = np.where(at_risk > 1,
                            deaths * (at_risk - deaths) / (at_risk ** 2 * (at_risk - 1)),
                            0.0)
    cumhaz = np.cumsum(deaths / at_risk)
    pos = np.searchsorted(grid, t_sorted, side="right") - 1
    haz_at = np.where(pos >= 0, cumhaz[np.clip(pos, 0, None)], 0.0)
    scores = e_sorted - haz_at
    num = np.cumsum(scores)[:-1]

    variance = np.empty(m - 1)
    base = np.zeros(grid.size)
    for a in range(0, m - 1, chunk):
        b = min(a + chunk, m - 1)
        at_risk_chunk = grid[:, None] <= t_sorted[None, a:b]
        n1 = base[:, None] + np.cumsum(at_risk_chunk, axis=1)
        variance[a:b] = np.sum(var_coef[:, None] * n1 * (at_risk[:, None] - n1),
                               axis=0)
        base += at_risk_chunk.sum(axis=1)

    positions = np.arange(1, m)
    ok = (xs[:-1] != xs[1:]) & (positions >= msl) & (m - positions >= msl)
    ok &= variance > 0
    if not ok.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(num) / np.sqrt(variance)
    z[~ok] = -np.inf
    thresholds = 0.5 * (xs[:-1] + xs[1:])
    return z, thresholds


def write_cohort_csv_oracle(cohort, path):
    """``write_cohort_csv`` one row at a time (the pre-column-format code)."""
    names = cohort.column_names()
    has_w = cohort.weights is not None
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["time", "event"] + (["weight"] if has_w else []))
        for i in range(cohort.n):
            row = [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                   for v in cohort.features[i]]
            row += [repr(float(cohort.time[i])), str(int(cohort.event[i]))]
            if has_w:
                row.append(repr(float(cohort.weights[i])))
            writer.writerow(row)


def chf_on_grid_oracle(time, event, grid):
    """Nelson-Aalen cumulative hazard of one leaf's members on a grid (the
    pre-one-pass code, one leaf at a time)."""
    if event.sum() == 0:
        return np.zeros(grid.size)
    order = np.argsort(time, kind="stable")
    t, e = time[order], event[order]
    uniq, start = np.unique(t, return_index=True)
    deaths = np.add.reduceat(e.astype(float), start)
    leaving = np.add.reduceat(np.ones_like(t), start)
    at_risk = t.size - np.concatenate(([0.0], np.cumsum(leaving)[:-1]))
    has = deaths > 0
    steps, cumhaz = uniq[has], np.cumsum(deaths[has] / at_risk[has])
    idx = np.searchsorted(steps, grid, side="right") - 1
    return np.where(idx >= 0, cumhaz[np.clip(idx, 0, None)], 0.0)


def apply_tree_oracle(table, X):
    """Recursive row routing through a node table's child ids (the
    pre-batched code): the leaf node id each row reaches."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0], dtype=np.intp)

    def walk(i, idx):
        if table.feature[i] < 0:
            out[idx] = i
            return
        mask = X[idx, table.feature[i]] <= table.threshold[i]
        walk(table.left[i], idx[mask])
        walk(table.right[i], idx[~mask])

    walk(0, np.arange(X.shape[0]))
    return out


def predict_tree_oracle(table, X):
    """Regression-tree output per row through the recursive routing."""
    return table.value[apply_tree_oracle(table, X)]


def regression_split_oracle(X, g, h, idx, params):
    """Exact greedy split search one feature at a time (the pre-one-pass
    code). Returns (gain, feature, threshold) or None."""
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
        gain[~ok | (gain < 1e-12 * (1.0 + abs(parent)))] = -np.inf
        k = int(np.argmax(gain))  # first max: lowest threshold wins ties
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best_feat = f
            best_thr = 0.5 * (xs[k] + xs[k + 1])
    if best_feat < 0:
        return None
    return best_gain, best_feat, best_thr


def regression_tree_oracle(X, g, h, params):
    """Exact-greedy regression tree grown by one-feature scans that sort
    every node's rows (the pre-presort code), as ``tree_to_dict`` writes
    it."""
    lam = params.reg_lambda

    def build(idx, depth):
        found = None
        if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
            found = regression_split_oracle(X, g, h, idx, params)
        if found is None or found[0] <= params.min_split_gain:
            denom = h[idx].sum() + lam
            return {"value": 0.0 if denom <= 0 else -g[idx].sum() / denom}
        gain, feat, thr = found
        mask = X[idx, feat] <= thr
        return {"feature": feat, "threshold": thr, "gain": gain,
                "left": build(idx[mask], depth + 1),
                "right": build(idx[~mask], depth + 1)}

    return build(np.arange(X.shape[0]), 0)


def chf_steps_oracle(chf):
    """One tree's (n_leaves, width) leaf hazards as each leaf's steps in the
    model-file form (the pre-steps-in-memory save code): a leaf's
    ``positions`` are the columns where its row differs, bit for bit, from
    the column before (from 0.0 before column 0), its ``values`` the row
    there."""
    bits = np.pad(chf, ((0, 0), (1, 0))).view(np.int64)
    change = bits[:, 1:] != bits[:, :-1]
    rows, cols = np.nonzero(change)
    positions, values = cols.tolist(), chf[rows, cols].tolist()
    ends = np.cumsum(change.sum(axis=1)).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    return {"positions": [positions[a:b] for a, b in spans],
            "values": [values[a:b] for a, b in spans]}


def leaf_chf_oracle(steps, width):
    """The dense (n_leaves, width) leaf hazards of one tree's ``LeafSteps``
    (the pre-steps-in-memory form), one leaf and one run at a time."""
    fields = steps.to_dict()
    chf = np.zeros((len(fields["positions"]), width))
    for k, (pos, val) in enumerate(zip(fields["positions"], fields["values"])):
        for a, b, v in zip(pos, pos[1:] + [width], val):
            chf[k, a:b] = v
    return chf


def forest_leaf_chf(forest):
    """Every tree's dense leaf hazards, as ``leaf_chf_oracle`` expands them."""
    return [leaf_chf_oracle(s, forest.grid.size) for s in forest.steps]


def _leaf_ids(forest, X):
    return [tree.value[leaf].astype(int) for tree, leaf
            in zip(forest.trees, engine._route(forest.trees, X))]


def rsf_ensemble_chf_oracle(forest, X, columns=slice(None)):
    """The tree-averaged CHF of every row as one (n, len(grid[columns]))
    matrix (the pre-row-block code)."""
    total = np.zeros(X.shape[:1] + forest.grid[columns].shape)
    for chf, leaf in zip(forest_leaf_chf(forest), _leaf_ids(forest, X)):
        total += chf[:, columns][leaf]
    return total / len(forest.trees)


def rsf_risk_oracle(forest, X):
    """The rsf risk as the row sums of the whole ensemble CHF matrix (the
    pre-leaf-sum code); the leaf-sum risk rounds differently."""
    return rsf_ensemble_chf_oracle(forest, X).sum(axis=1)


def leaf_sum_oracle(chf):
    """Each dense leaf row summed as the leaf-sum risk defines it: the
    value of each run of equal cells times its length, added left to right
    in Python floats."""
    sums = []
    for row in chf.tolist():
        total, start = 0.0, 0
        for c in range(1, len(row) + 1):
            if c == len(row) or row[c] != row[start]:
                total += row[start] * (c - start)
                start = c
        sums.append(total)
    return np.array(sums)


def rsf_leaf_sum_risk_oracle(forest, X):
    """The rsf risk from the densified steps: per tree, each row's
    ``leaf_sum_oracle``, added in tree order and averaged."""
    total = np.zeros(X.shape[0])
    for chf, leaf in zip(forest_leaf_chf(forest), _leaf_ids(forest, X)):
        total += leaf_sum_oracle(chf)[leaf]
    return total / len(forest.trees)


def rsf_survival_oracle(forest, X, times):
    """RSF survival through the whole (n, len(grid)) ensemble CHF (the
    pre-column-gather code)."""
    total = np.zeros((X.shape[0], forest.grid.size))
    for chf, leaf in zip(forest_leaf_chf(forest), _leaf_ids(forest, X)):
        total += chf[leaf]
    ensemble_chf = total / len(forest.trees)
    idx = np.searchsorted(forest.grid, np.asarray(times, dtype=float),
                          side="right") - 1
    surv = np.exp(-np.take(ensemble_chf, np.clip(idx, 0, None), axis=1))
    surv[:, idx < 0] = 1.0
    return surv


def boost_oracle(X, time, event, loss, params, weights=None):
    """The boosting loop with two loss calls per round (the pre-shared-call
    code). Returns (base, trees, loss_trace)."""
    X = engine._check_matrix(X)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    n = X.shape[0]
    if not 0.0 < params.subsample <= 1.0:
        raise DataError("subsample must lie in (0, 1]")
    rng = np.random.default_rng(params.seed)
    base = float(loss.intercept(time, event, weights))
    preds = np.full(n, base)
    trees, trace = [], []
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
    return base, trees, trace


def comparable_pairs_oracle(time, event, mode):
    """Comparable SSVM pairs by Python loops over events and tied blocks
    (the pre-vectorized code). Returns (ii, jj)."""
    n = time.size
    if mode == "all":
        ii, jj = [], []
        ev = np.flatnonzero(event == 1)
        for i in ev:
            later = np.flatnonzero(time > time[i])
            ii.append(np.full(later.size, i))
            jj.append(later)
        if not ii:
            return np.empty(0, int), np.empty(0, int)
        return np.concatenate(ii), np.concatenate(jj)
    if mode != "nearest":
        raise DataError(f"unknown pair_mode {mode!r}")
    order = np.argsort(time, kind="stable")
    ii, jj = [], []
    last_event = -1
    k = 0
    while k < n:
        # process a block of tied times together so "strictly earlier" holds
        block_end = k
        while block_end < n and time[order[block_end]] == time[order[k]]:
            block_end += 1
        for p in range(k, block_end):
            j = order[p]
            if last_event >= 0:
                ii.append(last_event)
                jj.append(j)
        for p in range(k, block_end):
            if event[order[p]] == 1:
                last_event = order[p]
        k = block_end
    return np.asarray(ii, int), np.asarray(jj, int)


def ssvm_fit_oracle(X, time, event, params):
    """SSVM weights from the descent with a fresh slack array per objective
    call, ``np.sum(slack ** 2)`` and ``np.linalg.norm`` (the pre-lean code);
    the pairs come from ``models._comparable_pairs``."""
    from survkit.models import _comparable_pairs
    X = np.asarray(X, dtype=float)
    ii, jj = _comparable_pairs(time, event, params.pair_mode)
    if params.max_pairs and ii.size > params.max_pairs:
        rng = np.random.default_rng(params.seed)
        pick = np.sort(rng.choice(ii.size, size=params.max_pairs, replace=False))
        ii, jj = ii[pick], jj[pick]
    D = X[ii] - X[jj]

    def objective(w):
        slack = np.maximum(0.0, 1.0 - D @ w)
        return 0.5 * w @ w + params.gamma * np.sum(slack ** 2), slack

    w = np.zeros(X.shape[1])
    fval, slack = objective(w)
    step = params.step_size
    for _ in range(params.epochs):
        grad = w - 2.0 * params.gamma * (D.T @ slack)
        gnorm = float(np.linalg.norm(grad))
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
        step *= 2.0
    return w


def cox_profile_oracle(scores, time, event, beta):
    """Cox log partial likelihood, score and information with one sort and
    one ``np.unique`` per call (the pre-presorted code)."""
    order = np.argsort(time, kind="stable")
    t, e, s = time[order], event[order], scores[order]
    eta = beta * s
    shift = eta - eta.max()
    w = np.exp(shift)
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w * s)[::-1])[::-1]
    s2 = np.cumsum((w * s * s)[::-1])[::-1]
    uniq, start = np.unique(t, return_index=True)
    risk_start = start[np.searchsorted(uniq, t)]
    ev = e == 1
    rs = risk_start[ev]
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = float(np.sum(eta[ev] - (np.log(s0[rs]) + eta.max())))
        mean1 = s1[rs] / s0[rs]
        score = float(np.sum(s[ev] - mean1))
        info = float(np.sum(s2[rs] / s0[rs] - mean1 ** 2))
    return loglik, score, info


def breslow_oracle(time, event, eta):
    """Breslow cumulative baseline hazard with its own sort (the code
    before the sort was shared with the Cox calibration). Returns (times,
    values)."""
    order = np.argsort(time, kind="stable")
    t, e = time[order], event[order]
    shift = eta[order] - eta.max()
    rev_cumsum = np.cumsum(np.exp(shift)[::-1])[::-1]
    uniq, start = np.unique(t, return_index=True)
    deaths = np.add.reduceat(e.astype(float), start)
    s0_scaled = rev_cumsum[start]
    has_event = deaths > 0
    increments = deaths[has_event] / s0_scaled[has_event] * np.exp(-eta.max())
    return uniq[has_event], np.cumsum(increments)


def cox_calibrate_oracle(scores, time, event, tol=1e-8, max_iter=100):
    """``cox_calibrate``'s Newton iteration on ``cox_profile_oracle``, for
    valid inputs with at least 2 events. Returns (beta, baseline times,
    baseline values); raises ConvergenceError where it does."""
    from survkit.errors import ConvergenceError
    time = np.asarray(time, dtype=float)
    event = np.asarray(event).astype(int)
    scores = np.asarray(scores, dtype=float)
    beta = 0.0
    if np.ptp(scores) != 0.0:
        loglik, score, info = cox_profile_oracle(scores, time, event, beta)
        converged = score == 0.0
        for _ in range(max_iter):
            if converged:
                break
            if info <= 0:
                raise ConvergenceError("Cox information is not positive")
            step = score / info
            new_beta = beta + step
            new_ll, new_score, new_info = cox_profile_oracle(
                scores, time, event, new_beta)
            halvings = 0
            while (not np.isfinite(new_ll) or new_ll < loglik) and halvings < 30:
                step *= 0.5
                new_beta = beta + step
                new_ll, new_score, new_info = cox_profile_oracle(
                    scores, time, event, new_beta)
                halvings += 1
            if not np.isfinite(new_ll):
                raise ConvergenceError("Cox partial likelihood became non-finite")
            if abs(new_beta) * np.ptp(scores) > 500.0:
                raise ConvergenceError("Cox calibration diverged")
            converged = abs(new_beta - beta) <= tol
            beta, loglik, score, info = new_beta, new_ll, new_score, new_info
        else:
            raise ConvergenceError("Cox calibration did not converge")
    return (float(beta),) + breslow_oracle(time, event, beta * scores)


def cma_replay_oracle(space, history):
    """CMA-ES state replayed from the start of ``history`` on every call
    (the pre-cache code), at sigma0 = 0.2 and the standard population.
    Returns (state, lam, numeric)."""
    import math
    from survkit.hpo import _CmaState
    numeric = [s for s in space if s.is_numeric]
    d = len(numeric)
    lam = 4 + int(3 * math.log(d))
    state = _CmaState(d, 0.2)
    for start in range(0, len(history) - lam + 1, lam):
        gen = history[start:start + lam]
        xs = np.array([[s.to_unit(t.params[s.name]) for s in numeric]
                       for t in gen])
        fitness = np.array([np.nan if t.failed else t.value for t in gen])
        state.update(xs, fitness, lam)
    return state, lam, numeric


def shapley_exact_oracle(model, instance, bg):
    """Exact Shapley values by the nested coalition loops (the pre-batched
    sum): size, then ``combinations``, then the bitmask bit by bit, then
    each feature. ``instance`` and ``bg`` are float arrays. Returns
    (values, v_full, v_empty, efficiency_residual)."""
    import math
    from itertools import combinations
    from survkit.explain import _coalition_values
    d = instance.size
    # coalition S as its bitmask: feature j is in S iff bit j is set
    members = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(bool)
    v = _coalition_values(model, instance, bg, members)
    fact = [math.factorial(k) for k in range(d + 1)]
    phi = np.zeros(d)
    for size in range(d):
        weight = fact[size] * fact[d - size - 1] / fact[d]
        for subset in combinations(range(d), size):
            mask = 0
            for j in subset:
                mask |= 1 << j
            for i in range(d):
                if not (mask >> i & 1):
                    phi[i] += weight * (v[mask | (1 << i)] - v[mask])
    v_empty, v_full = float(v[0]), float(v[-1])
    residual = float(phi.sum() - (v_full - v_empty))
    return phi, v_full, v_empty, residual


def shapley_mc_oracle(model, instance, bg, n_permutations, seed):
    """Monte Carlo Shapley values with one ``_coalition_values`` call per
    permutation (the pre-batched loop). Returns (values, v_full, v_empty,
    efficiency_residual)."""
    from survkit.explain import _coalition_values
    d = instance.size
    rng = np.random.default_rng(seed)
    v_pair = _coalition_values(model, instance, bg,
                               np.repeat([[False], [True]], d, axis=1))
    v_empty, v_full = float(v_pair[0]), float(v_pair[1])
    phi = np.zeros(d)
    for _ in range(n_permutations):
        order = rng.permutation(d)
        # coalition t holds the first t + 1 features of the order
        members = np.argsort(order) <= np.arange(d)[:, None]
        v = _coalition_values(model, instance, bg, members)
        prev = v_empty
        for j, val in zip(order, v):
            phi[int(j)] += val - prev
            prev = val
    phi /= n_permutations
    residual = float(phi.sum() - (v_full - v_empty))
    return phi, v_full, v_empty, residual


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: np.random.default_rng(seed)


def _grow(X, split, leaf_value):
    """Grow a tree depth first by recursion, appending each node to its
    table in preorder (the pre-lockstep grower). ``split(idx, depth)``
    gives (gain, feature, threshold) for a split or None for a leaf, and
    ``leaf_value(idx)`` a leaf's value. Records both children as it builds
    them and makes the ``NodeTable`` itself. Returns the table and each
    row's leaf."""
    feature, threshold, left, right, value, gain = [], [], [], [], [], []
    row_leaf = np.full(X.shape[0], -1, dtype=np.intp)

    def build(idx, depth):
        i = len(feature)
        found = split(idx, depth)
        left.append(-1)
        right.append(-1)
        if found is None:
            feature.append(-1)
            threshold.append(np.nan)
            value.append(leaf_value(idx))
            gain.append(np.nan)
            row_leaf[idx] = i
            return
        node_gain, feat, thr = found
        feature.append(feat)
        threshold.append(thr)
        value.append(np.nan)
        gain.append(node_gain)
        mask = X[idx, feat] <= thr
        left[i] = len(feature)
        build(idx[mask], depth + 1)
        right[i] = len(feature)
        build(idx[~mask], depth + 1)

    build(np.arange(X.shape[0]), 0)
    table = engine.NodeTable(
        np.asarray(feature, dtype=np.intp), np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp),
        np.asarray(value, dtype=float), np.asarray(gain, dtype=float))
    return table, row_leaf


def _one_node(Xb, time, event):
    """One node's statistics and its (mtry, m) feature block in each row's
    (value, row) order: (stats, subjects as time ranks, sorted values)."""
    by_time = np.argsort(time, kind="stable")
    st = engine._logrank_stats([time.size], time[by_time], event[by_time])
    rank = np.empty(time.size, dtype=np.intp)
    rank[by_time] = np.arange(time.size)
    order = np.argsort(Xb, axis=1, kind="stable")
    return st, rank[order], np.take_along_axis(Xb, order, axis=1)


def _node_logrank_scan(Xb, time, event, msl, chunk=512):
    """Standardized two-group log-rank statistic for every candidate split
    of every column of one node's (mtry, m) feature block, with exact
    variances: ``engine._survival_z`` on one node, unscreened.

    Returns (z, thresholds), both (mtry, m - 1): |z| per feature and split
    position with -inf where inadmissible, and the midpoint thresholds.
    """
    st, order, xs = _one_node(Xb, time, event)
    z = engine._survival_z(st, np.zeros(1, dtype=np.intp), order[None],
                           xs[None], msl, False, chunk)[0]
    return z, 0.5 * (xs[:, :-1] + xs[:, 1:])


def _node_logrank_screen(Xb, time, event, msl, chunk=512):
    """The screened search's split of one node's (mtry, m) feature block,
    as ``engine._first_maxima`` picks it: (|z|, feature row, threshold) or
    None."""
    st, order, xs = _one_node(Xb, time, event)
    z = engine._survival_z(st, np.zeros(1, dtype=np.intp), order[None],
                           xs[None], msl, True, chunk)
    return engine._first_maxima(z, xs[None])[0]


def _scan_split(z, thresholds):
    """The row-major first maximum of a scan (lowest feature, then lowest
    threshold, wins ties) as (|z|, feature row, threshold), or None."""
    f, k = np.unravel_index(int(np.argmax(z)), z.shape)
    if z[f, k] == -np.inf:
        return None
    return float(z[f, k]), int(f), float(thresholds[f, k])


def survival_tree_oracle(X, time, event, params):
    """Survival tree grown by recursion, one node's split search at a time
    (the pre-lockstep code): ``_grow`` with a screen or a scan per node; a
    node of one row is a leaf. Returns its NodeTable and each row's leaf."""
    X = np.asarray(X, dtype=float)
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    d = X.shape[1]
    mtry = d if params.mtry is None else min(params.mtry, d)
    rng = np.random.default_rng(params.seed)
    XT = np.ascontiguousarray(X.T)
    msl = params.min_samples_leaf

    def split(idx, depth):
        if (depth >= params.max_depth or idx.size < max(2, 2 * msl)
                or event[idx].sum() == 0):
            return None
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
        node = (XT[np.ix_(feats, idx)], time[idx], event[idx], msl)
        if idx.size >= engine._SCREEN_MIN_ROWS:
            found = _node_logrank_screen(*node)
        else:
            found = _scan_split(*_node_logrank_scan(*node))
        if found is None:
            return None
        return found[0], int(feats[found[1]]), found[2]

    return _grow(X, split, lambda idx: np.nan)
