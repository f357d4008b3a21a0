import numpy as np
import pytest


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


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: np.random.default_rng(seed)
