"""Loss objects for the boosting engine: one per loss.

Each has a ``name`` (the model file's ``"loss"``), an ``intercept`` (the
base score) and a ``value_grad_hess`` giving the total loss value and
per-sample gradient/hessian with respect to the predictions. Hessians are
clamped at a 1e-16 floor so Newton leaf values stay finite. The Cox loss
uses the Breslow tie approximation.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DataError

__all__ = [
    "HESSIAN_FLOOR",
    "CoxLoss",
    "AftLoss",
    "SquaredLoss",
    "LogisticLoss",
    "FirstOrder",
]

HESSIAN_FLOOR = 1e-16


def _as_weights(weights, n):
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DataError("weights length mismatch")
    if np.any(w < 0):
        raise DataError("weights must be nonnegative")
    return w


def _targets(values, weights):
    """``values`` as floats and their weights; no targets is a DataError."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DataError("empty targets")
    return values, _as_weights(weights, values.size)


class CoxLoss:
    """Negative log Cox partial likelihood with Breslow ties.

    L = -sum over events i of w_i * [eta_i - log sum_{j in R(t_i)} w_j e^{eta_j}]

    The hessian is the diagonal of the second derivative. Computed in
    O(n log n) via suffix sums over the time-sorted risk sets.
    """

    name = "cox"

    def value_grad_hess(self, time, event, pred, weights=None):
        time = np.asarray(time, dtype=float)
        event = np.asarray(event, dtype=int)
        eta = np.asarray(pred, dtype=float)
        n = time.size
        w = _as_weights(weights, n)
        if not np.all(np.isfinite(eta)):
            raise DataError("eta must be finite")
        if event.sum() == 0:
            raise DataError("Cox loss needs at least one event")

        order = np.argsort(time, kind="stable")
        t, e, z, wo = time[order], event[order], eta[order], w[order]
        shift = z.max()
        ez = np.exp(z - shift)
        s0 = np.cumsum((wo * ez)[::-1])[::-1]  # scaled risk-set sums

        uniq, start = np.unique(t, return_index=True)
        group = np.searchsorted(uniq, t)
        # weighted deaths per distinct time
        wd = np.zeros(uniq.size)
        np.add.at(wd, group[e == 1], wo[e == 1])
        s0_at = s0[start]

        loss = -float(np.sum(wo[e == 1] * z[e == 1])
                      - np.sum(wd * (np.log(s0_at) + shift)))
        # cumulative event-side terms: r1 = sum_{t_i <= T_k} wd_i / S0(t_i)
        r1 = np.cumsum(wd / s0_at)[group]
        r2 = np.cumsum(wd / s0_at ** 2)[group]
        wez = wo * ez
        grad_sorted = -wo * e + wez * r1
        hess_sorted = wez * r1 - wez ** 2 * r2

        grad = np.empty(n)
        hess = np.empty(n)
        grad[order] = grad_sorted
        hess[order] = hess_sorted
        return loss, grad, np.maximum(hess, HESSIAN_FLOOR)

    def intercept(self, time, event, weights=None):
        """Zero: the partial likelihood does not change when eta shifts."""
        _targets(time, weights)
        return 0.0


class AftLoss:
    """Accelerated-failure-time loss on predicted log-time ``u``.

    With z = (ln t - u) / sigma, uncensored subjects contribute
    -w ln[f(z) / (sigma t)] and right-censored subjects -w ln S(z), where
    f and S are the density and survival of ``distribution``.
    """

    def __init__(self, distribution: str = "normal", sigma: float = 1.0):
        if distribution not in ("normal", "logistic"):
            raise DataError(f"unknown AFT distribution {distribution!r}")
        if not 0 < sigma < np.inf:  # NaN fails too
            raise DataError("sigma must be finite and positive")
        self.distribution, self.sigma = distribution, sigma
        self.name = f"aft_{distribution}"

    def value_grad_hess(self, time, event, pred, weights=None):
        time = np.asarray(time, dtype=float)
        event = np.asarray(event, dtype=int)
        u = np.asarray(pred, dtype=float)
        n = time.size
        w = _as_weights(weights, n)
        if np.any(time <= 0):
            bad_event = np.any((time <= 0) & (event == 1))
            raise DataError("AFT needs positive times"
                            + (" (zero time with event)" if bad_event else ""))

        sigma = self.sigma
        z = (np.log(time) - u) / sigma
        loss_i = np.empty(n)
        dldz = np.empty(n)
        d2ldz2 = np.empty(n)
        ev = event == 1
        if self.distribution == "normal":
            loss_i[ev] = 0.5 * z[ev] ** 2 + 0.5 * np.log(2 * np.pi)
            dldz[ev] = z[ev]
            d2ldz2[ev] = 1.0
            zc = z[~ev]
            log_s = special.log_ndtr(-zc)
            loss_i[~ev] = -log_s
            lam = np.exp(-0.5 * zc ** 2 - 0.5 * np.log(2 * np.pi) - log_s)
            dldz[~ev] = lam
            d2ldz2[~ev] = lam * (lam - zc)
        else:
            # standard logistic: -ln f(z) = z + 2*softplus(-z); -ln S(z) = softplus(z)
            s = special.expit(z)
            loss_i[ev] = z[ev] + 2 * np.logaddexp(0.0, -z[ev])
            dldz[ev] = 2 * s[ev] - 1
            d2ldz2[ev] = 2 * s[ev] * (1 - s[ev])
            loss_i[~ev] = np.logaddexp(0.0, z[~ev])
            dldz[~ev] = s[~ev]
            d2ldz2[~ev] = s[~ev] * (1 - s[~ev])
        loss_i[ev] += np.log(sigma * time[ev])

        loss = float(np.sum(w * loss_i))
        grad = -w * dldz / sigma
        hess = w * d2ldz2 / sigma ** 2
        return loss, grad, np.maximum(hess, HESSIAN_FLOOR)

    def intercept(self, time, event, weights=None):
        """The weighted mean log-time."""
        time, w = _targets(time, weights)
        if np.any(time <= 0):
            raise DataError("AFT needs positive times")
        return float(np.sum(w * np.log(time)) / w.sum())


class SquaredLoss:
    """Weighted squared error on time: L = 1/2 sum w (t - pred)^2."""

    name = "squared"

    def value_grad_hess(self, time, event, pred, weights=None):
        time = np.asarray(time, dtype=float)
        pred = np.asarray(pred, dtype=float)
        w = _as_weights(weights, time.size)
        resid = time - pred
        loss = float(0.5 * np.sum(w * resid ** 2))
        return loss, -w * resid, np.maximum(w, HESSIAN_FLOOR)

    def intercept(self, time, event, weights=None):
        """The weighted mean time."""
        time, w = _targets(time, weights)
        return float(np.sum(w * time) / w.sum())


class LogisticLoss:
    """Weighted log-loss on the logit scale: p = sigmoid(pred). The event
    slot carries the binary label."""

    name = "logistic"

    def value_grad_hess(self, time, event, pred, weights=None):
        label = np.asarray(event, dtype=float)
        pred = np.asarray(pred, dtype=float)
        if not np.all((label == 0) | (label == 1)):
            raise DataError("labels must be 0 or 1")
        w = _as_weights(weights, label.size)
        p = special.expit(pred)
        loss = float(np.sum(w * (np.logaddexp(0.0, pred) - label * pred)))
        return loss, w * (p - label), np.maximum(w * p * (1 - p), HESSIAN_FLOOR)

    def intercept(self, time, event, weights=None):
        """The logit of the weighted event rate, clipped to [1e-6, 1 - 1e-6]."""
        label, w = _targets(event, weights)
        rate = float(np.clip(np.sum(w * label) / w.sum(), 1e-6, 1 - 1e-6))
        return float(special.logit(rate))


class FirstOrder:
    """Wrapper forcing unit hessians: first-order (classical) boosting."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"{inner.name}_first_order"

    def value_grad_hess(self, time, event, pred, weights=None):
        loss, grad, _ = self.inner.value_grad_hess(time, event, pred, weights)
        return loss, grad, np.ones_like(grad)

    def intercept(self, time, event, weights=None):
        return self.inner.intercept(time, event, weights)
