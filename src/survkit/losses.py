"""Loss functions for the boosting engine.

Each loss maps (targets, weights, current predictions) to the total loss
value and per-sample gradient/hessian of the loss with respect to the
predictions. Hessians are clamped at a 1e-16 floor so Newton leaf values
stay finite. The Cox loss uses the Breslow tie approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataError

__all__ = [
    "HESSIAN_FLOOR",
    "cox_loss",
    "aft_loss",
    "squared_loss",
    "logistic_loss",
    "loss_intercept",
    "AftLossConfig",
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


def cox_loss(time, event, eta, weights=None):
    """Negative log Cox partial likelihood with Breslow ties.

    L = -sum over events i of w_i * [eta_i - log sum_{j in R(t_i)} w_j e^{eta_j}]

    Returns (loss, gradient, hessian); the hessian is the diagonal of the
    second derivative. Computed in O(n log n) via suffix sums over the
    time-sorted risk sets.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    eta = np.asarray(eta, dtype=float)
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


@dataclass(frozen=True)
class AftLossConfig:
    """Error-term distribution and scale for the AFT loss."""

    distribution: str = "normal"  # "normal" or "logistic"
    sigma: float = 1.0

    def __post_init__(self):
        if self.distribution not in ("normal", "logistic"):
            raise DataError(f"unknown AFT distribution {self.distribution!r}")
        if self.sigma <= 0:
            raise DataError("sigma must be positive")


def aft_loss(time, event, u, weights=None,
             config: AftLossConfig = AftLossConfig()):
    """Accelerated-failure-time loss on predicted log-time ``u``.

    With z = (ln t - u) / sigma, uncensored subjects contribute
    -w ln[f(z) / (sigma t)] and right-censored subjects -w ln S(z), where
    f and S are the density and survival of the configured distribution.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=int)
    u = np.asarray(u, dtype=float)
    n = time.size
    w = _as_weights(weights, n)
    if np.any(time <= 0):
        bad_event = np.any((time <= 0) & (event == 1))
        raise DataError("AFT needs positive times"
                        + (" (zero time with event)" if bad_event else ""))

    sigma = config.sigma
    z = (np.log(time) - u) / sigma
    loss_i = np.empty(n)
    dldz = np.empty(n)
    d2ldz2 = np.empty(n)
    ev = event == 1
    if config.distribution == "normal":
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


def squared_loss(time, pred, weights=None):
    """Weighted squared error on time: L = 1/2 sum w (t - pred)^2."""
    time = np.asarray(time, dtype=float)
    pred = np.asarray(pred, dtype=float)
    w = _as_weights(weights, time.size)
    resid = time - pred
    loss = float(0.5 * np.sum(w * resid ** 2))
    return loss, -w * resid, np.maximum(w, HESSIAN_FLOOR)


def logistic_loss(label, pred, weights=None):
    """Weighted log-loss on the logit scale: p = sigmoid(pred)."""
    label = np.asarray(label, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if not np.all((label == 0) | (label == 1)):
        raise DataError("labels must be 0 or 1")
    w = _as_weights(weights, label.size)
    p = special.expit(pred)
    loss = float(np.sum(w * (np.logaddexp(0.0, pred) - label * pred)))
    return loss, w * (p - label), np.maximum(w * p * (1 - p), HESSIAN_FLOOR)


def loss_intercept(loss_id: str, time, event, weights=None) -> float:
    """Loss-specific base score for the boosting engine."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    if time.size == 0:
        raise DataError("empty targets")
    w = _as_weights(weights, time.size)
    wsum = w.sum()
    if loss_id == "cox":
        return 0.0
    if loss_id == "squared":
        return float(np.sum(w * time) / wsum)
    if loss_id.startswith("aft"):
        if np.any(time <= 0):
            raise DataError("AFT needs positive times")
        return float(np.sum(w * np.log(time)) / wsum)
    if loss_id == "logistic":
        rate = float(np.clip(np.sum(w * event) / wsum, 1e-6, 1 - 1e-6))
        return float(special.logit(rate))
    raise DataError(f"unknown loss {loss_id!r}")


class CoxLoss:
    """Cox partial-likelihood plug-in for the boosting engine."""

    name = "cox"

    def value_grad_hess(self, time, event, pred, weights=None):
        return cox_loss(time, event, pred, weights)

    def intercept(self, time, event, weights=None):
        return loss_intercept(self.name, time, event, weights)


class AftLoss:
    """AFT plug-in; predictions are log-times."""

    def __init__(self, config: AftLossConfig = AftLossConfig()):
        self.config = config
        self.name = f"aft_{config.distribution}"

    def value_grad_hess(self, time, event, pred, weights=None):
        return aft_loss(time, event, pred, weights, self.config)

    def intercept(self, time, event, weights=None):
        return loss_intercept(self.name, time, event, weights)


class SquaredLoss:
    """Squared-error plug-in; the event slot is ignored."""

    name = "squared"

    def value_grad_hess(self, time, event, pred, weights=None):
        return squared_loss(time, pred, weights)

    def intercept(self, time, event, weights=None):
        return loss_intercept(self.name, time, event, weights)


class LogisticLoss:
    """Log-loss plug-in; the event slot carries the binary label."""

    name = "logistic"

    def value_grad_hess(self, time, event, pred, weights=None):
        return logistic_loss(event, pred, weights)

    def intercept(self, time, event, weights=None):
        return loss_intercept(self.name, time, event, weights)


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
