import numpy as np
import pytest

from survkit.errors import DataError
from survkit.losses import (AftLoss, CoxLoss, FirstOrder, LogisticLoss,
                            SquaredLoss)


def finite_diff(loss_fn, pred, step=1e-5):
    """Central finite differences of the scalar loss in each prediction."""
    grad = np.empty_like(pred)
    for k in range(pred.size):
        up, down = pred.copy(), pred.copy()
        up[k] += step
        down[k] -= step
        grad[k] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return grad


def check_gradients(loss_fn, pred, rtol=1e-5):
    _, grad, _ = loss_fn(pred)
    approx = finite_diff(lambda p: loss_fn(p)[0], pred)
    scale = np.maximum(np.abs(approx), 1e-8)
    assert np.max(np.abs(grad - approx) / scale) < rtol


class TestCoxLoss:
    def test_two_subject_fixture(self):
        loss, grad, _ = CoxLoss().value_grad_hess([1, 2], [1, 1], [0.0, 0.0])
        assert loss == pytest.approx(np.log(2))
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(0)
        eta = rng.standard_normal(30)
        _, grad, _ = CoxLoss().value_grad_hess(np.arange(1, 31.0),
                                               np.ones(30, int), eta)
        assert abs(grad.sum()) < 1e-10
        # also holds with censoring and nonuniform weights (Breslow identity)
        event = (rng.random(30) < 0.6).astype(int)
        event[0] = 1
        w = rng.uniform(0.5, 2.0, 30)
        _, grad, _ = CoxLoss().value_grad_hess(np.arange(1, 31.0), event, eta, w)
        assert abs(grad.sum()) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        time = rng.integers(1, 10, 50).astype(float)
        event = (rng.random(50) < 0.7).astype(int)
        event[0] = 1
        w = rng.uniform(0.5, 2.0, 50)

        def fn(pred):
            return CoxLoss().value_grad_hess(time, event, pred, w)

        check_gradients(fn, rng.standard_normal(50))

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        eta = rng.standard_normal(40)
        time = rng.integers(1, 8, 40).astype(float)
        event = (rng.random(40) < 0.6).astype(int)
        event[0] = 1
        l1, g1, h1 = CoxLoss().value_grad_hess(time, event, eta)
        l2, g2, h2 = CoxLoss().value_grad_hess(time, event, eta + 5.3)
        assert l1 == pytest.approx(l2, abs=1e-9)
        np.testing.assert_allclose(g1, g2, atol=1e-9)
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    def test_requires_events(self):
        with pytest.raises(DataError):
            CoxLoss().value_grad_hess([1, 2], [0, 0], [0.0, 0.0])


class TestAftLoss:
    def test_normal_symmetric_point(self):
        loss, grad, _ = AftLoss().value_grad_hess([1.0], [1], [0.0])
        assert loss == pytest.approx(0.5 * np.log(2 * np.pi))
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_censored_loss_vanishes_at_large_u(self):
        loss, _, _ = AftLoss().value_grad_hess([1.0], [0], [30.0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        loss_log, _, _ = AftLoss("logistic", 1.0).value_grad_hess(
            [1.0], [0], [40.0])
        assert loss_log == pytest.approx(0.0, abs=1e-12)

    def test_censored_monotone_decreasing_in_u(self):
        us = np.linspace(-3, 3, 25)
        for dist in ("normal", "logistic"):
            aft = AftLoss(dist, 0.8)
            losses = [aft.value_grad_hess([2.0], [0], [u])[0] for u in us]
            assert np.all(np.diff(losses) < 0)

    @pytest.mark.parametrize("dist", ["normal", "logistic"])
    def test_gradient_matches_finite_differences(self, dist):
        rng = np.random.default_rng(3)
        time = rng.uniform(0.2, 5.0, 40)
        event = (rng.random(40) < 0.5).astype(int)
        w = rng.uniform(0.5, 2.0, 40)
        aft = AftLoss(dist, 1.3)

        def fn(pred):
            return aft.value_grad_hess(time, event, pred, w)

        check_gradients(fn, rng.standard_normal(40))

    def test_hessian_matches_finite_differences_where_unclamped(self):
        rng = np.random.default_rng(4)
        time = rng.uniform(0.5, 3.0, 20)
        event = (rng.random(20) < 0.5).astype(int)
        aft = AftLoss("normal", 1.0)
        pred = rng.standard_normal(20) * 0.5
        _, _, hess = aft.value_grad_hess(time, event, pred, None)

        def grad_at(p):
            return aft.value_grad_hess(time, event, p, None)[1]

        step = 1e-5
        for k in range(20):
            up, down = pred.copy(), pred.copy()
            up[k] += step
            down[k] -= step
            approx = (grad_at(up)[k] - grad_at(down)[k]) / (2 * step)
            if hess[k] > 1e-12:
                assert hess[k] == pytest.approx(approx, rel=1e-4)

    def test_zero_time_with_event_errors(self):
        with pytest.raises(DataError):
            AftLoss().value_grad_hess([0.0], [1], [0.0])


class TestSquaredLoss:
    def test_perfect_predictions(self):
        loss, grad, _ = SquaredLoss().value_grad_hess([1, 2, 3], None, [1, 2, 3])
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_zero_weight_contributes_nothing(self):
        _, grad, _ = SquaredLoss().value_grad_hess([5.0, 1.0], None,
                                                   [0.0, 0.0], [0.0, 1.0])
        assert grad[0] == 0.0 and grad[1] != 0.0

    def test_hand_fixture(self):
        loss, _, _ = SquaredLoss().value_grad_hess([1, 3], None, [0, 0], [2, 1])
        assert loss == pytest.approx(5.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        time = rng.uniform(0, 5, 30)
        w = rng.uniform(0, 2, 30)

        def fn(pred):
            return SquaredLoss().value_grad_hess(time, None, pred, w)

        check_gradients(fn, rng.standard_normal(30), rtol=1e-4)


class TestLogisticLoss:
    def test_midpoint_gradient(self):
        _, grad, _ = LogisticLoss().value_grad_hess(None, [1, 0], [0.0, 0.0],
                                                    [2.0, 2.0])
        np.testing.assert_allclose(grad, [-1.0, 1.0])  # w * (0.5 - y)

    def test_confident_correct_loss_vanishes(self):
        loss, _, _ = LogisticLoss().value_grad_hess(None, [1], [40.0])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        label = (rng.random(40) < 0.5).astype(int)
        w = rng.uniform(0.5, 2.0, 40)

        def fn(pred):
            return LogisticLoss().value_grad_hess(None, label, pred, w)

        check_gradients(fn, rng.standard_normal(40), rtol=1e-6)


class TestIntercepts:
    def test_squared_is_weighted_mean(self):
        assert SquaredLoss().intercept([1, 3], [0, 0]) == pytest.approx(2.0)
        assert SquaredLoss().intercept([1, 3], [0, 0], [3, 1]) == pytest.approx(1.5)

    def test_cox_is_zero(self):
        assert CoxLoss().intercept([1, 2], [1, 0]) == 0.0

    def test_logistic_clamps(self):
        from scipy.special import logit
        assert LogisticLoss().intercept([1, 2], [1, 1]) == pytest.approx(
            logit(1 - 1e-6))

    def test_aft_is_mean_log_time(self):
        assert AftLoss().intercept([1.0, np.e ** 2], [1, 0]) == \
            pytest.approx(1.0)


class TestWeightScaling:
    def test_doubling_weights_doubles_everything(self):
        rng = np.random.default_rng(7)
        time = rng.uniform(0.5, 4, 25)
        event = (rng.random(25) < 0.6).astype(int)
        event[0] = 1
        pred = rng.standard_normal(25)
        w = rng.uniform(0.5, 2, 25)
        cases = [
            lambda wt: AftLoss().value_grad_hess(time, event, pred, wt),
            lambda wt: SquaredLoss().value_grad_hess(time, None, pred, wt),
            lambda wt: LogisticLoss().value_grad_hess(None, event, pred, wt),
        ]
        for fn in cases:
            l1, g1, h1 = fn(w)
            l2, g2, h2 = fn(2 * w)
            assert l2 == pytest.approx(2 * l1, rel=1e-12)
            np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)
            np.testing.assert_allclose(h2, 2 * h1, rtol=1e-12)

    def test_doubling_weights_cox(self):
        # weights sit inside the Breslow risk-set sum, so the loss picks up
        # an additive 2*log(2)*sum(w_events) term; derivatives double exactly
        rng = np.random.default_rng(7)
        time = rng.uniform(0.5, 4, 25)
        event = (rng.random(25) < 0.6).astype(int)
        event[0] = 1
        pred = rng.standard_normal(25)
        w = rng.uniform(0.5, 2, 25)
        l1, g1, h1 = CoxLoss().value_grad_hess(time, event, pred, w)
        l2, g2, h2 = CoxLoss().value_grad_hess(time, event, pred, 2 * w)
        shift = 2 * np.log(2) * w[event == 1].sum()
        assert l2 == pytest.approx(2 * l1 + shift, rel=1e-12)
        np.testing.assert_allclose(g2, 2 * g1, rtol=1e-12)
        np.testing.assert_allclose(h2, 2 * h1, rtol=1e-12)


class TestFirstOrderWrapper:
    def test_forces_unit_hessians(self):
        rng = np.random.default_rng(8)
        time = np.arange(1, 21.0)
        event = np.ones(20, int)
        pred = rng.standard_normal(20)
        wrapped = FirstOrder(CoxLoss())
        loss_w, grad_w, hess_w = wrapped.value_grad_hess(time, event, pred)
        loss_raw, grad_raw, _ = CoxLoss().value_grad_hess(time, event, pred)
        assert loss_w == loss_raw
        np.testing.assert_allclose(grad_w, grad_raw)
        np.testing.assert_allclose(hess_w, 1.0)
