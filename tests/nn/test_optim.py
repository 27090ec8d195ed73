"""Tests for optimisers, schedulers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, CosineSchedule, Parameter, Tensor, clip_grad_norm
from repro.nn.optim import Optimizer


def _quadratic_problem():
    """Minimise ||w - target||^2; optimum is the target vector."""
    target = np.array([1.0, -2.0, 3.0])
    w = Parameter(np.zeros(3))

    def loss_fn():
        diff = w - Tensor(target)
        return (diff * diff).sum()

    return w, target, loss_fn


class TestOptimizers:
    def test_converges_on_quadratic(self):
        w, target, loss_fn = _quadratic_problem()
        optimizer = Adam([w], lr=0.1)
        for _ in range(300):
            loss = loss_fn()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(w.data, target, atol=0.05)

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_step_skips_parameters_without_grad(self):
        w = Parameter(np.ones(3))
        optimizer = Adam([w], lr=0.1)
        optimizer.step()  # no backward performed, grad is None
        np.testing.assert_allclose(w.data, np.ones(3))

    def test_weight_decay_enters_the_gradient(self):
        """Coupled (L2) decay: the moments see ``grad + weight_decay * w``."""
        w = Parameter(np.ones(4) * 10)
        optimizer = Adam([w], lr=0.1, weight_decay=0.5)
        loss = (w * 0.0).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        grad = 0.5 * 10.0
        np.testing.assert_allclose(optimizer._m[0], np.full(4, 0.1 * grad))
        np.testing.assert_allclose(w.data, np.full(4, 10.0 - 0.1 * grad / (grad + 1e-8)))


class TestOptimizerState:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.1},
        {"lr": 0.1, "weight_decay": 1e-2},
    ])
    def test_resume_matches_uninterrupted_run(self, kwargs):
        """save -> fresh optimizer -> load -> continue == never interrupted."""
        def run(steps, w, optimizer):
            target = Tensor(np.array([1.0, -2.0, 3.0]))
            for _ in range(steps):
                diff = w - target
                loss = (diff * diff).sum()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        w_ref = Parameter(np.zeros(3))
        ref = Adam([w_ref], **kwargs)
        run(10, w_ref, ref)

        w_resumed = Parameter(np.zeros(3))
        first = Adam([w_resumed], **kwargs)
        run(6, w_resumed, first)
        state = first.state_dict()

        second = Adam([w_resumed], **kwargs)
        second.load_state_dict(state)
        run(4, w_resumed, second)
        np.testing.assert_allclose(w_resumed.data, w_ref.data, rtol=1e-12)

    def test_adam_state_dict_contains_moments_and_step(self):
        w = Parameter(np.ones(2))
        optimizer = Adam([w], lr=0.1)
        w.grad = np.ones(2)
        optimizer.step()
        state = optimizer.state_dict()
        assert int(state["t"]) == 1
        assert np.any(state["m.0"] != 0) and np.any(state["v.0"] != 0)

    def test_load_rejects_shape_mismatch(self):
        good = Adam([Parameter(np.ones(2))], lr=0.1)
        other = Adam([Parameter(np.ones(5))], lr=0.1)
        with pytest.raises(ValueError):
            other.load_state_dict(good.state_dict())

    def test_load_rejects_count_mismatch(self):
        pair = Adam([Parameter(np.ones(2)), Parameter(np.ones(2))], lr=0.1)
        single = Adam([Parameter(np.ones(2))], lr=0.1)
        with pytest.raises(ValueError):
            pair.load_state_dict(single.state_dict())

    def test_load_rejects_partial_moment_state(self):
        """m without v (or without t) would blow up the next update."""
        w = Parameter(np.ones(2))
        source = Adam([w], lr=0.1)
        w.grad = np.ones(2)
        source.step()
        full = source.state_dict()
        for missing in ("v.0", "t"):
            partial = {key: value for key, value in full.items() if key != missing}
            target = Adam([Parameter(np.ones(2))], lr=0.1)
            with pytest.raises(ValueError, match="together"):
                target.load_state_dict(partial)
            np.testing.assert_allclose(target._m[0], np.zeros(2))  # untouched

    def test_cosine_schedule_state_roundtrip(self):
        first = Adam([Parameter(np.ones(1))], lr=1.0)
        schedule = CosineSchedule(first, total_steps=10, warmup_steps=2, min_lr=0.1)
        for _ in range(4):
            schedule.step()
        state = schedule.state_dict()

        second = Adam([Parameter(np.ones(1))], lr=1.0)
        resumed = CosineSchedule(second, total_steps=10, warmup_steps=2, min_lr=0.1)
        resumed.load_state_dict(state)
        assert second.lr == pytest.approx(first.lr)
        assert resumed.step() == pytest.approx(schedule.step())


class TestClipGradNorm:
    def test_norm_reported(self):
        w = Parameter(np.array([3.0, 4.0]))
        w.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([w], max_norm=100.0) == pytest.approx(5.0)
        np.testing.assert_allclose(w.grad, [3.0, 4.0])

    def test_clipping_rescales(self):
        w = Parameter(np.array([3.0, 4.0]))
        w.grad = np.array([3.0, 4.0])
        clip_grad_norm([w], max_norm=1.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0, abs=1e-6)

    def test_no_grads_returns_zero(self):
        w = Parameter(np.ones(3))
        assert clip_grad_norm([w], max_norm=1.0) == 0.0


class TestSchedules:
    def test_cosine_decays_to_min_lr(self):
        w = Parameter(np.ones(2))
        optimizer = Adam([w], lr=1.0)
        schedule = CosineSchedule(optimizer, total_steps=10, min_lr=0.1)
        lrs = [schedule.step() for _ in range(10)]
        assert lrs[-1] == pytest.approx(0.1, abs=1e-6)
        assert all(lrs[i] >= lrs[i + 1] for i in range(len(lrs) - 1))

    def test_cosine_warmup_ramps_up(self):
        w = Parameter(np.ones(2))
        optimizer = Adam([w], lr=1.0)
        schedule = CosineSchedule(optimizer, total_steps=20, warmup_steps=5)
        lrs = [schedule.step() for _ in range(5)]
        assert lrs[0] == pytest.approx(0.2)
        assert lrs[-1] == pytest.approx(1.0)

    def test_cosine_requires_positive_steps(self):
        optimizer = Adam([Parameter(np.ones(1))], lr=1.0)
        with pytest.raises(ValueError):
            CosineSchedule(optimizer, total_steps=0)


def _reference_adam(param, grads, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """Textbook Adam with coupled L2 decay, written out in plain NumPy."""
    beta1, beta2 = betas
    param = param.copy()
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t, grad in enumerate(grads, start=1):
        grad = grad + weight_decay * param if weight_decay else grad
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param


class TestAdamUpdate:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_reference_update_sequence(self, weight_decay):
        rng = np.random.default_rng(7)
        start = rng.normal(size=5)
        grads = [rng.normal(size=5) for _ in range(6)]
        w = Parameter(start.copy())
        optimizer = Adam([w], lr=0.03, betas=(0.8, 0.99), weight_decay=weight_decay)
        for grad in grads:
            w.grad = grad.copy()
            optimizer.step()
        expected = _reference_adam(start, grads, lr=0.03, betas=(0.8, 0.99),
                                   weight_decay=weight_decay)
        np.testing.assert_allclose(w.data, expected, rtol=1e-12, atol=1e-15)

    def test_first_step_moves_each_coordinate_by_lr(self):
        """Bias correction makes the first step ``lr * sign(grad)``."""
        w = Parameter(np.zeros(4))
        optimizer = Adam([w], lr=0.1)
        w.grad = np.array([2.0, -0.5, 30.0, -4.0])
        optimizer.step()
        np.testing.assert_allclose(w.data, [-0.1, 0.1, -0.1, 0.1], rtol=1e-6)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_update_is_invariant_to_gradient_scale(self, scale):
        base = np.array([0.3, -1.2, 0.7])
        moved = []
        for factor in (1.0, scale):
            w = Parameter(np.zeros(3))
            optimizer = Adam([w], lr=0.01, eps=1e-12)
            for step in range(1, 4):
                w.grad = base * factor * step
                optimizer.step()
            moved.append(w.data.copy())
        np.testing.assert_allclose(moved[1], moved[0], rtol=1e-6)

    def test_updates_every_parameter_of_a_mixed_list(self):
        matrix = Parameter(np.zeros((2, 3)))
        vector = Parameter(np.zeros(3))
        optimizer = Adam([matrix, vector], lr=0.1)
        target = Tensor(np.ones((2, 3)))
        for _ in range(200):
            diff = matrix + vector - target
            loss = (diff * diff).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(matrix.data + vector.data, np.ones((2, 3)), atol=0.05)

    def test_zero_grad_clears_every_gradient(self):
        params = [Parameter(np.ones(2)), Parameter(np.ones((2, 2)))]
        optimizer = Adam(params, lr=0.1)
        for param in params:
            param.grad = np.ones_like(param.data)
        optimizer.zero_grad()
        assert all(param.grad is None for param in params)

    def test_base_optimizer_step_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Optimizer([Parameter(np.ones(1))], lr=0.1).step()


class TestAdamStateLoading:
    def test_state_dict_carries_the_learning_rate(self):
        source = Adam([Parameter(np.ones(2))], lr=0.25)
        target = Adam([Parameter(np.ones(2))], lr=1.0)
        target.load_state_dict(source.state_dict())
        assert target.lr == pytest.approx(0.25)

    def test_lr_only_state_leaves_the_moments_alone(self):
        w = Parameter(np.ones(2))
        optimizer = Adam([w], lr=0.1)
        w.grad = np.ones(2)
        optimizer.step()
        moments = optimizer._m[0].copy()
        optimizer.load_state_dict({"lr": np.float64(0.5)})
        assert optimizer.lr == pytest.approx(0.5)
        assert optimizer._t == 1
        np.testing.assert_array_equal(optimizer._m[0], moments)

    def test_failed_load_leaves_the_learning_rate_untouched(self):
        source = Adam([Parameter(np.ones(2))], lr=0.9)
        target = Adam([Parameter(np.ones(3))], lr=0.1)
        with pytest.raises(ValueError, match="shape mismatch"):
            target.load_state_dict(source.state_dict())
        assert target.lr == pytest.approx(0.1)

    def test_loaded_moments_are_copies(self):
        w = Parameter(np.ones(2))
        source = Adam([w], lr=0.1)
        w.grad = np.ones(2)
        source.step()
        state = source.state_dict()
        target = Adam([Parameter(np.ones(2))], lr=0.1)
        target.load_state_dict(state)
        target._m[0] += 1.0
        np.testing.assert_array_equal(state["m.0"], source._m[0])


class TestCosineShape:
    def _schedule(self, **kwargs):
        optimizer = Adam([Parameter(np.ones(1))], lr=1.0)
        return optimizer, CosineSchedule(optimizer, **kwargs)

    def test_midpoint_is_the_mean_of_base_and_min(self):
        _, schedule = self._schedule(total_steps=10, min_lr=0.2)
        lrs = [schedule.step() for _ in range(5)]
        assert lrs[-1] == pytest.approx(0.6)

    def test_holds_min_lr_past_total_steps(self):
        _, schedule = self._schedule(total_steps=4, min_lr=0.05)
        lrs = [schedule.step() for _ in range(9)]
        assert lrs[3:] == pytest.approx([0.05] * 6)

    def test_peaks_at_the_end_of_warmup_then_decays(self):
        _, schedule = self._schedule(total_steps=12, warmup_steps=4)
        lrs = [schedule.step() for _ in range(12)]
        assert int(np.argmax(lrs)) == 3
        assert all(a > b for a, b in zip(lrs[3:], lrs[4:]))

    def test_base_lr_is_read_at_construction(self):
        optimizer, schedule = self._schedule(total_steps=10)
        optimizer.lr = 123.0
        assert schedule.step() <= 1.0

    def test_loading_step_zero_keeps_the_optimizer_lr(self):
        optimizer, schedule = self._schedule(total_steps=10, warmup_steps=3)
        schedule.load_state_dict({"step": np.int64(0)})
        assert optimizer.lr == pytest.approx(1.0)
        assert schedule.step() == pytest.approx(1.0 / 3.0)


class TestClipGradNormAcrossParameters:
    def test_global_norm_spans_parameters(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(2))
        a.grad = np.array([6.0])
        b.grad = np.array([0.0, 8.0])
        assert clip_grad_norm([a, b], max_norm=5.0) == pytest.approx(10.0)
        np.testing.assert_allclose(a.grad, [3.0], rtol=1e-9)
        np.testing.assert_allclose(b.grad, [0.0, 4.0], rtol=1e-9)

    @pytest.mark.parametrize("max_norm", [0.0, -1.0])
    def test_non_positive_max_norm_never_clips(self, max_norm):
        w = Parameter(np.zeros(2))
        w.grad = np.array([30.0, 40.0])
        assert clip_grad_norm([w], max_norm=max_norm) == pytest.approx(50.0)
        np.testing.assert_allclose(w.grad, [30.0, 40.0])

    def test_parameters_without_grad_are_skipped(self):
        with_grad = Parameter(np.zeros(2))
        without = Parameter(np.zeros(2))
        with_grad.grad = np.array([3.0, 4.0])
        assert clip_grad_norm([with_grad, without], max_norm=1.0) == pytest.approx(5.0)
        assert without.grad is None
