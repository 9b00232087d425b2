"""Optimizer math and learning-rate schedule."""

import numpy as np
import pytest

from peerkd.optim import Adam, SGDMomentum, lr_at
from peerkd.tensor import Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


class TestLrAt:
    def test_start_value(self):
        assert lr_at(0, 0.1, [150, 225], 0.1) == pytest.approx(0.1)

    def test_logit_schedule_from_training_setup(self):
        assert lr_at(160, 0.1, [150, 225], 0.1) == pytest.approx(0.01)
        assert lr_at(230, 0.1, [150, 225], 0.1) == pytest.approx(0.001)

    def test_adversarial_schedule(self):
        assert lr_at(80, 2e-5, [75, 150], 0.1) == pytest.approx(2e-6)

    def test_jumps_exactly_at_milestones(self):
        milestones = [150, 225]
        values = [lr_at(e, 0.1, milestones, 0.1) for e in range(300)]
        for e in range(1, 300):
            if e in milestones:
                assert values[e] == pytest.approx(values[e - 1] * 0.1)
            else:
                assert values[e] == values[e - 1]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSGDMomentum:
    def test_two_steps_hand_computed(self):
        p = make_param([1.0])
        opt = SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.0)
        p.grad = np.asarray([2.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * 2.0])
        p.grad = np.asarray([1.0], dtype=np.float32)
        opt.step()
        # v = 0.9*2 + 1 = 2.8, p = 0.8 - 0.28
        np.testing.assert_allclose(p.data, [0.8 - 0.28], rtol=1e-6)

    def test_weight_decay_enters_gradient(self):
        p = make_param([2.0])
        opt = SGDMomentum({"p": p}, lr=0.1, momentum=0.0, weight_decay=0.5)
        p.grad = np.asarray([0.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * (0.5 * 2.0)], rtol=1e-6)

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        opt = SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=1e-4)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.asarray([1.0], dtype=np.float32)
        SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=1e-4).zero_grad()
        assert p.grad is None

    def test_state_round_trip(self):
        p = make_param([1.0])
        opt = SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=1e-4)
        p.grad = np.asarray([3.0], dtype=np.float32)
        opt.step()
        opt2 = SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=1e-4)
        for name, arr in opt2.state_arrays().items():
            np.copyto(arr, opt.state_arrays()[name])
        np.testing.assert_array_equal(opt2.velocity["p"], opt.velocity["p"])


def reference_adam(param, grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    p = param.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


class TestAdam:
    def test_three_steps_match_reference(self):
        rng = np.random.default_rng(0)
        init = rng.standard_normal(5).astype(np.float32)
        grads = [rng.standard_normal(5).astype(np.float32) for _ in range(3)]
        p = make_param(init)
        opt = Adam({"p": p}, lr=0.01, weight_decay=0.1)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        expect = reference_adam(init, [g.astype(np.float64) for g in grads], 0.01, wd=0.1)
        np.testing.assert_allclose(p.data, expect, rtol=1e-5)

    def test_parameter_without_gradient_keeps_data_and_t(self):
        a, b = make_param([1.0]), make_param([1.0])
        opt = Adam({"a": a, "b": b}, lr=0.01, weight_decay=0.1)
        a.grad = np.asarray([1.0], dtype=np.float32)
        opt.step()
        assert opt.t["a"] == 1 and opt.t["b"] == 0
        np.testing.assert_array_equal(b.data, [1.0])
        assert a.data[0] != 1.0

    @pytest.mark.parametrize("groups", [[(0, 1), (2, 3)], [(2, 3), (0, 1)]])
    def test_steps_over_disjoint_groups_equal_one_step(self, groups):
        rng = np.random.default_rng(3)
        init = rng.standard_normal((4, 3)).astype(np.float32)
        grads = rng.standard_normal((3, 4, 3)).astype(np.float32)  # step, parameter

        def run(step_groups):
            params = {str(i): make_param(row.copy()) for i, row in enumerate(init)}
            opt = Adam(params, lr=0.01, weight_decay=0.1)
            for g in grads:
                for group in step_groups:
                    opt.zero_grad()
                    for i in group:
                        params[str(i)].grad = g[i]
                    opt.step()
            arrays = [*opt.state_arrays().values(), *(p.data for p in params.values())]
            return [arr.tobytes() for arr in arrays]

        assert run(groups) == run([(0, 1, 2, 3)])

    def test_state_round_trip(self):
        p = make_param([1.0, 2.0])
        opt = Adam({"p": p}, lr=0.01, weight_decay=0.1)
        p.grad = np.asarray([0.5, -0.5], dtype=np.float32)
        opt.step()
        opt2 = Adam({"p": p}, lr=0.01, weight_decay=0.1)
        for name, arr in opt2.state_arrays().items():
            np.copyto(arr, opt.state_arrays()[name])
        assert opt2.t["p"] == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


def test_phase_optimizers_hold_disjoint_state():
    p = make_param([1.0])
    sgd = SGDMomentum({"p": p}, lr=0.1, momentum=0.9, weight_decay=1e-4)
    adam = Adam({"p": p}, lr=0.01, weight_decay=0.1)
    p.grad = np.asarray([1.0], dtype=np.float32)
    sgd.step()
    assert adam.t["p"] == 0
    assert not np.shares_memory(sgd.velocity["p"], adam.m["p"])
