"""Momentum SGD, Adam, and the piecewise-constant learning-rate schedule.

The two training phases own disjoint optimizer instances even where their
parameter sets overlap, so momentum and moment estimates never leak across
phases. Parameter updates assign fresh arrays instead of writing in place,
so the arrays a recorded op saved (its inputs, a conv kernel, a linear
weight, a batch-norm gamma) keep their pre-step values: a graph recorded
before a step is differentiated at the pre-step parameters, whenever its
backward runs.

Both optimizers have one protocol: ``zero_grad`` clears every parameter's
gradient, ``step`` updates every parameter that has one (so a phase runs its
backwards, then takes one step), and ``state_arrays`` returns the live state
arrays (velocities, moments, step counts): the arrays a checkpoint saves, and
the arrays a restore copies into (``trainer.restore_plan``).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def lr_at(epoch: int, base_lr: float, milestones, factor: float) -> float:
    """base_lr * factor^(number of milestones <= epoch); milestones ascending."""
    return base_lr * factor ** sum(1 for m in milestones if m <= epoch)


class SGDMomentum:
    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float,
                 weight_decay: float):
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v = self.momentum * self.velocity[name] + g
            self.velocity[name] = v
            p.data = p.data - self.lr * v

    def state_arrays(self):
        return {f"{name}/velocity": v for name, v in self.velocity.items()}


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        # step counts, each the 1-element float32 array a checkpoint saves
        self.t = {name: np.zeros(1, dtype=np.float32) for name in self.params}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """Update every parameter that has a gradient; skips the rest.

        Step counts are per parameter, so each bias correction counts how
        often that parameter actually moved. An update reads only its own
        parameter's gradient, data, moments and count, so steps over disjoint
        gradient groups give the same bytes in any order, or as one step.
        """
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            self.t[name] = self.t[name] + 1
            t = int(self.t[name][0])
            m = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self):
        out = {}
        for name in self.params:
            out[f"{name}/m"] = self.m[name]
            out[f"{name}/v"] = self.v[name]
            out[f"{name}/t"] = self.t[name]
        return out
