"""Optimisers and learning-rate schedulers."""

from __future__ import annotations

import numpy as np

from .module import Parameter
from .dtypes import FLOAT64

__all__ = ["Optimizer", "Adam", "CosineSchedule", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Clip gradients in-place to a maximum global L2 norm; returns the norm."""
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base class tracking a parameter list and a mutable learning rate."""

    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Serialisation: flat ``str -> np.ndarray`` maps, checkpoint-friendly.
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Internal optimiser state (moments, step counters) as flat arrays."""
        return {"lr": FLOAT64.type(self.lr)}

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict`.

        Raises ``ValueError`` when the state does not match this optimiser's
        parameter list (wrong count or shapes).
        """
        if "lr" in state:
            self.lr = float(state["lr"])

    def _checked_slots(self, state: dict, name: str,
                       slots: list[np.ndarray]) -> list[np.ndarray] | None:
        """Validate per-parameter arrays ``{name}.{i}`` against ``slots``.

        Returns the new arrays (or ``None`` when the state carries none), so
        callers can validate *everything* before mutating — a failed load must
        leave the optimiser untouched.
        """
        keys = [f"{name}.{i}" for i in range(len(self.parameters))]
        present = [key for key in keys if key in state]
        if not present:
            return None
        if len(present) != len(keys):
            raise ValueError(
                f"optimizer state has {len(present)} {name!r} entries for "
                f"{len(keys)} parameters"
            )
        loaded = []
        for i, key in enumerate(keys):
            value = np.asarray(state[key], dtype=FLOAT64)
            if value.shape != slots[i].shape:
                raise ValueError(
                    f"optimizer state shape mismatch for {key}: "
                    f"{value.shape} vs {slots[i].shape}"
                )
            loaded.append(value.copy())
        return loaded


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        """Apply one bias-corrected Adam update."""
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        state = super().state_dict()
        state["t"] = np.int64(self._t)
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{i}"] = m.copy()
            state[f"v.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        m = self._checked_slots(state, "m", self._m)
        v = self._checked_slots(state, "v", self._v)
        # All-or-nothing across the moment families: restoring m without v
        # (or either without the step count) would divide fresh-zero v_hat
        # into restored momenta on the next step and blow up the update.
        if (m is None) != (v is None) or (m is not None and "t" not in state):
            raise ValueError(
                "optimizer state is inconsistent: m/v moment arrays and the "
                "step count 't' must be saved and restored together"
            )
        super().load_state_dict(state)
        if m is not None:
            self._m = m
            self._v = v
            self._t = int(state["t"])


class CosineSchedule:
    """Cosine decay of the learning rate with optional linear warm-up."""

    def __init__(self, optimizer: Optimizer, total_steps: int, warmup_steps: int = 0,
                 min_lr: float = 0.0):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.total_steps = int(total_steps)
        self.warmup_steps = int(warmup_steps)
        self.min_lr = float(min_lr)
        self._step = 0

    def _lr_at(self, step: int) -> float:
        if self.warmup_steps and step <= self.warmup_steps:
            return float(self.base_lr * step / self.warmup_steps)
        progress = (step - self.warmup_steps) / max(1, self.total_steps - self.warmup_steps)
        progress = min(1.0, progress)
        return float(self.min_lr + 0.5 * (self.base_lr - self.min_lr)
                     * (1 + np.cos(np.pi * progress)))

    def step(self) -> float:
        """Advance one step and set the optimizer's learning rate."""
        self._step += 1
        self.optimizer.lr = self._lr_at(self._step)
        return self.optimizer.lr

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable schedule position."""
        return {"step": np.int64(self._step)}

    def load_state_dict(self, state: dict) -> None:
        """Restore the schedule position (and resulting LR)."""
        self._step = int(state.get("step", self._step))
        if self._step > 0:
            self.optimizer.lr = self._lr_at(self._step)
