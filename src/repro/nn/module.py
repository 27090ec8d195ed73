"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Iterator

import numpy as np

from .dtypes import FLOAT_DTYPES, as_float
from .tensor import Tensor

__all__ = ["Module", "Parameter", "ModuleList", "Sequential"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a learnable model parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Provides recursive parameter collection, ``train()`` / ``eval()`` mode
    switching, and flat ``state_dict`` serialisation, mirroring the small part
    of the ``torch.nn.Module`` API that the CircuitGPS code relies on.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffer_names: list[str] = []
        self.training = True

    def __deepcopy__(self, memo) -> "Module":
        """A deep copy that rebuilds the parameter and child registries
        directly; equal to the generic ``copy.deepcopy``, at half its cost."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        state = clone.__dict__
        for name, value in self.__dict__.items():
            if type(value) is OrderedDict:
                state[name] = OrderedDict((key, copy.deepcopy(item, memo))
                                          for key, item in value.items())
            else:
                state[name] = copy.deepcopy(value, memo)
        return clone

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Attach a trainable :class:`Parameter` under ``name``."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        """Attach a child module under ``name`` for traversal."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable state array (e.g. BatchNorm running statistics).

        Buffers are included in :meth:`state_dict` / :meth:`load_state_dict` but
        are never returned by :meth:`parameters`.
        """
        if name not in self._buffer_names:
            self._buffer_names.append(name)
        object.__setattr__(self, name, as_float(value))

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, array)`` for every registered buffer."""
        for name in self._buffer_names:
            yield prefix + name, getattr(self, name)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix + child_name + ".")

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` over the whole subtree."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (the #Param. column of Tables III/VII)."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Mode / grads
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively; returns ``self``."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (``train(False)``)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset the gradients of every parameter in the subtree."""
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> None:
        """Disable gradient tracking for all parameters (used by head-only fine-tuning)."""
        for param in self.parameters():
            param.requires_grad = False

    def unfreeze(self) -> None:
        """Re-enable gradients for every parameter in the subtree."""
        for param in self.parameters():
            param.requires_grad = True

    def cast(self, dtype) -> "Module":
        """Cast every parameter and buffer to ``dtype`` (float32/float64), in place.

        The float32-serving path (:class:`repro.core.serve.AnnotationEngine`
        with ``precision="float32"``) deep-copies a trained model and casts the
        copy, so checkpoints on disk stay full-precision.  Returns ``self``.
        """
        resolved = np.dtype(dtype)
        if resolved not in FLOAT_DTYPES:
            raise ValueError(f"cast() supports float32/float64, got {dtype!r}")
        for param in self.parameters():
            param.data = param.data.astype(resolved, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(resolved, copy=False)
        for module in self.modules():
            for name in module._buffer_names:
                buf = getattr(module, name)
                object.__setattr__(module, name, buf.astype(resolved, copy=False))
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``{qualified_name: array}`` of all parameters and buffers."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: np.array(value, copy=True) for name, value in self.named_buffers()})
        return state

    def _buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}

        def visit(module: "Module", prefix: str) -> None:
            for name in module._buffer_names:
                owners[prefix + name] = (module, name)
            for child_name, child in module._modules.items():
                visit(child, prefix + child_name + ".")

        visit(self, "")
        return owners

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Copy arrays from ``state`` into matching parameters/buffers."""
        own_params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        known = set(own_params) | set(buffer_owners)
        missing = known - set(state)
        unexpected = set(state) - known
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            if name in own_params:
                if own_params[name].data.shape != values.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {own_params[name].data.shape} vs {values.shape}"
                    )
                own_params[name].data = np.asarray(
                    values, dtype=own_params[name].data.dtype).copy()
            elif name in buffer_owners:
                module, attr = buffer_owners[name]
                current = getattr(module, attr)
                values = np.asarray(values, dtype=current.dtype)
                if current.shape != values.shape:
                    raise ValueError(
                        f"shape mismatch for buffer {name}: {current.shape} vs {values.shape}"
                    )
                object.__setattr__(module, attr, values.copy())

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules registered for parameter traversal."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Append ``module`` and register it; returns ``self``."""
        index = len(self._items)
        self._items.append(module)
        self.add_module(str(index), module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        """Containers are not callable; iterate over the items instead."""
        raise RuntimeError("ModuleList is a container and cannot be called")


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for index, module in enumerate(self._items):
            self.add_module(str(index), module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, x):
        """Feed ``x`` through every module in order."""
        for module in self._items:
            x = module(x)
        return x
