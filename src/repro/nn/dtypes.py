"""The single dtype policy of the tensor engine.

Every floating-point array the engine creates is typed through this module
instead of hard-coded ``np.float64`` literals, so one switch flips the whole
stack between precisions:

* **float64** (the default) — training and every historical code path.  Under
  this policy the engine behaves exactly as it always has: new arrays are
  created as float64, and float32 arrays that a caller built explicitly pass
  through untouched.
* **float32** (:func:`use_dtype`) — the serving/inference mode.  Arrays are
  created *and coerced* to float32, so wrapping a float64 input (positional
  encodings, circuit statistics, masks) in a :class:`~repro.nn.tensor.Tensor`
  downcasts it at the boundary and the whole forward pass stays in single
  precision.  Training never runs under this policy — only
  :class:`~repro.core.serve.AnnotationEngine` (``precision="float32"``) and
  the kernel dtype tests use it.

The asymmetry is deliberate: under the float64 default a float32 array is
assumed intentional and kept (legacy behaviour, byte-identical to the
pre-policy engine); under a reduced-precision policy *everything* is funnelled
to the policy dtype, because mixed float32/float64 arithmetic silently
re-promotes to float64 under NumPy's NEP-50 rules and would erase the
precision win.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "default_dtype",
    "set_default_dtype",
    "use_dtype",
    "as_float",
    "FLOAT32",
    "FLOAT64",
    "FLOAT_DTYPES",
]

#: The two sanctioned floating dtypes.  These named constants are the one
#: place a float32/float64 literal may be spelled (``repro lint`` enforces
#: this via the ``no-naked-dtype`` rule) — call sites say ``FLOAT64`` /
#: ``.astype(FLOAT32)`` / ``FLOAT64.type(x)`` instead of ``np.float64``.
FLOAT32 = np.dtype(np.float32)
FLOAT64 = np.dtype(np.float64)
FLOAT_DTYPES = (FLOAT64, FLOAT32)

_DEFAULT_DTYPE = FLOAT64


def default_dtype() -> np.dtype:
    """The dtype policy currently in effect (float64 unless overridden)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the engine-wide dtype policy; returns the previous policy.

    Only float32 and float64 are supported — the autograd engine and its
    kernels are written for these two precisions.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in FLOAT_DTYPES:
        raise ValueError(
            f"dtype policy must be float32 or float64, got {dtype!r}"
        )
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


@contextlib.contextmanager
def use_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` (restores on exit)."""
    previous = set_default_dtype(dtype)
    try:
        yield np.dtype(dtype)
    finally:
        set_default_dtype(previous)


def as_float(values, dtype=None) -> np.ndarray:
    """Coerce ``values`` to a floating array under the active policy.

    With an explicit ``dtype`` the array is simply converted.  Otherwise:
    arrays already in the policy dtype pass through (no copy); under the
    float64 default a float32 array also passes through (the historical
    behaviour — an explicitly single-precision array is respected); under a
    float32 policy everything is coerced to float32 so no float64 sneaks back
    into a reduced-precision forward pass.
    """
    if dtype is not None:
        return np.asarray(values, dtype=np.dtype(dtype))
    target = _DEFAULT_DTYPE
    if isinstance(values, np.ndarray):
        if values.dtype == target:
            return values
        if target == np.float64 and values.dtype in FLOAT_DTYPES:
            return values
        return values.astype(target)
    return np.asarray(values, dtype=target)
