"""Tests for the engine-wide dtype policy (:mod:`repro.nn.dtypes`).

The policy carries the PR-6 float32 serving mode: under the float64 default
the engine is byte-identical to the historical behaviour (explicit float32
arrays pass through), while under a float32 policy *every* float is coerced
at the Tensor-creation boundary — NumPy's NEP-50 rules would otherwise
silently re-promote mixed arithmetic back to float64 and erase the precision
win.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_float, default_dtype, set_default_dtype, use_dtype
from repro.nn.dtypes import FLOAT_DTYPES


def test_default_policy_is_float64():
    assert default_dtype() == np.float64


def test_set_default_dtype_returns_previous_and_validates():
    previous = set_default_dtype(np.float32)
    try:
        assert previous == np.float64
        assert default_dtype() == np.float32
    finally:
        set_default_dtype(previous)
    assert default_dtype() == np.float64
    for bad in (np.int64, np.float16, "int32", complex):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_default_dtype(bad)


def test_use_dtype_restores_on_exit_and_on_error():
    with use_dtype(np.float32) as dtype:
        assert dtype == np.float32
        assert default_dtype() == np.float32
    assert default_dtype() == np.float64
    with pytest.raises(RuntimeError, match="boom"):
        with use_dtype(np.float32):
            raise RuntimeError("boom")
    assert default_dtype() == np.float64


def test_as_float_under_float64_default():
    f64 = np.zeros(3)
    f32 = np.zeros(3, dtype=np.float32)
    assert as_float(f64) is f64                      # no copy in policy dtype
    assert as_float(f32) is f32                      # explicit f32 respected
    assert as_float([1, 2, 3]).dtype == np.float64   # non-arrays -> policy
    assert as_float(np.zeros(3, dtype=np.int32)).dtype == np.float64


def test_as_float_under_float32_policy_coerces_everything():
    with use_dtype(np.float32):
        assert as_float(np.zeros(3)).dtype == np.float32
        f32 = np.zeros(3, dtype=np.float32)
        assert as_float(f32) is f32
        assert as_float([1.5]).dtype == np.float32


def test_as_float_explicit_dtype_overrides_policy():
    assert as_float(np.zeros(3), dtype=np.float32).dtype == np.float32
    with use_dtype(np.float32):
        assert as_float(np.zeros(3), dtype=np.float64).dtype == np.float64


def test_float_dtypes_constant():
    assert np.dtype(np.float64) in FLOAT_DTYPES
    assert np.dtype(np.float32) in FLOAT_DTYPES
    assert len(FLOAT_DTYPES) == 2


def test_tensor_creation_follows_policy():
    assert Tensor(np.zeros(3)).data.dtype == np.float64
    # float64 default: an explicit float32 array stays float32 (legacy)
    assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
    with use_dtype(np.float32):
        assert Tensor(np.zeros(3)).data.dtype == np.float32
        assert Tensor([1.0, 2.0]).data.dtype == np.float32


def test_float32_forward_stays_float32_end_to_end():
    """A full forward chain must not re-promote to float64 (NEP-50 guard)."""
    with use_dtype(np.float32):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
        out = (x @ w).gelu().sigmoid() * 2.0 + 1.0
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32


def test_python_scalars_keep_the_tensor_dtype_outside_use_dtype():
    """A Python number is a weak scalar (NEP 50): it takes the tensor's dtype.

    Runs under the default float64 policy, where a scalar wrapped at the
    policy dtype would promote a float32 operand to float64.
    """
    from repro.nn import functional as F

    assert default_dtype() == np.float64
    x = Tensor(np.linspace(0.5, 2.0, 6, dtype=np.float32).reshape(3, 2),
               requires_grad=True)
    results = {
        "x + 1e-6": x + 1e-6,
        "x * 2.0": x * 2.0,
        "1 - x": 1 - x,
        "x - 1": x - 1,
        "2.0 / x": 2.0 / x,
        "x / 3": x / 3,
        "segment_softmax": F.segment_softmax(x.sum(axis=1), np.array([0, 0, 1]), 2),
    }
    for expr, out in results.items():
        assert out.dtype == np.float32, f"{expr} promoted float32 to {out.dtype}"
    sum(out.sum() for out in results.values()).backward()
    assert x.grad.dtype == np.float32
    # float64 operands are unchanged: the scalar still takes their dtype.
    assert (Tensor(np.ones(2)) * 2.0).dtype == np.float64
