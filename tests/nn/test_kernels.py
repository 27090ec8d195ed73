"""Tests for the raw-array kernels of the autograd engine (``repro.nn.kernels``).

The row scatters run 1-D ``ufunc.at`` through a flat index and the sigmoid
runs one divide; both must be byte-equal to the 2-D ``ufunc.at`` and the
two-branch formula they replace, in float64 and float32.  The remaining
tests pin the contracts the tape relies on: direct assignment for unique
indices, zero rows for empty segments, and float32 in, float32 out.  A
sweep over the shapes that break naive segment kernels (ragged, empty and
single-row segments, interleaved ids, 1-D rows) checks the segment ops of
:mod:`repro.nn.functional` against a per-segment Python loop, forward in
float64 and under the float32 policy, and backward against finite
differences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, kernels, use_dtype
from repro.nn import functional as F

from ..helpers import assert_gradients_close


def test_scatter_add_unique_matches_general():
    src = np.arange(12.0).reshape(4, 3)
    idx = np.array([3, 1, 0, 2])
    np.testing.assert_array_equal(
        kernels.scatter_add(src, idx, 5, unique=True),
        kernels.scatter_add(src, idx, 5, unique=False))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_empty_segments_give_zero_rows(dtype):
    """Segments 1 and 3 of 5 receive no rows: every kernel leaves them zero."""
    rng = np.random.default_rng(0)
    src = rng.normal(size=(7, 4)).astype(dtype) - 10.0  # all negative
    idx = np.array([0, 0, 2, 2, 2, 4, 4])
    empty = [1, 3]
    for out in (kernels.scatter_add(src, idx, 5),
                kernels.segment_max(src, idx, 5)):
        np.testing.assert_array_equal(out[empty], np.zeros((2, 4), dtype=dtype))
        assert (out[[0, 2, 4]] < 0).all()
    np.testing.assert_array_equal(kernels.segment_counts(idx, 5, dtype=dtype),
                                  np.array([2, 0, 3, 0, 2], dtype=dtype))


def test_kernels_keep_float32():
    """Float32 in, float32 out: the serving precision policy relies on it."""
    rng = np.random.default_rng(1)
    src = rng.normal(size=(16, 5)).astype(np.float32)
    idx = np.repeat(np.arange(6), [3, 1, 4, 2, 5, 1])
    outputs = {
        "scatter_add": kernels.scatter_add(src, idx, 6),
        "scatter_add(unique)": kernels.scatter_add(src[:6], np.arange(6), 6,
                                                   unique=True),
        "segment_max": kernels.segment_max(src, idx, 6),
        "segment_counts": kernels.segment_counts(idx, 6, dtype=src.dtype),
        "sigmoid": kernels.sigmoid(src * 50),
    }
    for name, out in outputs.items():
        assert out.dtype == np.float32, f"{name} promoted float32"


# --------------------------------------------------------------------------- #
# Flat-index scatters and the one-divide sigmoid: byte-equal to the 2-D
# ``ufunc.at`` and the two-branch formula they replace
# --------------------------------------------------------------------------- #
def _oracle_scatter_add(src, idx, num_rows):
    out = np.zeros((num_rows,) + src.shape[1:], dtype=src.dtype)
    np.add.at(out, idx, src)
    return out


def _oracle_segment_max(src, idx, num_segments):
    out = np.full((num_segments,) + src.shape[1:], -np.inf, dtype=src.dtype)
    np.maximum.at(out, idx, src)
    out[np.isneginf(out)] = 0.0
    return out


def _oracle_sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _scatter_cases(draw):
    """Unsorted ids (often leaving segments empty) over 1-D, 2-D and 3-D rows."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    num_rows = draw(st.integers(0, 8))
    count = draw(st.integers(0, 24)) if num_rows else 0
    ids = st.integers(0, max(num_rows - 1, 0))
    idx = np.array(draw(st.lists(ids, min_size=count, max_size=count)),
                   dtype=np.int64)
    trailing = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    # Magnitudes far apart, so a changed summation order shows in the bytes.
    elements = st.floats(-1e8, 1e8, width=32 if dtype == np.float32 else 64)
    src = draw(hnp.arrays(dtype, (count,) + trailing, elements=elements))
    return src, idx, num_rows


@settings(max_examples=200, deadline=None)
@given(_scatter_cases())
def test_flat_scatters_are_byte_equal_to_2d_ufunc_at(case):
    src, idx, num_rows = case
    _assert_bytes_equal(kernels.scatter_add(src, idx, num_rows),
                        _oracle_scatter_add(src, idx, num_rows))
    _assert_bytes_equal(kernels.segment_max(src, idx, num_rows),
                        _oracle_segment_max(src, idx, num_rows))
    counts = np.zeros(num_rows, dtype=src.dtype)
    np.add.at(counts, idx, 1.0)
    _assert_bytes_equal(kernels.segment_counts(idx, num_rows, dtype=src.dtype),
                        counts)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_is_byte_equal_to_two_branch_formula(dtype):
    edge_cases = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
                  88.7, -88.7, 103.9, -103.9, 700.0, -700.0, 710.0, -710.0,
                  1e308, -1e308]
    rng = np.random.default_rng(5)
    x = np.concatenate([edge_cases, rng.normal(scale=40.0, size=500)])
    with np.errstate(over="ignore"):  # 1e308 does not fit float32
        x = x.astype(dtype)
    with np.errstate(over="raise", divide="raise"):
        _assert_bytes_equal(kernels.sigmoid(x), _oracle_sigmoid(x))
        _assert_bytes_equal(kernels.sigmoid(x.reshape(2, -1)),
                            _oracle_sigmoid(x.reshape(2, -1)))
        scalar = np.asarray(dtype(-3.0))
        _assert_bytes_equal(kernels.sigmoid(scalar), _oracle_sigmoid(scalar))


# --------------------------------------------------------------------------- #
# Segment ops on the shapes that break naive segment kernels: ragged
# segments, empty segments, a single node, interleaved (unsorted) segment
# ids and 1-D rows, against a per-segment Python loop
# --------------------------------------------------------------------------- #
F64_TOL = dict(rtol=1e-12, atol=1e-12)
F32_TOL = dict(rtol=1e-5, atol=1e-5)   # the documented serving tolerance


def _workloads():
    rng = np.random.default_rng(0)
    ragged = np.repeat(np.arange(6), [3, 1, 4, 2, 5, 1])
    return {
        "ragged": (rng.normal(size=(16, 5)), ragged, 6),
        # segments 1 and 3 of 5 are empty
        "empty_segments": (rng.normal(size=(7, 4)),
                           np.array([0, 0, 2, 2, 2, 4, 4]), 5),
        "single_node": (rng.normal(size=(1, 3)), np.array([0]), 1),
        # rows of one segment interleaved with the other segments' rows
        "interleaved": (rng.normal(size=(10, 2)),
                        np.array([2, 0, 1, 2, 0, 1, 2, 0, 1, 2]), 3),
        "vector_rows": (rng.normal(size=12), np.repeat(np.arange(4), 3), 4),
    }


WORKLOADS = _workloads()


def _loop_reduce(src, idx, num_segments, reduce):
    """One Python iteration per segment; empty segments give zero rows."""
    out = np.zeros((num_segments,) + src.shape[1:])
    for segment in range(num_segments):
        rows = src[idx == segment]
        if len(rows):
            out[segment] = reduce(rows)
    return out


def _loop_softmax(src, idx, num_segments):
    out = np.zeros(src.shape)
    for segment in range(num_segments):
        member = idx == segment
        if not member.any():
            continue
        shifted = np.exp(src[member] - src[member].max(axis=0))
        out[member] = shifted / shifted.sum(axis=0)
    return out


def _loop_oracles(src, idx, num_segments):
    sums = _loop_reduce(src, idx, num_segments, lambda rows: rows.sum(axis=0))
    means = _loop_reduce(src, idx, num_segments, lambda rows: rows.mean(axis=0))
    maxes = _loop_reduce(src, idx, num_segments, lambda rows: rows.max(axis=0))
    return {
        "scatter_add": sums, "segment_sum": sums,
        "scatter_mean": means, "segment_mean": means,
        "segment_max": maxes,
        "segment_softmax": _loop_softmax(src, idx, num_segments),
    }


def _segment_ops(x, idx, num_segments):
    return {
        "scatter_add": F.scatter_add(x, idx, num_segments),
        "segment_sum": F.segment_sum(x, idx, num_segments),
        "scatter_mean": F.scatter_mean(x, idx, num_segments),
        "segment_mean": F.segment_mean(x, idx, num_segments),
        "segment_max": F.segment_max(x, idx, num_segments),
        "segment_softmax": F.segment_softmax(x, idx, num_segments),
    }


@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_primitive_parity_float64(case):
    src, idx, num_segments = WORKLOADS[case]
    want = _loop_oracles(src, idx, num_segments)
    for op, got in _segment_ops(Tensor(src), idx, num_segments).items():
        assert got.dtype == np.float64
        np.testing.assert_allclose(got.data, want[op],
                                   err_msg=f"{op} on {case}", **F64_TOL)
    np.testing.assert_array_equal(Tensor(src).gather_rows(idx).data, src[idx])
    np.testing.assert_array_equal(
        kernels.segment_counts(idx, num_segments, dtype=np.float64),
        [np.sum(idx == segment) for segment in range(num_segments)])


@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_primitive_parity_float32(case):
    """Under the float32 serving policy: float32 out, within its tolerance."""
    src64, idx, num_segments = WORKLOADS[case]
    want = _loop_oracles(src64, idx, num_segments)
    with use_dtype(np.float32):
        ops = _segment_ops(Tensor(src64), idx, num_segments)
    for op, got in ops.items():
        assert got.dtype == np.float32, f"{op} promoted float32"
        np.testing.assert_allclose(got.data, want[op],
                                   err_msg=f"{op} on {case}", **F32_TOL)


@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_gradients_match_finite_differences(case):
    """Backward of every scatter family on each workload shape.

    The graph chains a matmul, the gelu, a segment-softmax attention
    weighting, a segment sum, a row gather and the sigmoid.
    """
    src, idx, num_segments = WORKLOADS[case]
    if src.ndim == 1:
        src = src.reshape(-1, 1)
    rng = np.random.default_rng(2)
    x = Tensor(src.copy(), requires_grad=True)
    w = Tensor(rng.normal(size=(src.shape[1], src.shape[1])), requires_grad=True)

    def loss():
        h = (x @ w).gelu()
        attn = F.segment_softmax(h.sum(axis=1), idx, num_segments)
        pooled = F.segment_sum(h * attn.reshape(-1, 1), idx, num_segments)
        return (pooled.gather_rows(idx).sigmoid()
                + F.segment_max(h, idx, num_segments).gather_rows(idx)).sum()

    assert_gradients_close(loss, x)
    assert_gradients_close(loss, w)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_padded_roundtrip(case, dtype):
    """``to_padded`` places each segment's rows in order; ``from_padded`` undoes it."""
    src, idx, num_segments = WORKLOADS[case]
    src = src.astype(dtype)
    padded, seg = F.to_padded(Tensor(src), idx, pad_value=-7.0)
    assert padded.dtype == dtype
    present = [segment for segment in range(num_segments)
               if np.any(idx == segment)]
    assert padded.shape[:2] == (len(present), seg.max_count)
    for slot_row, segment in enumerate(present):
        rows = src[idx == segment]
        np.testing.assert_array_equal(padded.data[slot_row, :len(rows)], rows)
        np.testing.assert_array_equal(padded.data[slot_row, len(rows):], -7.0)
        assert seg.mask[slot_row].sum() == len(rows)
    restored = F.from_padded(padded, seg)
    assert restored.dtype == dtype
    np.testing.assert_array_equal(restored.data, src)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_elementwise_ops_keep_dtype_without_overflow(dtype):
    """Large magnitudes: the bounded maps must neither overflow nor promote."""
    rng = np.random.default_rng(3)
    x = (rng.normal(size=(4, 7)) * 50).astype(dtype)
    want = {
        "tanh": np.tanh(x.astype(np.float64)),
        "sigmoid": 1.0 / (1.0 + np.exp(-x.astype(np.float64))),
        "relu": np.maximum(x.astype(np.float64), 0.0),
        "log": np.log(np.abs(x.astype(np.float64)) + 0.1),
        "exp": np.exp(x.astype(np.float64) / 50),
    }
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = {
            "tanh": Tensor(x).tanh(),
            "sigmoid": Tensor(x).sigmoid(),
            "relu": Tensor(x).relu(),
            "log": Tensor(np.abs(x) + dtype(0.1)).log(),
            "exp": Tensor(x / dtype(50)).exp(),
        }
    tol = F64_TOL if dtype == np.float64 else F32_TOL
    for op, out in got.items():
        assert out.dtype == dtype, f"{op} promoted {np.dtype(dtype).name}"
        np.testing.assert_allclose(out.data, want[op], err_msg=op, **tol)


def test_repro_backend_environment_variable_is_ignored():
    """Environments that still export ``REPRO_BACKEND`` run numpy silently."""
    import os
    import pathlib
    import subprocess
    import sys

    script = (
        "import warnings; warnings.simplefilter('error')\n"
        "import numpy as np\n"
        "from repro.nn import Tensor, functional as F\n"
        "out = F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1, 1]), 2)\n"
        "assert out.data.tolist() == [[1.0, 1.0], [2.0, 2.0]]\n"
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, REPRO_BACKEND="torch",
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
