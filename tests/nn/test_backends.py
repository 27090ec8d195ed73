"""Parity and selection tests for the pluggable compute backends (PR 6).

Every registered backend must compute exactly what the reference numpy
backend computes — primitives and composites, forward *and* gradients —
across the workload shapes that break naive segment kernels: ragged
segments, empty segments, a single node, and interleaved (unsorted) segment
ids.  Optional backends (numba, torch) skip cleanly where their dependency
is missing; the numpy rows of each sweep always run, so the harness itself
stays continuously verified.

Tolerances: float64 parity is ``1e-6`` absolute/relative (in practice the
kernels agree to the last ulp — accumulation order is pinned to source-row
order); float32 parity is ``1e-5`` relative, the documented serving
tolerance (~2^-23 rounding accumulated over segment sums).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import BACKENDS
from repro.nn import Tensor, use_backend
from repro.nn import functional as F
from repro.nn.backends import (
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    active_backend,
    available_backends,
    set_backend,
)
from repro.nn.backends.numba_backend import _as_2d

F64_TOL = dict(rtol=1e-6, atol=1e-6)
F32_TOL = dict(rtol=1e-5, atol=1e-5)

REFERENCE = NumpyBackend()


def _backend_or_skip(name: str) -> ArrayBackend:
    try:
        return BACKENDS.build(name)
    except BackendUnavailableError as exc:
        pytest.skip(str(exc))


def all_backend_names() -> list[str]:
    return sorted(BACKENDS.names())


# --------------------------------------------------------------------------- #
# Workloads: the shapes that break naive segment kernels
# --------------------------------------------------------------------------- #
def _workloads():
    rng = np.random.default_rng(0)
    ragged = np.repeat(np.arange(6), [3, 1, 4, 2, 5, 1])
    cases = {
        "ragged": (rng.normal(size=(16, 5)), ragged, 6),
        # segments 1 and 3 of 5 are empty
        "empty_segments": (rng.normal(size=(7, 4)),
                           np.array([0, 0, 2, 2, 2, 4, 4]), 5),
        "single_node": (rng.normal(size=(1, 3)), np.array([0]), 1),
        # unsorted ids: rows of one segment interleaved with other segments'
        "interleaved": (rng.normal(size=(10, 2)),
                        np.array([2, 0, 1, 2, 0, 1, 2, 0, 1, 2]), 3),
        "vector_rows": (rng.normal(size=12), np.repeat(np.arange(4), 3), 4),
    }
    return cases


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", all_backend_names())
@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_primitive_parity_float64(name, case):
    backend = _backend_or_skip(name)
    src, idx, num_segments = WORKLOADS[case]
    for op in ("scatter_add", "segment_sum", "segment_mean", "segment_max",
               "segment_softmax"):
        got = getattr(backend, op)(src, idx, num_segments)
        want = getattr(REFERENCE, op)(src, idx, num_segments)
        np.testing.assert_allclose(got, want, err_msg=f"{name}.{op} on {case}",
                                   **F64_TOL)
    np.testing.assert_allclose(backend.gather_rows(src, idx),
                               REFERENCE.gather_rows(src, idx), **F64_TOL)
    np.testing.assert_allclose(backend.segment_counts(idx, num_segments),
                               REFERENCE.segment_counts(idx, num_segments),
                               **F64_TOL)


@pytest.mark.parametrize("name", all_backend_names())
@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_primitive_parity_float32(name, case):
    """Float32 in, float32 out, within the documented serving tolerance."""
    backend = _backend_or_skip(name)
    src64, idx, num_segments = WORKLOADS[case]
    src = src64.astype(np.float32)
    for op in ("scatter_add", "segment_mean", "segment_max", "segment_softmax"):
        got = getattr(backend, op)(src, idx, num_segments)
        assert got.dtype == np.float32, f"{name}.{op} promoted float32"
        want = getattr(REFERENCE, op)(src64, idx, num_segments)
        np.testing.assert_allclose(got, want, err_msg=f"{name}.{op} on {case}",
                                   **F32_TOL)


@pytest.mark.parametrize("name", all_backend_names())
def test_padded_roundtrip_and_matmul_parity(name):
    backend = _backend_or_skip(name)
    rng = np.random.default_rng(1)
    src, idx, num_segments = WORKLOADS["ragged"]
    info = F.segment_info(idx)
    padded = backend.to_padded(src, info.flat, num_segments, info.max_count)
    np.testing.assert_allclose(
        padded, REFERENCE.to_padded(src, info.flat, num_segments, info.max_count),
        **F64_TOL)
    np.testing.assert_allclose(backend.from_padded(padded, info.flat), src,
                               **F64_TOL)
    a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 4))
    np.testing.assert_allclose(backend.matmul(a, b), a @ b, **F64_TOL)
    x = rng.normal(size=(4, 7)) * 50  # large magnitudes: sigmoid must not overflow
    for op in ("exp", "log", "tanh", "sigmoid", "relu"):
        arg = np.abs(x) + 0.1 if op == "log" else x
        with np.errstate(over="raise"):
            got = getattr(backend, op)(arg)
        np.testing.assert_allclose(got, getattr(REFERENCE, op)(arg), **F64_TOL)


@pytest.mark.parametrize("name", all_backend_names())
@pytest.mark.parametrize("case", sorted(WORKLOADS))
def test_gradient_parity_with_numpy(name, case):
    """Autograd under each backend matches the numpy-backend gradients.

    The graph exercises every dispatched kernel family: gather, scatter,
    segment-softmax attention weighting, a matmul and the transcendental
    chain (gelu -> sigmoid), on each adversarial workload shape.
    """
    backend = _backend_or_skip(name)
    src, idx, num_segments = WORKLOADS[case]
    if src.ndim == 1:
        src = src.reshape(-1, 1)
    rng = np.random.default_rng(2)
    weight = rng.normal(size=(src.shape[1], src.shape[1]))

    def run(active) -> tuple[np.ndarray, np.ndarray]:
        with use_backend(active):
            x = Tensor(src.copy(), requires_grad=True)
            w = Tensor(weight.copy(), requires_grad=True)
            h = (x @ w).gelu()
            scores = h.sum(axis=1)
            attn = F.segment_softmax(scores, idx, num_segments)
            weighted = h * attn.reshape(-1, 1)
            pooled = F.segment_sum(weighted, idx, num_segments)
            out = pooled.gather_rows(idx).sigmoid()
            out.sum().backward()
            return x.grad.copy(), w.grad.copy()

    x_grad, w_grad = run(backend)
    x_want, w_want = run(REFERENCE)
    np.testing.assert_allclose(x_grad, x_want, **F64_TOL)
    np.testing.assert_allclose(w_grad, w_want, **F64_TOL)


def test_numpy_backend_scatter_add_unique_matches_general():
    src = np.arange(12.0).reshape(4, 3)
    idx = np.array([3, 1, 0, 2])
    np.testing.assert_array_equal(
        REFERENCE.scatter_add(src, idx, 5, unique=True),
        REFERENCE.scatter_add(src, idx, 5, unique=False))


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
    _assert_bytes_equal(REFERENCE.scatter_add(src, idx, num_rows),
                        _oracle_scatter_add(src, idx, num_rows))
    _assert_bytes_equal(REFERENCE.segment_max(src, idx, num_rows),
                        _oracle_segment_max(src, idx, num_rows))
    counts = np.zeros(num_rows, dtype=src.dtype)
    np.add.at(counts, idx, 1.0)
    _assert_bytes_equal(REFERENCE.segment_counts(idx, num_rows, dtype=src.dtype),
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
        _assert_bytes_equal(REFERENCE.sigmoid(x), _oracle_sigmoid(x))
        _assert_bytes_equal(REFERENCE.sigmoid(x.reshape(2, -1)),
                            _oracle_sigmoid(x.reshape(2, -1)))
        scalar = np.asarray(dtype(-3.0))
        _assert_bytes_equal(REFERENCE.sigmoid(scalar), _oracle_sigmoid(scalar))


def test_numba_as_2d_view_shapes():
    src = np.arange(24.0).reshape(2, 3, 4)
    flat, trailing = _as_2d(src)
    assert flat.shape == (2, 12) and trailing == (3, 4)
    assert flat.flags["C_CONTIGUOUS"]


# --------------------------------------------------------------------------- #
# Selection: registry, set/use, env default, unavailable handling
# --------------------------------------------------------------------------- #
def test_backends_registered():
    names = BACKENDS.names()
    assert {"numpy", "numba", "torch"} <= set(names)
    assert "numpy" in available_backends()


def test_set_backend_returns_previous_and_use_backend_restores():
    baseline = active_backend()
    try:
        previous = set_backend("numpy")
        assert previous is baseline
        inner = NumpyBackend()
        with use_backend(inner) as active:
            assert active is inner
            assert active_backend() is inner
        assert isinstance(active_backend(), NumpyBackend)
        assert active_backend() is not inner
    finally:
        set_backend(baseline)


def test_unavailable_backend_raises_actionable_error():
    unavailable = [name for name in BACKENDS.names()
                   if name not in available_backends()]
    if not unavailable:
        pytest.skip("all optional backends are installed here")
    name = unavailable[0]
    with pytest.raises(BackendUnavailableError, match=name):
        set_backend(name)
    # a failed switch must not clobber the active backend
    assert isinstance(active_backend(), ArrayBackend)


def test_unknown_backend_lists_registered_names():
    with pytest.raises(Exception, match="numpy"):
        set_backend("no-such-backend")


def test_repro_backend_env_fallback_warns(monkeypatch):
    import repro.nn.backends as backends_module

    unavailable = [name for name in BACKENDS.names()
                   if name not in available_backends()]
    target = unavailable[0] if unavailable else "no-such-backend"
    monkeypatch.setenv("REPRO_BACKEND", target)
    monkeypatch.setattr(backends_module, "_ACTIVE", None)
    with pytest.warns(RuntimeWarning, match="falling back"):
        backend = backends_module.active_backend()
    assert isinstance(backend, NumpyBackend)


def test_repro_backend_env_numpy_is_silent(monkeypatch):
    import warnings

    import repro.nn.backends as backends_module

    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    monkeypatch.setattr(backends_module, "_ACTIVE", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(backends_module.active_backend(), NumpyBackend)


def test_backend_repr_names():
    assert "numpy" in repr(NumpyBackend())
