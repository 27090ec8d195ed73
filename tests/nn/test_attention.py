"""Tests for softmax multi-head attention and Performer linear attention."""

import numpy as np
import pytest

from repro.nn import MultiHeadSelfAttention, PerformerAttention, Tensor, segment_info, use_dtype
from repro.nn import functional as F
from repro.nn.attention import MASK_BIAS
from tests.oracles.nn_legacy import loop_multihead_attention, loop_performer_attention


def _inputs(num_nodes=10, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(num_nodes, dim)), requires_grad=True)
    batch = np.array([0] * 4 + [1] * 6)[:num_nodes]
    return x, batch


class TestMultiHeadSelfAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(16, num_heads=4, rng=0)
        x, batch = _inputs()
        assert attn(x, batch).shape == (10, 16)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, num_heads=3)

    def test_batch_length_mismatch_raises(self):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=0)
        with pytest.raises(ValueError):
            attn(Tensor(np.zeros((4, 8))), np.zeros(3, dtype=int))

    def test_no_information_leak_across_graphs(self):
        """Changing nodes of graph 1 must not affect outputs of graph 0."""
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=0)
        attn.eval()
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 8))
        batch = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        out_a = attn(Tensor(base), batch).data
        modified = base.copy()
        modified[4:] += 5.0
        out_b = attn(Tensor(modified), batch).data
        np.testing.assert_allclose(out_a[:4], out_b[:4], atol=1e-10)
        assert not np.allclose(out_a[4:], out_b[4:])

    def test_permutation_equivariance_within_graph(self):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=0)
        attn.eval()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        batch = np.zeros(5, dtype=int)
        out = attn(Tensor(x), batch).data
        perm = np.array([2, 0, 4, 1, 3])
        out_perm = attn(Tensor(x[perm]), batch).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-8)

    def test_gradients_flow(self):
        attn = MultiHeadSelfAttention(8, num_heads=2, rng=0)
        x, batch = _inputs(num_nodes=6, dim=8)
        loss = (attn(x, batch) ** 2).sum()
        loss.backward()
        assert x.grad is not None
        assert np.any(attn.q_proj.weight.grad != 0)


class TestPerformerAttention:
    def test_output_shape(self):
        attn = PerformerAttention(16, num_heads=4, num_features=8, rng=0)
        x, batch = _inputs()
        assert attn(x, batch).shape == (10, 16)

    def test_no_information_leak_across_graphs(self):
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        attn.eval()
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 8))
        batch = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        out_a = attn(Tensor(base), batch).data
        modified = base.copy()
        modified[4:] += 5.0
        out_b = attn(Tensor(modified), batch).data
        np.testing.assert_allclose(out_a[:4], out_b[:4], atol=1e-10)

    def test_positive_feature_map(self):
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        features = attn._feature_map(x, head=0)
        assert np.all(features.data > 0)

    def test_approximates_softmax_attention_direction(self):
        """Performer output should correlate with exact attention output."""
        dim = 8
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, dim))
        batch = np.zeros(12, dtype=int)
        exact = MultiHeadSelfAttention(dim, num_heads=1, rng=1)
        approx = PerformerAttention(dim, num_heads=1, num_features=64, rng=1)
        # Share the projection weights so only the attention kernel differs.
        approx.load_state_dict(
            {k: v for k, v in exact.state_dict().items() if k in dict(approx.named_parameters())},
            strict=False,
        )
        exact.eval()
        approx.eval()
        out_exact = exact(Tensor(x), batch).data.ravel()
        out_approx = approx(Tensor(x), batch).data.ravel()
        corr = np.corrcoef(out_exact, out_approx)[0, 1]
        assert corr > 0.5

    def test_gradients_flow(self):
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        x, batch = _inputs(num_nodes=6, dim=8)
        loss = (attn(x, batch) ** 2).sum()
        loss.backward()
        assert x.grad is not None

    def test_projection_persists_in_state_dict(self):
        """Regression: reloading a saved Performer must not redraw the random
        features — the kernel approximation is defined by them."""
        saved = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        restored = PerformerAttention(8, num_heads=2, num_features=8, rng=123)
        assert not np.array_equal(saved.projection, restored.projection)
        restored.load_state_dict(saved.state_dict())
        np.testing.assert_array_equal(restored.projection, saved.projection)
        saved.eval()
        restored.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(6, 8)))
        batch = np.array([0, 0, 0, 1, 1, 1])
        np.testing.assert_allclose(restored(x, batch).data, saved(x, batch).data)

    def test_feature_map_finite_on_large_inputs(self):
        """Regression: the FAVOR+ stabilizer keeps exp() from overflowing."""
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        huge = Tensor(np.random.default_rng(0).normal(size=(5, 4)) * 1e3)
        features = attn._feature_map(huge, head=0)
        assert np.all(np.isfinite(features.data))
        assert np.all(features.data > 0)

    def test_forward_finite_on_large_inputs(self):
        """Pre-stabilizer the forward produced inf/nan on large activations."""
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        attn.eval()
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(10, 8)) * 100.0)
        batch = np.array([0] * 5 + [1] * 5)
        out = attn(x, batch)
        assert np.all(np.isfinite(out.data))

    def test_stabilizer_preserves_small_input_behaviour(self):
        """On small inputs the stabilized features match the legacy map."""
        attn = PerformerAttention(8, num_heads=2, num_features=8, rng=0)
        attn.eval()
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(9, 8)))
        batch = np.array([0] * 4 + [1] * 5)
        out = attn(x, batch).data

        # Legacy (pre-PR-4, unstabilized) per-graph x per-head forward.
        def legacy_feature_map(values, head):
            projected = values @ attn.projection[head]
            sq_norm = (values * values).sum(axis=-1, keepdims=True) * 0.5
            return np.exp(projected - sq_norm) / np.sqrt(attn.num_features) + 1e-6

        q = attn.q_proj(x).data
        k = attn.k_proj(x).data
        v = attn.v_proj(x).data
        scale = 1.0 / np.sqrt(np.sqrt(attn.head_dim))
        rows = []
        for graph_id in np.unique(batch):
            idx = np.nonzero(batch == graph_id)[0]
            head_outputs = []
            for head in range(attn.num_heads):
                cols = slice(head * attn.head_dim, (head + 1) * attn.head_dim)
                q_feat = legacy_feature_map(q[idx][:, cols] * scale, head)
                k_feat = legacy_feature_map(k[idx][:, cols] * scale, head)
                kv = k_feat.T @ v[idx][:, cols]
                denominator = q_feat @ k_feat.sum(axis=0)[:, None] + 1e-8
                head_outputs.append((q_feat @ kv) / denominator)
            rows.append(np.concatenate(head_outputs, axis=1))
        legacy = np.concatenate(rows, axis=0) @ attn.out_proj.weight.data
        legacy = legacy + attn.out_proj.bias.data
        # The stabilizer shift cancels exactly in the attention ratio except
        # through the 1e-6 positivity epsilon of the feature map, which does
        # not rescale with it — deviations stay at the epsilon level.
        np.testing.assert_allclose(out, legacy, rtol=5e-3, atol=1e-4)


PARITY_BATCHES = {
    "single_graph": np.zeros(7, dtype=np.int64),
    "ragged_sizes": np.array([0] * 1 + [1] * 9 + [2] * 4 + [3] * 2),
    "non_contiguous_ids": np.array([7, 3, 7, 3, 3, 11, 7, 11]),
    "interleaved_order": np.array([0, 1, 2, 0, 1, 2, 0, 1]),
}


class TestLoopParity:
    """The vectorized modules must match the per-graph loop oracles ≤ 1e-8."""

    @pytest.mark.parametrize("name", sorted(PARITY_BATCHES))
    def test_multihead_matches_loop(self, name):
        batch = PARITY_BATCHES[name]
        attn = MultiHeadSelfAttention(16, num_heads=4, rng=0)
        attn.eval()
        x = Tensor(np.random.default_rng(3).normal(size=(len(batch), 16)))
        vectorized = attn(x, batch).data
        looped = loop_multihead_attention(attn, x, batch).data
        np.testing.assert_allclose(vectorized, looped, atol=1e-8, rtol=1e-8)

    @pytest.mark.parametrize("name", sorted(PARITY_BATCHES))
    def test_performer_matches_loop(self, name):
        batch = PARITY_BATCHES[name]
        attn = PerformerAttention(16, num_heads=4, num_features=8, rng=0)
        attn.eval()
        x = Tensor(np.random.default_rng(4).normal(size=(len(batch), 16)))
        vectorized = attn(x, batch).data
        looped = loop_performer_attention(attn, x, batch).data
        np.testing.assert_allclose(vectorized, looped, atol=1e-8, rtol=1e-8)

    def test_multihead_gradient_matches_loop(self):
        batch = np.array([0] * 3 + [1] * 5)
        attn = MultiHeadSelfAttention(16, num_heads=2, rng=0)
        attn.eval()
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(8, 16)), requires_grad=True)
        (attn(x, batch) ** 2).sum().backward()
        vectorized = x.grad.copy()
        x.grad = None
        (loop_multihead_attention(attn, x, batch) ** 2).sum().backward()
        np.testing.assert_allclose(vectorized, x.grad, atol=1e-8, rtol=1e-8)

    def test_performer_gradient_matches_loop(self):
        batch = np.array([0] * 3 + [1] * 5)
        attn = PerformerAttention(16, num_heads=2, num_features=8, rng=0)
        attn.eval()
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(8, 16)), requires_grad=True)
        (attn(x, batch) ** 2).sum().backward()
        vectorized = x.grad.copy()
        x.grad = None
        (loop_performer_attention(attn, x, batch) ** 2).sum().backward()
        np.testing.assert_allclose(vectorized, x.grad, atol=1e-8, rtol=1e-8)

    def test_accepts_precomputed_segment_info(self):
        batch = np.array([0, 0, 1, 1, 1])
        seg = segment_info(batch)
        x = Tensor(np.random.default_rng(7).normal(size=(5, 8)))
        for attn in (MultiHeadSelfAttention(8, num_heads=2, rng=0),
                     PerformerAttention(8, num_heads=2, num_features=8, rng=0)):
            attn.eval()
            np.testing.assert_allclose(attn(x, seg).data, attn(x, batch).data)


# --------------------------------------------------------------------------- #
# Size-class bucketing
# --------------------------------------------------------------------------- #
def padded_attention(module: MultiHeadSelfAttention, x: Tensor, batch) -> Tensor:
    """Every segment padded to the batch's longest one: the kernel before
    size-class bucketing, kept as a reference."""
    seg = segment_info(batch)
    q, k, v = module.q_proj(x), module.k_proj(x), module.v_proj(x)
    if seg.num_rows == 0:
        return module.drop(module.out_proj(v))
    graphs, length = seg.num_segments, seg.max_count

    def split_heads(t):
        padded, _ = F.to_padded(t, seg)
        return padded.reshape(graphs, length, module.num_heads,
                              module.head_dim).transpose(0, 2, 1, 3)

    qh = split_heads(q * (1.0 / np.sqrt(module.head_dim)))
    scores = qh.matmul(split_heads(k).transpose(0, 1, 3, 2))
    bias = np.where(seg.mask, 0.0, MASK_BIAS)[:, None, None, :]
    mixed = (scores + Tensor(bias)).softmax(axis=-1).matmul(split_heads(v))
    merged = mixed.transpose(0, 2, 1, 3).reshape(graphs, length, module.dim)
    return module.drop(module.out_proj(F.from_padded(merged, seg)))


def _mixed_sizes():
    """One 54-node hub subgraph among many 3-12-node ones."""
    sizes = np.random.default_rng(11).integers(3, 13, size=60)
    return np.concatenate([sizes[:20], [54], sizes[20:]])


def _bucket_batches():
    sizes = _mixed_sizes()
    contiguous = np.repeat(np.arange(sizes.shape[0]), sizes)
    rng = np.random.default_rng(12)
    labels = rng.permutation(1000)[: sizes.shape[0]] * 3 + 5  # non-contiguous ids
    interleaved = rng.permutation(labels[contiguous])
    return {
        "mixed": contiguous,
        "interleaved_non_contiguous": interleaved,
        "single_segment": np.zeros(54, dtype=np.int64),
        "empty": np.zeros(0, dtype=np.int64),
    }


BUCKET_BATCHES = _bucket_batches()
DTYPE_TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _run(kernel, module, x_data, batch, weights, dtype):
    """Forward output and input gradient of ``sum(weights * kernel(x))``."""
    with use_dtype(dtype):
        x = Tensor(x_data.astype(dtype), requires_grad=True)
        out = kernel(module, x, batch)
        (out * Tensor(weights.astype(dtype))).sum().backward()
    grad = x.grad if x.grad is not None else np.zeros_like(x.data)
    return out.data, grad


def _forward(module, x, batch):
    return module(x, batch)


class TestBucketedAttention:
    """Size-class bucketing must not change what attention computes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("reference,name", [
        pytest.param(reference, name, id=f"{label}-{name}")
        for label, reference in (("loop", loop_multihead_attention), ("padded", padded_attention))
        for name in sorted(BUCKET_BATCHES)
        if not (name == "empty" and label == "loop")  # the loop oracle needs a graph
    ])
    def test_matches_reference(self, name, dtype, reference):
        batch = BUCKET_BATCHES[name]
        module = MultiHeadSelfAttention(16, num_heads=4, rng=0).cast(dtype)
        module.eval()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(batch.shape[0], 16))
        weights = rng.normal(size=(batch.shape[0], 16))
        out, grad = _run(_forward, module, x, batch, weights, dtype)
        want_out, want_grad = _run(reference, module, x, batch, weights, dtype)
        assert out.dtype == want_out.dtype == dtype
        tol = DTYPE_TOLERANCE[dtype]
        np.testing.assert_allclose(out, want_out, atol=tol, rtol=tol)
        np.testing.assert_allclose(grad, want_grad, atol=tol, rtol=tol)

    def test_mixed_batches_really_bucket(self):
        for name in ("mixed", "interleaved_non_contiguous"):
            layout = segment_info(BUCKET_BATCHES[name]).buckets
            assert len(layout.masks) > 1, name
            assert layout.num_slots < 0.5 * 61 * 54  # far below S * L padded rows
        (mask,) = segment_info(BUCKET_BATCHES["single_segment"]).buckets.masks
        assert mask.shape == (1, 64)  # 54 rows pad to the 64 rung
        empty = segment_info(BUCKET_BATCHES["empty"]).buckets
        assert empty.masks == () and empty.num_slots == 0

    def test_layout_places_every_row_once(self):
        batch = BUCKET_BATCHES["interleaved_non_contiguous"]
        seg = segment_info(batch)
        layout = seg.buckets
        assert np.unique(layout.flat).shape[0] == batch.shape[0]
        assert layout.flat.max() < layout.num_slots
        lengths = [mask.shape[1] for mask in layout.masks]
        assert lengths == sorted(set(lengths))
        for length, mask, start in zip(lengths, layout.masks, layout.offsets):
            for local, valid in enumerate(mask):
                slots = start + local * length + np.arange(length)
                rows = np.flatnonzero(np.isin(layout.flat, slots))
                # A padded segment holds exactly the rows of one original
                # segment, in the slots its mask marks.
                owners = seg.index[rows]
                assert np.unique(owners).shape[0] == 1
                assert rows.shape[0] == valid.sum() == seg.counts[owners[0]]
                assert F.padded_length(rows.shape[0]) == length
                np.testing.assert_array_equal(np.sort(layout.flat[rows]) - slots[0],
                                              np.flatnonzero(valid))

    def test_layout_is_computed_once_per_segment_info(self):
        seg = segment_info(BUCKET_BATCHES["mixed"])
        assert seg.buckets is seg.buckets

    def test_padded_length_ladder(self):
        counts = np.arange(1, 50)
        ladder = F.padded_length(counts)
        rungs = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
        want = [min(rung for rung in rungs if rung >= count) for count in counts]
        np.testing.assert_array_equal(ladder, want)
        # Rows fill more than two thirds of every rung.
        assert np.all(counts / ladder > 0.66)

    @pytest.mark.parametrize("count", [2, 5, 7, 9, 54])
    def test_padded_length_is_a_function_of_the_own_count(self, count):
        """A segment pads to the same length alone and among any batch mates."""
        for others in ([], [3], [54, 2], list(range(1, 40))):
            sizes = [count] + others
            layout = segment_info(np.repeat(np.arange(len(sizes)), sizes)).buckets
            slot = layout.flat[0]  # the segment's first row
            bucket = int(np.searchsorted(layout.offsets, slot, side="right")) - 1
            length = layout.masks[bucket].shape[1]
            assert length == F.padded_length(count)
            assert (slot - layout.offsets[bucket]) % length == 0

    def test_one_rung_batch_is_the_padded_kernel(self):
        """Segments that all fill one rung exactly are one bucket, and it is
        the plain padded kernel byte for byte."""
        batch = np.repeat(np.arange(6), 12)
        seg = segment_info(batch)
        (mask,) = seg.buckets.masks
        assert mask.all() and mask.shape == (6, 12)
        np.testing.assert_array_equal(seg.buckets.flat, seg.flat)
        module = MultiHeadSelfAttention(16, num_heads=4, rng=0)
        module.eval()
        x = Tensor(np.random.default_rng(14).normal(size=(batch.shape[0], 16)))
        np.testing.assert_array_equal(module(x, seg).data,
                                      padded_attention(module, x, seg).data)
