"""Tests for the shared utilities: RNG, logging, serialization, timing."""

import time

import numpy as np
import pytest

from repro.utils import (
    CheckpointError,
    MetricLogger,
    get_logger,
    get_rng,
    load_checkpoint,
    load_json,
    save_checkpoint,
    save_json,
    seed_all,
    spawn_rng,
    spawn_seeds,
    timed,
    validate_state_keys,
)


class TestRng:
    def test_seed_all_reproducible(self):
        a = seed_all(123).random(5)
        b = seed_all(123).random(5)
        np.testing.assert_allclose(a, b)

    def test_get_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert get_rng(rng) is rng

    def test_get_rng_from_seed(self):
        np.testing.assert_allclose(get_rng(5).random(3), np.random.default_rng(5).random(3))

    def test_get_rng_none_uses_global(self):
        seed_all(99)
        expected = np.random.default_rng(99).random(3)
        np.testing.assert_allclose(get_rng(None).random(3), expected)

    def test_spawn_rng_independent(self):
        seed_all(7)
        child_a = spawn_rng()
        child_b = spawn_rng()
        assert not np.allclose(child_a.random(4), child_b.random(4))

    def test_spawn_seeds_deterministic_and_distinct(self):
        seeds = spawn_seeds(0, 8)
        assert seeds == spawn_seeds(0, 8)
        assert len(set(seeds)) == 8

    def test_spawn_seeds_offset_slices_the_same_stream(self):
        # Grouped spawning (offset) must reproduce the one-shot spawning:
        # spawn_seeds(s, n)[i:j] == spawn_seeds(s, j - i, offset=i).
        full = spawn_seeds(42, 10)
        assert full[3:7] == spawn_seeds(42, 4, offset=3)
        assert full[:2] == spawn_seeds(42, 2)

    def test_spawn_seeds_nearby_bases_do_not_collide(self):
        """Regression: additive per-design seeding (``seed + i``) made design
        i under base seed s reuse the exact RNG stream of design i - 1 under
        base seed s + 1.  SeedSequence spawning keys the child stream on the
        (base, index) pair, so nearby bases share nothing."""
        overlap = set(spawn_seeds(0, 16)) & set(spawn_seeds(1, 16))
        assert not overlap
        rng_a = np.random.default_rng(spawn_seeds(0, 2)[1])
        rng_b = np.random.default_rng(spawn_seeds(1, 2)[0])
        assert not np.allclose(rng_a.random(8), rng_b.random(8))


class TestLogging:
    def test_get_logger_idempotent_handlers(self):
        logger_a = get_logger("repro.test")
        logger_b = get_logger("repro.test")
        assert logger_a is logger_b
        assert len(logger_a.handlers) == 1

    def test_metric_logger_history_and_best(self):
        logger = MetricLogger("demo")
        logger.log(0, loss=1.0, acc=0.5)
        logger.log(1, loss=0.5, acc=0.8)
        logger.log(2, loss=0.7, acc=0.7)
        assert logger.last()["loss"] == 0.7
        assert logger.best("loss", mode="min")["epoch"] == 1
        assert logger.best("acc", mode="max")["epoch"] == 1
        assert "loss" in logger.as_table()

    def test_metric_logger_errors(self):
        logger = MetricLogger()
        with pytest.raises(IndexError):
            logger.last()
        logger.log(0, loss=1.0)
        with pytest.raises(KeyError):
            logger.best("nonexistent")

    def test_empty_table(self):
        assert MetricLogger().as_table() == "(empty)"


class TestSerialization:
    def test_checkpoint_roundtrip(self, tmp_path):
        state = {"layer.weight": np.random.default_rng(0).normal(size=(4, 3)),
                 "layer.bias": np.zeros(3)}
        path = save_checkpoint(tmp_path / "model.npz", state, metadata={"dim": 4})
        loaded, metadata = load_checkpoint(path)
        assert metadata == {"dim": 4}
        for key, value in state.items():
            np.testing.assert_allclose(loaded[key], value)

    def test_checkpoint_without_metadata(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2)})
        _, metadata = load_checkpoint(path)
        assert metadata == {}

    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        payload = {"acc": np.float64(0.93), "count": np.int64(5), "values": np.arange(3)}
        path = save_json(tmp_path / "results.json", payload)
        loaded = load_json(path)
        assert loaded["acc"] == pytest.approx(0.93)
        assert loaded["count"] == 5
        assert loaded["values"] == [0, 1, 2]

    def test_model_state_dict_roundtrip_through_checkpoint(self, tmp_path):
        from repro.nn import MLP, Tensor

        model = MLP([3, 4, 1], rng=0)
        path = save_checkpoint(tmp_path / "mlp.npz", model.state_dict())
        clone = MLP([3, 4, 1], rng=1)
        state, _ = load_checkpoint(path)
        clone.load_state_dict(state)
        x = Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)


class TestCheckpointValidation:
    def test_schema_stamp_roundtrip(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2)},
                               schema="demo", version=3)
        state, _ = load_checkpoint(path, schema="demo", version=3)
        np.testing.assert_allclose(state["w"], np.ones(2))

    def test_wrong_schema_raises(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2)}, schema="demo")
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path, schema="other")

    def test_legacy_archive_rejected_when_schema_required(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2)})
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path, schema="demo")

    def test_version_mismatch_raises(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2)},
                               schema="demo", version=1)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, schema="demo", version=2)

    def test_missing_and_unexpected_keys_raise(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", {"w": np.ones(2), "extra": np.ones(1)})
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path, expected_keys={"w", "b"})
        message = str(excinfo.value)
        assert "missing=['b']" in message and "unexpected=['extra']" in message

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_reserved_key_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            save_checkpoint(tmp_path / "m.npz", {"__metadata__": np.ones(1)})

    def test_validate_state_keys_passes_on_exact_match(self):
        validate_state_keys({"a": 1, "b": 2}, {"a", "b"})
        with pytest.raises(CheckpointError):
            validate_state_keys({"a": 1}, {"a", "b"})


class TestTiming:
    def test_timed_context(self):
        store = {}
        with timed(store, "phase"):
            time.sleep(0.005)
        assert store["phase"] >= 0.005
        with timed(store, "phase"):
            pass
        assert store["phase"] >= 0.005  # accumulates

    def test_timed_records_when_the_body_raises(self):
        store = {}
        with pytest.raises(RuntimeError):
            with timed(store, "failing"):
                raise RuntimeError("boom")
        assert store["failing"] >= 0.0

    def test_timed_keys_are_independent(self):
        store = {"other": 1.5}
        with timed(store, "phase"):
            pass
        assert store["other"] == 1.5
        assert 0.0 <= store["phase"] < 1.5

    def test_timed_adds_to_a_preset_total(self):
        store = {"phase": 10.0}
        with timed(store, "phase"):
            pass
        assert 10.0 <= store["phase"] < 11.0
