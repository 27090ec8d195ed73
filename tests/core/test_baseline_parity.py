"""ParaGraph and DLPL-Cap train through the one :class:`Trainer`.

Parity with the retired full-graph loop (``tests/oracles/baseline_trainer.py``):
on the same model seed, designs and RNG draw order (training batches first,
then each scored design in turn, one RNG per baseline) the two paths must
agree byte for byte on every parameter and BatchNorm running statistic, on
the per-epoch losses and on the scores, labels and targets of a design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Trainer, build_design_batch, score_design_batch
from repro.models import DLPLCap, ParaGraph
from repro.utils.rng import get_rng

from ..oracles.baseline_trainer import BaselineTrainer

EPOCHS = 3


def assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model_cls", [ParaGraph, DLPLCap])
@pytest.mark.parametrize("task", ["link", "edge_regression", "node_regression"])
def test_trainer_matches_baseline_trainer_oracle(task, model_cls, small_design,
                                                 small_test_design, tiny_config):
    # Two training designs, so each epoch takes two steps through the
    # warmup and the cosine schedule.
    train_designs = [small_design, small_test_design]

    oracle = BaselineTrainer(model_cls(dim=12, num_layers=2, rng=0), task=task,
                             config=tiny_config.train, data_config=tiny_config.data)
    oracle.fit(train_designs, epochs=EPOCHS)
    expected = [oracle.predict(design) for design in (small_test_design, small_design)]

    model = model_cls(dim=12, num_layers=2, rng=0)
    rng = get_rng(tiny_config.train.seed)
    batches = [build_design_batch(design, task, tiny_config.data, rng=rng)
               for design in train_designs]
    history = Trainer(model, task=task, config=tiny_config.train).fit(batches, epochs=EPOCHS)

    assert [row["loss"] for row in history.history] == \
        [row["loss"] for row in oracle.history.history]
    state, oracle_state = model.state_dict(), oracle.model.state_dict()
    assert list(state) == list(oracle_state)
    assert any("running_mean" in name for name in state)
    for name, value in state.items():
        assert_bytes_equal(value, oracle_state[name])

    for design, (scores, labels, targets) in zip((small_test_design, small_design), expected):
        batch = build_design_batch(design, task, tiny_config.data, rng=rng)
        assert_bytes_equal(score_design_batch(model, batch, task), scores)
        assert_bytes_equal(batch.labels, labels)
        assert_bytes_equal(batch.targets, targets)
