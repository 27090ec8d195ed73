"""The retired full-graph baseline trainer (parity oracle).

``BaselineTrainer`` trained ParaGraph and DLPL-Cap in a loop of its own:
a copy of ``Trainer.fit``'s cosine schedule, clip-and-step and BatchNorm
recalibration over whole-design batches.  The baselines now train through
:class:`repro.core.Trainer` on :func:`repro.core.build_design_batch`
batches; this verbatim copy is what that path must equal byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import link_pairs_for_design
from repro.core.config import DataConfig, TrainConfig
from repro.core.datasets import CapacitanceNormalizer, DesignData
from repro.core.metrics import classification_metrics, regression_metrics
from repro.models import DLPLCap, FullGraphEncoder, ParaGraph
from repro.nn import (
    Adam,
    BatchNorm1d,
    CosineSchedule,
    bce_with_logits,
    clip_grad_norm,
    mse_loss,
    no_grad,
    stable_sigmoid,
)
from repro.utils.logging import MetricLogger, get_logger
from repro.utils.rng import get_rng

__all__ = ["BaselineTrainer"]

logger = get_logger("repro.trainer")


@dataclass
class _DesignBatch:
    """Cached full-graph inputs plus target pairs/nodes for one design."""

    inputs: dict
    pairs: np.ndarray
    labels: np.ndarray
    targets: np.ndarray


class BaselineTrainer:
    """Full-graph trainer for the ParaGraph and DLPL-Cap baselines."""

    def __init__(self, model, task: str = "link", config: TrainConfig = TrainConfig(),
                 data_config: DataConfig = DataConfig(), rng=None):
        if not isinstance(model, (ParaGraph, DLPLCap)):
            raise TypeError("BaselineTrainer expects a ParaGraph or DLPLCap model")
        if task not in ("link", "edge_regression", "node_regression"):
            raise ValueError(f"unknown task {task!r}")
        self.model = model
        self.task = task
        self.config = config
        self.data_config = data_config
        self.rng = get_rng(rng if rng is not None else config.seed)
        self.normalizer = CapacitanceNormalizer(data_config.cap_min, data_config.cap_max)
        self.optimizer = Adam(list(model.parameters()), lr=config.lr,
                              weight_decay=config.weight_decay)
        self.history = MetricLogger(name=f"baseline-{task}")

    # ------------------------------------------------------------------ #
    def _prepare(self, design: DesignData) -> _DesignBatch:
        inputs = FullGraphEncoder.graph_inputs(design.graph, design.graph.node_stats)
        if self.task == "node_regression":
            caps = design.graph.node_ground_caps
            nodes = [
                i for i in range(design.graph.num_nodes)
                if caps is not None and caps[i] > 0 and self.normalizer.in_range(caps[i])
            ]
            limit = self.data_config.max_nodes_per_design
            if limit is not None and len(nodes) > limit:
                chosen = self.rng.choice(len(nodes), size=limit, replace=False)
                nodes = [nodes[i] for i in chosen]
            nodes = np.array(nodes, dtype=np.int64)
            targets = np.array([self.normalizer.normalize(caps[i]) for i in nodes])
            pairs = np.stack([nodes, nodes], axis=1)
            labels = np.ones(len(nodes))
        else:
            pairs, labels, targets = link_pairs_for_design(
                design, self.data_config, self.normalizer,
                regression=(self.task == "edge_regression"), rng=self.rng,
            )
        return _DesignBatch(inputs=inputs, pairs=pairs, labels=labels, targets=targets)

    def _forward(self, batch: _DesignBatch):
        embeddings = self.model.encode(batch.inputs)
        if self.task == "link":
            return self.model.link_logits(embeddings, batch.pairs)
        if self.task == "edge_regression":
            return self.model.edge_regression(embeddings, batch.pairs)
        return self.model.node_regression(embeddings, batch.pairs[:, 0])

    def fit(self, designs: list[DesignData], epochs: int | None = None,
            verbose: bool = False) -> MetricLogger:
        """Train the baseline on whole-design batches; returns the loss history."""
        epochs = epochs if epochs is not None else self.config.epochs
        batches = [self._prepare(design) for design in designs]
        schedule = CosineSchedule(self.optimizer, total_steps=max(1, epochs * len(batches)),
                                  warmup_steps=len(batches), min_lr=self.config.min_lr)
        self.model.train()
        for epoch in range(epochs):
            losses = []
            for batch in batches:
                predictions = self._forward(batch)
                if self.task == "link":
                    loss = bce_with_logits(predictions, batch.labels)
                else:
                    loss = mse_loss(predictions, batch.targets)
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
                self.optimizer.step()
                schedule.step()
                losses.append(loss.item())
            self.history.log(epoch, loss=float(np.mean(losses)))
            if verbose:
                logger.info("baseline epoch %d: loss=%.4f", epoch, float(np.mean(losses)))
        self._recalibrate_batchnorm(batches)
        return self.history

    def _recalibrate_batchnorm(self, batches: list[_DesignBatch]) -> None:
        """Recompute BatchNorm running statistics over the training designs."""
        batchnorms = [m for m in self.model.modules() if isinstance(m, BatchNorm1d)]
        if not batchnorms or not batches:
            return
        saved = [bn.momentum for bn in batchnorms]
        for bn in batchnorms:
            bn.running_mean = np.zeros_like(bn.running_mean)
            bn.running_var = np.ones_like(bn.running_var)
        self.model.train()
        with no_grad():
            for step, batch in enumerate(batches):
                for bn in batchnorms:
                    bn.momentum = 1.0 / (step + 1)
                self._forward(batch)
        for bn, momentum in zip(batchnorms, saved):
            bn.momentum = momentum

    def predict(self, design: DesignData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (scores, labels, targets) for one design."""
        batch = self._prepare(design)
        self.model.eval()
        with no_grad():
            predictions = self._forward(batch)
        values = predictions.data.copy()
        if self.task == "link":
            values = stable_sigmoid(values)
        return values, batch.labels, batch.targets

    def evaluate(self, design: DesignData) -> dict[str, float]:
        """Task metrics (classification or regression) on one design."""
        scores, labels, targets = self.predict(design)
        if self.task == "link":
            return classification_metrics(scores, labels)
        return regression_metrics(scores, targets)
