"""Training and evaluation loops.

:class:`Trainer` is the one training loop.  It trains CircuitGPS on sampled
enclosing subgraphs (link prediction, edge regression, node regression),
given as a :class:`~repro.core.data.SubgraphDataset`, a
:class:`~repro.core.data.DataLoader` or a plain ``list[Subgraph]``.  It
trains the ParaGraph / DLPL-Cap baselines on a list of
:class:`DesignBatch` es: as in the paper, each baseline consumes a whole
circuit graph and its circuit-statistics matrix, with no sampling or
positional encoding (:func:`build_design_batch`,
:func:`score_design_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import balance_links, permute_negative_links
from ..graph.hetero import Link
from ..models import CircuitGPS, FullGraphEncoder
from ..nn import Adam, BatchNorm1d, CosineSchedule, clip_grad_norm, no_grad, stable_sigmoid
from ..utils.logging import MetricLogger, get_logger
from ..nn.dtypes import FLOAT64
from ..utils.rng import get_rng
from .config import DataConfig, TrainConfig
from .data import DataLoader, SubgraphDataset, as_dataset
from .datasets import CapacitanceNormalizer, DesignData

__all__ = [
    "Trainer",
    "DesignBatch",
    "build_design_batch",
    "link_pairs_for_design",
    "score_design_batch",
]

logger = get_logger("repro.trainer")


class Trainer:
    """Mini-batch trainer for CircuitGPS-style subgraph models.

    ``task`` may be a legacy task string (``"link"``, ``"edge_regression"``,
    ``"node_regression"``), a spec dict or a :class:`repro.api.Task`
    instance — strings resolve through the :data:`repro.api.TASKS` registry,
    so registered custom tasks train with no trainer changes.  Loss,
    prediction transform and the metric bundle all dispatch through the task
    object.
    """

    def __init__(self, model: CircuitGPS, task="link",
                 config: TrainConfig = TrainConfig(), parameters=None, rng=None):
        from ..api.tasks import resolve_task

        self.task_obj = resolve_task(task)  # ValueError for unknown names
        self.task = self.task_obj.name
        self.model = model
        self.config = config
        self.rng = get_rng(rng if rng is not None else config.seed)
        params = list(parameters) if parameters is not None else list(model.parameters())
        self.parameters = [p for p in params if p.requires_grad]
        self.optimizer = Adam(self.parameters, lr=config.lr, weight_decay=config.weight_decay)
        self.schedule: CosineSchedule | None = None
        self._pending_schedule_state: dict | None = None
        self.history = MetricLogger(name=f"{task}-train")

    # ------------------------------------------------------------------ #
    # Serialisation: optimizer moments + LR-schedule position, so resumed
    # training does not silently restart Adam from zeroed moments.
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``str -> array`` map of optimizer and schedule state."""
        state = {f"optimizer.{key}": np.asarray(value)
                 for key, value in self.optimizer.state_dict().items()}
        if self.schedule is not None:
            schedule_state = self.schedule.state_dict()
        else:
            # Restored but not yet resumed: re-saving must not drop the
            # loaded schedule position.
            schedule_state = self._pending_schedule_state or {}
        state.update({f"schedule.{key}": np.asarray(value)
                      for key, value in schedule_state.items()})
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict`.

        Schedule state is applied when :meth:`fit` (re)creates the schedule,
        so a restored trainer resumes the LR curve where it left off.  Raises
        ``ValueError`` if the optimizer state does not fit this trainer's
        parameter list.
        """
        self.optimizer.load_state_dict(
            {key[len("optimizer."):]: value for key, value in state.items()
             if key.startswith("optimizer.")}
        )
        schedule_state = {key[len("schedule."):]: value for key, value in state.items()
                          if key.startswith("schedule.")}
        if schedule_state:
            self._pending_schedule_state = schedule_state
            if self.schedule is not None:
                self.schedule.load_state_dict(schedule_state)

    # ------------------------------------------------------------------ #
    def _loss(self, batch) -> tuple:
        predictions = self.task_obj.forward(self.model, batch)
        loss = self.task_obj.loss(predictions, batch)
        return loss, predictions

    def _loader(self, data, shuffle: bool, batch_size: int | None = None,
                rng=None) -> DataLoader:
        """Normalise data (loader / dataset / list) into a :class:`DataLoader`."""
        if isinstance(data, DataLoader):
            return data
        return DataLoader(
            as_dataset(data),
            batch_size=batch_size if batch_size is not None else self.config.batch_size,
            shuffle=shuffle,
            rng=rng,
        )

    def fit(self, train_data, val_data=None,
            epochs: int | None = None, verbose: bool = False) -> MetricLogger:
        """Train for ``epochs`` epochs; returns the metric history.

        ``train_data`` / ``val_data`` may be a :class:`DataLoader`, a
        :class:`SubgraphDataset` or a plain list of subgraphs.  ``train_data``
        may also be a list of :class:`DesignBatch` es, one step each, taken
        in the given order every epoch (no shuffle, no draw from ``rng``).
        """
        epochs = epochs if epochs is not None else self.config.epochs
        batches = (train_data if _is_design_batches(train_data)
                   else self._loader(train_data, shuffle=True, rng=self.rng))
        steps_per_epoch = max(1, len(batches))
        schedule = CosineSchedule(
            self.optimizer,
            total_steps=epochs * steps_per_epoch,
            warmup_steps=self.config.warmup_epochs * steps_per_epoch,
            min_lr=self.config.min_lr,
        )
        if self._pending_schedule_state is not None:
            schedule.load_state_dict(self._pending_schedule_state)
            self._pending_schedule_state = None
        self.schedule = schedule
        self.model.train()
        for epoch in range(epochs):
            losses = []
            for batch in batches:
                loss, _ = self._loss(batch)
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.parameters, self.config.grad_clip)
                self.optimizer.step()
                schedule.step()
                losses.append(loss.item())
            row = {"loss": float(np.mean(losses))}
            if val_data is not None and len(as_dataset(val_data)):
                row.update({f"val_{k}": v for k, v in self.evaluate(val_data).items()})
                self.model.train()
            self.history.log(epoch, **row)
            if verbose:
                logger.info("epoch %d: %s", epoch, row)
        self.recalibrate_batchnorm(batches)
        return self.history

    def recalibrate_batchnorm(self, data) -> None:
        """Re-estimate BatchNorm running statistics on the training set.

        Training runs are short (tens of steps), so the exponential running
        averages used at evaluation time lag far behind the batch statistics
        seen during training, which mis-calibrates logits and regressed
        values.  After fitting, one streaming pass recomputes the running
        mean/variance as the *cumulative* average over the training batches.
        ``data`` is what :meth:`fit` accepts; a list of :class:`DesignBatch`
        es is passed over in order.
        """
        batchnorms = [m for m in self.model.modules() if isinstance(m, BatchNorm1d)]
        if _is_design_batches(data):
            batches = data
        else:
            batches = DataLoader(data, batch_size=self.config.batch_size, shuffle=False)
        if not batchnorms or not len(batches):
            return
        saved_momentum = [bn.momentum for bn in batchnorms]
        for bn in batchnorms:
            bn.running_mean = np.zeros_like(bn.running_mean)
            bn.running_var = np.ones_like(bn.running_var)
        self.model.train()
        with no_grad():
            for step, batch in enumerate(batches):
                for bn in batchnorms:
                    bn.momentum = 1.0 / (step + 1)
                self.task_obj.forward(self.model, batch)
        for bn, momentum in zip(batchnorms, saved_momentum):
            bn.momentum = momentum

    def predict(self, data) -> np.ndarray:
        """Scores (probabilities for link, normalised capacitances for regression)."""
        self.model.eval()
        loader = self._loader(data, shuffle=False,
                              batch_size=max(self.config.batch_size, 128))
        outputs = []
        with no_grad():
            for batch in loader:
                predictions = self.task_obj.forward(self.model, batch)
                outputs.append(predictions.data.copy())
        values = np.concatenate(outputs) if outputs else np.zeros(0)
        # The task maps raw outputs to scores: sigmoid probabilities for
        # classification, [0, 1]-clipped values for regression.
        return self.task_obj.predict(values)

    def evaluate(self, data) -> dict[str, float]:
        """Task-appropriate metric bundle on ``data``."""
        dataset = as_dataset(data)
        scores = self.predict(dataset)
        return self.task_obj.metrics(scores, dataset)


# --------------------------------------------------------------------------- #
# Whole-design batches (the ParaGraph / DLPL-Cap baselines)
# --------------------------------------------------------------------------- #
def link_pairs_for_design(design: DesignData, config: DataConfig = DataConfig(),
                          normalizer: CapacitanceNormalizer | None = None,
                          regression: bool = False, rng=None
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced (pairs, labels, targets) arrays for full-graph baselines."""
    rng = get_rng(rng if rng is not None else config.seed)
    normalizer = normalizer or CapacitanceNormalizer(config.cap_min, config.cap_max)
    positives = list(design.graph.links)
    if regression:
        positives = [l for l in positives if normalizer.in_range(l.capacitance)]
    positives = balance_links(positives, rng=rng)
    if config.max_links_per_design is not None and len(positives) > config.max_links_per_design:
        chosen = rng.choice(len(positives), size=config.max_links_per_design, replace=False)
        positives = [positives[i] for i in chosen]
    ratio = 0.25 if regression else config.negative_ratio
    negatives = permute_negative_links(positives, design.graph.num_nodes, ratio=ratio,
                                       rng=rng, strict=False)
    links: list[Link] = positives + negatives
    pairs = np.array([[l.source, l.target] for l in links], dtype=np.int64)
    labels = np.array([l.label for l in links], dtype=FLOAT64)
    targets = np.array([normalizer.normalize(l.capacitance) for l in links], dtype=FLOAT64)
    order = rng.permutation(len(links))
    return pairs[order], labels[order], targets[order]


@dataclass
class DesignBatch:
    """One design as one batch: whole-graph encoder inputs plus the target
    pairs (a node-regression pair repeats its node), labels and normalised
    capacitance targets."""

    inputs: dict
    pairs: np.ndarray
    labels: np.ndarray
    targets: np.ndarray


def _is_design_batches(data) -> bool:
    return isinstance(data, list) and bool(data) and isinstance(data[0], DesignBatch)


def build_design_batch(design: DesignData, task: str, config: DataConfig = DataConfig(),
                       rng=None) -> DesignBatch:
    """The whole-design batch of ``task`` on ``design`` for ParaGraph / DLPL-Cap.

    Link tasks take the balanced pairs of :func:`link_pairs_for_design`;
    node regression takes up to ``config.max_nodes_per_design`` nodes whose
    ground capacitance is in range.  Raises ``ValueError`` for any task
    other than ``"link"``, ``"edge_regression"`` and ``"node_regression"``.
    """
    if task not in ("link", "edge_regression", "node_regression"):
        raise ValueError(f"unknown task {task!r}")
    rng = get_rng(rng if rng is not None else config.seed)
    normalizer = CapacitanceNormalizer(config.cap_min, config.cap_max)
    inputs = FullGraphEncoder.graph_inputs(design.graph, design.graph.node_stats)
    if task == "node_regression":
        caps = design.graph.node_ground_caps
        nodes = [
            i for i in range(design.graph.num_nodes)
            if caps is not None and caps[i] > 0 and normalizer.in_range(caps[i])
        ]
        limit = config.max_nodes_per_design
        if limit is not None and len(nodes) > limit:
            chosen = rng.choice(len(nodes), size=limit, replace=False)
            nodes = [nodes[i] for i in chosen]
        nodes = np.array(nodes, dtype=np.int64)
        targets = np.array([normalizer.normalize(caps[i]) for i in nodes])
        pairs = np.stack([nodes, nodes], axis=1)
        labels = np.ones(len(nodes))
    else:
        pairs, labels, targets = link_pairs_for_design(
            design, config, normalizer, regression=(task == "edge_regression"), rng=rng,
        )
    return DesignBatch(inputs=inputs, pairs=pairs, labels=labels, targets=targets)


def score_design_batch(model, batch: DesignBatch, task: str) -> np.ndarray:
    """Eval-mode scores of a baseline ``model`` on one whole-design batch.

    Link scores are sigmoid probabilities.  Regression scores are the raw
    normalised values: unlike :meth:`Trainer.predict` they are not clipped
    to [0, 1].
    """
    model.eval()
    with no_grad():
        values = model(batch, task=task).data.copy()
    return stable_sigmoid(values) if task == "link" else values
