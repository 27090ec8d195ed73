"""train_link: link-prediction pretraining through ``Trainer.fit``.

Set-up builds the training designs (``load_design_suite``) and a fixed
seeded set of ``build_link_samples`` subgraphs (sampling datapipes, negative
sampling, PE), the same set for every run seed.  Each op is one
``Trainer.fit`` call — ``EPOCHS`` epochs plus the BatchNorm recalibration
pass — on a freshly initialised model of the serving checkpoint's shape.

This is the only workload that runs autograd backward and the optimizer,
and its forward runs with grad enabled, so a forward optimisation that
costs backward shows here.  Step latency is read from the loader: the time
between successive batch requests is one load + forward + backward + step.
A host-speed probe (``harness.Pace``) runs after each step, outside the
step's time and the fit's.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

import harness

EPOCHS = 2
BATCH = 16
SCALE = 0.25
LINKS_PER_DESIGN = 40


def configs(size: str):
    from repro.core.config import DataConfig, ExperimentConfig, TrainConfig

    backbone = harness.CHECKPOINT_SPEC["backbone"]
    base = ExperimentConfig().with_model(dim=backbone["dim"],
                                         num_layers=backbone["num_layers"])
    links = LINKS_PER_DESIGN if size == "full" else 12
    return (base, DataConfig(max_links_per_design=links),
            TrainConfig(epochs=EPOCHS, batch_size=BATCH if size == "full" else 8))


def build_samples(size: str, tracer=None):
    """The set-up: design suite, then link samples for every training design.

    The sample set is the same for every run seed: which links come out
    positive decides the subgraph sizes, and with them most of a step's
    cost.  The run seed picks the model initialisation and batch order.
    """
    from repro.core import build_link_samples, load_design_suite
    from repro.core.data import default_pe_cache
    from repro.netlist import TRAIN_DESIGNS

    _, data, _ = configs(size)
    names = TRAIN_DESIGNS if size == "full" else TRAIN_DESIGNS[:1]
    # A fresh process pays every PE once; earlier repeats must not warm it.
    default_pe_cache().clear()
    span = tracer.span if tracer is not None else contextlib.nullcontext
    with span("setup.designs_s"):
        designs = load_design_suite(scale=SCALE, seed=0, names=names, use_cache=False)
    rngs = np.random.default_rng(0).spawn(len(designs))
    with span("graph.sample_s"):
        return [sample for design, rng in zip(designs.values(), rngs)
                for sample in build_link_samples(design, data, rng=rng)]


def step_timed_loader(samples, batch_size: int, seed: int, pace=None):
    """A shuffling :class:`DataLoader` that records the time of every step,
    and takes a ``pace`` probe after each one, outside its time."""
    from repro.core import DataLoader

    class StepTimedLoader(DataLoader):
        def __iter__(self):
            start = time.perf_counter()
            for batch in super().__iter__():
                yield batch
                self.steps.append(time.perf_counter() - start)
                if pace is not None:
                    self.probes.append(pace.probe())
                start = time.perf_counter()

    loader = StepTimedLoader(samples, batch_size=batch_size, shuffle=True, rng=seed)
    loader.steps, loader.probes = [], []
    return loader


def new_trainer(size: str, seed: int):
    from repro.core import Trainer, build_model

    base, _, train = configs(size)
    model = build_model(base, rng=seed)
    return Trainer(model, task="link", config=train, rng=seed)


def fit(samples, size: str, seed: int, pace=None):
    """The measured op; returns (per-epoch losses, step times, the probe
    taken after each step, trainer)."""
    trainer = new_trainer(size, seed)
    loader = step_timed_loader(samples, trainer.config.batch_size, seed, pace)
    history = trainer.fit(loader)
    return [row["loss"] for row in history.history], loader.steps, loader.probes, trainer


def fit_traced(samples, size: str, seed: int, tracer):
    """``Trainer.fit`` spelled out layer by layer, one span per layer."""
    from repro.core import DataLoader
    from repro.nn import CosineSchedule, clip_grad_norm

    trainer = new_trainer(size, seed)
    config, model = trainer.config, trainer.model
    loader = DataLoader(samples, batch_size=config.batch_size, shuffle=True, rng=seed)
    epoch_losses = []
    with tracer.op():
        steps = max(1, len(loader))
        schedule = CosineSchedule(trainer.optimizer, total_steps=config.epochs * steps,
                                  warmup_steps=config.warmup_epochs * steps,
                                  min_lr=config.min_lr)
        trainer.schedule = schedule
        model.train()
        for _ in range(config.epochs):
            losses, batches = [], iter(loader)
            while True:
                with tracer.span("data.load_s"):
                    batch = next(batches, None)
                if batch is None:
                    break
                with tracer.span("models.forward_s"):
                    predictions = trainer.task_obj.forward(model, batch)
                with tracer.span("nn.loss_s"):
                    loss = trainer.task_obj.loss(predictions, batch)
                with tracer.span("nn.backward_s"):
                    trainer.optimizer.zero_grad()
                    loss.backward()
                with tracer.span("nn.optim_s"):
                    clip_grad_norm(trainer.parameters, config.grad_clip)
                    trainer.optimizer.step()
                    schedule.step()
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)))
        with tracer.span("train.bn_recal_s"):
            trainer.recalibrate_batchnorm(loader.dataset)
    return epoch_losses, trainer


def same_weights(a, b) -> bool:
    return all(np.array_equal(p.data, q.data)
               for p, q in zip(a.model.parameters(), b.model.parameters()))


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> harness.Outcome:
    outcome = harness.Outcome()
    op_seeds = np.random.default_rng([seed, 4])
    if trace:
        return _run_traced(outcome, seconds, size, op_seeds)

    pace = harness.Pace()
    window = harness.Window(lambda: build_samples(size), seconds, pace)
    samples = window.result
    fit(samples, size, int(op_seeds.integers(2 ** 31)), pace)  # warm-up
    durations, fit_probes, steps, probes = [], [], [], []
    window.open()
    while window.running():
        start = time.perf_counter()
        losses, op_steps, op_probes, _ = fit(samples, size, int(op_seeds.integers(2 ** 31)),
                                             pace)
        durations.append(time.perf_counter() - start - sum(op_probes))
        fit_probes.append(float(np.mean(op_probes)))
        steps.extend(op_steps)
        probes.extend(op_probes)
        outcome.attempted += 1
        if not all(np.isfinite(losses)):
            outcome.fail(f"fit {outcome.attempted}: non-finite loss {losses}")
    # A fit holds tens of steps, so it is scaled by its own probes alone.
    scaled = pace.calibrate(durations, fit_probes, radius=0)
    summary = harness.latency_summary(pace.calibrate(steps, probes))
    links = [EPOCHS * len(samples)] * len(durations)
    wall = pace.wall_notes(window.wall_setup_s, links, durations, fit_probes)
    wall.update({key: value for key, value in harness.latency_summary(steps).items()
                 if key.startswith("latency")})
    outcome.metrics.update(
        setup_s=window.setup_s,
        links_per_s=harness.block_rate(links, scaled),
        latency_p50_s=summary["latency_p50_s"],
        latency_p90_s=summary["latency_p90_s"],
        peak_rss_mb=harness.vm_hwm_mb(),
    )
    outcome.notes.update(fits=len(durations), steps=len(steps), samples=len(samples),
                         beyond_p90=summary["beyond_p90"], wall=wall)
    return outcome


def _run_traced(outcome, seconds, size, op_seeds):
    """Each untraced fit is replayed traced from the same seeds; the replica
    must reproduce its per-epoch losses and final weights exactly."""
    tracer = harness.Tracer()
    samples = build_samples(size, tracer)
    fit_traced(samples, size, 0, harness.Tracer())  # warm-up
    untraced = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op_seed = int(op_seeds.integers(2 ** 31))
        start = time.perf_counter()
        losses, _, _, trainer = fit(samples, size, op_seed)
        untraced += time.perf_counter() - start
        traced_losses, traced_trainer = fit_traced(samples, size, op_seed, tracer)
        outcome.attempted += 1
        if not all(np.isfinite(losses)):
            outcome.fail(f"fit {outcome.attempted}: non-finite loss {losses}")
        elif traced_losses != losses or not same_weights(trainer, traced_trainer):
            outcome.fail(f"fit {outcome.attempted}: traced replica differs from Trainer.fit")
    outcome.metrics.update(tracer.ledger())
    outcome.metrics.update({
        "work.subgraph_nodes_mean": float(np.mean([s.num_nodes for s in samples])),
        "work.subgraph_edges_mean": float(np.mean([s.num_edges for s in samples])),
        "trace.overhead": tracer.op_seconds / untraced - 1.0,
    })
    outcome.notes.update(traced_fits=tracer.ops, samples=len(samples),
                         designs_s=tracer.setup_totals.get("setup.designs_s"))
    return outcome
