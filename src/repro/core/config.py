"""Experiment configuration objects (the GraphGym-style config files of the paper).

The original implementation drives experiments from YAML configuration files;
here the same role is played by plain dataclasses with sensible defaults that
can be overridden per experiment / benchmark.  ``ExperimentConfig.fast()``
returns a configuration small enough for CI-style runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

__all__ = ["ModelConfig", "TrainConfig", "DataConfig", "ExperimentConfig"]


@dataclass(frozen=True)
class ModelConfig:
    """CircuitGPS model hyper-parameters."""

    dim: int = 48
    num_layers: int = 3
    pe_kind: str = "dspd"
    pe_hidden: int = 8
    mpnn: str = "gatedgcn"
    attention: str = "transformer"
    num_heads: int = 4
    dropout: float = 0.1
    stats_dim: int = 13


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyper-parameters."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 3e-3
    weight_decay: float = 1e-5
    grad_clip: float = 2.0
    warmup_epochs: int = 1
    min_lr: float = 1e-5
    seed: int = 0


@dataclass(frozen=True)
class DataConfig:
    """Dataset construction parameters."""

    scale: float = 0.5
    max_links_per_design: int = 400
    hops: int = 1
    node_hops: int = 2
    max_nodes_per_hop: int = 30
    negative_ratio: float = 1.0
    balance: bool = True
    inject_links: bool = True
    cap_min: float = 1e-21
    cap_max: float = 1e-15
    max_nodes_per_design: int | None = 400   # cap on node-regression targets per design
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of model / training / data configuration."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    name: str = "circuitgps"

    def as_dict(self) -> dict:
        """The configuration as a nested plain dict (checkpoint metadata).

        It holds experiment identity only: worker counts are per-machine
        runtime settings (``AnnotationEngine(workers=)``, ``annotate
        --workers``) and are not part of the configuration.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """Rebuild a configuration from :meth:`as_dict` output (checkpoint metadata).

        Unknown keys are ignored so configurations saved by newer revisions
        (with extra fields) still load.
        """

        def pick(dataclass_type, values):
            known = {f.name for f in fields(dataclass_type)}
            return dataclass_type(**{k: v for k, v in (values or {}).items() if k in known})

        return cls(
            model=pick(ModelConfig, payload.get("model")),
            train=pick(TrainConfig, payload.get("train")),
            data=pick(DataConfig, payload.get("data")),
            name=payload.get("name", "circuitgps"),
        )

    def with_model(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given :class:`ModelConfig` fields replaced."""
        return replace(self, model=replace(self.model, **kwargs))

    def with_train(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given :class:`TrainConfig` fields replaced."""
        return replace(self, train=replace(self.train, **kwargs))

    def with_data(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given :class:`DataConfig` fields replaced."""
        return replace(self, data=replace(self.data, **kwargs))

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """The paper's default configuration."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """A configuration sized for quick functional runs (tests, examples)."""
        return cls(
            model=ModelConfig(dim=32, num_layers=2, num_heads=4, dropout=0.05),
            train=TrainConfig(epochs=6, batch_size=64, lr=3e-3),
            data=DataConfig(scale=0.35, max_links_per_design=150, max_nodes_per_hop=20,
                            max_nodes_per_design=150),
            name="circuitgps-fast",
        )

    @classmethod
    def benchmark(cls) -> "ExperimentConfig":
        """The configuration used by the benchmark harness (paper-table runs)."""
        return cls(
            model=ModelConfig(dim=48, num_layers=2, num_heads=4, dropout=0.1),
            train=TrainConfig(epochs=10, batch_size=64, lr=3e-3),
            data=DataConfig(scale=0.5, max_links_per_design=250, max_nodes_per_hop=25,
                            max_nodes_per_design=250),
            name="circuitgps-bench",
        )
