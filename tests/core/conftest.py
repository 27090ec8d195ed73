"""Shared fixtures for the annotation-service test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CircuitGPSPipeline, build_model
from repro.core.serve import AnnotationEngine
from repro.netlist import ssram, write_spice
from repro.utils import seed_all


@pytest.fixture(scope="session")
def server_engine(tiny_config):
    """A serving engine for the daemon tests with hub subsampling off.

    ``max_nodes_per_hop=None`` makes extraction RNG-free, so a request's
    records do not depend on how its links are chunked.
    """
    seed_all(0)
    config = tiny_config.with_data(max_nodes_per_hop=None)
    link_model = build_model(config)
    reg_model = build_model(config)
    pipeline = CircuitGPSPipeline.from_models(
        config, link_model, heads={("edge_regression", "all"): reg_model})
    return AnnotationEngine(pipeline, workers=0)


@pytest.fixture(scope="session")
def server_spice() -> str:
    """SPICE text of a small SSRAM macro, as a client would send it."""
    return write_spice(ssram(rows=4, cols=2).flatten())


@pytest.fixture(scope="session")
def server_rng():
    return np.random.default_rng(11)
