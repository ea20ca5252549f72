"""Shared fixtures: the standard cosine model at weak coupling."""

import os
from pathlib import Path

import numpy as np
import pytest

from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    box_around,
)

# pytest's ``pythonpath`` setting reaches this process only; tests that run
# ``python -m qplab.cli`` in a subprocess need the source tree as well.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def cosine_potential():
    return PotentialSpec.cosine()


@pytest.fixture(scope="session")
def saturating_kernel():
    return HoppingKernel.saturating(1.0, 2.0)


@pytest.fixture(scope="session")
def golden_frequency():
    return FrequencyVector.golden()


@pytest.fixture(scope="session")
def weak_model(cosine_potential, saturating_kernel, golden_frequency):
    """Cosine potential, golden rotation, eps = 1e-3."""
    return ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                     1e-3)


@pytest.fixture()
def small_window():
    return box_around(np.zeros(1), 16)
