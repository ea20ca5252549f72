"""Shared fixtures: the standard cosine model at weak coupling."""

import os

# One BLAS thread unless the caller chose a count: the suite's dense work
# (root tracking's 120-site LDL^T factorizations above all) gains nothing
# from a second thread and burns twice the CPU.  This must run before numpy
# is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    box_around,
)


def pytest_configure(config):
    # a silent complex-to-real cast would drop an imaginary part unseen,
    # and a singular LU would hand inf or NaN to a gate unseen
    for category in ("numpy.exceptions.ComplexWarning",
                     "scipy.linalg.LinAlgWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")


# pytest's ``pythonpath`` setting reaches this process only; tests that run
# ``python -m qplab.cli`` in a subprocess need the source tree as well.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets its own eigendecomposition cache directory."""
    monkeypatch.setenv("QPLAB_CACHE_DIR", str(tmp_path / "eig-cache"))


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
