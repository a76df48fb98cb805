import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/oracles.py importable

import ric_bounds
from ric_bounds import ProblemShape, optimize_lower, optimize_upper


def child_env() -> dict[str, str]:
    """This environment with the directory of the imported ric_bounds first
    on PYTHONPATH, so a child ``python -m ric_bounds.cli`` runs the package
    under test, installed or not."""
    src = str(Path(ric_bounds.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


UPPER_RHOS = (0.1, 0.3, 0.5, 0.7, 0.9)
LOWER_RHOS = (0.05, 0.1, 0.3, 0.5)
ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@pytest.fixture(scope="session")
def upper_grid():
    """Optimized upper bounds over the 25-cell reference grid, with wall time."""
    start = time.perf_counter()
    results = {
        (alpha, rho): optimize_upper(ProblemShape.from_rho(alpha, rho))
        for rho in UPPER_RHOS
        for alpha in ALPHAS
    }
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def lower_grid():
    """Optimized lower bounds over the 20-cell reference grid, with wall time."""
    start = time.perf_counter()
    results = {
        (alpha, rho): optimize_lower(ProblemShape.from_rho(alpha, rho))
        for rho in LOWER_RHOS
        for alpha in ALPHAS
    }
    return results, time.perf_counter() - start
