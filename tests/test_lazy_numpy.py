"""numpy stays off the bounds path, and the public names stay reachable.

The bounds are scalar Python; only the empirical oracle uses numpy, and
``import ric_bounds`` loads it on first use of an empirical name.  The
pytest process has numpy loaded already, so each check on sys.modules
runs in a fresh isolated interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ric_bounds

SRC = str(Path(ric_bounds.__file__).resolve().parents[1])

# Runs `statement` in a fresh interpreter with the cli's stdout discarded,
# then prints whether numpy was imported.
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
print(json.dumps("numpy" in sys.modules))
"""

BOUND = ["bound", "--kind", "upper-lifted", "--alpha", "0.5", "--rho", "0.3"]
SWEEP = ["sweep", "--alphas", "0.5", "--rhos", "0.3"]
EMPIRICAL = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "1"]


def numpy_loaded_after(statement: str) -> bool:
    proc = subprocess.run([sys.executable, "-I", "-c", PROBE, SRC, statement],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("statement", [
    "import ric_bounds",
    "import ric_bounds.cli",
    f"from ric_bounds import cli; assert cli.main({BOUND!r}) == 0",
    f"from ric_bounds import cli; assert cli.main({SWEEP!r}) == 0",
], ids=["import", "import-cli", "bound", "sweep"])
def test_bounds_path_leaves_numpy_unloaded(statement):
    assert numpy_loaded_after(statement) is False


def test_empirical_usage_error_leaves_numpy_unloaded():
    rejected = EMPIRICAL[:-1] + ["0"]  # --trials 0
    assert numpy_loaded_after(f"from ric_bounds import cli; assert cli.main({rejected!r}) == 2") is False


def test_empirical_subcommand_loads_numpy():
    assert numpy_loaded_after(f"from ric_bounds import cli; assert cli.main({EMPIRICAL!r}) == 0")


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        for name in ric_bounds.__all__:
            assert getattr(ric_bounds, name) is not None, name

    def test_from_import_of_empirical_names(self):
        from ric_bounds import GaussianMatrix, empirical_ric

        assert callable(empirical_ric) and isinstance(GaussianMatrix, type)

    def test_lazy_names_are_the_empirical_objects(self):
        from ric_bounds import empirical

        for name in ("EmpiricalEstimate", "GaussianMatrix", "empirical_ric", "sample_matrix"):
            assert getattr(ric_bounds, name) is getattr(empirical, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ric_bounds.no_such_name  # noqa: B018
