"""numpy stays off the bounds path, and the public names stay reachable.

The bounds are scalar Python; only the empirical oracle uses numpy, and
``import ric_bounds`` loads it on first use of an empirical name.  The
bounds path also keeps off the stdlib modules that cost most of a cold
start (``dataclasses`` with ``inspect``, ``typing``,
``importlib.resources``, ``csv``).  The pytest process has all of these
loaded already, so each check on sys.modules runs in a fresh isolated
interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ric_bounds

SRC = str(Path(ric_bounds.__file__).resolve().parents[1])

# Runs `statement` in a fresh interpreter with the cli's stdout discarded,
# then prints whether numpy was imported and the modules that the
# statement loaded, beyond those the interpreter had before it.
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
print(json.dumps(["numpy" in sys.modules, sorted(set(sys.modules) - before)]))
"""

BOUND = ["bound", "--kind", "upper-lifted", "--alpha", "0.5", "--rho", "0.3"]
SWEEP = ["sweep", "--alphas", "0.5", "--rhos", "0.3"]
EMPIRICAL = ["empirical", "--m", "5", "--n", "8", "--k", "2", "--trials", "1"]


# Stdlib modules the bounds path does not load.  Under -I the site
# module may load some of them before the statement runs; -S loads none.
STDLIB_KEPT_OFF = ("dataclasses", "inspect", "typing", "importlib.resources", "csv")


def probe(statement: str, flags: tuple[str, ...] = ("-I",)) -> tuple[bool, list[str]]:
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, SRC, statement],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def numpy_loaded_after(statement: str) -> bool:
    return probe(statement)[0]


@pytest.mark.parametrize("statement", [
    "import ric_bounds",
    "import ric_bounds.cli",
    f"from ric_bounds import cli; assert cli.main({BOUND!r}) == 0",
    f"from ric_bounds import cli; assert cli.main({SWEEP!r}) == 0",
], ids=["import", "import-cli", "bound", "sweep"])
def test_bounds_path_leaves_numpy_unloaded(statement):
    assert numpy_loaded_after(statement) is False


@pytest.mark.parametrize("flags", [("-I",), ("-I", "-S")], ids=["site", "no-site"])
@pytest.mark.parametrize("statement", [
    "import ric_bounds; from ric_bounds import reference_tables; reference_tables.entries()",
    f"from ric_bounds import cli; assert cli.main({BOUND!r}) == 0",
    f"from ric_bounds import cli; assert cli.main({SWEEP!r}) == 0",
], ids=["import-and-tables", "bound", "sweep"])
def test_bounds_path_keeps_heavy_stdlib_unloaded(statement, flags):
    _numpy, new_modules = probe(statement, flags)
    assert "ric_bounds" in new_modules
    assert [name for name in STDLIB_KEPT_OFF if name in new_modules] == []


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
