"""The benchmark's `sweep` inputs give pinned outputs: the SHA-256 of
`ric-bounds sweep` stdout on ``perfbench.workloads.sweep_grid(seed)`` at
seeds 0-9 (seed 0 is the default grid) and each grid's count of rows with
converged=false.  The default grid is also pinned under two non-default
configs: criterion 10's flags and a bracket widened to c3 <= 1e150, and
its full-precision JSON is pinned as well.  A change to the solver that
moves any byte of a row, or turns a row converged or non-converged, shows
here before it shows as a changed digest or failure share in a benchmark
run.  The digests hold on
the platform libm they were taken with (see ROADMAP, item 6's "Not
checked")."""

import csv
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, sweep_grid

from ric_bounds import cli

# seed: (SHA-256 of stdout, rows with converged=false)
PINNED = {
    0: ("d4582dd3121c482f78e154d1a1c0d4dd67dc2d3614aba41f76f8cf25fa9f4d23", 7),
    1: ("a8356aa0bdd57bcc07fc66549cf418801ff89f0e8757d640ce61a6533eb54413", 6),
    2: ("0d7429523fd1961bfbdb3298be8e0d8fb9412432e0412ed56cb1e3a340c3ca41", 7),
    3: ("25443a2f4ff659ad8bcdc6ee3bae0c3e7d22c388f8a7bf60ba953f1da44aff8b", 7),
    4: ("4104a1073b51b88e5d777713258f6ce46f27b290e2fd3af235a059330d90d773", 7),
    5: ("a7d4ed57a908884f5ec1d96752594b59cd63b666b66eec7dcbabb35a54a746ab", 7),
    6: ("5942a5c58a3eaabf1d321eb72842fc15e603b869c995f3a52a229975337d32a6", 7),
    7: ("eae004865b386480d6273759b2e8d050180783f97ffd25aac75aeb7e29a84980", 7),
    8: ("c59b7d459b52a37bc51115e48df0d3c34857ab931f519bd67249051d4097a7f7", 7),
    9: ("8317bb053e3bd37073eecef85e90ef330a458a948eea1cd511f3a2c16a34cd31", 7),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sweep_output_is_pinned(seed):
    alphas, rhos = sweep_grid(seed)
    argv = ["sweep"]
    if seed != DEFAULT_SEED:
        argv += ["--alphas", *map(str, alphas), "--rhos", *map(str, rhos)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    digest, failed = PINNED[seed]
    assert len(rows) == 120 and rc == (3 if failed else 0)
    assert sum(row["converged"] == "false" for row in rows) == failed
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# flags: (SHA-256 of stdout on the default grid, rows with converged=false)
PINNED_CONFIGS = {
    "criterion-10": (["--outer-tol", "1e-3", "--inner-tol", "1e-8", "--max-evals", "4000"],
                     "71282741f0e83d1ea8d0a463aca964089a95c88915c5953c4c01cd36eac504b0", 7),
    "c3-max-1e150": (["--c3-max", "1e150"],
                     "57000cae8dce98b0f743d39e98dfe104f628532370c65b2c5234564e4696ea9b", 0),
}


@pytest.mark.parametrize("config", sorted(PINNED_CONFIGS))
def test_non_default_config_output_is_pinned(config):
    flags, digest, failed = PINNED_CONFIGS[config]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(["sweep", *flags])
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == 120 and rc == (3 if failed else 0)
    assert sum(row["converged"] == "false" for row in rows) == failed
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# SHA-256 of `ric-bounds sweep --format json` stdout on the default grid.
# JSON carries every float at full precision (repr), so this pins value,
# c3, gamma, nu and inner_delta bit for bit where the CSV pins see 6 digits.
PINNED_JSON = "c728391dba74ea0d1ba7daadefa00ecfb44a1faa9910b7b44592741e0599c21c"


def test_default_sweep_json_is_pinned():
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(["sweep", "--format", "json"])
    assert rc == 3
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_JSON
