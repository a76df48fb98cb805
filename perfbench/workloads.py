"""The benchmark workloads: inputs from a seed, one timed iteration, the
output checks and a digest of the output.

Each workload is a closed loop of one caller in one process.  It calls the
package through its public entry points (``ric_bounds.cli.main`` and
``ric_bounds.empirical_ric``) and records, at the cli boundary only, the
results and latency of each bound or empirical call it makes.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import time
from contextlib import ExitStack, contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import ric_bounds
from ric_bounds import cli, reference_tables
from ric_bounds.bounds_simple import (
    BOUND_KINDS,
    KIND_LOWER_LIFTED,
    KIND_LOWER_SIMPLE,
    KIND_UPPER_LIFTED,
    KIND_UPPER_SIMPLE,
)
from ric_bounds.empirical import MODE_EXHAUSTIVE, MODE_SAMPLED

# The seed at which `sweep` runs the exact default grid, so that the
# embedded reference tables apply to every cell.
DEFAULT_SEED = 0
# Largest seed-keyed shift of each alpha and rho on other seeds.
GRID_JITTER = 0.02

# Acceptance tolerances against the reference tables.
SIMPLE_TOL = 5e-4
LIFTED_TOL = 5e-3

_LIFTED = (KIND_UPPER_LIFTED, KIND_LOWER_LIFTED)
_CSV_FIELDS = cli.CSV_HEADER.split(",")


@dataclass
class Outcome:
    """One workload iteration.

    ``failed`` counts failed operations out of ``attempted``; ``problems``
    lists broken invariants, which make the run incorrect.
    """

    wall_s: float
    cpu_s: float
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    cell_s: list[float] = field(default_factory=list)  # lifted solves called from cli
    supports: int = 0


@contextmanager
def _cli_boundary():
    """Record (name, args, result, seconds) of each bound or empirical call
    made by the cli, without changing what it computes."""
    calls: list[tuple] = []

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((name, args, result, time.perf_counter() - t0))
            return result
        return wrapper

    with ExitStack() as stack:
        for name in ("simple_upper", "simple_lower", "optimize_upper", "optimize_lower",
                     "empirical_ric"):
            original = getattr(cli, name)
            setattr(cli, name, timed(name, original))
            stack.callback(setattr, cli, name, original)
        yield calls


def _timed(root, fn, *args):
    """Run fn(*args) inside root(); return (result, wall s, process CPU s)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    with root():
        result = fn(*args)
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0


def _run_cli(argv, root):
    out, err = io.StringIO(), io.StringIO()
    with _cli_boundary() as calls, redirect_stdout(out), redirect_stderr(err):
        rc, wall, cpu = _timed(root, cli.main, argv)
    return rc, out.getvalue(), calls, wall, cpu


def _cell_times(calls) -> list[float]:
    return [sec for name, _a, _r, sec in calls if name in ("optimize_upper", "optimize_lower")]


def _trials_digest(uric, lric) -> str:
    return hashlib.sha256(repr((uric.per_trial, lric.per_trial)).encode()).hexdigest()


# --- sweep -------------------------------------------------------------------


def sweep_grid(seed: int, smoke: bool = False) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The default grid at DEFAULT_SEED, else each alpha and rho shifted by
    a seed-keyed offset of at most GRID_JITTER (rounded to 4 decimals)."""
    alphas, rhos = tuple(cli.DEFAULT_ALPHAS), tuple(cli.DEFAULT_RHOS)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        alphas = tuple(round(a + rng.uniform(-GRID_JITTER, GRID_JITTER), 4) for a in alphas)
        rhos = tuple(round(r + rng.uniform(-GRID_JITTER, GRID_JITTER), 4) for r in rhos)
    if smoke:  # one cell per kind, at a shape the reference tables carry
        alphas, rhos = alphas[2:3], rhos[1:2]
    return alphas, rhos


def _reference_miss(kind: str, value: float, reference: float) -> bool:
    delta = value - reference
    if kind in (KIND_UPPER_SIMPLE, KIND_LOWER_SIMPLE):
        return abs(delta) > SIMPLE_TOL
    if kind == KIND_UPPER_LIFTED:  # only an overshoot of the reference fails
        return delta > LIFTED_TOL
    return abs(delta) > LIFTED_TOL


def check_sweep(csv_text: str, rc: int, calls, alphas, rhos) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, broken invariants) of one sweep.

    A row fails if it has an error, has converged=false, misses its
    reference cell or breaks dominance over its simple bound.  Dominance,
    the exact mirror identity of the simple bounds, the row layout and
    the exit code are invariants.
    """
    cells = [(a, r, k) for a in alphas for r in rhos for k in BOUND_KINDS]
    lines = csv_text.splitlines()
    if not lines or lines[0] != cli.CSV_HEADER or len(lines) != len(cells) + 1:
        return len(cells), len(cells), ["sweep CSV does not have one row per cell"]
    problems: list[str] = []
    values: dict[tuple, float | None] = {}
    rows = []
    for line, (a, r, kind) in zip(lines[1:], cells):
        row = dict(zip(_CSV_FIELDS, line.split(",")))
        if row["kind"] != kind or float(row["alpha"]) != a or float(row["rho"]) != r:
            problems.append(f"row out of grid order: {line}")
        values[(a, r, kind)] = float(row["value"]) if row["value"] else None
        rows.append((a, r, kind, row))

    failed = 0
    any_unconverged = False
    for a, r, kind, row in rows:
        value = values[(a, r, kind)]
        bad = value is None or row["converged"] != "true"
        any_unconverged |= bad
        reference = reference_tables.reference_for_kind(kind, a, r)
        if value is not None and reference is not None and _reference_miss(kind, value, reference):
            bad = True
        if value is not None and kind in _LIFTED:
            floor = values[(a, r, KIND_UPPER_SIMPLE if kind == KIND_UPPER_LIFTED
                            else KIND_LOWER_SIMPLE)]
            worse = floor is not None and (value > floor if kind == KIND_UPPER_LIFTED
                                           else value < floor)
            if worse:
                bad = True
                problems.append(f"{kind} at alpha={a} rho={r} is worse than its simple bound")
        failed += bad
    if rc != (3 if any_unconverged else 0):
        problems.append(f"sweep exit code {rc} does not match its rows")

    simple: dict[tuple, dict] = {}
    for name, args, result, _sec in calls:
        if name in ("simple_upper", "simple_lower"):
            simple.setdefault((args[0].alpha, args[0].beta), {})[name] = result.value
    for shape, pair in simple.items():
        if pair.get("simple_upper", 0.0) + pair.get("simple_lower", 0.0) != 2.0:
            problems.append(f"simple bounds at {shape} do not sum to 2 exactly")
    return len(cells), failed, problems


def sweep(seed: int, smoke: bool = False, root=nullcontext) -> Outcome:
    alphas, rhos = sweep_grid(seed, smoke)
    argv = ["sweep"]
    if smoke or seed != DEFAULT_SEED:
        argv += ["--alphas", *map(str, alphas), "--rhos", *map(str, rhos)]
    rc, out, calls, wall, cpu = _run_cli(argv, root)
    attempted, failed, problems = check_sweep(out, rc, calls, alphas, rhos)
    return Outcome(wall, cpu, hashlib.sha256(out.encode()).hexdigest(), attempted, failed,
                   problems, cell_s=_cell_times(calls))


# --- empirical ---------------------------------------------------------------


def _check_estimates(estimates, mode: str, trials: int, supports: int) -> list[str]:
    problems = []
    for est in estimates:
        if est.mode != mode:
            problems.append(f"{est.quantity} mode is {est.mode}, expected {mode}")
        if est.supports_per_trial != supports or len(est.per_trial) != trials:
            problems.append(f"{est.quantity} covers {len(est.per_trial)} trials x "
                            f"{est.supports_per_trial} supports, expected {trials} x {supports}")
    uric, lric = estimates
    if not all(u >= l > 0.0 for u, l in zip(uric.per_trial, lric.per_trial)):
        problems.append("a trial breaks uric >= lric > 0")
    return problems


def empirical_exhaustive(seed: int, smoke: bool = False, root=nullcontext) -> Outcome:
    m, n, k, trials = 20, 40, 4, 1 if smoke else 20
    argv = ["empirical", "--m", str(m), "--n", str(n), "--k", str(k),
            "--trials", str(trials), "--seed", str(seed)]
    rc, out, calls, wall, cpu = _run_cli(argv, root)
    estimates = [res for name, _a, res, _s in calls if name == "empirical_ric"]
    if len(estimates) != 1:
        return Outcome(wall, cpu, "", 1, 1, ["empirical_ric was not called exactly once"])
    uric, lric = estimates[0]
    problems = _check_estimates((uric, lric), MODE_EXHAUSTIVE, trials, math.comb(n, k))
    lines = out.splitlines()
    if not lines or f"mode: {MODE_EXHAUSTIVE}" not in lines[0]:
        problems.append("empirical output does not report mode exhaustive")
    if "verdict: PASS" not in lines:
        problems.append("empirical sandwich verdict is not PASS")
    if rc != 0:
        problems.append(f"empirical exit code {rc}")
    return Outcome(wall, cpu, _trials_digest(uric, lric), 1, int(bool(problems)), problems,
                   cell_s=_cell_times(calls), supports=uric.supports_per_trial * trials)


def empirical_sampled(seed: int, smoke: bool = False, root=nullcontext) -> Outcome:
    m, n, k = 40, 80, 8
    trials, budget = (1, 2000) if smoke else (20, 20000)
    (uric, lric), wall, cpu = _timed(root, ric_bounds.empirical_ric, m, n, k, trials, budget, seed)
    problems = _check_estimates((uric, lric), MODE_SAMPLED, trials, budget)
    return Outcome(wall, cpu, _trials_digest(uric, lric), 1, int(bool(problems)), problems,
                   supports=budget * trials)


# name -> (run one iteration, layer of the root span around the call)
WORKLOADS = {
    "sweep": (sweep, "cli"),
    "empirical-exhaustive": (empirical_exhaustive, "cli"),
    "empirical-sampled": (empirical_sampled, "empirical.empirical_ric"),
}
