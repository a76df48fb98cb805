"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (visible under ``pytest -s`` or on failure).

Criterion 9a is unattainable in principle for a double-precision erf;
see its docstring and assertion message for the numeric argument.  It is
asserted exactly as stated rather than loosened.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ric_bounds import (
    LiftedParams,
    ProblemShape,
    big_i_uric,
    empirical_ric,
    erf,
    erfc,
    erfcx,
    erfinv,
    i_uric_inner,
    lifted_lower_objective,
    lifted_upper_objective,
    optimize_lower,
    optimize_upper,
    simple_lower,
    simple_upper,
)
from ric_bounds.reference_tables import lookup

from conftest import ALPHAS, LOWER_RHOS, UPPER_RHOS, child_env
from oracles import lower_value_from_inner, moment_monte_carlo

UPPER_SIMPLE_TABLE = {0.1: 1, 0.3: 1, 0.5: 1, 0.7: 2, 0.9: 2}
UPPER_LIFTED_TABLE = {0.1: 3, 0.3: 3, 0.5: 3, 0.7: 4, 0.9: 4}


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_simple_upper_grid():
    """25 closed-form upper cells within +-5e-4, in under a second."""
    start = time.perf_counter()
    deltas = []
    for rho, table in UPPER_SIMPLE_TABLE.items():
        for alpha in ALPHAS:
            value = simple_upper(ProblemShape.from_rho(alpha, rho)).value
            deltas.append(abs(value - lookup(table, alpha, rho, "xi_uric_u")))
    elapsed = time.perf_counter() - start
    ok = max(deltas) <= 5e-4 and elapsed < 1.0
    _report(1, ok, f"worst delta {max(deltas):.2e}, {elapsed * 1000:.0f} ms")
    assert max(deltas) <= 5e-4
    assert elapsed < 1.0


def test_criterion_02_simple_lower_grid():
    """20 closed-form lower cells within +-5e-4, negatives included."""
    start = time.perf_counter()
    worst = 0.0
    worst_cell = None
    for rho in LOWER_RHOS:
        for alpha in ALPHAS:
            value = simple_lower(ProblemShape.from_rho(alpha, rho)).value
            delta = abs(value - lookup(5, alpha, rho, "xi_lric_l"))
            if delta > worst:
                worst, worst_cell = delta, (alpha, rho)
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-4 and elapsed < 1.0
    _report(2, ok, f"worst delta {worst:.2e} at {worst_cell}, {elapsed * 1000:.0f} ms")
    assert elapsed < 1.0
    assert worst <= 5e-4, f"worst delta {worst:.2e} at (alpha, rho)={worst_cell}"


def test_criterion_03_lifted_upper_grid(upper_grid):
    """25 optimized upper cells within +5e-3 (strictly better accepted,
    flagged), full grid under 60 s."""
    results, elapsed = upper_grid
    overshoots = []
    better = []
    for rho, table in UPPER_LIFTED_TABLE.items():
        for alpha in ALPHAS:
            reference = lookup(table, alpha, rho, "xi_uric_u_low")
            result = results[(alpha, rho)]
            assert result.converged, (alpha, rho)
            overshoots.append(result.value - reference)
            if result.value < reference - 5e-3:
                better.append((alpha, rho, result.value, reference))
    ok = max(overshoots) <= 5e-3 and elapsed < 60.0
    flag = f", strictly-better cells flagged: {better}" if better else ""
    _report(3, ok, f"worst overshoot {max(overshoots):.2e}, {elapsed:.1f} s{flag}")
    assert max(overshoots) <= 5e-3
    assert elapsed < 60.0


def test_criterion_04_lifted_lower_grid(lower_grid):
    """20 optimized lower cells within +-5e-3, plus direct evaluation at
    the tabulated (c3, gamma, nu) triples matching 18 of 20; under 60 s."""
    results, elapsed = lower_grid
    deltas = []
    for rho in LOWER_RHOS:
        for alpha in ALPHAS:
            reference = lookup(7, alpha, rho, "xi_lric_l_lift")
            result = results[(alpha, rho)]
            assert result.converged, (alpha, rho)
            deltas.append(abs(result.value - reference))

    triple_hits = 0
    for rho in LOWER_RHOS:
        for alpha in ALPHAS:
            shape = ProblemShape.from_rho(alpha, rho)
            c3 = lookup(7, alpha, rho, "c3_opt")
            nu = lookup(7, alpha, rho, "nu_opt")
            gamma = lookup(7, alpha, rho, "gamma_opt")
            value = lower_value_from_inner(c3, shape, i_uric_inner(c3, shape.beta, gamma, nu))
            if abs(value - lookup(7, alpha, rho, "xi_lric_l_lift")) <= 5e-3:
                triple_hits += 1

    ok = max(deltas) <= 5e-3 and triple_hits >= 18 and elapsed < 60.0
    _report(4, ok, f"worst delta {max(deltas):.2e}, triples {triple_hits}/20, {elapsed:.1f} s")
    assert max(deltas) <= 5e-3
    assert triple_hits >= 18
    assert elapsed < 60.0


def test_criterion_05_limit_identities():
    """Objectives at c3 = 1e-4 match the closed forms within 1e-3 on both grids."""
    worst = 0.0
    for rho in UPPER_RHOS:
        for alpha in ALPHAS:
            shape = ProblemShape.from_rho(alpha, rho)
            worst = max(
                worst, abs(lifted_upper_objective(1e-4, shape) - simple_upper(shape).value)
            )
    for rho in LOWER_RHOS:
        for alpha in ALPHAS:
            shape = ProblemShape.from_rho(alpha, rho)
            worst = max(
                worst, abs(lifted_lower_objective(1e-4, shape) - simple_lower(shape).value)
            )
    _report(5, worst <= 1e-3, f"worst limit gap {worst:.2e}")
    assert worst <= 1e-3


def test_criterion_06_dominance(upper_grid, lower_grid):
    """Optimized bounds never lose to the closed forms beyond 1e-6."""
    upper_results, _ = upper_grid
    lower_results, _ = lower_grid
    worst_upper = max(
        result.value - simple_upper(ProblemShape.from_rho(alpha, rho)).value
        for (alpha, rho), result in upper_results.items()
    )
    worst_lower = max(
        simple_lower(ProblemShape.from_rho(alpha, rho)).value - result.value
        for (alpha, rho), result in lower_results.items()
    )
    ok = worst_upper <= 1e-6 and worst_lower <= 1e-6
    _report(6, ok, f"upper slack {worst_upper:.2e}, lower slack {worst_lower:.2e}")
    assert worst_upper <= 1e-6
    assert worst_lower <= 1e-6


def test_criterion_07_moment_against_monte_carlo():
    """Closed-form exponential moment within 3 standard errors of a
    10^7-sample Monte Carlo at 10 randomized feasible points."""
    rng = np.random.default_rng(1729)
    misses = []
    for i in range(10):
        c3 = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        p = float(rng.uniform(0.02, 0.2))  # p < 1/4 keeps the MC variance finite
        gamma = c3 / (4.0 * p)
        nu = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        mean, se = moment_monte_carlo(c3, gamma, nu, samples=10_000_000, seed=9000 + i)
        value = big_i_uric(LiftedParams(c3, gamma, nu))
        if abs(value - mean) > 3.0 * se:
            misses.append((c3, gamma, nu, value, mean, se))
    _report(7, not misses, f"10 points, misses: {misses}")
    assert not misses


def test_criterion_08_empirical_sandwich():
    """(m, n, k) = (20, 40, 4), 20 exhaustive trials: finite-size means sit
    inside the optimized bounds with 0.10 slack; under 5 minutes."""
    start = time.perf_counter()
    uric, lric = empirical_ric(20, 40, 4, trials=20, support_budget=100_000, seed=1)
    shape = ProblemShape(0.5, 0.1)
    upper = optimize_upper(shape)
    lower = optimize_lower(shape)
    elapsed = time.perf_counter() - start
    assert uric.mode == "exhaustive" and uric.supports_per_trial == 91390
    upper_ok = uric.mean <= upper.value + 0.10
    lower_ok = lric.mean >= lower.value - 0.10
    ok = upper_ok and lower_ok and elapsed < 300.0
    _report(
        8,
        ok,
        f"uric {uric.mean:.4f} <= {upper.value + 0.10:.4f}, "
        f"lric {lric.mean:.4f} >= {lower.value - 0.10:.4f}, {elapsed:.0f} s",
    )
    assert upper_ok
    assert lower_ok
    assert elapsed < 300.0


def test_criterion_09a_erfinv_round_trip():
    """|erfinv(erf(x)) - x| <= 1e-10 on 1000 uniform points of [-4, 4].

    Known-red: rounding erf(x) to the nearest double already perturbs the
    exact preimage by up to 0.5 ulp(1) * sqrt(pi)/2 * e^{x^2}, which is
    ~4.4e-10 at |x| = 4.  The implementation sits at that conditioning
    floor (its round-trip error equals the floor to 7 digits), but the
    floor itself exceeds 1e-10 at ~22 of the 1000 grid points, so the
    stated tolerance is unattainable for any double-precision erf.
    """
    xs = np.linspace(-4.0, 4.0, 1000)
    errors = np.array([abs(erfinv(erf(float(x))) - float(x)) for x in xs])
    over = int((errors > 1e-10).sum())
    ok = over == 0
    _report(9, ok, f"round-trip worst {errors.max():.2e}, {over}/1000 points over 1e-10")
    assert over == 0, (
        f"max round-trip error {errors.max():.2e} with {over}/1000 points above 1e-10; "
        "the double-rounding conditioning floor at |x|~4 is ~4.4e-10, so this "
        "tolerance cannot be met on this interval by construction"
    )


def test_criterion_09b_erfcx_stable_path():
    """erfcx equals e^{x^2} erfc(x) to 1e-10 relative across [0, 5]."""
    worst = 0.0
    for x in np.linspace(0.0, 5.0, 1000):
        x = float(x)
        direct = math.exp(x * x) * erfc(x)
        worst = max(worst, abs(erfcx(x) - direct) / erfcx(x))
    _report(9, worst <= 1e-10, f"stable-path worst relative gap {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_10_deterministic_sweep():
    """Two identical full-sweep invocations emit byte-identical CSV."""
    argv = [
        sys.executable, "-m", "ric_bounds.cli", "sweep",
        "--outer-tol", "1e-3", "--inner-tol", "1e-8", "--max-evals", "4000",
    ]
    # Exit code 3 is expected: the lower family's optimum runs past the
    # upper end of the searched c3 range at the high-rho cells the
    # reference grids omit, and those rows are annotated as non-converged.
    # The criterion is about byte determinism of the CSV, which must hold
    # regardless.
    first = subprocess.run(argv, capture_output=True, env=child_env())
    second = subprocess.run(argv, capture_output=True, env=child_env())
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    lines = first.stdout.decode().count("\n")
    _report(10, ok, f"{lines} CSV lines, byte-identical: {first.stdout == second.stdout}")
    assert first.returncode in (0, 3) and first.returncode == second.returncode
    assert first.stdout == second.stdout
    assert lines == 121  # header + 5 alphas x 6 rhos x 4 kinds
