"""Extended-precision certificate of the optimized lifted bounds.

Every reported (c3, gamma, nu) of the two reference grids is re-evaluated
from the erfc closed form at 50 digits (``oracles.lifted_value_mp``), a
route disjoint from the package's erfcx path in doubles.  The reported
value must equal it to 1e-13.  The inner solve must also be tight: at the
reported c3, J at the reported (gamma, nu) may exceed min J, found by
Newton on the analytic gradient, by at most 1e-10.  The outer search
must have found a local optimum in c3: moving c3 by a factor 1 +- 1e-3 or
1 +- 0.1, with the inner problem solved again, may improve the bound by at
most inner_tol.  Cells won by the c3 -> 0 limit report the closed form and
carry no (c3, gamma, nu) to check.  The high-rho lower cells, whose
values fall to 1e-15, are certified relative to their size.
"""

import math

import pytest
from mpmath import mp

from ric_bounds import (
    OptimizerConfig,
    ProblemShape,
    i_uric_inner,
    lifted_lower_objective,
    lifted_upper_objective,
    minimize_inner,
    optimize_lower,
)

from oracles import (
    CERT_DPS,
    i_sph_mp,
    inner_gradient_mp,
    inner_minimum_mp,
    inner_objective_mp,
    lifted_value_mp,
)

VALUE_TOL = 1e-13
INNER_GAP_TOL = 1e-10


def _cells(upper_grid, lower_grid):
    """(upper?, alpha, beta, result) of every cell not won by the c3 -> 0 limit."""
    cells = []
    for upper, (results, _elapsed) in ((True, upper_grid), (False, lower_grid)):
        for (alpha, rho), result in sorted(results.items()):
            if result.params.c3 > 0.0:
                cells.append((upper, alpha, ProblemShape.from_rho(alpha, rho).beta, result))
    return cells


def test_reported_values_match_extended_precision(upper_grid, lower_grid):
    cells = _cells(upper_grid, lower_grid)
    assert len(cells) >= 40  # the limit wins only a few flat cells
    worst = 0.0
    with mp.workdps(CERT_DPS):
        for upper, alpha, beta, result in cells:
            p = result.params
            exact = lifted_value_mp(upper, alpha, beta, p.c3, p.gamma, p.nu)
            err = abs(float(result.value - exact))
            worst = max(worst, err)
            assert err <= VALUE_TOL, (upper, alpha, beta, p, err)
    print(f"worst |value - mp value| over {len(cells)} cells: {worst:.2e}")


def test_inner_solves_are_tight(upper_grid, lower_grid):
    """J(reported) - min J <= 1e-10 at the reported c3 on every cell, the
    far ends of the c3 range included: lower (0.1, 0.5) at c3 ~ 37.5 and
    upper (0.9, 0.9) at c3 ~ 0.005."""
    cells = _cells(upper_grid, lower_grid)
    c3s = [result.params.c3 for *_cell, result in cells]
    assert min(c3s) < 0.01 and max(c3s) > 30.0
    worst = 0.0
    with mp.workdps(CERT_DPS):
        for upper, alpha, beta, result in cells:
            p = result.params
            gamma, nu, best = inner_minimum_mp(p.c3, beta, p.gamma, p.nu)
            assert gamma > mp.mpf(p.c3) / 2 and nu > 0, (upper, alpha, beta, p)
            gap = float(inner_objective_mp(p.c3, beta, p.gamma, p.nu) - best)
            worst = max(worst, gap)
            assert -1e-30 <= gap <= INNER_GAP_TOL, (upper, alpha, beta, p, gap)
    print(f"worst inner gap over {len(cells)} cells: {worst:.2e}")


def test_reported_c3_is_locally_optimal(upper_grid, lower_grid):
    """No c3 * (1 +- 1e-3) or c3 * (1 +- 0.1), with (gamma, nu) solved
    again, beats the reported bound by more than inner_tol times its size
    (at most 1).  Besides the reference grids this covers lower (0.3, 0.9)
    searched with c3 up to 1e150, whose maximum of 1.36e-10 at c3 ~ 4.03e8
    a fixed-c3 solve resolves only where it stops relative to K."""
    tol = OptimizerConfig().inner_tol
    cells = _cells(upper_grid, lower_grid)
    far = ProblemShape.from_rho(0.3, 0.9)
    far_result = optimize_lower(far, OptimizerConfig(c3_bracket=(1e-4, 1e150)))
    assert far_result.converged and far_result.params.c3 > 1e8
    cells.append((False, far.alpha, far.beta, far_result))
    margins = {True: math.inf, False: math.inf}
    for upper, alpha, beta, result in cells:
        shape = ProblemShape(alpha, beta)
        objective = lifted_upper_objective if upper else lifted_lower_objective
        for factor in (1.0 - 0.1, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 + 0.1):
            value = objective(result.params.c3 * factor, shape)
            margin = value - result.value if upper else result.value - value
            margins[upper] = min(margins[upper], margin)
            assert margin >= -tol * min(1.0, abs(result.value)), (
                upper, alpha, beta, result.params.c3, factor, margin)
    print(f"smallest margin over {len(cells)} cells: "
          f"upper {margins[True]:.2e}, lower {margins[False]:.2e}")


@pytest.mark.parametrize(
    "c3,beta,gamma,nu",
    [(0.005, 0.81, 0.6, 0.3), (0.4, 0.05, 0.5, 6.0), (37.5, 0.05, 19.0, 0.1), (4.0, 0.3, 2.5, 1.0)],
)
def test_oracle_agrees_with_package_and_numeric_gradient(c3, beta, gamma, nu):
    """The oracle's J matches the package's i_uric_inner, and its analytic
    gradient matches numerical differentiation of its J."""
    with mp.workdps(CERT_DPS):
        exact = inner_objective_mp(c3, beta, gamma, nu)
        assert abs(float(exact) - i_uric_inner(c3, beta, gamma, nu)) <= 1e-13 * max(1.0, abs(exact))
        dg, dn = inner_gradient_mp(c3, beta, gamma, nu)
        num_dg = mp.diff(lambda g: inner_objective_mp(c3, beta, g, nu), mp.mpf(gamma))
        num_dn = mp.diff(lambda n: inner_objective_mp(c3, beta, gamma, n), mp.mpf(nu))
        assert abs(dg - num_dg) < mp.mpf(10) ** -30
        assert abs(dn - num_dn) < mp.mpf(10) ** -30


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_far_lower_maxima_match_extended_precision(alpha):
    """Searched with c3 up to 1e150, lower (alpha, 0.9) peaks at c3 from
    513 (alpha 0.9) to 1.15e13 (alpha 0.1), with values from 1.8e-4 down to
    2.7e-15, where the absolute VALUE_TOL says nothing.  The reported value
    equals the 60-digit value at the reported (c3, delta, nu) to 1e-12
    relative, and it is a local maximum: at c3 (1 +- 0.01), with (gamma, nu)
    solved again at 60 digits, the bound is lower."""
    shape = ProblemShape.from_rho(alpha, 0.9)
    result = optimize_lower(shape, OptimizerConfig(c3_bracket=(1e-4, 1e150)))
    p = result.params
    assert result.converged
    with mp.workdps(60):
        exact = lifted_value_mp(False, alpha, shape.beta, p.c3, p.gamma, p.nu, delta=p.delta)
        assert abs(result.value - exact) <= 1e-12 * abs(exact), (p, float(exact))
        for factor in (0.99, 1.01):
            c3 = mp.mpf(p.c3) * factor
            _g, _n, j = inner_minimum_mp(c3, shape.beta, c3 / 2 + mp.mpf(p.delta) / factor,
                                         mp.mpf(p.nu) / factor)
            neighbour = -(j - c3 / 2 + i_sph_mp(c3, alpha, False)) / mp.sqrt(alpha)
            assert neighbour < exact, (factor, float(neighbour))


def test_fixed_c3_objective_far_out_matches_extended_precision():
    """Lower (0.3, 0.9) peaks at c3 ~ 4.02859e8 with a bound of 1.36e-10.
    There the fixed-c3 objective equals the bound minimized over
    (gamma, nu) at 60 digits to 1e-9 relative: the inner solve stops on a
    decrement relative to K, not on one absolute at inner_tol = 1e-10,
    which once ended 4.7% below it."""
    shape = ProblemShape.from_rho(0.3, 0.9)
    c3 = 4.02859e8
    value = lifted_lower_objective(c3, shape)
    p = minimize_inner(c3, shape.beta).best_params
    with mp.workdps(60):
        c = mp.mpf(c3)
        _g, _n, j = inner_minimum_mp(c, shape.beta, c / 2 + mp.mpf(p.delta), mp.mpf(p.nu))
        best = -(j - c / 2 + i_sph_mp(c, shape.alpha, False)) / mp.sqrt(shape.alpha)
        assert abs(value - best) <= 1e-9 * abs(best), (value, float(best))


@pytest.mark.parametrize("alpha", [0.1, 0.3])
def test_edge_values_are_minimized_relative_to_their_scale(alpha):
    """Lower (0.1, 0.9) and (0.3, 0.9) peak past 4 hi = 4e7 for hi = 1e7,
    so the run stops there, non-converged, with V about 1e-9: an inner stop
    absolute at inner_tol = 1e-10 would end far above min V there.  The
    reported value equals the 60-digit bound minimized over (gamma, nu) at
    c3 = 4e7 to 1e-10 relative."""
    shape = ProblemShape.from_rho(alpha, 0.9)
    result = optimize_lower(shape, OptimizerConfig(c3_bracket=(1e-4, 1e7)))
    p = result.params
    assert p.c3 == 4e7 and not result.converged
    with mp.workdps(60):
        c3 = mp.mpf(p.c3)
        _g, _n, j = inner_minimum_mp(c3, shape.beta, c3 / 2 + mp.mpf(p.delta), mp.mpf(p.nu))
        best = -(j - c3 / 2 + i_sph_mp(c3, alpha, False)) / mp.sqrt(alpha)
        assert abs(result.value - best) <= 1e-10 * abs(best), (result.value, float(best))
