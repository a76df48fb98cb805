"""Nested derivative-free search: inner solves, outer optimization,
determinism, dominance, and local-optimality certificates."""

import math
import random

import pytest

from ric_bounds import (
    OptimizerConfig,
    ProblemShape,
    i_uric_inner,
    minimize_inner,
    optimize_lower,
    optimize_upper,
    optimizer,
    simple_lower,
    simple_upper,
)
from ric_bounds.bounds_lifted import lower_value_from_inner, upper_value_from_inner
from ric_bounds.bounds_simple import KIND_LOWER_LIFTED, KIND_UPPER_LIFTED

from oracles import nelder_mead_lists

# The inner config of the criterion-10 sweep argv (--multistart 2 ...).
CRITERION_10_CONFIG = OptimizerConfig(
    multistart_grid=2, outer_tol=1e-3, inner_tol=1e-8, max_evals=4000
)


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.inner_tol == 1e-10
        assert cfg.outer_tol == 1e-6
        assert cfg.multistart_grid == 4
        assert cfg.c3_bracket == (1e-4, 64.0)
        assert cfg.max_evals == 20000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_tol": 0.0},
            {"outer_tol": -1.0},
            {"c3_bracket": (1.0, 0.5)},
            {"c3_bracket": (0.0, 2.0)},
            {"multistart_grid": 0},
            {"max_evals": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestMinimizeInner:
    def test_reproduces_tabulated_upper_optimum(self):
        """(c3, beta) from the upper grid corner: both the minimizer location
        and the assembled bound match the published row."""
        report = minimize_inner(0.2577, 0.01)
        assert report.converged
        assert report.best_params.gamma == pytest.approx(0.1866, abs=2e-3)
        assert report.best_params.nu == pytest.approx(11.375, rel=2e-3)
        value = upper_value_from_inner(0.2577, ProblemShape(0.1, 0.01), report.best_value)
        assert value == pytest.approx(1.8525, abs=5e-3)

    def test_reproduces_tabulated_lower_optimum(self):
        """(c3, beta) from the lower grid (alpha=0.1 column of the rho=0.3 row)."""
        report = minimize_inner(4.0283, 0.03)
        assert report.best_params.gamma == pytest.approx(2.0184, rel=2e-3)
        assert report.best_params.nu == pytest.approx(1.5926, rel=2e-3)
        value = lower_value_from_inner(4.0283, ProblemShape(0.1, 0.03), report.best_value)
        assert value == pytest.approx(0.0510, abs=5e-3)

    def test_best_not_worse_than_any_seed(self):
        c3, beta = 0.7, 0.2
        report = minimize_inner(c3, beta)
        grid = [1e-3 * (30.0 / 1e-3) ** (i / 3.0) for i in range(4)]
        for g in grid:
            for nu in grid:
                seed_value = i_uric_inner(c3, beta, c3 / 2.0 + g, nu)
                assert report.best_value <= seed_value + 1e-12

    def test_feasible_by_construction(self):
        for c3 in (1e-4, 0.5, 8.0, 60.0):
            report = minimize_inner(c3, 0.1)
            assert report.best_params.gamma > c3 / 2.0
            assert report.best_params.nu >= 0.0

    def test_budget_and_restart_accounting(self):
        cfg = OptimizerConfig(max_evals=160)
        report = minimize_inner(0.5, 0.1, cfg)
        assert report.restarts_used == 16
        assert report.evaluations <= cfg.max_evals

    def test_rejects_nonpositive_c3(self):
        with pytest.raises(ValueError):
            minimize_inner(0.0, 0.1)


class TestOptimizeUpper:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.7, 0.07, 1.6798), (0.9, 0.81, 2.0522), (0.5, 0.25, 2.1948)],
    )
    def test_reference_cells(self, alpha, beta, expected):
        result = optimize_upper(ProblemShape(alpha, beta))
        assert result.kind == KIND_UPPER_LIFTED
        assert result.converged
        assert result.value <= expected + 5e-3
        assert result.value >= expected - 5e-3  # no silent large overshoot either

    def test_flat_cell_sits_at_tiny_c3(self):
        """At alpha=0.9, rho=0.9 the optimized bound equals the closed form
        to four decimals and the optimum is nearly degenerate."""
        result = optimize_upper(ProblemShape(0.9, 0.81))
        assert result.params.c3 < 0.05
        assert result.value <= simple_upper(ProblemShape(0.9, 0.81)).value + 1e-6


class TestOptimizeLower:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.5, 0.05, 0.3618), (0.9, 0.45, 0.0590), (0.9, 0.045, 0.5278)],
    )
    def test_reference_cells(self, alpha, beta, expected):
        result = optimize_lower(ProblemShape(alpha, beta))
        assert result.kind == KIND_LOWER_LIFTED
        assert result.converged
        assert result.value == pytest.approx(expected, abs=5e-3)


class TestSearchProperties:
    def test_determinism(self):
        shape = ProblemShape(0.3, 0.09)
        a = optimize_upper(shape)
        b = optimize_upper(shape)
        assert a == b  # bit-identical values, params, and bookkeeping

    @pytest.mark.parametrize("alpha,rho", [(0.1, 0.9), (0.5, 0.5), (0.9, 0.05)])
    def test_never_worse_than_limit(self, alpha, rho):
        shape = ProblemShape.from_rho(alpha, rho)
        assert optimize_upper(shape).value <= simple_upper(shape).value + 1e-6
        assert optimize_lower(shape).value >= simple_lower(shape).value - 1e-6

    def test_local_optimality_certificate(self):
        """Relative +-1e-4 coordinate perturbations at the returned optimum
        must not improve the assembled objective by more than inner_tol."""
        shape = ProblemShape(0.5, 0.05)
        cfg = OptimizerConfig()
        result = optimize_upper(shape, cfg)
        c3, gamma, nu = result.params.c3, result.params.gamma, result.params.nu

        def objective(c3_, gamma_, nu_):
            return upper_value_from_inner(c3_, shape, i_uric_inner(c3_, shape.beta, gamma_, nu_))

        base = objective(c3, gamma, nu)
        for dc, dg, dn in (
            (1e-4, 0, 0), (-1e-4, 0, 0),
            (0, 1e-4, 0), (0, -1e-4, 0),
            (0, 0, 1e-4), (0, 0, -1e-4),
        ):
            perturbed = objective(c3 * (1 + dc), gamma * (1 + dg), nu * (1 + dn))
            assert perturbed >= base - cfg.inner_tol


class TestEdgeBehavior:
    def test_high_rho_lower_reports_nonconvergence(self):
        """Past the tabulated regime the lower objective keeps creeping up
        toward its c3 -> infinity limit; the widen-once rule must surface
        that as converged=False while still returning a valid bound."""
        shape = ProblemShape.from_rho(0.1, 0.7)
        cfg = OptimizerConfig(multistart_grid=2, outer_tol=1e-3, inner_tol=1e-8, max_evals=4000)
        result = optimize_lower(shape, cfg)
        assert not result.converged
        assert result.value >= simple_lower(shape).value - 1e-6

    def test_bound_result_params_presence_contract(self):
        from ric_bounds import BoundResult, LiftedParams

        with pytest.raises(ValueError):
            BoundResult(kind="upper-simple", value=1.5, params=LiftedParams(0.1, 0.5, 1.0))
        with pytest.raises(ValueError):
            BoundResult(kind="upper-lifted", value=1.5, params=None)
        with pytest.raises(ValueError):
            BoundResult(kind="sideways", value=1.5)
        with pytest.raises(ValueError):
            BoundResult(kind="upper-simple", value=0.5)  # upper bounds are >= 1


class TestSimplexMatchesReference:
    """The 2-D tuple simplex must round exactly like the list-based
    reference in ``oracles``: same points, values, counts and flags."""

    TEST_FUNCTIONS = {
        "quadratic": lambda x: (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 2.0) ** 2,
        "rosenbrock": lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        # Plateaus (ties in the sort) and an infeasible wall, where
        # contractions fail and the budget can run out mid-shrink.
        "steps": lambda x: math.floor(x[0] ** 2 + x[1] ** 2),
        "l1-rounded": lambda x: round(abs(x[0]) + abs(x[1]), 1),
        "wall": lambda x: math.inf if x[0] > 0.7 else (x[0] - 3.0) ** 2 + x[1] ** 2,
    }

    @staticmethod
    def _bits(result):
        x, fx, evals, converged = result
        return [float(c).hex() for c in x], float(fx).hex(), evals, converged

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    def test_nelder_mead_on_test_functions(self, name):
        f = self.TEST_FUNCTIONS[name]
        for max_evals in range(1, 41):
            for x0 in ((0.0, -0.0), (-2.5, 1.5), (1.75, -0.5), (3.0, 3.0)):
                new = optimizer._nelder_mead(f, x0, 0.5, 1e-10, max_evals)
                ref = nelder_mead_lists(f, x0, 0.5, 1e-10, max_evals)
                assert self._bits(new) == self._bits(ref), (max_evals, x0)

    @pytest.mark.parametrize(
        "config",
        [
            OptimizerConfig(),
            CRITERION_10_CONFIG,
            # One start, so the 7- and 40-evaluation budgets bind inside
            # the simplex and it stops after an expansion or contraction.
            OptimizerConfig(multistart_grid=1, max_evals=7),
            OptimizerConfig(multistart_grid=1, max_evals=40),
        ],
        ids=["default", "multistart-2", "max-evals-7", "max-evals-40"],
    )
    def test_minimize_inner(self, config, monkeypatch):
        rng = random.Random(6)
        points = [(1e-4, 1e-6), (256.0, 0.999999), (0.2577, 0.01), (4.0283, 0.03)]
        points += [
            (math.exp(rng.uniform(math.log(1e-4), math.log(256.0))),
             math.exp(rng.uniform(math.log(1e-4), math.log(0.9))))
            for _ in range(60)
        ]
        new = [minimize_inner(c3, beta, config) for c3, beta in points]
        monkeypatch.setattr(optimizer, "_nelder_mead", nelder_mead_lists)
        ref = [minimize_inner(c3, beta, config) for c3, beta in points]
        for point, a, b in zip(points, new, ref):
            assert a == b, point  # value, (gamma, nu), evaluations, converged, starts


class TestSharedInnerSolves:
    SHAPE = ProblemShape.from_rho(0.5, 0.3)

    @staticmethod
    def _outcome(result):
        return result.value, result.params, result.converged

    def test_shared_map_changes_no_result(self):
        cfg = CRITERION_10_CONFIG
        inner = {}
        upper = optimize_upper(self.SHAPE, cfg, inner=inner)
        lower = optimize_lower(self.SHAPE, cfg, inner=inner)
        assert self._outcome(upper) == self._outcome(optimize_upper(self.SHAPE, cfg))
        assert self._outcome(lower) == self._outcome(optimize_lower(self.SHAPE, cfg))

    def test_shared_lower_solve_counts_only_its_own_evaluations(self):
        cfg = CRITERION_10_CONFIG
        inner = {}
        upper = optimize_upper(self.SHAPE, cfg, inner=inner)
        shared = optimize_lower(self.SHAPE, cfg, inner=inner)
        alone = optimize_lower(self.SHAPE, cfg)
        assert upper.evaluations == optimize_upper(self.SHAPE, cfg).evaluations
        assert 0 <= shared.evaluations < alone.evaluations

    def test_map_filled_at_another_beta_or_config_changes_nothing(self):
        cfg = CRITERION_10_CONFIG
        inner = {}
        optimize_upper(ProblemShape(self.SHAPE.alpha, 0.2), cfg, inner=inner)
        optimize_upper(self.SHAPE, OptimizerConfig(multistart_grid=1), inner=inner)
        filled = len(inner)
        assert optimize_lower(self.SHAPE, cfg, inner=inner) == optimize_lower(self.SHAPE, cfg)
        assert len(inner) > filled
