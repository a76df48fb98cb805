"""The damped Newton solves: at a fixed c3 (minimize_inner) and per cell
in (log c3, delta, nu), determinism, dominance, honest convergence flags
and local-optimality certificates."""

import math
import random
import re

import pytest
from mpmath import mp

from ric_bounds import (
    OptimizerConfig,
    ProblemShape,
    bounds_lifted,
    i_uric_inner,
    lifted_lower_objective,
    lifted_upper_objective,
    minimize_inner,
    optimize_lower,
    optimize_upper,
    optimizer,
    simple_lower,
    simple_upper,
)
from ric_bounds.bounds_lifted import SphBranch, i_sph, signed_value
from ric_bounds.bounds_simple import BETA_MAX, BETA_MIN, KIND_LOWER_LIFTED, KIND_UPPER_LIFTED
from ric_bounds.cli import DEFAULT_ALPHAS, DEFAULT_RHOS

from oracles import (
    CERT_DPS,
    inner_minimum_mp,
    nelder_mead_lists,
    optimize_outer_scan,
    single_simplex_inner,
    upper_value_from_inner,
)

class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.inner_tol == 1e-10
        assert cfg.outer_tol == 1e-6
        assert cfg.c3_bracket == (optimizer._C3_FLOOR, 64.0)
        assert cfg.max_evals == 20000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inner_tol": 0.0},
            {"outer_tol": -1.0},
            {"c3_bracket": (1.0, 0.5)},
            {"c3_bracket": (0.0, 2.0)},
            {"c3_bracket": (1e-4, math.inf)},
            {"c3_bracket": (1e-300, 64.0)},
            {"c3_bracket": (1e-150, 64.0)},
            {"c3_bracket": (0.99 * optimizer._C3_FLOOR, 64.0)},
            {"c3_bracket": (1e-4, 1e160)},
            {"outer_tol": 0.0},
            {"max_evals": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_floor_itself_is_accepted(self):
        assert OptimizerConfig(c3_bracket=(optimizer._C3_FLOOR, 64.0)).c3_bracket[0] > 0.0

    def test_ceiling_itself_is_accepted(self):
        assert OptimizerConfig(c3_bracket=(1e-4, optimizer._C3_CEILING)).c3_bracket[1] > 1e153
        with pytest.raises(ValueError):
            OptimizerConfig(c3_bracket=(1e-4, math.nextafter(optimizer._C3_CEILING, math.inf)))


class TestMinimizeInner:
    def test_reproduces_tabulated_upper_optimum(self):
        """(c3, beta) from the upper grid corner: both the minimizer location
        and the assembled bound match the published row."""
        report = minimize_inner(0.2577, 0.01)
        assert report.converged
        assert report.best_params.gamma == pytest.approx(0.1866, abs=2e-3)
        assert report.best_params.nu == pytest.approx(11.375, rel=2e-3)
        value = signed_value(0.2577, 0.1, report.best_value, SphBranch.PLUS)
        assert value == pytest.approx(1.8525, abs=5e-3)

    def test_reproduces_tabulated_lower_optimum(self):
        """(c3, beta) from the lower grid (alpha=0.1 column of the rho=0.3 row)."""
        report = minimize_inner(4.0283, 0.03)
        assert report.best_params.gamma == pytest.approx(2.0184, rel=2e-3)
        assert report.best_params.nu == pytest.approx(1.5926, rel=2e-3)
        value = -signed_value(4.0283, 0.1, report.best_value, SphBranch.MINUS)
        assert value == pytest.approx(0.0510, abs=5e-3)

    def test_best_not_worse_than_any_seed(self):
        c3, beta = 0.7, 0.2
        report = minimize_inner(c3, beta)
        grid = [1e-3 * (30.0 / 1e-3) ** (i / 3.0) for i in range(4)]
        for g in grid:
            for nu in grid:
                seed_value = i_uric_inner(c3, beta, None, nu, delta=g)
                assert report.best_value <= seed_value + 1e-12

    def test_feasible_by_construction(self):
        for c3 in (1e-4, 0.5, 8.0, 60.0):
            report = minimize_inner(c3, 0.1)
            assert report.best_params.gamma > c3 / 2.0
            assert report.best_params.nu >= 0.0

    def test_budget_and_restart_accounting(self):
        """One run from one start: the report counts its evaluations, within
        the budget."""
        report = minimize_inner(0.5, 0.1, OptimizerConfig(max_evals=160))
        assert report.converged and 0 < report.evaluations <= 160

    EDGE_C3 = [1e-4, 1.0, 256.0, 4096.0]
    EDGE_BETA = [BETA_MIN, 0.5, BETA_MAX]

    @pytest.mark.parametrize("where", ["anchors", "random", "edges"])
    def test_slope_is_finite(self, where):
        """The report's slope is a finite float across the c3 and beta
        range: at the range ends and table points, at random log-uniform
        points, and on the edge grid."""
        rng = random.Random(6)
        points = {
            "anchors": [(1e-4, 1e-6), (256.0, 0.999999), (0.2577, 0.01), (4.0283, 0.03)],
            "random": [
                (math.exp(rng.uniform(math.log(1e-4), math.log(256.0))),
                 math.exp(rng.uniform(math.log(1e-4), math.log(0.9))))
                for _ in range(20)
            ],
            "edges": [(c3, beta) for c3 in self.EDGE_C3 for beta in self.EDGE_BETA],
        }[where]
        for c3, beta in points:
            slope = minimize_inner(c3, beta).slope
            assert isinstance(slope, float) and math.isfinite(slope), (c3, beta)

    @pytest.mark.parametrize("c3", [1e-4, 0.5, 256.0])
    def test_keeps_within_budget(self, c3):
        """Under every budget from 1 to 40 evaluations the report keeps
        within the budget, near both ends of c3 and in between."""
        for max_evals in range(1, 41):
            report = minimize_inner(c3, 0.1, OptimizerConfig(max_evals=max_evals))
            assert report.evaluations <= max_evals, max_evals

    @pytest.mark.parametrize("c3", EDGE_C3)
    @pytest.mark.parametrize("beta", EDGE_BETA)
    def test_single_start_at_domain_edges(self, c3, beta):
        """The one run converges at the edges of beta and far out in c3,
        where gamma - c3/2 and J cancel, to the minimum of K found by Newton
        at 50 digits, to 1e-14 relative."""
        report = minimize_inner(c3, beta)
        p = report.best_params
        assert report.converged
        assert p.gamma > c3 / 2.0 and p.nu > 0.0
        with mp.workdps(CERT_DPS):
            _g, _n, j = inner_minimum_mp(c3, beta, mp.mpf(c3) / 2 + mp.mpf(p.delta), p.nu)
            k_min = j - mp.mpf(c3) / 2
            assert abs(report.best_value - k_min) <= 1e-14 * k_min, float(k_min)

    @pytest.mark.parametrize("beta", [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX])
    def test_newton_not_worse_than_single_simplex(self, beta):
        """Across c3 = 2^-15 .. 2^18 the Newton solve converges, ends no
        higher than the single-start simplex it replaced plus inner_tol,
        and spends fewer evaluations."""
        cfg = OptimizerConfig()
        for k in range(-15, 19):
            c3 = 2.0**k
            report = minimize_inner(c3, beta, cfg)
            simplex_value, simplex_evals = single_simplex_inner(c3, beta, cfg)
            assert report.converged, c3
            assert report.best_value <= simplex_value + cfg.inner_tol, c3
            assert report.evaluations < simplex_evals, c3

    @pytest.mark.parametrize("c3", [2.0**14, 2.0**16])
    @pytest.mark.parametrize("beta", [0.005, 0.07])
    def test_asymptotic_seed_takes_over_at_large_c3(self, c3, beta):
        """Far out in c3 the run starts from the c3 -> inf optimum and
        converges within 3 evaluations to the K that two runs reached in 6-9:
        one from the c3 -> 0 optimum, which stalled, then one from the
        c3 -> inf optimum."""
        two_start_k = {(2.0**14, 0.005): 5.8438145075767024e-06,
                       (2.0**14, 0.07): 6.475783755640679e-05,
                       (2.0**16, 0.005): 1.566720681311696e-06,
                       (2.0**16, 0.07): 1.7670236438657575e-05}
        report = minimize_inner(c3, beta)
        assert report.converged and report.evaluations <= 3
        assert report.best_value == two_start_k[c3, beta]
        assert optimizer._newton_start(c3, beta) == optimizer._asymptotic_seed(c3, beta)
        assert report.best_value <= single_simplex_inner(c3, beta, OptimizerConfig())[0]

    @pytest.mark.parametrize("c3,beta", [(0.5, 0.1), (4096.0, BETA_MIN), (1e-4, 0.9)])
    def test_newton_cap_counts_line_search_trials(self, c3, beta):
        """max_evals caps every evaluation, rejected line-search trials
        included, and a cap at or above the uncapped count changes nothing.
        A capped solve is non-converged unless the cap only cut the last
        Newton step taken after the decrement test passed."""
        free = minimize_inner(c3, beta)
        for cap in range(1, free.evaluations + 2):
            capped = minimize_inner(c3, beta, OptimizerConfig(max_evals=cap))
            assert capped.evaluations <= cap
            assert capped.best_value >= free.best_value
            if cap >= free.evaluations:
                assert capped == free
            else:
                assert not capped.converged or cap == free.evaluations - 1

    def test_rejects_nonpositive_c3(self):
        with pytest.raises(ValueError):
            minimize_inner(0.0, 0.1)

    @pytest.mark.parametrize("c3", [math.nextafter(4.0 * optimizer._C3_CEILING, math.inf),
                                    1e200, math.inf, math.nan])
    def test_rejects_c3_past_the_widest_bracket(self, c3):
        """Past 4 x the bracket ceiling gamma_hat's 4 c3^2 overflows: the
        solve and both objectives raise a ValueError naming the limit
        instead of reporting non-convergence, inf or a ZeroDivisionError."""
        limit = re.escape(repr(4.0 * optimizer._C3_CEILING))
        shape = ProblemShape(0.5, 0.1)
        for solve, arg in ((minimize_inner, shape.beta), (lifted_upper_objective, shape),
                           (lifted_lower_objective, shape)):
            with pytest.raises(ValueError, match=limit):
                solve(c3, arg)

    @pytest.mark.parametrize("beta", [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX])
    def test_converges_from_tiny_to_huge_c3(self, beta):
        """In K and delta nothing of size c3/2 cancels, so the solve
        converges at c3 = 2^-30 .. 2^44, where delta ~ beta/(2 c3) lies far
        below ulp(c3/2), with delta and nu positive."""
        for k in range(-30, 45, 2):
            c3 = 2.0**k
            report = minimize_inner(c3, beta)
            assert report.converged, c3
            assert report.best_params.delta > 0.0 and report.best_params.nu > 0.0, c3

    @pytest.mark.parametrize("beta", [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX])
    def test_converges_at_the_far_end_of_the_widest_bracket(self, beta):
        """The outer search evaluates up to 4 x the bracket's ceiling; the
        inner solve converges there, and both spherical branches stay
        finite."""
        c3 = 4.0 * optimizer._C3_CEILING
        report = minimize_inner(c3, beta)
        assert report.converged
        assert report.best_params.delta > 0.0 and report.best_params.nu > 0.0
        for branch in (SphBranch.PLUS, SphBranch.MINUS):
            assert math.isfinite(i_sph(c3, 0.5, branch))

    def test_c3_to_zero_start_far_out_is_evaluable(self):
        """At c3 = 8.9e13 and beta = 1e-6 the c3 -> 0 start once rounded
        gamma to one ulp above c3/2 and the moment diverged; in delta it is
        an ordinary start, and the solve converges in a few evaluations."""
        report = minimize_inner(8.9e13, 1e-6)
        assert report.converged and report.evaluations <= 10



class TestWarmStart:
    """A Newton run with t pinned to log c3 goes from the (delta, nu) start
    it is given."""

    BETAS = [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX]

    @staticmethod
    def _run(c3, beta, delta, nu):
        """(K, evaluations, converged) of the run from (delta, nu)."""
        t = math.log(c3)
        point, _c3, _delta, _nu, evals, converged, _edge = optimizer._joint_newton(
            beta, None, None, t, {t: c3}, OptimizerConfig(max_evals=100), delta, nu)
        return point[3], evals, converged

    @pytest.mark.parametrize("beta", BETAS)
    def test_start_at_the_optimum_converges_at_once(self, beta):
        cfg = OptimizerConfig()
        for k in range(-15, 19):
            c3 = 2.0**k
            cold = minimize_inner(c3, beta, cfg)
            value, evals, converged = self._run(c3, beta, cold.best_params.delta,
                                                cold.best_params.nu)
            assert converged and evals <= 2, c3
            assert abs(value - cold.best_value) <= cfg.inner_tol, c3

    def test_start_near_nu_zero_is_not_converged_early(self):
        """From nu = 1e-300, K_nn ~ nu^(-1/2) hides K_nu ~ beta - 1 from the
        Newton decrement, which passes at once; the Newton step in nu, far
        larger than nu, does not, so the run goes on to the cold solve's
        minimum instead of reporting K near 1 as converged."""
        cold = minimize_inner(1e-6, 0.1)
        value, _evals, converged = self._run(1e-6, 0.1, 1.0, 1e-300)
        assert converged
        assert abs(value - cold.best_value) <= OptimizerConfig().inner_tol


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

    def test_optimum_near_the_c3_floor_converges(self):
        """Upper (0.99, 0.98) peaks at c3 ~ 2.07e-5, inside the default
        bracket from the c3 floor; from a lower end of 1e-4 the run stopped
        at lo/4 = 2.5e-5, non-converged, at 2.0050308502022167."""
        result = optimize_upper(ProblemShape.from_rho(0.99, 0.98))
        assert result.converged and result.value <= 2.0050308502022167
        assert 0.0 < result.params.c3 < 2.5e-5

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


class TestJointSolve:
    """One projected damped Newton run per cell in (t = log c3, delta, nu)."""

    def test_default_grid_evaluation_total(self, monkeypatch):
        """The 60 lifted cells of the default grid cost at most 555
        evaluations in all (2,404 for the slope search over nested inner
        solves it replaced), each one call of ``optimizer.i_uric_inner``,
        and no cell runs an inner solve."""
        calls = [0]
        leaf = optimizer.i_uric_inner

        def counted(*args, **kwargs):
            calls[0] += 1
            return leaf(*args, **kwargs)

        def no_inner_solve(*args, **kwargs):
            raise AssertionError("the joint solve runs no inner solve")

        monkeypatch.setattr(optimizer, "i_uric_inner", counted)
        monkeypatch.setattr(optimizer, "minimize_inner", no_inner_solve)
        total = 0
        for alpha in DEFAULT_ALPHAS:
            for rho in DEFAULT_RHOS:
                shape = ProblemShape.from_rho(alpha, rho)
                for optimize in (optimize_upper, optimize_lower):
                    calls[0] = 0
                    result = optimize(shape)
                    assert result.evaluations == calls[0], (alpha, rho)
                    total += result.evaluations
        assert total <= 555

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_far_maximum_agrees_across_brackets(self, alpha):
        """Lower (0.3, 0.9) and (0.5, 0.9) peak at c3 ~ 4.0e8 and ~ 1.8e6,
        where V is about 1e-10 and 3e-8.  A stop test absolute in K once
        reported converged false roots there that moved with the bracket;
        relative to V's scale, the brackets up to 1e13, 1e20, 1e100 and
        1e150 report one converged value to the CSV's 6 digits."""
        shape = ProblemShape.from_rho(alpha, 0.9)
        rows = set()
        for hi in (1e13, 1e20, 1e100, 1e150):
            result = optimize_lower(shape, OptimizerConfig(c3_bracket=(1e-4, hi)))
            rows.add((f"{result.value:.6g}", result.converged))
        assert len(rows) == 1 and rows.pop()[1]

    T_LO, T_HI = -1.0, 1.0

    def test_step_is_newton_inside_the_bounds(self):
        """Away from the bounds the step solves H step = -g, and the
        decrement is g' H^{-1} g."""
        grad = (0.3, -0.2, 0.1)
        hess = (2.0, 0.5, 0.3, 1.5, 0.2, 1.0)
        step_t, end_t, step_d, step_n, decrement, _slope = optimizer._joint_step(
            grad, hess, 0.0, self.T_LO, self.T_HI)
        h_tt, h_td, h_tn, h_dd, h_dn, h_nn = hess
        step = (step_t, step_d, step_n)
        rows = ((h_tt, h_td, h_tn), (h_td, h_dd, h_dn), (h_tn, h_dn, h_nn))
        for row, g in zip(rows, grad):
            assert sum(h * p for h, p in zip(row, step)) == pytest.approx(-g, abs=1e-15)
        assert end_t == step_t
        assert decrement == pytest.approx(-sum(g * p for g, p in zip(grad, step)), rel=1e-15)
        assert decrement > 0.0

    def test_step_is_projected_onto_the_bounds(self):
        """A step past a bound ends exactly on it; at a bound with the
        slope pointing out, t stays and (delta, nu) take their Newton step;
        without curvature in t the step is _T_STEP downhill; without
        curvature in (delta, nu) there is no step."""
        hess = (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        past = optimizer._joint_step((-3.0, 0.5, 0.25), hess, 0.25, self.T_LO, self.T_HI)
        assert past[:4] == (self.T_HI - 0.25, self.T_HI, -0.5, -0.25)
        # With hi = 0.1, t + (t_hi - t) rounds off t_hi = log(4 hi) from here.
        t, t_hi = -1.916290731874155, math.log(0.4)
        assert t + (t_hi - t) != t_hi
        cut = optimizer._joint_step((-3.0, 0.0, 0.0), hess, t, -10.0, t_hi)
        assert cut[:2] == (t_hi - t, t_hi)
        held = optimizer._joint_step((-3.0, 0.5, 0.25), hess, self.T_HI, self.T_LO, self.T_HI)
        assert held[:4] == (0.0, self.T_HI, -0.5, -0.25) and held[5] == -3.0
        concave = (-1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
        downhill = optimizer._joint_step((1e-3, 0.0, 0.0), concave, 0.0, -10.0, 10.0)
        assert downhill[0] == -optimizer._T_STEP and downhill[4] > 0.0
        flat = (1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert optimizer._joint_step((0.1, 0.1, 0.1), flat, 0.0, self.T_LO, self.T_HI) is None

    @pytest.mark.parametrize("upper,c3,alpha,beta",
                             [(True, 0.1, 0.5, 0.05), (False, 3.0, 0.5, 0.05),
                              (False, 2e5, 0.5, 0.45)])
    def test_schur_complement_is_the_envelope_curvature(self, upper, c3, alpha, beta):
        """At the inner optimum the slope and the Schur complement of the
        joint Hessian are the first and second derivatives in t = log c3 of
        min over (delta, nu) of V, here by central differences of inner
        solves (Boyd & Vandenberghe, Convex Optimization, A.5.5)."""
        branch = SphBranch.PLUS if upper else SphBranch.MINUS
        p = minimize_inner(c3, beta).best_params
        _v, _s, _r, _k, grad, hess = optimizer._joint_point(c3, beta, alpha, branch,
                                                           p.delta, p.nu)
        slope = optimizer._joint_step(grad, hess, 0.0, -math.inf, math.inf)[5]
        h_tt, h_td, h_tn, h_dd, h_dn, h_nn = hess
        det = h_dd * h_nn - h_dn * h_dn
        schur = h_tt - (h_nn * h_td * h_td - 2.0 * h_dn * h_td * h_tn + h_dd * h_tn * h_tn) / det

        def envelope(t):
            c = c3 * math.exp(t)
            return minimize_inner(c, beta).best_value + i_sph(c, alpha, branch)

        h = 1e-3
        values = [envelope(t) for t in (-h, 0.0, h)]
        scale = abs(values[1])
        assert slope == pytest.approx((values[2] - values[0]) / (2 * h), rel=1e-4, abs=1e-9 * scale)
        second = (values[2] - 2.0 * values[1] + values[0]) / (h * h)
        assert schur == pytest.approx(second, rel=1e-3, abs=1e-6 * scale)

    @pytest.mark.parametrize("optimize", [optimize_upper, optimize_lower], ids=["upper", "lower"])
    def test_budget_caps_each_cell(self, optimize):
        """max_evals caps the evaluations of a cell, rejected line-search
        trials included, and a cap at or above the uncapped count changes
        nothing.  The run only lowers V, so a capped value is never a
        better bound."""
        shape = ProblemShape.from_rho(0.5, 0.3)
        free = optimize(shape)
        for cap in range(1, free.evaluations + 2):
            capped = optimize(shape, OptimizerConfig(max_evals=cap))
            assert capped.evaluations <= cap
            if cap >= free.evaluations:
                assert capped == free
            elif optimize is optimize_upper:
                assert capped.value >= free.value
            else:
                assert capped.value <= free.value

    def test_no_curvature_at_the_start_ends_the_run(self, monkeypatch):
        """Where K has no curvature at the start, the run ends there after
        one evaluation, non-converged, and the c3 -> 0 limit keeps each
        value on the safe side of its simple bound."""
        monkeypatch.setattr(optimizer, "_joint_step", lambda *args: None)
        for alpha, rho in [(0.5, 0.3), (0.1, 0.7), (0.9, 0.9), (1.0, 0.999999)]:
            shape = ProblemShape.from_rho(alpha, rho)
            upper, lower = optimize_upper(shape), optimize_lower(shape)
            assert (upper.converged, upper.evaluations) == (False, 1)
            assert (lower.converged, lower.evaluations) == (False, 1)
            assert upper.value <= simple_upper(shape).value
            assert lower.value >= simple_lower(shape).value

    def test_lower_start_without_the_asymptotic_optimum(self):
        """Lower (1, 0.999999): at the start c3 = 5 the c3 -> inf optimum
        fails _evaluable, so the run starts from the c3 -> 0 optimum, and it
        still converges to the interior maximum."""
        shape = ProblemShape.from_rho(1.0, 0.999999)
        assert not optimizer._evaluable(5.0, *optimizer._asymptotic_seed(5.0, shape.beta))
        g0, threshold_sq = optimizer._limit_seed(shape.beta)
        assert optimizer._newton_start(5.0, shape.beta) == (g0, threshold_sq / (10.0 + 4.0 * g0))
        result = optimize_lower(shape)
        assert result.converged and result.value > simple_lower(shape).value
        assert 40.0 < result.params.c3 < 42.0

    def test_flat_in_t_below_resolution_converges(self, monkeypatch):
        """Where V is so flat in t that the decrement is below V's rounding
        resolution, no line search can place c3 more finely: the run stops,
        converged, instead of halving its step in t down to _MIN_STEP.
        Scripted V = 1 + 1e-17 (t - 3)^2 + (delta - 1)^2 + (nu - 1)^2."""

        def flat(c3, beta, alpha, branch, delta, nu):
            t = math.log(c3)
            value = 1.0 + 1e-17 * (t - 3.0) ** 2 + (delta - 1.0) ** 2 + (nu - 1.0) ** 2
            grad = (2e-17 * (t - 3.0), 2.0 * (delta - 1.0), 2.0 * (nu - 1.0))
            return value, 1.0, 4.0 * math.ulp(1.0), value, grad, (2e-17, 0, 0, 2.0, 0, 2.0)

        monkeypatch.setattr(optimizer, "_joint_point", flat)
        ends = {-10.0: math.exp(-10.0), 10.0: math.exp(10.0)}
        start = optimizer._newton_start(1.0, 0.1)
        run = optimizer._joint_newton(0.1, 0.5, SphBranch.PLUS, 0.0, ends,
                                      OptimizerConfig(max_evals=100), *start)
        _point, c3, delta, nu, evals, converged, edge = run
        assert converged and not edge and evals <= 4
        assert (delta, nu) == (1.0, 1.0) and c3 != math.exp(3.0)

    def test_run_ending_at_the_lower_end(self):
        """Upper (0.5, 0.1) peaks at c3 ~ 0.40.  With lo/4 = 0.5 the run
        stops at c3 = lo/4 exactly, below the c3 -> 0 limit, non-converged;
        with lo/4 = 1 the limit wins, which is the optimum over the
        bracket and its c3 -> 0 end."""
        shape = ProblemShape.from_rho(0.5, 0.1)
        edge = optimize_upper(shape, OptimizerConfig(c3_bracket=(2.0, 100.0)))
        assert edge.params.c3 == 0.5 and not edge.converged
        assert edge.value < simple_upper(shape).value
        limit = optimize_upper(shape, OptimizerConfig(c3_bracket=(4.0, 100.0)))
        assert limit.params.c3 == 0.0 and limit.converged
        assert limit.value == simple_upper(shape).value

    def test_budget_capped_limit_is_not_converged(self):
        """Where the c3 -> 0 limit beats a run that stopped on its budget,
        the cell is non-converged: lower (0.1, 0.05) capped at 2
        evaluations reports the limit, 0.303077, and not the maximum
        0.444607 at c3 ~ 0.459.  Over the 60 default cells capped at 1-11
        evaluations, a limit reported as converged is the uncapped
        optimum."""
        shape = ProblemShape.from_rho(0.1, 0.05)
        capped = optimize_lower(shape, OptimizerConfig(max_evals=2))
        assert capped.params.c3 == 0.0 and not capped.converged
        free = optimize_lower(shape)
        assert free.converged and free.value == pytest.approx(0.444607, abs=1e-6)
        for alpha in DEFAULT_ALPHAS:
            for rho in DEFAULT_RHOS:
                shape = ProblemShape.from_rho(alpha, rho)
                for optimize in (optimize_upper, optimize_lower):
                    free = optimize(shape)
                    for cap in range(1, 12):
                        capped = optimize(shape, OptimizerConfig(max_evals=cap))
                        if capped.converged and capped.params.c3 == 0.0:
                            assert free.params.c3 == 0.0, (alpha, rho, optimize, cap)


class TestDenseGrid:
    """Invariants on a 9 x 199 grid, alpha in ALPHAS and rho = i/200, far
    denser than the default one: monotone in rho, never worse than the
    closed forms, every upper cell converged, and the evaluation total.
    Lower cells with their maximum past the bracket stay non-converged
    (513 of 1,791), so lower convergence is not asserted."""

    ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99)
    RHOS = tuple(i / 200 for i in range(1, 200))
    # Evaluations of all 3,582 lifted cells under the default config, as
    # measured, so that a later change cannot quietly multiply the cost.
    MAX_EVALUATIONS = 36036

    @pytest.fixture(scope="class")
    def grid(self):
        """{kind: {alpha: [BoundResult per rho]}}."""
        solvers = {"upper-simple": simple_upper, KIND_UPPER_LIFTED: optimize_upper,
                   "lower-simple": simple_lower, KIND_LOWER_LIFTED: optimize_lower}
        return {kind: {alpha: [solve(ProblemShape.from_rho(alpha, rho)) for rho in self.RHOS]
                       for alpha in self.ALPHAS}
                for kind, solve in solvers.items()}

    def test_monotone_in_rho_between_converged_neighbours(self, grid):
        for kind, rows in grid.items():
            sign = 1.0 if kind.startswith("upper") else -1.0
            for alpha, results in rows.items():
                for rho, a, b in zip(self.RHOS[1:], results, results[1:]):
                    if a.converged and b.converged:
                        assert sign * b.value >= sign * a.value, (kind, alpha, rho)

    def test_lifted_never_worse_than_simple(self, grid):
        for alpha in self.ALPHAS:
            for rho, lifted, simple in zip(self.RHOS, grid[KIND_UPPER_LIFTED][alpha],
                                           grid["upper-simple"][alpha]):
                assert lifted.value <= simple.value, (alpha, rho)
            for rho, lifted, simple in zip(self.RHOS, grid[KIND_LOWER_LIFTED][alpha],
                                           grid["lower-simple"][alpha]):
                assert lifted.value >= simple.value, (alpha, rho)

    def test_lifted_never_worse_than_simple_on_a_tiny_budget(self, grid):
        """Under the default budget every run here beats the c3 -> 0 limit;
        cut off after 2 evaluations, many do not, and the limit candidate
        is what keeps each value at or past the simple bound."""
        config = OptimizerConfig(max_evals=2)
        for alpha in self.ALPHAS:
            for rho, upper, lower in zip(self.RHOS, grid["upper-simple"][alpha],
                                         grid["lower-simple"][alpha]):
                shape = ProblemShape.from_rho(alpha, rho)
                assert optimize_upper(shape, config).value <= upper.value, (alpha, rho)
                assert optimize_lower(shape, config).value >= lower.value, (alpha, rho)

    def test_every_upper_cell_converges(self, grid):
        for alpha, results in grid[KIND_UPPER_LIFTED].items():
            for rho, result in zip(self.RHOS, results):
                assert result.converged, (alpha, rho, result)

    def test_evaluation_total(self, grid):
        total = sum(result.evaluations for kind in (KIND_UPPER_LIFTED, KIND_LOWER_LIFTED)
                    for results in grid[kind].values() for result in results)
        assert total <= self.MAX_EVALUATIONS


class TestOuterSearchMatchesReference:
    """The projected Newton run in (log c3, delta, nu) against the scan,
    widen-once rule and golden section it replaced
    (``oracles.optimize_outer_scan``) on the 30 default shapes: the same
    convergence flags, and a bound never worse by more than the inner
    solve's noise."""

    NOISE = 1e-9

    OLD_BRACKET = OptimizerConfig(c3_bracket=(1e-4, 64.0))

    @pytest.mark.parametrize("upper,cfg", [
        pytest.param(True, OLD_BRACKET, id="upper"),
        pytest.param(False, OLD_BRACKET, id="lower"),
        pytest.param(True, OptimizerConfig(), id="upper-default-config"),
        pytest.param(False, OptimizerConfig(), id="lower-default-config"),
    ])
    def test_default_shapes(self, upper, cfg):
        optimize = optimize_upper if upper else optimize_lower
        for alpha in DEFAULT_ALPHAS:
            for rho in DEFAULT_RHOS:
                shape = ProblemShape.from_rho(alpha, rho)
                result = optimize(shape, cfg)
                ref_value, ref_c3, ref_converged = optimize_outer_scan(shape, cfg, upper)
                worse = result.value - ref_value if upper else ref_value - result.value
                where = (alpha, rho, result.params.c3, ref_c3)
                assert result.converged == ref_converged, where
                assert worse <= self.NOISE, (*where, worse)


class TestEdgeBehavior:
    def test_high_rho_lower_reports_nonconvergence(self):
        """Past the tabulated regime the lower objective keeps creeping up
        toward its c3 -> infinity limit; a search whose final bracket ends
        at the upper end of the widened c3 range must surface that as
        converged=False while still returning a valid bound."""
        shape = ProblemShape.from_rho(0.1, 0.7)
        cfg = OptimizerConfig(outer_tol=1e-3, inner_tol=1e-8, max_evals=4000)
        result = optimize_lower(shape, cfg)
        assert not result.converged
        assert result.value >= simple_lower(shape).value - 1e-6

    EDGE_CELLS = [(0.1, 0.7), (0.3, 0.7)] + [(alpha, 0.9) for alpha in DEFAULT_ALPHAS]

    @pytest.mark.parametrize("alpha,rho", EDGE_CELLS)
    def test_default_edge_cells_cost_three_solves(self, alpha, rho, monkeypatch):
        """The 7 default lower cells whose objective still rises at
        c3 = 4 hi: the slope there points out of the range, so the joint
        run stops at c3 = 4 hi, non-converged, without an inner solve and
        within 20 evaluations of ``optimizer.i_uric_inner`` (the three
        inner solves of the slope search it replaced cost 13-14)."""
        calls = [0]
        leaf = optimizer.i_uric_inner

        def counted(*args, **kwargs):
            calls[0] += 1
            return leaf(*args, **kwargs)

        def no_inner_solve(*args, **kwargs):
            raise AssertionError("the joint solve runs no inner solve")

        monkeypatch.setattr(optimizer, "i_uric_inner", counted)
        monkeypatch.setattr(optimizer, "minimize_inner", no_inner_solve)
        shape = ProblemShape.from_rho(alpha, rho)
        result = optimize_lower(shape)
        assert not result.converged
        assert result.evaluations == calls[0] <= 20
        assert result.params.c3 == 4.0 * OptimizerConfig().c3_bracket[1]
        assert result.value >= simple_lower(shape).value

    def test_wider_bracket_keeps_the_high_rho_maximum(self):
        """Lower (0.7, 0.9) peaks at c3 ~ 2.7e4.  Searched with c3 up to
        1e5 or up to 1e7, it reports the same maximum to the CSV's 6
        digits, converged: K keeps delta ~ 2e-5 exact next to c3/2."""
        shape = ProblemShape.from_rho(0.7, 0.9)
        rows = []
        for hi in (1e5, 1e7):
            result = optimize_lower(shape, OptimizerConfig(c3_bracket=(1e-4, hi)))
            assert result.converged, hi
            rows.append((f"{result.value:.6g}", f"{result.params.c3:.6g}"))
        assert rows[0] == rows[1]
        assert float(rows[0][0]) > 0.0

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_maximum_past_the_bracket_is_not_converged(self, alpha):
        """Lower (0.3, 0.9) and (0.1, 0.9) peak at c3 ~ 4e8 and ~ 1e13, past
        4 hi = 4e7.  The slope there still points outward, so the search
        stops at 4 hi non-converged, never at a root of rounding; the value
        is still a valid bound."""
        shape = ProblemShape.from_rho(alpha, 0.9)
        result = optimize_lower(shape, OptimizerConfig(c3_bracket=(1e-4, 1e7)))
        assert not result.converged
        assert result.params.c3 == 4e7
        assert result.value >= simple_lower(shape).value

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
    reference in ``oracles``: same points, values, counts and flags.  No
    solve calls it; the reference stands in for it in ``oracles``."""

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


class TestEvaluationContract:
    """Every counted evaluation is one call of ``optimizer.i_uric_inner``,
    and each call makes exactly two ``bounds_lifted.erfcx`` calls: in the
    joint solve, and in minimize_inner, so in lifted_*_objective.  The
    benchmark's count cross-check rests on this."""

    SHAPES = [ProblemShape(0.5, 0.05), ProblemShape.from_rho(0.1, 0.7),
              ProblemShape.from_rho(0.9, 0.9)]

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"i_uric_inner": 0, "erfcx": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(optimizer, "i_uric_inner")
        counted(bounds_lifted, "erfcx")
        return counts

    @pytest.mark.parametrize("optimize", [optimize_upper, optimize_lower],
                             ids=["upper", "lower"])
    def test_evaluations_count_calls(self, optimize, counts):
        for shape in self.SHAPES:
            counts.update(i_uric_inner=0, erfcx=0)
            result = optimize(shape)
            assert result.evaluations == counts["i_uric_inner"] > 0, shape
            assert counts["erfcx"] == 2 * counts["i_uric_inner"], shape

    C3S = [1e-4, 0.5, 256.0, 4.02859e8]

    def test_inner_evaluations_count_calls(self, counts):
        for shape in self.SHAPES:
            for c3 in self.C3S:
                counts.update(i_uric_inner=0, erfcx=0)
                report = minimize_inner(c3, shape.beta)
                assert report.evaluations == counts["i_uric_inner"] > 0, (shape, c3)
                assert counts["erfcx"] == 2 * counts["i_uric_inner"], (shape, c3)

    @pytest.mark.parametrize("objective", [lifted_upper_objective, lifted_lower_objective],
                             ids=["upper", "lower"])
    def test_objective_evaluations_count_calls(self, objective, counts):
        """Each objective value is one inner solve's worth of calls."""
        for shape in self.SHAPES:
            for c3 in self.C3S:
                evaluations = minimize_inner(c3, shape.beta).evaluations
                counts.update(i_uric_inner=0, erfcx=0)
                objective(c3, shape)
                assert counts["i_uric_inner"] == evaluations, (shape, c3)
                assert counts["erfcx"] == 2 * evaluations, (shape, c3)
