"""Lifted-bound building blocks: spherical term, exponential moment,
inner objective, and the assembled objectives at pinned parameters."""

import math
import random

import pytest
from mpmath import mp

from ric_bounds import (
    LiftedParams,
    ProblemShape,
    SphBranch,
    big_i_uric,
    erfc,
    gamma_hat,
    i_sph,
    i_uric_inner,
    lifted_lower_objective,
    lifted_upper_objective,
    minimize_inner,
    optimizer,
    simple_lower,
    simple_upper,
)
from ric_bounds.bounds_lifted import i_sph_derivatives
from ric_bounds.bounds_simple import BETA_MAX, BETA_MIN

from oracles import (
    CERT_DPS,
    i_sph_mp,
    inner_k_mp,
    inner_objective_mp,
    lower_value_from_inner,
    moment_monte_carlo,
    upper_value_from_inner,
)


class TestGammaHat:
    def test_small_c3_limits(self):
        assert gamma_hat(1e-8, 0.25, SphBranch.PLUS) == pytest.approx(0.25, abs=1e-6)
        assert gamma_hat(1e-8, 0.25, SphBranch.MINUS) == pytest.approx(-0.25, abs=1e-6)

    @pytest.mark.parametrize("c3", [1e-6, 0.1, 1.0, 40.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    def test_conjugate_root_product(self, c3, alpha):
        plus = gamma_hat(c3, alpha, SphBranch.PLUS)
        minus = gamma_hat(c3, alpha, SphBranch.MINUS)
        assert plus * minus == pytest.approx(-alpha / 4.0, rel=1e-12)

    @pytest.mark.parametrize("c3", [1e-4, 0.3, 5.0, 64.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_branch_signs(self, c3, alpha):
        assert gamma_hat(c3, alpha, SphBranch.PLUS) > c3 / 2.0
        assert gamma_hat(c3, alpha, SphBranch.MINUS) < 0.0

    def test_rejects_nonpositive_c3(self):
        with pytest.raises(ValueError):
            gamma_hat(0.0, 0.5, SphBranch.PLUS)
        with pytest.raises(ValueError):
            gamma_hat(-1.0, 0.5, SphBranch.MINUS)

    @pytest.mark.parametrize("log2_c3", [0, 12, 20, 26, 28, 33, 40])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_minus_root_stable_at_large_c3(self, log2_c3, alpha):
        """The MINUS root is -alpha/(4 PLUS root), so it keeps full relative
        accuracy where 2 c3 - sqrt(4 c3^2 + 16 alpha) cancels to 0, and the
        lower family's spherical term stays finite."""
        c3 = 2.0**log2_c3
        minus = gamma_hat(c3, alpha, SphBranch.MINUS)
        sph = i_sph(c3, alpha, SphBranch.MINUS)
        with mp.workdps(CERT_DPS):
            c3m, am = mp.mpf(c3), mp.mpf(alpha)
            exact = (2 * c3m - mp.sqrt(4 * c3m * c3m + 16 * am)) / 8
            exact_sph = i_sph_mp(c3, alpha, False)
            assert abs(minus - exact) <= 1e-14 * abs(exact)
            assert math.isfinite(sph) and abs(sph - exact_sph) <= 1e-12 * abs(exact_sph)


class TestISph:
    def test_small_c3_limits(self):
        assert i_sph(1e-6, 0.5, SphBranch.PLUS) == pytest.approx(math.sqrt(0.5), abs=1e-4)
        assert i_sph(1e-6, 0.5, SphBranch.MINUS) == pytest.approx(-math.sqrt(0.5), abs=1e-4)

    def test_enters_pinned_upper_bound(self):
        """At the tabulated optimum for alpha=0.5, beta=0.05 the assembled
        upper objective reproduces the published 1.7129."""
        c3, gamma, nu = 0.4033, 0.3388, 3.7775
        shape = ProblemShape(0.5, 0.05)
        inner = i_uric_inner(c3, shape.beta, gamma, nu)
        assert upper_value_from_inner(c3, shape, inner) == pytest.approx(1.7129, abs=5e-3)


    @pytest.mark.parametrize("branch", [SphBranch.PLUS, SphBranch.MINUS])
    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_slope_matches_extended_precision(self, branch, alpha):
        """The slope from i_sph_derivatives equals mp.diff of the 50-digit
        spherical term to 1e-11 relative for c3 = 2^-14 .. 2^14, the PLUS
        branch included, where 2 ghat - c3 cancels as c3 grows."""
        for k in range(-14, 15, 2):
            c3 = 2.0**k
            with mp.workdps(CERT_DPS):
                exact = mp.diff(lambda c: i_sph_mp(c, alpha, branch is SphBranch.PLUS),
                                mp.mpf(c3))
                err = abs(float((i_sph_derivatives(c3, alpha, branch)[1] - exact) / exact))
            assert err <= 1e-11, (c3, err)


    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.1, 1.0])
    def test_minus_branch_finite_at_the_far_end_of_the_widest_bracket(self, alpha):
        """On the MINUS branch c3/(2 ghat) ~ -c3^2/alpha overflows before
        4 x the bracket ceiling for small alpha; past -2^52 the log is taken
        as log(alpha/(4 ghat^2)), so the term and its derivatives stay
        finite and the term keeps 1e-14 relative accuracy."""
        for c3 in (2.0**60, 1e100, 4.0 * optimizer._C3_CEILING):
            terms = i_sph_derivatives(c3, alpha, SphBranch.MINUS)
            assert all(math.isfinite(x) for x in terms), c3
            with mp.workdps(CERT_DPS + 320):
                exact = i_sph_mp(c3, alpha, False)
                assert abs(terms[0] - exact) <= 1e-14 * abs(exact), c3

    @pytest.mark.parametrize("branch", [SphBranch.PLUS, SphBranch.MINUS])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 1.0])
    def test_second_derivative_matches_extended_precision(self, branch, alpha):
        """I_sph'' from i_sph_derivatives equals the second mp.diff of the
        spherical term at 80 digits for c3 = 2^-20 .. 2^40, on the scale of
        its share of the second derivative in log c3: c3^2 I'' is within
        1e-12 (c3^2 |I''| + c3 |I'|) + 4 eps, where the eps is the rounding
        of I' and I'' as c3 -> 0.  The first item is i_sph bit for bit."""
        eps = math.ulp(1.0)
        with mp.workdps(80):
            for k in range(-20, 41, 2):
                c3 = 2.0**k
                value, slope, curvature = i_sph_derivatives(c3, alpha, branch)
                assert value == i_sph(c3, alpha, branch)
                exact = mp.diff(lambda c: i_sph_mp(c, alpha, branch is SphBranch.PLUS),
                                mp.mpf(c3), 2)
                err = float(abs(curvature - exact)) * c3 * c3
                assert err <= 1e-12 * (c3 * c3 * abs(float(exact)) + c3 * abs(slope)) + 4 * eps, c3


class TestBigIUric:
    def test_nu_zero_collapses_to_chi_square_moment(self):
        """At nu = 0 the max never clips, so the moment is 1/sqrt(1-2p)."""
        params = LiftedParams(c3=0.3, gamma=0.5, nu=0.0)
        p = 0.3 / (4.0 * 0.5)
        assert big_i_uric(params) == pytest.approx(1.0 / math.sqrt(1.0 - 2.0 * p), rel=1e-12)

    def test_c3_to_zero_tends_to_one(self):
        assert big_i_uric(LiftedParams(c3=1e-9, gamma=0.5, nu=1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_against_monte_carlo_oracle(self):
        mean, se = moment_monte_carlo(0.3, 0.5, 1.0, samples=10_000_000, seed=20240817)
        value = big_i_uric(LiftedParams(0.3, 0.5, 1.0))
        assert abs(value - mean) <= 3.0 * se

    def test_rejects_divergent_moment(self):
        with pytest.raises(ValueError):
            LiftedParams(c3=2.0, gamma=1.0, nu=0.5)  # p = 1/2 exactly
        with pytest.raises(ValueError):
            big_i_uric(LiftedParams(c3=0.0, gamma=1.0, nu=0.5))  # limit point

    def test_params_carry_the_exact_delta(self):
        """delta is gamma - c3/2 when only gamma is given; given exactly, it
        survives where gamma = c3/2 + delta rounds to c3/2, and the moment is
        evaluated at it."""
        assert LiftedParams(c3=0.3, gamma=0.5, nu=1.0).delta == 0.5 - 0.15
        c3, delta = 2.0**40, 1e-20
        nu = 1e-12  # c3 nu ~ 1, so M rests on 1 - 2p = delta/gamma
        params = LiftedParams(c3=c3, gamma=0.5 * c3 + delta, nu=nu, delta=delta)
        assert params.gamma == 0.5 * c3 and params.delta == delta
        with mp.workdps(CERT_DPS):
            c3_mp, nu_mp, delta_mp = mp.mpf(c3), mp.mpf(nu), mp.mpf(delta)
            gamma = c3_mp / 2 + delta_mp
            exact = (mp.exp(-c3_mp * nu_mp) / mp.sqrt(delta_mp / gamma)
                     * mp.erfc(mp.sqrt(2 * nu_mp * delta_mp))
                     + mp.erf(mp.sqrt(2 * nu_mp * gamma)))
            assert abs(big_i_uric(params) - exact) <= 1e-13 * exact
        with pytest.raises(ValueError):
            LiftedParams(c3=c3, gamma=0.5 * c3 + delta, nu=1.0)  # gamma lost delta

    @pytest.mark.parametrize("c3,gamma,nu", [
        (0.1, 0.3, 0.5), (0.5, 0.4, 2.0), (1.0, 5.0, 0.1), (10.0, 8.0, 0.3), (0.9027, 0.5006, 3.6512),
    ])
    def test_moment_exceeds_one_and_log_finite(self, c3, gamma, nu):
        value = big_i_uric(LiftedParams(c3, gamma, nu))
        assert value > 1.0
        assert math.isfinite(math.log(value))

    @pytest.mark.parametrize("c3,gamma,nu", [
        (0.2577, 0.1866, 11.375), (0.5, 1.0, 3.0), (1.2982, 0.711, 2.1448),
        (0.1, 2.0, 40.0), (2.0, 30.0, 1.5),
    ])
    def test_stable_path_matches_direct_product(self, c3, gamma, nu):
        """Where e^{r} and erfc(a/sqrt(2)) are individually representable the
        erfcx route must equal the direct closed form of the moment,
        e^{-c3 nu}/sqrt(1-2p) erfc(a/sqrt(2)) + erf(sqrt(2 nu gamma)), to
        1e-10 relative."""
        p = c3 / (4.0 * gamma)
        a = 2.0 * math.sqrt(nu * gamma) * math.sqrt(1.0 - 2.0 * p)
        direct = (math.exp(-c3 * nu) / math.sqrt(1.0 - 2.0 * p) * erfc(a / math.sqrt(2.0))
                  + 1.0 - erfc(math.sqrt(2.0 * nu * gamma)))
        stable = big_i_uric(LiftedParams(c3, gamma, nu))
        assert abs(stable - direct) <= 1e-10 * abs(direct)

    def test_stable_path_survives_underflow_region(self):
        """For large c3*nu the direct factors underflow but the moment, the
        objective and its derivatives must stay finite."""
        value = big_i_uric(LiftedParams(30.0, 400.0, 30.0))  # e^{-24000} underflows
        assert value >= 1.0 and math.isfinite(value)
        assert math.isfinite(big_i_uric(LiftedParams(5.0, 50.0, 8.0)))
        j, grad, hess, slope = i_uric_inner(30.0, 0.1, 400.0, 30.0, derivatives=True)
        assert all(math.isfinite(x) for x in (j, *grad, *hess, slope))


class TestInnerObjective:
    def test_pinned_upper_cell(self):
        """Tabulated optimum (alpha=0.5 column): objective reproduces 1.7129."""
        shape = ProblemShape(0.5, 0.05)
        inner = i_uric_inner(0.4033, 0.05, 0.3388, 3.7775)
        assert upper_value_from_inner(0.4033, shape, inner) == pytest.approx(1.7129, abs=5e-3)

    def test_pinned_lower_cell_large_c3(self):
        """The large-c3 corner of the lower grid (alpha=0.1, beta=0.05) sits
        within rounding of the moment-divergence boundary; the objective at
        the tabulated triple must still reproduce 0.0041."""
        shape = ProblemShape(0.1, 0.05)
        inner = i_uric_inner(37.468, 0.05, 18.735, 0.2144)
        assert lower_value_from_inner(37.468, shape, inner) == pytest.approx(0.0041, abs=5e-3)

    def test_pinned_lower_cell_small_alpha(self):
        shape = ProblemShape(0.1, 0.005)
        inner = i_uric_inner(0.4592, 0.005, 0.2399, 13.265)
        assert lower_value_from_inner(0.4592, shape, inner) == pytest.approx(0.4446, abs=5e-3)

    def test_small_c3_reparameterized_limit(self):
        """With nu_threshold^2 = 4*nu*gamma held fixed, the c3 -> 0 objective
        collapses to the closed-form scalar objective in nu_threshold."""
        beta, gamma = 0.1, 0.4
        for nu_threshold in (0.5, 1.0, 2.0):
            nu = nu_threshold**2 / (4.0 * gamma)
            got = i_uric_inner(1e-7, beta, gamma, nu)
            expected = (
                nu_threshold**2 * beta / (4.0 * gamma)
                + gamma
                + (
                    (1.0 - nu_threshold**2) * erfc(nu_threshold / math.sqrt(2.0))
                    + math.sqrt(2.0 / math.pi) * nu_threshold * math.exp(-0.5 * nu_threshold**2)
                )
                / (4.0 * gamma)
            )
            assert got == pytest.approx(expected, abs=1e-6)

    def test_grid_scan_brackets_optimizer_minimum(self):
        """A 50x50 scan over (delta, nu) cannot beat the inner solver."""
        c3, beta = 0.4033, 0.05
        report = minimize_inner(c3, beta)
        scan_best = math.inf
        for i in range(50):
            delta = 1e-3 * (30.0 / 1e-3) ** (i / 49.0)
            for j in range(50):
                nu = 1e-3 * (30.0 / 1e-3) ** (j / 49.0)
                scan_best = min(scan_best, i_uric_inner(c3, beta, None, nu, delta=delta))
        assert report.best_value <= scan_best + 1e-12

    def test_derivatives_match_extended_precision(self):
        """With derivatives=True, J equals the 50-digit oracle J to 1e-15
        relative, and the gradient and Hessian equal mp.diff of it to 1e-12
        relative, at 24 random feasible points.  gamma - c3/2 is kept
        comparable to gamma there, so 1 - 2p = 1 - c3/(2 gamma) is not
        itself rounded away."""
        rng = random.Random(14)
        for _ in range(24):
            c3 = math.exp(rng.uniform(math.log(1e-3), math.log(16.0)))
            beta = math.exp(rng.uniform(math.log(1e-4), math.log(0.9)))
            gamma = 0.5 * c3 + math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            nu = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
            value, grad, hess, _slope = i_uric_inner(c3, beta, gamma, nu, derivatives=True)
            with mp.workdps(CERT_DPS):
                point = (mp.mpf(gamma), mp.mpf(nu))

                def j(g, n):
                    return inner_objective_mp(c3, beta, g, n)

                exact_j = j(*point)
                assert abs(value - exact_j) <= 1e-15 * max(1.0, abs(exact_j))

                exact = [mp.diff(j, point, order) for order in
                         ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
                for got, ref in zip((*grad, *hess), exact):
                    err = abs(float((got - ref) / ref))
                    assert err <= 1e-12, (c3, beta, gamma, nu, got, float(ref))

    @pytest.mark.parametrize("beta", [0.01, 0.5, 0.999999])
    def test_derivative_path_value_accurate_at_small_c3(self, beta):
        """At the inner optimum for c3 = 2^-16 .. 1, where the erfcx
        difference in M - 1 = O(c3) cancels unless it is summed as a series,
        J equals the 50-digit J to 1e-15, from the 4-argument form and the
        derivative path alike, and the two are the same float."""
        for k in range(-16, 1, 2):
            c3 = 2.0**k
            p = minimize_inner(c3, beta).best_params
            value = i_uric_inner(c3, beta, p.gamma, p.nu, derivatives=True)[0]
            assert i_uric_inner(c3, beta, p.gamma, p.nu) == value, c3
            with mp.workdps(CERT_DPS):
                exact = inner_objective_mp(c3, beta, p.gamma, p.nu)
                assert abs(value - exact) <= 1e-15, (c3, float(value - exact))

    @pytest.mark.parametrize("beta", [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX])
    def test_c3_slope_matches_extended_precision(self, beta):
        """At the inner optimum for c3 = 2^-16 .. 2^10 the slope the solve
        reports, K_c, equals mp.diff in c3 of the 60-digit K = J - c3/2 at
        fixed (delta, nu) to 1e-8 relative.  It forms no term of size c3/2,
        so nothing cancels as c3 grows."""
        for k in range(-16, 11):
            c3 = 2.0**k
            report = minimize_inner(c3, beta)
            p = report.best_params
            assert report.slope == i_uric_inner(c3, beta, None, p.nu, delta=p.delta,
                                                derivatives=True)[3]
            with mp.workdps(60):

                def k_mp(c):
                    return inner_k_mp(c, beta, p.delta, p.nu)

                exact = mp.diff(k_mp, mp.mpf(c3))
                err = abs(float((report.slope - exact) / exact))
            assert err <= 1e-8, (c3, err)

    @pytest.mark.parametrize("beta", [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX])
    def test_c3_row_matches_extended_precision(self, beta):
        """At the inner optimum for c3 = 2^-20 .. 2^40, K_cc, K_c,delta and
        K_c,nu from derivatives=2 equal mp.diff of the 80-digit K at fixed
        (delta, nu), on the scale of the Hessian in (log c3, delta, nu): an
        entry's error is within 1e-12 of the geometric mean of its diagonal
        entries, whose t entry is c3^2 |K_cc| + c3 |K_c|, plus 4 eps on
        c3^2 K_cc, whose rounding grows like eps/c3^2 as c3 -> 0.  The first
        four items are those of derivatives=True, bit for bit."""
        eps = math.ulp(1.0)
        with mp.workdps(80):
            for k in range(-20, 41, 4):
                c3 = 2.0**k
                p = minimize_inner(c3, beta).best_params
                value, grad, hess, slope, (k_cc, k_cd, k_cn) = i_uric_inner(
                    c3, beta, None, p.nu, delta=p.delta, derivatives=2)
                assert (value, grad, hess, slope) == i_uric_inner(
                    c3, beta, None, p.nu, delta=p.delta, derivatives=True)
                point = (mp.mpf(c3), mp.mpf(p.delta), mp.mpf(p.nu))

                def k_mp(c, d, n):
                    return inner_k_mp(c, beta, d, n)

                exact_cc, exact_cd, exact_cn = (mp.diff(k_mp, point, order) for order in
                                                ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
                d_t = c3 * c3 * abs(float(exact_cc)) + c3 * abs(slope)
                err_cc = float(abs(k_cc - exact_cc)) * c3 * c3
                assert err_cc <= 1e-12 * d_t + 4 * eps, (c3, err_cc)
                for got, exact, d_y in ((k_cd, exact_cd, hess[0]), (k_cn, exact_cn, hess[2])):
                    err = float(abs(got - exact)) * c3
                    assert err <= 1e-12 * math.sqrt(d_t * d_y), (c3, got, float(exact))

    def test_c3_slope_rounding_down_to_the_bracket_floor(self):
        """Below 2^-16, K_c and dI_sph/dc3 are each a difference of terms of
        size about 1/c3, so their absolute rounding error grows like eps/c3.
        Down to the lowest c3 the outer search may evaluate,
        optimizer._C3_FLOOR/4, each stays within 2 eps/c3 of mp.diff of the
        60-digit function: the bound from which that floor is derived."""
        eps = math.ulp(1.0)
        lowest = optimizer._C3_FLOOR / 4.0
        c3s = [2.0**k for k in range(-17, -60, -1) if 2.0**k >= lowest]
        assert c3s[-1] < 2.0 * lowest
        with mp.workdps(60):
            for beta in [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX]:
                for c3 in c3s:
                    report = minimize_inner(c3, beta)
                    p = report.best_params
                    exact = mp.diff(lambda c: inner_k_mp(c, beta, p.delta, p.nu), mp.mpf(c3))
                    assert abs(report.slope - exact) <= 2.0 * eps / c3, (beta, c3)
            for alpha in (0.01, 0.1, 0.5, 1.0):
                for branch in SphBranch:
                    for c3 in c3s:
                        exact = mp.diff(lambda c: i_sph_mp(c, alpha, branch is SphBranch.PLUS),
                                        mp.mpf(c3))
                        got = i_sph_derivatives(c3, alpha, branch)[1]
                        assert abs(got - exact) <= 2.0 * eps / c3, (alpha, branch, c3)

    def test_k_form_matches_extended_precision(self):
        """At the inner optimum for c3 = 2^-16 .. 2^44, where delta ~ beta/(2 c3)
        falls far below ulp(c3/2) and J - c3/2 would cancel, the delta form
        returns the solve's K, and c3 K = c3 nu beta + c3 delta + log(M)
        equals the 50-digit value to 4e-15 relative."""
        for beta in [BETA_MIN, 0.005, 0.1, 0.5, 0.9, BETA_MAX]:
            for k in range(-16, 45, 2):
                c3 = 2.0**k
                report = minimize_inner(c3, beta)
                p = report.best_params
                value = i_uric_inner(c3, beta, None, p.nu, delta=p.delta)
                assert value == report.best_value, (beta, c3)
                with mp.workdps(CERT_DPS):
                    exact = inner_k_mp(c3, beta, p.delta, p.nu)
                    err = abs(float((mp.mpf(value) - exact) / exact))
                assert err <= 4e-15, (beta, c3, err)

    def test_series_ends_where_its_sum_rounds_negative(self):
        """Far from any optimum, at gamma = 1e300 (a start the caller may
        pass to the inner solve), eps e2 underflows and the first series
        term rounds negative; the sum still ends, and J is its linear
        part."""
        value, grad, _hess, _slope = i_uric_inner(1e-6, 0.1, 1e300, 1.0, derivatives=True)
        assert value == 1e300 and grad == (1.0, 0.1)

    def test_derivatives_require_positive_nu(self):
        with pytest.raises(ValueError):
            i_uric_inner(0.5, 0.1, 0.5, 0.0, derivatives=True)
        assert math.isfinite(i_uric_inner(0.5, 0.1, 0.5, 0.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            i_uric_inner(0.0, 0.1, 0.5, 1.0)
        with pytest.raises(ValueError):
            i_uric_inner(0.5, 0.1, 0.5, -1.0)
        with pytest.raises(ValueError):
            i_uric_inner(0.5, 0.0, 0.5, 1.0)  # beta outside clamped domain
        with pytest.raises(ValueError):
            i_uric_inner(2.0, 0.1, 0.9, 1.0)  # p > 1/2


class TestAssembledObjectives:
    def test_upper_objective_small_c3_matches_simple(self):
        shape = ProblemShape(0.1, 0.01)
        assert lifted_upper_objective(1e-4, shape) == pytest.approx(
            simple_upper(shape).value, abs=1e-3
        )

    def test_upper_objective_at_tabulated_c3(self):
        shape = ProblemShape(0.1, 0.01)
        assert lifted_upper_objective(0.2577, shape) == pytest.approx(1.8525, abs=5e-3)

    def test_lower_objective_small_c3_matches_simple(self):
        shape = ProblemShape(0.1, 0.005)
        assert lifted_lower_objective(1e-4, shape) == pytest.approx(
            simple_lower(shape).value, abs=1e-3
        )

    def test_lower_objective_at_tabulated_c3(self):
        shape = ProblemShape(0.3, 0.03)
        assert lifted_lower_objective(1.0607, shape) == pytest.approx(0.3355, abs=5e-3)

    def test_upper_objective_dominates_sampled_empirical(self):
        """Any c3 > 0 yields a valid upper bound, so even a sampled (hence
        understated) finite-size maximum must sit below it plus slack; the
        mirrored statement holds for the lower side."""
        from ric_bounds import empirical_ric

        shape = ProblemShape(0.5, 0.1)
        uric, lric = empirical_ric(20, 40, 4, trials=3, support_budget=2000, seed=11)
        for c3 in (0.05, 0.4, 2.0):
            assert lifted_upper_objective(c3, shape) >= uric.mean - 0.1
            assert lifted_lower_objective(c3, shape) <= lric.mean + 0.1
