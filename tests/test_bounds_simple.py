"""Closed-form bound formulas against reference cells and their identities."""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric_bounds import (
    ProblemShape,
    bounds_simple,
    cli,
    erf,
    erfc,
    optimal_nu,
    simple_lower,
    simple_upper,
    tail_term,
)
from ric_bounds.bounds_simple import KIND_LOWER_SIMPLE, KIND_UPPER_SIMPLE

from oracles import erfinv_bisect, truncated_second_moment

shapes = st.builds(
    lambda alpha, rho: ProblemShape.from_rho(alpha, rho),
    st.floats(0.01, 1.0),
    st.floats(0.01, 0.99),
)


class TestProblemShape:
    def test_rho(self):
        assert ProblemShape(0.5, 0.05).rho == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.5, 0.5), (0.5, 0.6), (1.1, 0.2), (0.5, 0.0), (0.5, -0.1), (0.0, 0.0),
         (0.5, 1e-7), (1.0, 0.9999995)],
    )
    def test_rejects_invalid(self, alpha, beta):
        with pytest.raises(ValueError):
            ProblemShape(alpha, beta)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ProblemShape(float("nan"), 0.1)


class TestTailTerm:
    def test_near_one_limit(self):
        """As beta -> 1 the erfinv factor vanishes and only sqrt(beta) is left."""
        beta = 1.0 - 1e-6
        assert tail_term(beta) == pytest.approx(math.sqrt(beta), abs=2e-6)

    def test_against_truncated_moment_oracle(self):
        """tail_term(beta)^2 is the second moment of a unit Gaussian beyond
        its (1 - beta) magnitude quantile; frozen from quadrature."""
        frozen = 0.5282995966150248
        nu_star = optimal_nu(0.05)
        assert math.sqrt(truncated_second_moment(nu_star)) == pytest.approx(frozen, abs=1e-13)
        assert tail_term(0.05) == pytest.approx(frozen, abs=1e-12)

    def test_table_cell_through_simple_upper(self):
        result = simple_upper(ProblemShape(0.1, 0.01))
        assert result.value == pytest.approx(1.9192, abs=5e-4)

    def test_nondecreasing_in_beta(self):
        betas = [0.001 + i * (0.998 / 199) for i in range(200)]
        vals = [tail_term(b) for b in betas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bounded_by_unit_second_moment(self):
        for b in (0.001, 0.05, 0.3173, 0.9, 0.999):
            assert 0.0 < tail_term(b) < 1.0

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1e-7, 1.0 - 1e-7, -0.5, 2.0])
    def test_rejects_outside_clamped_domain(self, beta):
        with pytest.raises(ValueError):
            tail_term(beta)


class TestSimpleBounds:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.5, 0.05, 1.7471), (0.9, 0.45, 2.0017), (0.1, 0.01, 1.9192), (0.3, 0.09, 2.1710)],
    )
    def test_upper_reference_cells(self, alpha, beta, expected):
        result = simple_upper(ProblemShape(alpha, beta))
        assert result.kind == KIND_UPPER_SIMPLE
        assert result.converged and result.params is None
        assert result.value == pytest.approx(expected, abs=5e-4)

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.1, 0.005, 0.3031), (0.5, 0.15, -0.056), (0.7, 0.21, 0.0247), (0.9, 0.45, -0.002)],
    )
    def test_lower_reference_cells(self, alpha, beta, expected):
        result = simple_lower(ProblemShape(alpha, beta))
        assert result.kind == KIND_LOWER_SIMPLE
        assert result.value == pytest.approx(expected, abs=5e-4)

    def test_upper_endpoint_identity(self):
        """At alpha = 1, beta -> 1 the tail term is ~sqrt(beta) -> 1."""
        value = simple_upper(ProblemShape(1.0, 1.0 - 1e-6)).value
        assert value == pytest.approx(2.0, abs=2e-6)

    @given(shapes)
    @settings(max_examples=200, deadline=None)
    def test_mirror_identity_exact(self, shape):
        """Upper and lower differ from 1 by the same term, so they sum to
        2 exactly (by construction, for any alpha >= 0.01)."""
        assert simple_upper(shape).value + simple_lower(shape).value == 2.0

    def test_upper_decreasing_lower_increasing_in_alpha(self):
        beta = 0.05
        alphas = [0.06 + 0.02 * i for i in range(48)]
        uppers = [simple_upper(ProblemShape(a, beta)).value for a in alphas]
        lowers = [simple_lower(ProblemShape(a, beta)).value for a in alphas]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        assert all(b > a for a, b in zip(lowers, lowers[1:]))


class TestOptimalNu:
    def test_near_one_limit(self):
        assert optimal_nu(1.0 - 1e-6) == pytest.approx(0.0, abs=2e-6)

    def test_against_bisection_oracle(self):
        """optimal_nu(0.5) = sqrt(2) * erfinv(0.5), frozen from bisection."""
        frozen = 0.6744897501960357
        assert math.sqrt(2.0) * erfinv_bisect(0.5, erf) == pytest.approx(frozen, abs=1e-12)
        assert optimal_nu(0.5) == pytest.approx(frozen, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 0.3, 0.5, 0.81, 0.99])
    def test_scalar_objective_is_minimized_there(self, beta):
        """tail_term(beta)^2 equals the scalar objective at optimal_nu(beta)
        and never exceeds it on a scan over nu >= 0."""

        def objective(nu):
            return (
                beta * nu * nu
                + erfc(nu / math.sqrt(2.0)) * (1.0 - nu * nu)
                + 2.0 * nu * math.exp(-0.5 * nu * nu) / math.sqrt(2.0 * math.pi)
            )

        target = tail_term(beta) ** 2
        nu_star = optimal_nu(beta)
        assert objective(nu_star) == pytest.approx(target, abs=1e-9)
        for i in range(301):
            nu = 6.0 * i / 300.0
            assert target <= objective(nu) + 1e-9


class TestThresholdCache:
    """u(beta) = erfinv(1 - beta) is computed once per beta per process."""

    @pytest.fixture
    def erfinv_calls(self, monkeypatch):
        """Counts the erfinv calls of bounds_simple from a cleared cache."""
        calls = []
        erfinv = bounds_simple.erfinv

        def counted(p):
            calls.append(p)
            return erfinv(p)

        monkeypatch.setattr(bounds_simple, "erfinv", counted)
        bounds_simple._threshold.cache_clear()
        yield calls
        bounds_simple._threshold.cache_clear()

    def test_default_sweep_calls_erfinv_once_per_beta(self, erfinv_calls):
        """The 30 default shapes have 20 distinct betas; all four kinds at a
        shape share its threshold, so a second sweep calls erfinv 0 times."""
        counts = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["sweep"])
            counts.append(len(erfinv_calls))
            erfinv_calls.clear()
        assert counts == [20, 0]

    @pytest.mark.parametrize("beta", [0.0, 1e-7, 1.0 - 1e-7, 1.0, math.nan])
    def test_out_of_domain_still_raises_after_cached_calls(self, erfinv_calls, beta):
        for b in (bounds_simple.BETA_MIN, 0.3, bounds_simple.BETA_MAX):
            tail_term(b)
            optimal_nu(b)
        cached = bounds_simple._threshold.cache_info().currsize
        for fn in (tail_term, optimal_nu, tail_term):
            with pytest.raises(ValueError, match="beta must lie in"):
                fn(beta)
        assert bounds_simple._threshold.cache_info().currsize == cached == 3
        assert len(erfinv_calls) == 3

    def test_cached_values_equal_direct_ones(self, erfinv_calls):
        for beta in (1e-6, 0.005, 0.09, 0.45, 0.81, 1.0 - 1e-6):
            u = bounds_simple.erfinv(1.0 - beta)
            first, again = tail_term(beta), tail_term(beta)
            assert first == again == math.sqrt(
                beta + 2.0 * u / (math.sqrt(math.pi) * math.exp(u * u)))
            assert optimal_nu(beta) == math.sqrt(2.0) * u
