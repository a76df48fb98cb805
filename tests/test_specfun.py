"""Error-function family against independent oracles and its invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ric_bounds.specfun import erf, erfc, erfcx, erfinv

from oracles import (
    erf_quadrature,
    erfc_highprec,
    erfcx_highprec,
    erfcx_trap_loop,
    erfinv_bisect,
)


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        assert abs(erf(10.0) - 1.0) <= 1e-14
        assert abs(erf(-10.0) + 1.0) <= 1e-14

    def test_against_quadrature_oracle(self):
        """Frozen value computed by adaptive Simpson quadrature of the
        defining integral; the oracle is rerun to guard the freeze."""
        frozen = 0.5204998778130465
        assert abs(erf_quadrature(0.5) - frozen) <= 1e-14
        assert abs(erf(0.5) - frozen) <= 1e-12

    def test_quadrature_grid(self):
        for x in np.linspace(-5.5, 5.5, 45):
            assert abs(erf(float(x)) - erf_quadrature(float(x), tol=1e-15)) <= 1e-13

    def test_odd_symmetry(self):
        for x in np.linspace(0.0, 6.0, 61):
            assert erf(-float(x)) == -erf(float(x))

    def test_strictly_increasing_on_grid(self):
        xs = np.linspace(-4.0, 4.0, 401)
        vals = [erf(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_large_argument_against_series_oracle(self):
        """erfc(5) frozen from a 60-digit series evaluation."""
        frozen = 1.537459794428035e-12
        assert abs(erfc_highprec(5.0) - frozen) <= 1e-12 * frozen
        assert abs(erfc(5.0) - frozen) <= 1e-12 * frozen

    def test_relative_accuracy_until_underflow(self):
        # beyond x ~ 26.6 the true value is not representable in a double
        for x in np.linspace(0.0, 26.0, 105):
            ref = erfc_highprec(float(x))
            assert abs(erfc(float(x)) - ref) <= 1e-12 * abs(ref)

    def test_negative_arguments(self):
        for x in np.linspace(-6.0, 0.0, 25):
            ref = erfc_highprec(float(x))
            assert abs(erfc(float(x)) - ref) <= 1e-13 * abs(ref)

    @given(st.floats(-6.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_complement_identity(self, x):
        assert abs(erf(x) + erfc(x) - 1.0) <= 1e-14


class TestErfcx:
    def test_at_zero(self):
        assert erfcx(0.0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erfcx(-1e-9)

    def test_leading_asymptote(self):
        assert abs(erfcx(50.0) * 50.0 * math.sqrt(math.pi) - 1.0) <= 1e-3

    def test_against_composition_oracle(self):
        """erfcx(2) frozen from e^{x^2} * erfc(x) in 60-digit arithmetic."""
        frozen = 0.25539567631050575
        assert abs(erfcx_highprec(2.0) - frozen) <= 1e-13 * frozen
        assert abs(erfcx(2.0) - frozen) <= 1e-12 * frozen

    def test_highprec_grid(self):
        # crosses all three kernel seams (0.1, 3.5, 10)
        for x in np.concatenate(
            [np.linspace(0.0, 0.3, 30), np.linspace(0.3, 12.0, 120), np.linspace(12.0, 80.0, 35)]
        ):
            ref = erfcx_highprec(float(x))
            assert abs(erfcx(float(x)) - ref) <= 1e-12 * ref

    @given(st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_scaling_identity(self, x):
        """erfcx agrees with the direct product where e^{x^2} is benign."""
        direct = math.exp(x * x) * erfc(x)
        assert abs(erfcx(x) - direct) <= 1e-12 * erfcx(x)

    def test_strictly_decreasing_on_grid(self):
        xs = np.linspace(0.0, 30.0, 601)
        vals = [erfcx(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_mid_range_matches_loop_reference_bit_for_bit(self):
        """The unrolled trapezoidal kernel rounds exactly like the loop it
        replaced, on 50k points each side of the 3.5 pole-correction
        threshold plus the range and threshold edges."""
        rng = np.random.default_rng(20261018)
        xs = np.concatenate([
            rng.uniform(0.1, 3.5, 50_000),
            rng.uniform(3.5, 10.0, 50_000),
            [0.1, np.nextafter(3.5, 0.0), 3.5, np.nextafter(10.0, 0.0)],
        ])
        mismatches = [x for x in map(float, xs) if erfcx(x) != erfcx_trap_loop(x)]
        assert mismatches == []


class TestErfinv:
    def test_at_zero(self):
        assert erfinv(0.0) == 0.0

    @pytest.mark.parametrize("p", [1.0, -1.0, 1.5, -2.0])
    def test_rejects_endpoints(self, p):
        with pytest.raises(ValueError):
            erfinv(p)

    def test_round_trip_at_moderate_argument(self):
        assert abs(erfinv(erf(1.3)) - 1.3) <= 1e-10

    def test_against_bisection_oracle(self):
        """erfinv(0.99) frozen from bisection on erf to width 1e-13."""
        frozen = 1.8213863677184783
        assert abs(erfinv_bisect(0.99, erf) - frozen) <= 1e-12
        assert abs(erfinv(0.99) - frozen) <= 1e-12
        assert abs(erf(erfinv(0.99)) - 0.99) <= 1e-12

    @given(st.floats(-0.999999, 0.999999))
    @settings(max_examples=300, deadline=None)
    def test_forward_residual(self, p):
        """The well-conditioned direction: erf(erfinv(p)) recovers p."""
        assert abs(erf(erfinv(p)) - p) <= 1e-12

    def test_round_trip_at_conditioning_floor(self):
        """erfinv(erf(x)) - x can be no smaller than the rounding of
        erf(x) to a double divided by erf'(x); check the implementation
        sits at that floor (plus a 1e-10 allowance for benign x).

        Near |x| = 4 the floor itself is ~4.4e-10, so a fixed 1e-10
        tolerance is unattainable there for any double implementation.
        """
        for x in np.linspace(-4.0, 4.0, 401):
            x = float(x)
            err = abs(erfinv(erf(x)) - x)
            # 1 ulp of erf(x) near 1, propagated through the inverse slope
            floor = 1.2e-16 * math.sqrt(math.pi) / 2.0 * math.exp(min(x * x, 16.0))
            assert err <= max(1e-10, floor), (x, err, floor)
