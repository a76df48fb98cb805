"""Scalar error-function family: erf, erfc, erfcx and erfinv.

These are implemented from scratch (no libm erf, no third-party special
functions) so that every bound value produced by this package is
reproducible bit-for-bit across platforms.  Three evaluation kernels
cover the whole real line without cancellation:

* a Maclaurin-type series with all-positive terms,
  erf(x) = (2/sqrt(pi)) x e^{-x^2} sum_n (2x^2)^n / (1*3*...*(2n+1)),
  used for small arguments;
* a trapezoidal discretization of
  erfcx(x) = (x/pi) * integral e^{-t^2} / (x^2 + t^2) dt
  with precomputed Gaussian weights plus the exact pole correction
  2 e^{x^2} / (e^{2 pi x / h} - 1), used on the mid range;
* the alternating asymptotic series for erfcx, used for large arguments
  where it converges below double precision within ~15 terms.

erfinv is a rational seed polished by Newton steps against erf/erfc,
safeguarded by a bisection bracket.

Accuracy, verified against independent oracles by the test suite:
erf absolute error < 1e-14; erfc and erfcx relative error < 1e-12
(erfc until the true value underflows near x ~ 26.6); erfinv satisfies
|erf(erfinv(p)) - p| <= 1e-12.

All functions are pure, reentrant and safe for concurrent use.  Domain
violations raise ValueError; callers are responsible for any clamping.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI

# Trapezoidal kernel constants.  Step h = 0.45 puts the discretization
# error e^{-(pi/h)^2} ~ 7.5e-22 far below double precision, and the
# Gaussian weights decay below 1e-19 by k = 16.
_TRAP_H = 0.45
_TRAP_TERMS = tuple(
    (math.exp(-(_TRAP_H * k) ** 2), (_TRAP_H * k) ** 2) for k in range(1, 17)
)
_TWO_PI_OVER_H = 2.0 * math.pi / _TRAP_H
# Threshold above which the pole correction is below 1e-16 relative.
_TRAP_NO_CORRECTION = 3.5


def _erf_series(x: float) -> float:
    """erf on [0, 2) via the all-positive-term series (no cancellation)."""
    z = 2.0 * x * x
    term = 1.0
    acc = 1.0
    n = 0
    while term > 1e-17 * acc:
        n += 1
        term *= z / (2.0 * n + 1.0)
        acc += term
        if n > 300:  # unreachable for x < 2; guards the loop invariant
            raise ArithmeticError(f"erf series did not converge at x={x!r}")
    return _TWO_OVER_SQRT_PI * x * math.exp(-x * x) * acc


def _compile_erfcx_trap():
    """Build the mid-range kernel with the trapezoidal sum unrolled.

    The generated body is

        acc = 1/x2 + (2 w_1)/(x2 + (h)^2) + ... + (2 w_16)/(x2 + (16 h)^2)

    summed left to right with every constant inlined as an exact float
    literal (repr round-trips), which is the same sequence of roundings
    as accumulating the terms in a loop: doubling w is exact, so
    (2 w)/(...) is the loop's 2.0 * w / (...).  Unrolling only removes
    the interpreter's loop and tuple-unpacking overhead.
    """
    terms = " + ".join(f"{2.0 * w!r} / (x2 + {kh2!r})" for w, kh2 in _TRAP_TERMS)
    source = (
        "def _erfcx_trap(x):\n"
        '    """erfcx on [0.1, 10) via the corrected trapezoidal sum."""\n'
        "    x2 = x * x\n"
        f"    acc = 1.0 / x2 + {terms}\n"
        f"    t = {_TRAP_H!r} * x / {math.pi!r} * acc\n"
        f"    if x < {_TRAP_NO_CORRECTION!r}:\n"
        f"        t -= 2.0 * exp(x2) / expm1({_TWO_PI_OVER_H!r} * x)\n"
        "    return t\n"
    )
    namespace = {"__name__": __name__, "exp": math.exp, "expm1": math.expm1}
    exec(compile(source, "<ric_bounds.specfun._erfcx_trap>", "exec"), namespace)
    return namespace["_erfcx_trap"]


_erfcx_trap = _compile_erfcx_trap()


def _erfcx_asymptotic(x: float) -> float:
    """erfcx for x >= 10 via the asymptotic series in 1/(2x^2)."""
    inv2x2 = 1.0 / (2.0 * x * x)
    term = 1.0
    acc = 1.0
    n = 0
    while True:
        n += 1
        term *= -(2.0 * n - 1.0) * inv2x2
        acc += term
        if abs(term) < 1e-17 * acc or n > 60:
            break
    return acc / (x * _SQRT_PI)


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    Strictly decreasing from erfcx(0) = 1 toward the 1/(x sqrt(pi))
    asymptote; never overflows or underflows.  Raises ValueError for
    negative arguments (not needed by this package and therefore a
    contract violation rather than a supported branch).
    """
    if x < 0.0:
        raise ValueError(f"erfcx requires x >= 0, got {x!r}")
    if x < 0.1:
        return math.exp(x * x) * (1.0 - _erf_series(x))
    if x < 10.0:
        return _erfcx_trap(x)
    return _erfcx_asymptotic(x)


def erf(x: float) -> float:
    """Error function of a zero-mean unit-variance Gaussian argument."""
    ax = abs(x)
    if ax < 2.0:
        r = _erf_series(ax)
    else:
        # e^{-x^2} underflows for ax > ~26.6, where erf has long since
        # rounded to 1.0 anyway.
        r = 1.0 - math.exp(-ax * ax) * erfcx(ax)
    return r if x >= 0.0 else -r


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x), cancellation-free.

    Relative accuracy is ~1e-13 or better until the true value leaves
    the double range (x ~ 26.6); beyond that the result degrades into
    subnormals and finally underflows to 0.0.
    """
    if x < 0.0:
        # 1 + |erf(x)|: pure addition, no cancellation.
        return 2.0 - erfc(-x) if x <= -2.0 else 1.0 + _erf_series(-x)
    if x < 2.0:
        # erfc(2) ~ 4.7e-3, so the subtraction costs at most ~3 digits.
        return 1.0 - _erf_series(x)
    return math.exp(-x * x) * erfcx(x)


def erfinv(p: float) -> float:
    """Inverse of erf on (-1, 1).

    A rational seed in w = -log(1 - p^2) is refined by Newton iterations
    against erf (erfc for |p| > 1/2, which keeps the residual
    cancellation-free near the endpoints).  A [lo, hi] bracket is
    maintained throughout; any Newton step leaving it falls back to
    bisection, so convergence does not depend on seed quality.
    """
    if not -1.0 < p < 1.0:
        raise ValueError(f"erfinv requires |p| < 1, got {p!r}")
    if p == 0.0:
        return 0.0
    q = abs(p)

    w = -math.log((1.0 - q) * (1.0 + q))
    if w < 5.0:
        w -= 2.5
        s = 2.81022636e-08
        s = 3.43273939e-07 + s * w
        s = -3.5233877e-06 + s * w
        s = -4.39150654e-06 + s * w
        s = 0.00021858087 + s * w
        s = -0.00125372503 + s * w
        s = -0.00417768164 + s * w
        s = 0.246640727 + s * w
        s = 1.50140941 + s * w
    else:
        w = math.sqrt(w) - 3.0
        s = -0.000200214257
        s = 0.000100950558 + s * w
        s = 0.00134934322 + s * w
        s = -0.00367342844 + s * w
        s = 0.00573950773 + s * w
        s = -0.0076224613 + s * w
        s = 0.00943887047 + s * w
        s = 1.00167406 + s * w
        s = 2.83297682 + s * w
    x = s * q

    # erf(6.5) rounds to 1.0 in doubles, so [0, 6.5] brackets the root of
    # erf(x) = q for every representable q < 1.
    lo, hi = 0.0, 6.5
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    one_minus_q = 1.0 - q  # exact for q >= 0.5 (Sterbenz)
    for _ in range(100):
        if q > 0.5:
            g = one_minus_q - erfc(x)  # == erf(x) - q without cancellation
        else:
            g = erf(x) - q
        if g == 0.0:
            break
        if g < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - g / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * x:
            x = x_new
            break
        x = x_new
    return x if p > 0.0 else -x
