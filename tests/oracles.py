"""Independent oracles used to pin expected values in the test suite.

Each oracle evaluates a quantity through a route disjoint from the
implementation path it validates: numerical quadrature instead of
series/continued fractions, extended-precision arithmetic instead of
doubles, bisection instead of Newton, Monte Carlo instead of closed
forms, and power iteration instead of a dense eigensolver.

The module ends with reference implementations: plain loop-and-list
forms of two package kernels that the package runs in faster forms,
against which those are checked bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from ric_bounds.specfun import _TRAP_H, _TRAP_NO_CORRECTION, _TRAP_TERMS, _TWO_PI_OVER_H


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Classic adaptive Simpson quadrature with Richardson correction."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return mid, (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))

    def rec(lo, hi, mid_whole, tol):
        mid, whole = mid_whole
        lmid, left = simpson(lo, mid)
        rmid, right = simpson(mid, hi)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, (lmid, left), tol / 2.0) + rec(mid, hi, (rmid, right), tol / 2.0)

    return rec(a, b, simpson(a, b), tol)


def erf_quadrature(x: float, tol: float = 1e-15) -> float:
    """erf via direct quadrature of its defining integral."""
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0 else -1.0
    return sign * 2.0 / math.sqrt(math.pi) * adaptive_simpson(
        lambda t: math.exp(-t * t), 0.0, abs(x), tol
    )


def _erf_series_mp(x):
    """All-positive-term erf series evaluated in 60-digit arithmetic."""
    x = mp.mpf(x)
    z = 2 * x * x
    term = mp.mpf(1)
    acc = mp.mpf(1)
    n = 0
    while True:
        n += 1
        term *= z / (2 * n + 1)
        acc += term
        if term < mp.mpf(10) ** -58 * acc:
            break
    return 2 / mp.sqrt(mp.pi) * x * mp.exp(-x * x) * acc


def erfc_highprec(x: float) -> float:
    """erfc through extended-precision arithmetic.

    Below x = 6 the 60-digit all-positive series leaves ~40 significant
    digits after the 1 - erf cancellation; beyond that the series' peak
    term ~e^{x^2} would exhaust any fixed precision, so the oracle defers
    to mpmath's own erfc (an implementation independent of this package).
    """
    with mp.workdps(60):
        if abs(x) < 6.0:
            return float(1 - _erf_series_mp(x))
        return float(mp.erfc(mp.mpf(x)))


def erfcx_highprec(x: float) -> float:
    """erfcx by composing e^{x^2} with the extended-precision erfc.

    The product has no cancellation, so 60 working digits hold for any x
    as long as x^2 is formed exactly in extended precision.
    """
    with mp.workdps(60):
        xm = mp.mpf(x)
        if x < 6.0:
            return float(mp.exp(xm * xm) * (1 - _erf_series_mp(xm)))
        return float(mp.exp(xm * xm) * mp.erfc(xm))


def erfinv_bisect(p: float, erf_fn, width: float = 1e-13) -> float:
    """Invert erf_fn by plain bisection on [0, 6.5] (p > 0)."""
    lo, hi = 0.0, 6.5
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if erf_fn(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def truncated_second_moment(nu: float) -> float:
    """E[h^2; |h| >= nu] for h ~ N(0,1), via quadrature of the density."""
    return 2.0 * adaptive_simpson(
        lambda h: h * h * math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi),
        nu,
        nu + 12.0,  # the integrand beyond 12 sigma past nu is ~e^{-72} of the total
        1e-16,
    )


def moment_monte_carlo(
    c3: float, gamma: float, nu: float, samples: int, seed: int
) -> tuple[float, float]:
    """(mean, standard error) of e^{c3 max(h^2/(4 gamma) - nu, 0)} by MC."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        block = min(remaining, 1_000_000)
        h = rng.standard_normal(block)
        x = np.exp(c3 * np.maximum(h * h / (4.0 * gamma) - nu, 0.0))
        total += float(x.sum())
        total_sq += float((x * x).sum())
        remaining -= block
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def gram_extremes_power_iteration(
    gram: np.ndarray, iterations: int = 4000
) -> tuple[float, float]:
    """(sigma_min, sigma_max) from a Gram matrix via shifted power iteration.

    The largest eigenvalue comes from power iteration on G; the smallest
    from power iteration on (lam_max I - G).  Deterministic start vector.
    """
    k = gram.shape[0]
    v = np.ones(k) / math.sqrt(k)
    for _ in range(iterations):
        v = gram @ v
        v /= np.linalg.norm(v)
    lam_max = float(v @ gram @ v)

    shifted = lam_max * np.eye(k) - gram
    w = np.arange(1.0, k + 1.0)
    w /= np.linalg.norm(w)
    for _ in range(iterations):
        w = shifted @ w
        norm = np.linalg.norm(w)
        if norm == 0.0:  # gram == lam_max I exactly
            break
        w /= norm
    lam_min = lam_max - float(w @ shifted @ w)
    return math.sqrt(max(lam_min, 0.0)), math.sqrt(max(lam_max, 0.0))


# --- reference implementations ----------------------------------------------
#
# Unlike the oracles above, these follow the package's own algorithms step
# for step, in their plain loop-and-list form.  The package runs faster
# forms of them (an unrolled erfcx sum, a 2-D simplex on tuples) that must
# round identically, so the tests compare the two bit for bit.


def erfcx_trap_loop(x: float) -> float:
    """erfcx on [0.1, 10): the corrected trapezoidal sum accumulated in a loop."""
    x2 = x * x
    acc = 1.0 / x2
    for w, kh2 in _TRAP_TERMS:
        acc += 2.0 * w / (x2 + kh2)
    t = _TRAP_H * x / math.pi * acc
    if x < _TRAP_NO_CORRECTION:
        t -= 2.0 * math.exp(x2) / math.expm1(_TWO_PI_OVER_H * x)
    return t


def nelder_mead_lists(f, x0, step, tol, max_evals):
    """n-D Nelder-Mead on lists, simplex re-sorted by (value, index) each step;
    returns (x, fx, evals, converged) like ``optimizer._nelder_mead``."""
    n = len(x0)
    budget = max(max_evals, n + 1)  # the initial simplex is mandatory
    pts = [list(x0)]
    for i in range(n):
        p = list(x0)
        p[i] += step
        pts.append(p)
    vals = [f(p) for p in pts]
    evals = n + 1
    ib = min(range(n + 1), key=lambda i: (vals[i], i))
    best_x, best_f = list(pts[ib]), vals[ib]
    while True:
        order = sorted(range(n + 1), key=lambda i: (vals[i], i))
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[-1] - vals[0] < tol:
            return best_x, best_f, evals, True
        if evals >= budget:
            return best_x, best_f, evals, False

        centroid = [sum(p[i] for p in pts[:-1]) / n for i in range(n)]
        xr = [centroid[i] + (centroid[i] - pts[-1][i]) for i in range(n)]
        fr = f(xr)
        evals += 1
        if fr < best_f:
            best_x, best_f = list(xr), fr
        if fr < vals[0]:
            if evals < budget:
                xe = [centroid[i] + 2.0 * (centroid[i] - pts[-1][i]) for i in range(n)]
                fe = f(xe)
                evals += 1
                if fe < best_f:
                    best_x, best_f = list(xe), fe
                if fe < fr:
                    xr, fr = xe, fe
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        elif evals < budget:
            xc = [centroid[i] + 0.5 * (pts[-1][i] - centroid[i]) for i in range(n)]
            fc = f(xc)
            evals += 1
            if fc < best_f:
                best_x, best_f = list(xc), fc
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    if evals >= budget:
                        break
                    pts[i] = [0.5 * (pts[i][j] + pts[0][j]) for j in range(n)]
                    vals[i] = f(pts[i])
                    evals += 1
                    if vals[i] < best_f:
                        best_x, best_f = list(pts[i]), vals[i]
