"""Independent oracles used to pin expected values in the test suite.

Each oracle evaluates a quantity through a route disjoint from the
implementation path it validates: numerical quadrature instead of
series/continued fractions, extended-precision arithmetic instead of
doubles, bisection instead of Newton, Monte Carlo instead of closed
forms, and power iteration instead of a dense eigensolver.

Reference implementations follow: plain loop-and-list forms of package
kernels that the package runs in faster forms, against which those are
checked bit for bit.  The module ends with helpers that only the tests
use: the lifted objectives assembled from an inner value J, a support
type and the extreme singular values of one support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from ric_bounds import (
    GaussianMatrix,
    SphBranch,
    i_uric_inner,
    minimize_inner,
    optimizer,
    simple_lower,
    simple_upper,
)
from ric_bounds.bounds_lifted import signed_value
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


# --- the lifted objective in extended precision ------------------------------
#
# The package evaluates the moment M on the erfcx path in doubles; these
# evaluate it from the erfc closed form at CERT_DPS digits.  Arguments are
# taken as exact binary values and results are mpf at CERT_DPS digits, so
# call them (and combine their results) inside ``mp.workdps(CERT_DPS)``.

CERT_DPS = 50


def _moment_mp(c3, gamma, nu):
    """(M, T, Q) for h ~ N(0,1), p = c3/(4 gamma) and b = 2 sqrt(gamma nu):

    M = E exp(c3 max(h^2/(4 gamma) - nu, 0))
      = e^{-c3 nu}/sqrt(1-2p) erfc(sqrt(2 nu gamma (1-2p))) + erf(sqrt(2 nu gamma)),
    T = E[e^{c3 (h^2/(4 gamma) - nu)}; |h| > b]      (the first summand of M),
    Q = E[h^2 e^{c3 (h^2/(4 gamma) - nu)}; |h| > b].
    """
    c3, gamma, nu = mp.mpf(c3), mp.mpf(gamma), mp.mpf(nu)
    omp = 1 - c3 / (2 * gamma)  # 1 - 2p
    s = 2 * nu * gamma
    z = mp.sqrt(s * omp)  # b sqrt(1-2p) / sqrt(2)
    scale = mp.exp(-c3 * nu)
    tail = scale / mp.sqrt(omp) * mp.erfc(z)
    # int_c^inf x^2 e^{-x^2/2} dx = c e^{-c^2/2} + sqrt(pi/2) erfc(c/sqrt 2), c = b sqrt(1-2p)
    second = scale / omp ** 1.5 * (2 * z / mp.sqrt(mp.pi) * mp.exp(-z * z) + mp.erfc(z))
    return tail + mp.erf(mp.sqrt(s)), tail, second


def inner_objective_mp(c3, beta, gamma, nu):
    """J(c3, beta, gamma, nu) = nu beta + gamma + log(M)/c3."""
    moment = _moment_mp(c3, gamma, nu)[0]
    return mp.mpf(nu) * mp.mpf(beta) + mp.mpf(gamma) + mp.log(moment) / mp.mpf(c3)


def inner_k_mp(c3, beta, delta, nu):
    """K(c3, beta, delta, nu) = J - c3/2 = nu beta + delta + log(M)/c3 at
    gamma = c3/2 + delta, formed exactly from the binary delta."""
    c3, delta = mp.mpf(c3), mp.mpf(delta)
    moment = _moment_mp(c3, c3 / 2 + delta, nu)[0]
    return mp.mpf(nu) * mp.mpf(beta) + delta + mp.log(moment) / c3


def inner_gradient_mp(c3, beta, gamma, nu):
    """(dJ/dgamma, dJ/dnu) = (1 - Q/(4 gamma^2 M), beta - T/M)."""
    moment, tail, second = _moment_mp(c3, gamma, nu)
    gamma = mp.mpf(gamma)
    return 1 - second / (4 * gamma * gamma * moment), mp.mpf(beta) - tail / moment


def inner_minimum_mp(c3, beta, gamma, nu):
    """(gamma*, nu*, J*) of min J at this c3: Newton on the gradient from
    (gamma, nu).  J is convex, so a stationary point is the minimum."""
    g, n = mp.findroot(lambda g, n: inner_gradient_mp(c3, beta, g, n),
                       (mp.mpf(gamma), mp.mpf(nu)))
    return g, n, inner_objective_mp(c3, beta, g, n)


def i_sph_mp(c3, alpha, plus: bool):
    """ghat - (alpha/(2 c3)) log(1 - c3/(2 ghat)), ghat = (2 c3 +- sqrt(4 c3^2 + 16 alpha))/8."""
    c3, alpha = mp.mpf(c3), mp.mpf(alpha)
    root = mp.sqrt(4 * c3 * c3 + 16 * alpha)
    ghat = (2 * c3 + root) / 8 if plus else (2 * c3 - root) / 8
    return ghat - alpha / (2 * c3) * mp.log(1 - c3 / (2 * ghat))


def lifted_value_mp(upper: bool, alpha, beta, c3, gamma, nu, delta=None):
    """The assembled upper or lower objective at (c3, gamma, nu), or, given
    ``delta``, at gamma = c3/2 + delta formed exactly from the binary delta
    (past c3 ~ 1e7 the binary gamma no longer carries delta)."""
    if delta is None:
        inner = inner_objective_mp(c3, beta, gamma, nu) - mp.mpf(c3) / 2
    else:
        inner = inner_k_mp(c3, beta, delta, nu)
    value = (inner + i_sph_mp(c3, alpha, upper)) / mp.sqrt(mp.mpf(alpha))
    return value if upper else -value


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
# forms of them (an unrolled erfcx sum, a 2-D simplex on tuples, a support
# sampler batched over counters, extremes screened by Cholesky) that must
# give identical results, so the tests compare the two bit for bit.


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


_MASK64 = (1 << 64) - 1


def mix64_scalar(z: int) -> int:
    """splitmix64 finalizer on a Python int."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _floyd_support(n: int, k: int, base: int, counter: int) -> tuple[int, ...]:
    """Floyd's uniform k-subset of {0..n-1}, keyed by (base, counter)."""
    state = mix64_scalar(base ^ mix64_scalar(counter))
    chosen: set[int] = set()
    for j in range(n - k, n):
        state = mix64_scalar(state)
        t = state % (j + 1)
        chosen.add(t if t not in chosen else j)
    return tuple(sorted(chosen))


def sampled_supports_loop(n: int, k: int, budget: int, seed: int, trial: int) -> np.ndarray:
    """``empirical._sampled_supports`` one counter at a time with a seen-set."""
    trial_base = mix64_scalar(mix64_scalar(seed & _MASK64) ^ mix64_scalar(trial & _MASK64))
    base = mix64_scalar(trial_base ^ 0x5851F42D4C957F2D)
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    counter = 0
    limit = 50 * budget + 1000
    while len(out) < budget:
        sup = _floyd_support(n, k, base, counter)
        counter += 1
        if sup not in seen:
            seen.add(sup)
            out.append(sup)
        if counter > limit:
            raise RuntimeError(
                f"could not draw {budget} distinct supports from C({n},{k})={math.comb(n, k)}"
            )
    return np.asarray(out, dtype=np.intp)


def extreme_gram_eigs_unscreened(gram_full: np.ndarray, supports: np.ndarray) -> tuple[float, float]:
    """``empirical._extreme_gram_eigs`` without the screen: eigvalsh on every block."""
    lam_min = math.inf
    lam_max = -math.inf
    chunk = 20000
    for start in range(0, supports.shape[0], chunk):
        block = supports[start : start + chunk]
        grams = gram_full[block[:, :, None], block[:, None, :]]
        eigs = np.linalg.eigvalsh(grams)
        lam_min = min(lam_min, float(eigs[:, 0].min()))
        lam_max = max(lam_max, float(eigs[:, -1].max()))
    return lam_min, lam_max


# --- the replaced c3 search ---------------------------------------------------
#
# The package once found c3 by a log scan, a widening rule and golden
# section.  One projected Newton run in (log c3, delta, nu) replaced them;
# it follows another path, so the tests compare its results with this
# search's within the inner solve's noise instead of bit for bit.

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, a, b, tol):
    """Golden-section minimize on [a, b]; returns the best evaluated (value, x)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    best = min((fc, c), (fd, d))
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
            if (fc, c) < best:
                best = (fc, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
            if (fd, d) < best:
                best = (fd, d)
    return best


def optimize_outer_scan(shape, cfg, upper: bool) -> tuple[float, float, bool]:
    """The c3 search as a log scan of ``cfg.c3_bracket``, at least 25 points
    and 4 per decade, widened 4x once when the best point sits on an edge,
    then golden section with absolute width ``cfg.outer_tol`` between the
    best point's neighbours.  Returns (value, c3, converged) like
    ``optimizer._optimize_outer``; c3 is 0 when the c3 -> 0 limit (the
    simple bound) wins."""
    reports = {}

    def signed_objective(c3):
        if c3 not in reports:
            reports[c3] = minimize_inner(c3, shape.beta, cfg)
        branch = SphBranch.PLUS if upper else SphBranch.MINUS
        return signed_value(c3, shape.alpha, reports[c3].best_value, branch)

    def log_grid(lo, hi):
        ratio = hi / lo
        count = max(25, math.ceil(4.0 * math.log10(ratio)) + 1)
        return [lo * ratio ** (i / (count - 1)) for i in range(count)]

    lo, hi = cfg.c3_bracket
    edge_fail = False
    for attempt in (0, 1):
        grid = log_grid(lo, hi)
        vals = [signed_objective(c) for c in grid]
        i_best = min(range(len(grid)), key=lambda i: (vals[i], i))
        at_edge = i_best in (0, len(grid) - 1)
        if not at_edge or attempt == 1:
            edge_fail = at_edge
            break
        if i_best == 0:
            lo = lo / 4.0
        else:
            hi = hi * 4.0

    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, len(grid) - 1)]
    candidates = [(vals[i], grid[i]) for i in range(len(grid))]
    candidates.append(_golden_section(signed_objective, a, b, cfg.outer_tol))
    limit_value = simple_upper(shape).value if upper else simple_lower(shape).value
    candidates.append((limit_value if upper else -limit_value, 0.0))

    best_val, best_c3 = min(candidates)
    if best_c3 == 0.0:
        converged = not (edge_fail and i_best == len(grid) - 1)
    else:
        converged = reports[best_c3].converged and not edge_fail
    return (best_val if upper else -best_val), best_c3, converged


# --- the replaced inner solve -------------------------------------------------
#
# The inner solve was once one Nelder-Mead simplex in
# (log(gamma - c3/2), log nu) from the analytic c3 -> 0 optimum.  Damped
# Newton replaced it; the tests require Newton's minimum to be no higher
# than this simplex's by more than inner_tol.  It runs here on the list
# simplex above, which rounds exactly like the one the package used, on
# K = J - c3/2 as the package's Newton does.


def single_simplex_inner(c3: float, beta: float, cfg) -> tuple[float, int]:
    """(best K, evaluations) of the single-start simplex."""

    def objective(x):
        u, v = x
        if u > 700.0 or v > 700.0:
            return math.inf
        return i_uric_inner(c3, beta, None, math.exp(v), delta=math.exp(u))

    g0, threshold_sq = optimizer._limit_seed(beta)
    seed = (math.log(g0), math.log(threshold_sq / (4.0 * (0.5 * c3 + g0))))
    _x, fx, evals, _converged = nelder_mead_lists(
        objective, seed, step=0.5, tol=cfg.inner_tol, max_evals=cfg.max_evals)
    return fx, evals


# --- test-only helpers of the lifted objectives --------------------------------


def upper_value_from_inner(c3: float, shape, inner_value: float) -> float:
    """Assemble the upper objective from an already-minimized inner value J."""
    return signed_value(c3, shape.alpha, inner_value - 0.5 * c3, SphBranch.PLUS)


def lower_value_from_inner(c3: float, shape, inner_value: float) -> float:
    """Assemble the lower objective from an already-minimized inner value J."""
    return -signed_value(c3, shape.alpha, inner_value - 0.5 * c3, SphBranch.MINUS)


# --- test-only helpers of the empirical oracle --------------------------------


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing 0-based column indices of one sparse support."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("support must be nonempty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing, got {self.indices}")
        if self.indices[0] < 0:
            raise ValueError(f"indices must be nonnegative, got {self.indices}")


def extremal_singular(matrix: GaussianMatrix, support: SupportSet) -> tuple[float, float]:
    """(sigma_min, sigma_max) of the column submatrix on one support.

    Computed from the eigenvalues of the k x k Gram form, which is
    symmetric PSD; tiny negative eigenvalues from rounding are clamped.
    """
    idx = np.asarray(support.indices, dtype=np.intp)
    if idx[-1] >= matrix.n:
        raise ValueError(f"support {support.indices} out of range for n={matrix.n}")
    sub = matrix.entries[:, idx]
    eigs = np.linalg.eigvalsh(sub.T @ sub)
    return math.sqrt(max(float(eigs[0]), 0.0)), math.sqrt(max(float(eigs[-1]), 0.0))
