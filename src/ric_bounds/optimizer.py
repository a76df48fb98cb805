"""Nested optimization of the lifted bound objectives.

Two levels:

* inner: minimize K = J - c3/2 = nu beta + delta + log(M)/c3 over
  delta = gamma - c3/2 > 0 and nu >= 0 (:func:`minimize_inner`).  K is
  the paper's J without the constant c3/2, which would swamp
  delta ~ beta/(2 c3) at large c3.  It is jointly convex (a log-partition
  of functions convex in (delta, nu)) with an interior minimum: at
  nu = 0, dK/dnu = beta - 1 < 0, and K -> +inf as delta -> 0, as
  delta -> inf and as nu -> inf.  Damped Newton (:func:`_newton_inner`)
  runs on the closed-form gradient and Hessian that one delta-form call
  of ``i_uric_inner`` returns from two erfcx calls.  It starts at the
  analytic c3 -> 0 optimum and, if that run ends non-converged with
  budget left, at the c3 -> inf optimum, which takes over far out in c3,
  where e^{-2 nu gamma} underflows at the first start and K has no
  curvature.  A caller's ``start`` runs first; multistart_grid = N >= 2
  runs every start, an N x N log grid in (delta, nu) too, and keeps the
  lowest K.

* outer: one bracketed root search over t = log c3 on [log(lo/4),
  log(4 hi)], where (lo, hi) is the configured bracket, on the slope of
  the objective.  The upper bound is minimized over c3 and the lower
  bound maximized; both signed objectives are V = (min K + I_sph)/sqrt(alpha),
  and by the envelope theorem (Bonnans & Shapiro,
  Perturbation Analysis of Optimization Problems, ch. 4)
  dV/dc3 = (K_c + dI_sph/dc3)/sqrt(alpha), where K_c is the slope of K at
  the inner optimum that Newton's last evaluation already returns
  (``OptimReport.slope``).  dV/dc3 has the sign and the roots of
  dV/dt = c3 dV/dc3, and it is nearer linear in t at small c3, where the
  upper optima lie, so the search interpolates it rather than dV/dt.
  From t = log(lo/4) + 0.382 (log(4 hi) - log(lo/4)) the search takes a
  golden step downhill, then steps onto the downhill end, until the
  slope changes sign; Brent's zeroin then finds the root to outer_tol in
  log c3.  A downhill end whose slope still points outward ends the
  search there: at the upper end, 4 hi is the candidate and the result
  is reported as non-converged.  The c3 -> 0 closed-form limit
  (the simple bound) is always included as a candidate, so the returned
  value can never be worse than the simple bound; a search that ends at
  the lower end is non-convergence unless that limit wins.  The limit is
  never evaluated at c3 = 0 itself, which is a removable singularity of
  the objective.
  Each inner solve after the first starts from a predictor step along the
  optima already found (continuation, as in Allgower & Georg, Numerical
  Continuation Methods): (log delta, log nu) is interpolated linearly in
  log c3 between the two converged optima that bracket the new c3, or
  extrapolated from the two nearest on one side; with one converged
  optimum it is copied, and with none the solve starts cold.  The solve
  at c3 = 4 hi starts from the c3 -> inf optimum instead, which lies
  nearer than a prediction extrapolated from optima far below it.  Only
  the start moves: a converged solve from a predicted start ends within
  about inner_tol of min K, as a cold one does.

Everything is deterministic: start points fixed by the inputs and the
visit order of the outer search, no randomized restarts, and ties
between equal-valued optima resolve to the smallest c3.  An
inexact inner solve only raises K, which loosens both families, so every
reported value is a valid bound.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import namedtuple

from .bounds_lifted import (
    LiftedParams,
    SphBranch,
    i_sph_slope,
    i_uric_inner,
    signed_value,
)
from .bounds_simple import (
    KIND_LOWER_LIFTED,
    KIND_UPPER_LIFTED,
    BoundResult,
    ProblemShape,
    optimal_nu,
    simple_lower,
    simple_upper,
    tail_term,
)

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = math.ulp(1.0)
_LOG_MAX = math.log(sys.float_info.max)

# Smallest lower end of the c3 bracket.  The outer search evaluates the
# slope down to c3 = lo/4.  There K_c and dI_sph/dc3 each come from terms
# of size about 1/c3 that cancel to limits of size about 1/4
# (dI_sph/dc3 -> 1/4, K_c -> -0.46 .. -0.25 over the beta domain), so
# each carries an absolute rounding error of up to about 2 eps/c3
# (checked against mpmath down to this floor).  lo/4 >= 16 eps keeps it
# under 1/8, half those limits, so the slope keeps its leading bit; below
# that, the search follows rounding noise.
_C3_FLOOR = 64.0 * _EPS

# Largest upper end of the c3 bracket.  The outer search evaluates up to
# c3 = 4 hi, and gamma_hat forms 4 c3^2, which overflows once c3 exceeds
# sqrt(float max)/2; so hi is at most sqrt(float max)/8, about 1.68e153.
_C3_CEILING = math.sqrt(sys.float_info.max) / 8.0

# Multistart seed range for delta = gamma - c3/2 and nu (log-spaced).
_SEED_LO = 1e-3
_SEED_HI = 30.0

# Newton line search: largest fraction of the way to delta = 0 or nu = 0
# that one step may go, Armijo sufficient-decrease constant, and the step
# length below which the search gives up.
_TO_BOUNDARY = 0.99
_ARMIJO = 1e-4
_MIN_STEP = 1e-10


class OptimizerConfig(namedtuple("OptimizerConfig", ("inner_tol", "outer_tol", "multistart_grid",
                                                     "c3_bracket", "max_evals"))):
    """Search tolerances and budgets.

    inner_tol: a Newton run of the inner solve has converged once the
        Newton decrement satisfies lambda^2/2 <= inner_tol, a second-order
        bound on K - min K, and then takes that last Newton step as well.
    outer_tol: width in log c3, so a relative width in c3, of the bracket
        around the root of the objective's slope at which the outer search
        stops.
    multistart_grid: 1 (the default) runs Newton from the outer search's
        predicted start, then the analytic optima, until a run converges;
        N >= 2 runs it from the analytic optima and then every point of an
        N x N log grid in (delta, nu), ignores the predicted start, and
        keeps the lowest K.
    c3_bracket: (lo, hi) for c3; the outer search runs on the bracket
        widened 4x on each side, [lo/4, 4 hi], and stops at an end of it
        where the objective's slope still points outward.  lo must be at
        least 64 eps (about 1.4e-14), where the slope is still more than
        rounding noise, and hi at most sqrt(float max)/8 (about 1.68e153),
        where the spherical term is still finite at 4 hi.
    max_evals: cap on the evaluations of K per inner solve, rejected
        line-search trials included.  Each start runs with the budget the
        earlier ones left, and a run that reaches the cap stops there,
        non-converged.
    """

    __slots__ = ()

    def __new__(cls, inner_tol: float = 1e-10, outer_tol: float = 1e-6, multistart_grid: int = 1,
                c3_bracket: tuple[float, float] = (1e-4, 64.0),
                max_evals: int = 20000) -> OptimizerConfig:
        self = super().__new__(cls, inner_tol, outer_tol, multistart_grid, c3_bracket, max_evals)
        if not (inner_tol > 0.0 and outer_tol > 0.0):
            raise ValueError(f"tolerances must be positive, got {self}")
        lo, hi = c3_bracket
        if not _C3_FLOOR <= lo < hi <= _C3_CEILING:
            raise ValueError(f"c3 bracket must satisfy {_C3_FLOOR:.3g} <= lo < hi <= "
                             f"{_C3_CEILING:.3g}, got {c3_bracket}")
        if multistart_grid < 1 or max_evals < 1:
            raise ValueError(f"grid count and budget must be positive, got {self}")
        return self


DEFAULT_CONFIG = OptimizerConfig()


class OptimReport(namedtuple("OptimReport", ("best_params", "best_value", "evaluations",
                                             "converged", "restarts_used", "slope"))):
    """Outcome of one inner solve: best point, bookkeeping, convergence.

    ``best_value`` is the lowest K = J - c3/2 found, at ``best_params``,
    which carry the exact delta = gamma - c3/2.  ``slope`` is K_c = dK/dc3
    there at fixed (delta, nu), from the evaluation that found it; at a
    converged optimum it is the slope of min K in c3.
    """

    __slots__ = ()


# No solve calls this; it stays while perfbench/tracer.py hooks it and
# tests/test_perfbench_smoke.py requires every hook to be installed.
def _nelder_mead(f, x0, step, tol, max_evals):
    """Deterministic 2-D Nelder-Mead; returns (x, fx, evals, converged).

    Tracks the best point ever evaluated, so the reported value is the
    minimum over all evaluations regardless of simplex state, and never
    spends more than max(max_evals, 3) evaluations.  Points are (u, v)
    tuples.  The simplex is kept as three (point, value) pairs, sorted
    stably by value before each step, so ties keep their earlier order.
    """
    budget = max(max_evals, 3)  # the initial simplex is mandatory
    u, v = x0
    p0, p1, p2 = (u, v), (u + step, v), (u, v + step)
    f0, f1, f2 = f(p0), f(p1), f(p2)
    evals = 3
    best_x, best_f = p0, f0
    if f1 < best_f:
        best_x, best_f = p1, f1
    if f2 < best_f:
        best_x, best_f = p2, f2
    while True:
        if f1 < f0:
            p0, f0, p1, f1 = p1, f1, p0, f0
        if f2 < f1:
            p1, f1, p2, f2 = p2, f2, p1, f1
            if f1 < f0:
                p0, f0, p1, f1 = p1, f1, p0, f0
        if f2 - f0 < tol:
            return best_x, best_f, evals, True
        if evals >= budget:
            return best_x, best_f, evals, False

        # 0 + a + b is how sum() adds the two best points, so the centroid
        # rounds (signed zeros included) like the list-based reference
        # simplex in tests/oracles.py.
        cu = (0 + p0[0] + p1[0]) / 2
        cv = (0 + p0[1] + p1[1]) / 2
        xr = (cu + (cu - p2[0]), cv + (cv - p2[1]))
        fr = f(xr)
        evals += 1
        if fr < best_f:
            best_x, best_f = xr, fr
        if fr < f0:
            if evals < budget:
                xe = (cu + 2.0 * (cu - p2[0]), cv + 2.0 * (cv - p2[1]))
                fe = f(xe)
                evals += 1
                if fe < best_f:
                    best_x, best_f = xe, fe
                if fe < fr:
                    xr, fr = xe, fe
            p2, f2 = xr, fr
        elif fr < f1:
            p2, f2 = xr, fr
        elif evals < budget:
            xc = (cu + 0.5 * (p2[0] - cu), cv + 0.5 * (p2[1] - cv))
            fc = f(xc)
            evals += 1
            if fc < best_f:
                best_x, best_f = xc, fc
            if fc < f2:
                p2, f2 = xc, fc
            elif evals < budget:  # shrink toward p0, checking the budget per point
                p1 = (0.5 * (p1[0] + p0[0]), 0.5 * (p1[1] + p0[1]))
                f1 = f(p1)
                evals += 1
                if f1 < best_f:
                    best_x, best_f = p1, f1
                if evals < budget:
                    p2 = (0.5 * (p2[0] + p0[0]), 0.5 * (p2[1] + p0[1]))
                    f2 = f(p2)
                    evals += 1
                    if f2 < best_f:
                        best_x, best_f = p2, f2


def _seed_grid(count: int) -> list[float]:
    ratio = _SEED_HI / _SEED_LO
    return [_SEED_LO * ratio ** (i / (count - 1)) for i in range(count)]


def _newton_inner(c3: float, beta: float, delta: float, nu: float, tol: float,
                  max_evals: int):
    """Damped Newton on (delta, nu) = (gamma - c3/2, nu) from the given
    start; returns (delta, nu, K, evaluations, converged, K_c).

    Each evaluation is one delta-form i_uric_inner call.  A step goes at
    most _TO_BOUNDARY of the way to delta = 0 or nu = 0 and is halved until
    K falls, and by _ARMIJO times the predicted decrease (Armijo); a trial
    whose 2 nu gamma overflows is halved without an evaluation.  The solve
    has converged once the Newton decrement lambda^2 = g' H^{-1} g
    satisfies lambda^2/2 <= tol, which bounds K - min K to second order
    as K is convex, and the Newton step in nu is smaller than nu (near
    nu = 0, K_nn ~ nu^(-1/2) hides K_nu ~ beta - 1 from the decrement).
    It then tries that last Newton step once more, without halving, and
    keeps it if it passes the same test: near the minimum the step cuts
    the gap to about its square, so the reported K is within rounding of
    min K where the step is taken.
    """
    value, (g_d, g_n), (h_dd, h_dn, h_nn), slope = i_uric_inner(
        c3, beta, None, nu, delta=delta, derivatives=True)
    evals = 1
    while True:
        det = h_dd * h_nn - h_dn * h_dn
        if not (h_dd > 0.0 and det > 0.0):  # curvature lost to underflow
            return delta, nu, value, evals, False, slope
        step_d = (h_dn * g_n - h_nn * g_d) / det
        step_n = (h_dn * g_d - h_dd * g_n) / det
        decrement = -(g_d * step_d + g_n * step_n)  # lambda^2
        converged = 0.5 * decrement <= tol and abs(step_n) < nu
        t = 1.0
        if step_d < 0.0:
            t = min(t, -_TO_BOUNDARY * delta / step_d)
        if step_n < 0.0:
            t = min(t, -_TO_BOUNDARY * nu / step_n)
        while True:
            if evals >= max_evals or t < _MIN_STEP:
                return delta, nu, value, evals, converged, slope
            trial_delta = delta + t * step_d
            trial_nu = nu + t * step_n
            if _evaluable(c3, trial_delta, trial_nu):
                trial = i_uric_inner(c3, beta, None, trial_nu, delta=trial_delta,
                                     derivatives=True)
                evals += 1
                # Strictly lower as well: where K's rounding hides the
                # Armijo term, an equal K is no progress.
                if trial[0] < value and trial[0] <= value - _ARMIJO * t * decrement:
                    break
            if converged:
                return delta, nu, value, evals, True, slope
            t *= 0.5
        delta, nu = trial_delta, trial_nu
        if converged:
            return delta, nu, trial[0], evals, True, trial[3]
        value, (g_d, g_n), (h_dd, h_dn, h_nn), slope = trial


def _evaluable(c3: float, delta: float, nu: float) -> bool:
    """Whether the derivative path can evaluate K at (delta, nu): both are
    positive and 2 nu gamma = nu (c3 + 2 delta) is finite (where it
    overflows, erfcx gives 0 and the derivatives divide by it)."""
    return delta > 0.0 and nu > 0.0 and nu * (c3 + 2.0 * delta) < math.inf


def minimize_inner(c3: float, beta: float, config: OptimizerConfig | None = None, *,
                   start: tuple[float, float] | None = None) -> OptimReport:
    """Minimize K = J - c3/2 over delta = gamma - c3/2 > 0, nu >= 0.

    Damped Newton from the (delta, nu) starts of :func:`_newton_starts`:
    ``start`` when given (the outer search passes its predictor step, or
    at c3 = 4 hi the c3 -> inf optimum), the analytic c3 -> 0 optimum, then the c3 -> inf optimum.  A
    start with delta <= 0 or nu <= 0, or whose 2 nu gamma overflows, is
    skipped without an evaluation.  The next start runs only while every
    run so far has ended non-converged with budget left, and the lowest K
    is kept.  The convergence test is local, so ``start`` should estimate
    the optimum; from starts up to 1000x off in delta and nu a converged
    run still ends within about inner_tol of min K, so such a start costs
    evaluations, not accuracy.

    With multistart_grid = N >= 2 it ignores ``start``, runs every start
    that fits the budget, the N x N log grid in (delta, nu) after the
    analytic ones, and keeps the lowest K.  Deterministic for identical
    inputs; ``restarts_used`` counts the starts run.
    """
    cfg = config or DEFAULT_CONFIG
    if not c3 > 0.0:
        raise ValueError(f"minimize_inner requires c3 > 0, got {c3!r}")

    grid = cfg.multistart_grid
    best = None
    evals = starts = 0
    for seed in _newton_starts(c3, beta, start if grid == 1 else None, grid):
        run = _newton_inner(c3, beta, *seed, cfg.inner_tol, cfg.max_evals - evals)
        evals, starts = evals + run[3], starts + 1
        if best is None or run[2] < best[2]:
            best = run
        if (run[4] and grid == 1) or evals >= cfg.max_evals:
            break
    delta, nu, value, _evals, converged, slope = best
    return OptimReport(
        best_params=LiftedParams(c3=c3, gamma=0.5 * c3 + delta, nu=nu, delta=delta),
        best_value=value,
        evaluations=evals,
        converged=converged,
        restarts_used=starts,
        slope=slope,
    )


def _slope_search(f, a, b, tol):
    """Minimize over [a, b] a function f(x) -> (value, slope) by a bracketed
    root search on its slope, which may be the derivative times any
    positive factor.

    From x = a + 0.382 (b - a) it steps downhill twice, a golden step
    toward the downhill end and then onto that end, until the slope
    changes sign; an end whose slope still points out of [a, b] ends the
    search there.  Once the slope changes sign, Brent's zeroin
    (Algorithms for Minimization without Derivatives, ch. 4) finds its
    root to about tol in x.  Returns the best evaluated (value, x), ties
    to the smaller x, and the end of [a, b] where the search stopped, or
    None when it found a root.
    """
    x = a + _GOLDEN * (b - a)
    fx, gx = f(x)
    best = (fx, x)
    if gx == 0.0:
        return best, None
    end = b if gx < 0.0 else a
    for u in (x + _GOLDEN * (end - x), end):
        fu, gu = f(u)
        best = min(best, (fu, u))
        if (gu > 0.0) != (gx > 0.0) or gu == 0.0:
            return _zeroin(f, x, gx, u, gu, tol, best), None
        x, gx = u, gu
    return best, end


def _zeroin(f, a, fa, b, fb, tol, best):
    """Brent's zeroin on the slope of f over [a, b], where fa and fb differ
    in sign, until the bracket is about tol wide; returns the best
    evaluated (value, x), starting from ``best``."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return best
        interpolated = False
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Accept the step only well inside the bracket and under half
            # the step before last.
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
                interpolated = True
        if not interpolated:  # bisection
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        value, fb = f(b)
        best = min(best, (value, b))


@functools.lru_cache(maxsize=256)
def _limit_seed(beta: float) -> tuple[float, float]:
    """(g0, t^2) of the analytic c3 -> 0 optimum: g0 = tail_term(beta)/2 and
    t = optimal_nu(beta).  Cached because every inner solve of one outer
    solve shares beta, and the two erfinv calls cost about half as much
    as a whole Newton inner solve."""
    threshold = optimal_nu(beta)
    return 0.5 * tail_term(beta), threshold * threshold


def _asymptotic_seed(c3: float, beta: float) -> tuple[float, float]:
    """(delta, nu) of the c3 -> inf optimum, c3 delta -> beta/2 and
    c3 nu - ln c3 -> ln((1-beta)/beta) - ln(beta)/2."""
    nu = (math.log(c3) + math.log((1.0 - beta) / beta) - 0.5 * math.log(beta)) / c3
    return beta / (2.0 * c3), nu


def _newton_starts(c3: float, beta: float, start: tuple[float, float] | None,
                   grid: int = 1):
    """The (delta, nu) starts of the Newton inner solve, in order: a given
    start, the c3 -> 0 optimum, the c3 -> inf optimum, then for grid >= 2
    the points of the grid x grid log grid, by delta and then nu.  All but
    the c3 -> 0 start are skipped unless they pass :func:`_evaluable`, and
    the c3 -> inf optimum also when it is the given start, whose run it
    would repeat.  Lazy, so a start that is not needed costs nothing."""
    if start is not None and _evaluable(c3, *start):
        yield start
    g0, threshold_sq = _limit_seed(beta)
    yield g0, threshold_sq / (2.0 * c3 + 4.0 * g0)  # 4 gamma nu = threshold^2
    seed = _asymptotic_seed(c3, beta)
    if seed != start and _evaluable(c3, *seed):
        yield seed
    if grid >= 2:
        points = _seed_grid(grid)
        yield from ((d, n) for d in points for n in points if _evaluable(c3, d, n))


def _predict_start(optima: list[tuple[float, float, float]],
                   t: float) -> tuple[float, float] | None:
    """Predicted (delta, nu) of the inner optimum at log c3 = t from the
    converged optima so far, sorted by log c3: (log delta, log nu) is
    linear in t through the two optima that bracket t, or else the two
    nearest on one side.  One optimum is copied; with none, or where the
    prediction overflows, there is no prediction."""
    if not optima:
        return None
    if len(optima) == 1:
        _t, log_delta, log_nu = optima[0]
    else:
        i = min(max(bisect.bisect(optima, (t,)), 1), len(optima) - 1)
        (t0, d0, n0), (t1, d1, n1) = optima[i - 1], optima[i]
        w = (t - t0) / (t1 - t0)
        log_delta, log_nu = d0 + w * (d1 - d0), n0 + w * (n1 - n0)
    if max(log_delta, log_nu) > _LOG_MAX:
        return None
    return math.exp(log_delta), math.exp(log_nu)


def _limit_params(beta: float) -> LiftedParams:
    # Analytic optimum of the c3 -> 0 reparameterized objective.
    gamma, threshold_sq = _limit_seed(beta)
    return LiftedParams(c3=0.0, gamma=gamma, nu=threshold_sq / (4.0 * gamma))


def _optimize_outer(shape: ProblemShape, cfg: OptimizerConfig, kind: str) -> BoundResult:
    """Shared outer search; the lower family is maximized by negation."""
    upper = kind == KIND_UPPER_LIFTED
    beta, alpha = shape.beta, shape.alpha
    branch = SphBranch.PLUS if upper else SphBranch.MINUS
    solves: dict[float, OptimReport] = {}
    # (log c3, log delta, log nu) of every converged inner solve, by log c3.
    optima: list[tuple[float, float, float]] = []
    lo, hi = cfg.c3_bracket
    t_lo, t_hi = math.log(lo / 4.0), math.log(4.0 * hi)
    ends = {t_lo: lo / 4.0, t_hi: 4.0 * hi}

    def solve(c3: float) -> OptimReport:
        report = solves.get(c3)
        if report is None:
            t = math.log(c3)
            start = _asymptotic_seed(c3, beta) if c3 == 4.0 * hi else _predict_start(optima, t)
            report = solves[c3] = minimize_inner(c3, beta, cfg, start=start)
            if report.converged:
                p = report.best_params
                bisect.insort(optima, (t, math.log(p.delta), math.log(p.nu)))
        return report

    def signed_objective(t: float) -> tuple[float, float]:
        """(V, dV/dc3) at c3 = e^t, V the upper objective or the negated
        lower one; both are (min K + I_sph)/sqrt(alpha)."""
        c3 = ends[t] if t in ends else math.exp(t)
        report = solve(c3)
        value = signed_value(c3, alpha, report.best_value, branch)
        return value, (report.slope + i_sph_slope(c3, alpha, branch)) / math.sqrt(alpha)

    (best_val, best_t), edge = _slope_search(signed_objective, t_lo, t_hi, cfg.outer_tol)
    best_c3 = ends[best_t] if best_t in ends else math.exp(best_t)
    # The c3 -> 0 limit is exactly the simple bound; listing it with c3 = 0
    # both enforces never-worse-than-limit and wins ties at the smallest c3.
    limit_value = simple_upper(shape).value if upper else simple_lower(shape).value
    best_val, best_c3 = min((best_val, best_c3), (limit_value if upper else -limit_value, 0.0))
    # A search that stopped at the upper end has its optimum at or past
    # 4 hi: non-converged.  At the lower end the c3 -> 0 limit is the
    # optimum, so the result is converged only if the limit wins.
    if best_c3 == 0.0:
        params = _limit_params(beta)
        converged = edge != t_hi
    else:
        report = solves[best_c3]
        params = report.best_params
        converged = report.converged and edge is None

    value = best_val if upper else -best_val
    return BoundResult(
        kind=kind,
        value=value,
        params=params,
        converged=converged,
        evaluations=sum(report.evaluations for report in solves.values()),
    )


def lifted_upper_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Upper objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid upper bound; the best one is found by
    :func:`optimize_upper`.  Tends to the closed-form simple upper bound
    as c3 -> 0.
    """
    report = minimize_inner(c3, shape.beta, config)
    return signed_value(c3, shape.alpha, report.best_value, SphBranch.PLUS)


def lifted_lower_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Lower objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid lower bound, so the family is maximized
    over c3 by :func:`optimize_lower`.  Tends to the closed-form simple
    lower bound as c3 -> 0.
    """
    report = minimize_inner(c3, shape.beta, config)
    return -signed_value(c3, shape.alpha, report.best_value, SphBranch.MINUS)


def optimize_upper(shape: ProblemShape, config: OptimizerConfig | None = None) -> BoundResult:
    """Best (smallest) lifted upper bound over c3; never above the simple bound."""
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_UPPER_LIFTED)


def optimize_lower(shape: ProblemShape, config: OptimizerConfig | None = None) -> BoundResult:
    """Best (largest) lifted lower bound over c3; never below the simple bound."""
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_LOWER_LIFTED)
