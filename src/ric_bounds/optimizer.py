"""Optimization of the lifted bound objectives.

Both families minimize V = K + I_sph over c3 and the dual pair
(delta, nu), with I_sph's PLUS branch for the upper family and its MINUS
branch for the lower one: upper = min V/sqrt(alpha), lower =
-min V/sqrt(alpha).  K = J - c3/2 = nu beta + delta + log(M)/c3 is the
paper's J without c3/2, which would swamp delta ~ beta/(2 c3) at large
c3; at fixed c3 it is jointly convex in (delta, nu).

* joint solve (:func:`optimize_upper`, :func:`optimize_lower`): one
  projected damped Newton run per cell in (t = log c3, delta, nu) from
  one start, a fixed c3 per family and the analytic (delta, nu) optimum
  of the nearer c3 limit, t bounded to [log(lo/4), log(4 hi)] for the
  bracket (lo, hi) (Bertsekas, SIAM J. Control Optim. 20, 1982), on the
  closed-form derivatives of one ``i_uric_inner`` and one
  ``i_sph_derivatives`` call.  Eliminating (delta, nu) leaves the Schur
  complement, the exact curvature in t of min over (delta, nu) of V (Boyd
  & Vandenberghe, Convex Optimization, A.5.5), so the run converges
  quadratically in all three variables.  A bound on t that stays active
  with the slope pointing outward ends the run; at the upper end the
  result, at c3 = 4 hi exactly, is non-converged.  The c3 -> 0 limit
  (the simple bound) is always a candidate, so no value is worse than the
  simple bound.  A run that ends at the lower end is non-convergence
  unless that limit wins, and one cut off by max_evals stays
  non-converged even where the limit wins.

* inner solve at a fixed c3 (:func:`minimize_inner`, used by
  :func:`lifted_upper_objective` and :func:`lifted_lower_objective`): the
  same Newton run with t pinned to log c3 and no spherical term, so V = K
  and the stop test is relative to K.  Like the joint solve it runs
  once, from the analytic (delta, nu) optimum of the c3 limit nearer its
  c3 (:func:`_newton_start`).

Everything is deterministic: start points fixed by the inputs, no
randomized restarts (restarts from c3 spread over the bracket never moved
a bound by more than rounding), and ties between equal-valued optima
resolve to the smallest c3.  An inexact solve only raises K, which
loosens both families, so every reported value is a valid bound.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .bounds_lifted import (
    LiftedParams,
    SphBranch,
    i_sph_derivatives,
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

_EPS = math.ulp(1.0)

# Smallest lower end of the c3 bracket.  The joint solve evaluates the
# slope down to c3 = lo/4.  There K_c and dI_sph/dc3 each come from terms
# of size about 1/c3 that cancel to limits of size about 1/4
# (dI_sph/dc3 -> 1/4, K_c -> -0.46 .. -0.25 over the beta domain), so
# each carries an absolute rounding error of up to about 2 eps/c3
# (checked against mpmath down to this floor).  lo/4 >= 16 eps keeps it
# under 1/8, half those limits, so the slope keeps its leading bit; below
# that, the solve follows rounding noise.
_C3_FLOOR = 64.0 * _EPS

# Largest upper end of the c3 bracket.  The joint solve evaluates up to
# c3 = 4 hi, and gamma_hat forms 4 c3^2, which overflows once c3 exceeds
# sqrt(float max)/2; so hi is at most sqrt(float max)/8, about 1.68e153.
_C3_CEILING = math.sqrt(sys.float_info.max) / 8.0

# Newton line search: largest fraction of the way to delta = 0 or nu = 0
# that one step may go, Armijo sufficient-decrease constant, and the step
# length below which the search gives up.
_TO_BOUNDARY = 0.99
_ARMIJO = 1e-4
_MIN_STEP = 1e-10

# Joint solve: the largest step in log c3 (a factor e^2 in c3), and the
# c3 each family starts from (upper, lower), inside the range of the
# default grid's optima (upper 0.005-0.44, lower 0.46-124).
_T_STEP = 2.0
_START_C3 = {True: 0.2, False: 5.0}


class OptimizerConfig(namedtuple("OptimizerConfig", ("inner_tol", "outer_tol", "c3_bracket",
                                                     "max_evals"))):
    """Search tolerances and budgets.

    inner_tol: a Newton run has converged once the Newton decrement
        satisfies lambda^2/2 <= inner_tol min(1, S), a second-order bound
        on V - min V relative to S = K + |I_sph|, the scale of V's terms
        (S = K in :func:`minimize_inner`, which has no spherical term).
        It then takes that last Newton step as well.
    outer_tol: the largest Newton step in t = log c3, so a relative
        change of c3, with which the joint solve may stop.
    c3_bracket: (lo, hi) for c3; the joint solve runs on the bracket
        widened 4x on each side, [lo/4, 4 hi], and stops at an end of it
        where the objective's slope still points outward.  lo is at least
        64 eps (about 1.4e-14), the default, below which the slope is
        rounding noise (every c3 >= 0 gives a valid bound, so the search
        goes that near the c3 -> 0 limit); hi is at most sqrt(float max)/8
        (about 1.68e153), where the spherical term is finite at 4 hi.
    max_evals: cap on the evaluations of K per cell (per solve in
        :func:`minimize_inner`), rejected line-search trials included.  A
        run that reaches the cap stops there, non-converged.
    """

    __slots__ = ()

    def __new__(cls, inner_tol: float = 1e-10, outer_tol: float = 1e-6,
                c3_bracket: tuple[float, float] = (_C3_FLOOR, 64.0),
                max_evals: int = 20000) -> OptimizerConfig:
        self = super().__new__(cls, inner_tol, outer_tol, c3_bracket, max_evals)
        if not (inner_tol > 0.0 and outer_tol > 0.0):
            raise ValueError(f"tolerances must be positive, got {self}")
        lo, hi = c3_bracket
        if not _C3_FLOOR <= lo < hi <= _C3_CEILING:
            raise ValueError(f"c3 bracket must satisfy {_C3_FLOOR:.3g} <= lo < hi <= "
                             f"{_C3_CEILING:.3g}, got {c3_bracket}")
        if max_evals < 1:
            raise ValueError(f"budget must be positive, got {self}")
        return self


DEFAULT_CONFIG = OptimizerConfig()


class OptimReport(namedtuple("OptimReport", ("best_params", "best_value", "evaluations",
                                             "converged", "slope"))):
    """Outcome of one inner solve: best point, evaluation count, convergence.

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


def _evaluable(c3: float, delta: float, nu: float) -> bool:
    """Whether the derivative path can evaluate K at (delta, nu): both are
    positive and 2 nu gamma = nu (c3 + 2 delta) is finite (where it
    overflows, erfcx gives 0 and the derivatives divide by it)."""
    return delta > 0.0 and nu > 0.0 and nu * (c3 + 2.0 * delta) < math.inf


def minimize_inner(c3: float, beta: float, config: OptimizerConfig | None = None) -> OptimReport:
    """Minimize K = J - c3/2 over delta = gamma - c3/2 > 0, nu >= 0.

    The joint solve's Newton run (:func:`_joint_newton`) with t = log c3
    pinned and no spherical term, so its stop test is relative to K, from
    :func:`_newton_start`.  K is jointly convex in (delta, nu), so one run
    from a good start reaches min K.  c3 must lie in (0, 4 x the bracket
    ceiling], the widest range the joint solve evaluates; past it
    gamma_hat's 4 c3^2 overflows.
    """
    cfg = config or DEFAULT_CONFIG
    if not 0.0 < c3 <= 4.0 * _C3_CEILING:
        raise ValueError(f"minimize_inner requires 0 < c3 <= {4.0 * _C3_CEILING!r}, got {c3!r}")

    t = math.log(c3)
    point, _c3, delta, nu, evals, converged, _edge = _joint_newton(
        beta, None, None, t, {t: c3}, cfg, *_newton_start(c3, beta))
    return OptimReport(
        best_params=LiftedParams(c3=c3, gamma=0.5 * c3 + delta, nu=nu, delta=delta),
        best_value=point[3],
        evaluations=evals,
        converged=converged,
        slope=point[4][0] / c3,
    )


def _limit_seed(beta: float) -> tuple[float, float]:
    """(g0, t^2) of the analytic c3 -> 0 optimum: g0 = tail_term(beta)/2 and
    t = optimal_nu(beta).  Both read the per-beta erfinv threshold that
    bounds_simple caches, so after the first call at a beta this is two
    cache hits and a few multiplications."""
    threshold = optimal_nu(beta)
    return 0.5 * tail_term(beta), threshold * threshold


def _asymptotic_seed(c3: float, beta: float) -> tuple[float, float]:
    """(delta, nu) of the c3 -> inf optimum, c3 delta -> beta/2 and
    c3 nu - ln c3 -> ln((1-beta)/beta) - ln(beta)/2."""
    nu = (math.log(c3) + math.log((1.0 - beta) / beta) - 0.5 * math.log(beta)) / c3
    return beta / (2.0 * c3), nu


def _newton_start(c3: float, beta: float) -> tuple[float, float]:
    """(delta, nu) start of a Newton run at c3: the analytic optimum of the
    nearer c3 limit.  That is the c3 -> inf optimum where c3 > 1 and it
    passes :func:`_evaluable` (it fails for the lower family's beta near
    1), else the c3 -> 0 optimum."""
    if c3 > 1.0:
        seed = _asymptotic_seed(c3, beta)
        if _evaluable(c3, *seed):
            return seed
    g0, threshold_sq = _limit_seed(beta)
    return g0, threshold_sq / (2.0 * c3 + 4.0 * g0)  # 4 gamma nu = threshold^2


def _joint_point(c3: float, beta: float, alpha: float | None, branch: SphBranch | None,
                 delta: float, nu: float):
    """(V, S, resolution, K, gradient, Hessian) in (t = log c3, delta, nu)
    from one i_uric_inner call.  The Hessian is (V_tt, V_td, V_tn, K_dd,
    K_dn, K_nn).  S = K + |I_sph| sums the magnitudes of V's terms (K's are
    positive, I_sph's share its sign), so it does not cancel where V does.
    Each term carries a few ulps, but e^{-s}, s = 2 nu gamma, turns s's
    error into s eps: |fl(V) - V| <= 2 (1 + s) eps S (at most
    1.6 (1 + s) eps S at 2,500 random points checked in mpmath).  Twice
    that, resolution is the least fall in V that two computed values show.
    With branch None there is no spherical term, so V = S = K, and t is
    pinned (:func:`minimize_inner`), so K's c3 row is not evaluated: it
    reads 0, and the t step is 0 whatever the row.
    """
    if branch is None:
        k, (k_d, k_n), (k_dd, k_dn, k_nn), k_c = i_uric_inner(
            c3, beta, None, nu, delta=delta, derivatives=1)
        k_cc = k_cd = k_cn = i = i_c = i_cc = 0.0
    else:
        k, (k_d, k_n), (k_dd, k_dn, k_nn), k_c, (k_cc, k_cd, k_cn) = i_uric_inner(
            c3, beta, None, nu, delta=delta, derivatives=2)
        i, i_c, i_cc = i_sph_derivatives(c3, alpha, branch)
    g_t = c3 * (k_c + i_c)
    hess = (c3 * c3 * (k_cc + i_cc) + g_t, c3 * k_cd, c3 * k_cn, k_dd, k_dn, k_nn)
    scale = k + abs(i)
    resolution = 4.0 * _EPS * (1.0 + nu * (c3 + 2.0 * delta)) * scale
    return k + i, scale, resolution, k, (g_t, k_d, k_n), hess


def _joint_step(grad, hess, t: float, t_lo: float, t_hi: float):
    """Projected Newton step (step_t, end_t, step_delta, step_nu,
    decrement, slope), or None where the (delta, nu) block C has lost its
    curvature to underflow.  With b the coupling of t to (delta, nu),
    slope = g_t - b' C^{-1} g_y and s = H_tt - b' C^{-1} b.  step_t is
    -slope/s where s > 0, else _T_STEP downhill, at most _T_STEP, and cut
    to [t_lo, t_hi]; end_t is t + step_t, exactly the bound where cut to
    it.  (delta, nu) takes the Newton step given step_t, so the decrement
    -g'step = -slope step_t + g_y' C^{-1} g_y is positive off a
    stationary point.
    """
    g_t, g_d, g_n = grad
    h_tt, h_td, h_tn, h_dd, h_dn, h_nn = hess
    det = h_dd * h_nn - h_dn * h_dn
    if not (h_dd > 0.0 and det > 0.0):
        return None
    y_d, y_n = (h_nn * g_d - h_dn * g_n) / det, (h_dd * g_n - h_dn * g_d) / det
    b_d, b_n = (h_nn * h_td - h_dn * h_tn) / det, (h_dd * h_tn - h_dn * h_td) / det
    slope = g_t - h_td * y_d - h_tn * y_n
    schur = h_tt - h_td * b_d - h_tn * b_n
    step_t = -slope / schur if schur > 0.0 else -math.copysign(_T_STEP, slope)
    step_t = min(max(step_t, -_T_STEP, t_lo - t), _T_STEP, t_hi - t)
    end_t = t_hi if step_t == t_hi - t else t_lo if step_t == t_lo - t else t + step_t
    step_d, step_n = -(y_d + b_d * step_t), -(y_n + b_n * step_t)
    decrement = -(g_t * step_t + g_d * step_d + g_n * step_n)
    return step_t, end_t, step_d, step_n, decrement, slope


def _joint_newton(beta: float, alpha: float | None, branch: SphBranch | None, t: float,
                  ends: dict[float, float], cfg: OptimizerConfig, delta: float, nu: float):
    """Projected damped Newton on V from t, within the keys of ``ends``,
    which map the bounds on t to their exact c3 (one key pins t).  Returns
    (point, c3, delta, nu, evaluations, converged, edge): point is
    :func:`_joint_point`'s tuple at the reported iterate, and edge is true
    where the run stopped at a bound with the slope pointing out.

    (delta, nu) starts at the given (delta, nu); where K has no curvature
    there (:func:`_joint_step` returns None), the run ends at once,
    non-converged.  Each step is :func:`_joint_step`'s.  It goes at most
    _TO_BOUNDARY of the way to delta = 0 or nu = 0 and is halved until V
    falls, and by _ARMIJO times the predicted decrease (Armijo); a trial
    that fails :func:`_evaluable` is halved without an evaluation.  The
    run has converged once lambda^2/2 <= max(inner_tol min(1, S),
    resolution) (see :func:`_joint_point`), the nu step is below nu (near
    nu = 0, K_nn ~ nu^(-1/2) hides K_nu ~ beta - 1 from the decrement),
    and the t step is at most outer_tol or lambda^2/2 at most resolution
    (where V is flat in t no line search places c3 more finely).  It then
    tries that last step once more, without halving.
    """
    t_lo, t_hi = min(ends), max(ends)
    c3 = ends.get(t) or math.exp(t)
    point = _joint_point(c3, beta, alpha, branch, delta, nu)
    evals = 1
    while True:
        value, scale, resolution, _k, grad, hess = point
        step = _joint_step(grad, hess, t, t_lo, t_hi)
        if step is None:
            return point, c3, delta, nu, evals, False, False
        step_t, end_t, step_d, step_n, decrement, slope = step
        edge = (t == t_hi and slope < 0.0) or (t == t_lo and slope > 0.0)
        converged = (0.5 * decrement <= max(cfg.inner_tol * min(1.0, scale), resolution)
                     and abs(step_n) < nu
                     and (abs(step_t) <= cfg.outer_tol or 0.5 * decrement <= resolution))
        a = 1.0
        if step_d < 0.0:
            a = min(a, -_TO_BOUNDARY * delta / step_d)
        if step_n < 0.0:
            a = min(a, -_TO_BOUNDARY * nu / step_n)
        while True:
            if evals >= cfg.max_evals or a < _MIN_STEP:
                return point, c3, delta, nu, evals, converged, edge
            trial_t = end_t if a == 1.0 else t + a * step_t
            trial_c3 = ends.get(trial_t) or math.exp(trial_t)
            trial_d, trial_n = delta + a * step_d, nu + a * step_n
            if _evaluable(trial_c3, trial_d, trial_n):
                trial = _joint_point(trial_c3, beta, alpha, branch, trial_d, trial_n)
                evals += 1
                if trial[0] < value and trial[0] <= value - _ARMIJO * a * decrement:
                    break
            if converged:
                return point, c3, delta, nu, evals, True, edge
            a *= 0.5
        t, c3, delta, nu, point = trial_t, trial_c3, trial_d, trial_n, trial
        if converged:
            return point, c3, delta, nu, evals, True, edge


def _optimize_outer(shape: ProblemShape, cfg: OptimizerConfig, kind: str) -> BoundResult:
    """Joint solve of one cell; the lower family is maximized by negation."""
    upper = kind == KIND_UPPER_LIFTED
    beta, alpha = shape.beta, shape.alpha
    branch = SphBranch.PLUS if upper else SphBranch.MINUS
    lo, hi = cfg.c3_bracket
    ends = {math.log(lo / 4.0): lo / 4.0, math.log(4.0 * hi): 4.0 * hi}
    t = min(max(math.log(_START_C3[upper]), min(ends)), max(ends))
    c3 = ends.get(t) or math.exp(t)
    point, c3, delta, nu, evals, converged, edge = _joint_newton(
        beta, alpha, branch, t, ends, cfg, *_newton_start(c3, beta))
    # Candidates (signed value, c3, params, converged): the c3 -> 0 limit
    # (the simple bound, at its Newton start, delta = gamma) and the run's
    # end (V = K + I_sph).  The min on (value, c3) keeps every value at or
    # below the limit and gives it ties.  A run that stopped at an end has
    # its optimum past it: non-converged.  The limit is the optimum where
    # the run converged or stopped at the lower end, but not at 4 hi.
    value, _c3, params, converged = min(
        ((simple_upper(shape).value if upper else -simple_lower(shape).value, 0.0,
          LiftedParams(0.0, *_newton_start(0.0, beta)),
          (converged or edge) and not (edge and c3 == 4.0 * hi)),
         (point[0] / math.sqrt(alpha), c3, LiftedParams(c3, 0.5 * c3 + delta, nu, delta),
          converged and not edge)),
        key=lambda candidate: candidate[:2])
    return BoundResult(kind=kind, value=value if upper else -value, params=params,
                       converged=converged, evaluations=evals)


def lifted_upper_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Upper objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid upper bound (the best: :func:`optimize_upper`;
    the simple bound as c3 -> 0)."""
    report = minimize_inner(c3, shape.beta, config)
    return signed_value(c3, shape.alpha, report.best_value, SphBranch.PLUS)


def lifted_lower_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Lower objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid lower bound (the best: :func:`optimize_lower`;
    the simple bound as c3 -> 0)."""
    report = minimize_inner(c3, shape.beta, config)
    return -signed_value(c3, shape.alpha, report.best_value, SphBranch.MINUS)


def optimize_upper(shape: ProblemShape, config: OptimizerConfig | None = None) -> BoundResult:
    """Best (smallest) lifted upper bound over c3; never above the simple bound."""
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_UPPER_LIFTED)


def optimize_lower(shape: ProblemShape, config: OptimizerConfig | None = None) -> BoundResult:
    """Best (largest) lifted lower bound over c3; never below the simple bound."""
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_LOWER_LIFTED)
