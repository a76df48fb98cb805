"""Derivative-free nested optimization of the lifted bound objectives.

Two levels:

* inner: minimize the 2-D objective J(c3, beta, gamma, nu) over
  gamma > c3/2, nu >= 0 with a Nelder-Mead simplex in the unconstrained
  coordinates (u, v), gamma = c3/2 + e^u, nu = e^v.  The
  reparameterization enforces feasibility by construction, so the
  moment-divergence boundary p = c3/(4 gamma) = 1/2 is never crossed.
  One start suffices.  J is jointly convex on gamma > c3/2, nu >= 0 (a
  log-partition of functions convex in (gamma, nu)), and its minimum is
  interior: at nu = 0, dJ/dnu = beta - 1 < 0, and J -> +inf as
  gamma -> c3/2, as gamma -> inf and as nu -> inf.  (u, v) -> (gamma, nu)
  is a diffeomorphism onto that interior, so the simplex's objective has
  one local minimum.  The start is the analytic c3 -> 0 optimum,
  gamma - c3/2 = g0 = tail_term(beta)/2 and
  nu = optimal_nu(beta)^2 / (4 (c3/2 + g0)), so the threshold
  2 sqrt(gamma nu) is the c3 -> 0 tail quantile.  multistart_grid >= 2
  searches from a log grid of starts instead.

* outer: one Brent minimization (golden-section plus parabolic steps,
  derivative-free) over t = log c3 on [log(lo/4), log(4 hi)], where
  (lo, hi) is the configured bracket, stopping when the bracket around
  the best point is outer_tol wide in log c3.  The upper bound is
  minimized over c3 and the lower bound maximized.  A final bracket that
  still touches the upper end means the optimum lies at or past 4 hi:
  c3 = 4 hi is then evaluated as a candidate and the result is reported
  as non-converged.  The c3 -> 0 closed-form limit (the simple bound) is
  always included as a candidate, so the returned value can never be
  worse than the simple bound; a final bracket at the lower end is
  non-convergence unless that limit wins.  The limit is never evaluated
  at c3 = 0 itself, which is a removable singularity of the objective.

Everything is deterministic: fixed start points, no randomized restarts,
and ties between equal-valued optima resolve to the smallest c3.

Both families minimize the same J(c3, beta, .), so an upper and a lower
solve at one shape can share inner solves: pass the same dict as
``inner`` to both.  It maps (c3, beta, config) to the inner report, so
a map reused at another beta or config only misses.  Because inner
solves are deterministic, a shared map changes no value, parameter or
flag; only ``BoundResult.evaluations`` drops, since it counts the
evaluations run by that call.  The map grows with every solve; the
caller decides how long to keep it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds_lifted import (
    LiftedParams,
    i_uric_inner,
    lower_value_from_inner,
    upper_value_from_inner,
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
_SQRT_EPS = math.sqrt(math.ulp(1.0))

# Multistart seed range for gamma - c3/2 and nu (log-spaced).
_SEED_LO = 1e-3
_SEED_HI = 30.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Search tolerances and budgets.

    inner_tol: the inner simplex stops once its three values lie within
        inner_tol of each other.  That bounds their spread, not the
        distance to min J: one start at (c3, beta) = (4096, 0.5) stops
        2.7e-10 above the 16-start (multistart_grid=4) result.
    outer_tol: width in log c3, so a relative width in c3, at which the
        Brent search over c3 stops.
    multistart_grid: inner starting points per axis.  1 (the default)
        runs one simplex from the analytic c3 -> 0 optimum; N >= 2 runs
        N**2 simplexes from an N x N log grid instead.
    c3_bracket: (lo, hi) for c3; the outer search runs on the bracket
        widened 4x on each side, [lo/4, 4 hi].
    max_evals: inner objective evaluation budget per inner solve, split
        evenly over the multistart_grid**2 starts with at least 3 per
        start (the initial simplex), so one solve spends at most
        max(max_evals, 3 * multistart_grid**2) evaluations.
    """

    inner_tol: float = 1e-10
    outer_tol: float = 1e-6
    multistart_grid: int = 1
    c3_bracket: tuple[float, float] = (1e-4, 64.0)
    max_evals: int = 20000

    def __post_init__(self) -> None:
        if not (self.inner_tol > 0.0 and self.outer_tol > 0.0):
            raise ValueError(f"tolerances must be positive, got {self}")
        lo, hi = self.c3_bracket
        if not 0.0 < lo < hi:
            raise ValueError(f"c3 bracket must satisfy 0 < lo < hi, got {self.c3_bracket}")
        if self.multistart_grid < 1 or self.max_evals < 1:
            raise ValueError(f"grid count and budget must be positive, got {self}")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimReport:
    """Outcome of one inner solve: best point, bookkeeping, convergence."""

    best_params: LiftedParams
    best_value: float
    evaluations: int
    converged: bool
    restarts_used: int


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


def minimize_inner(c3: float, beta: float, config: OptimizerConfig | None = None) -> OptimReport:
    """Minimize J(c3, beta, gamma, nu) over gamma > c3/2, nu >= 0.

    Simplex descent in (u, v) = (log(gamma - c3/2), log(nu)) from the
    analytic c3 -> 0 optimum, or from a fixed log grid when
    multistart_grid >= 2; deterministic for identical inputs.
    """
    cfg = config or DEFAULT_CONFIG
    if not c3 > 0.0:
        raise ValueError(f"minimize_inner requires c3 > 0, got {c3!r}")

    half_c3 = 0.5 * c3

    def objective(x):
        u, v = x
        if u > 700.0 or v > 700.0:
            return math.inf
        gamma = half_c3 + math.exp(u)
        if not gamma > half_c3:  # e^u below the rounding floor of gamma
            return math.inf
        return i_uric_inner(c3, beta, gamma, math.exp(v))

    if cfg.multistart_grid == 1:
        g0, threshold_sq = _limit_seed(beta)
        seeds = [(math.log(g0), math.log(threshold_sq / (4.0 * (half_c3 + g0))))]
    else:
        seeds = [
            (math.log(g), math.log(v)) for g in _seed_grid(cfg.multistart_grid)
            for v in _seed_grid(cfg.multistart_grid)
        ]
    per_start = max(cfg.max_evals // len(seeds), 3)

    best_x = None
    best_f = math.inf
    best_run_converged = False
    total_evals = 0
    starts_run = 0
    for seed in seeds:
        x, fx, evals, converged = _nelder_mead(
            objective, seed, step=0.5, tol=cfg.inner_tol, max_evals=per_start
        )
        total_evals += evals
        starts_run += 1
        if fx < best_f:
            best_x, best_f, best_run_converged = x, fx, converged

    u, v = best_x
    params = LiftedParams(c3=c3, gamma=half_c3 + math.exp(u), nu=math.exp(v))
    return OptimReport(
        best_params=params,
        best_value=best_f,
        evaluations=total_evals,
        converged=best_run_converged,
        restarts_used=starts_run,
    )


def _brent_minimize(f, a, b, tol):
    """Brent's derivative-free minimization of f on [a, b]: golden-section
    steps plus parabolic steps through the three best points, as in
    fminbound.  Stops once the bracket around the best point is about tol
    wide.  Returns the best evaluated (value, x), ties to the smaller x,
    and the final bracket (a, b); an end of [a, b] is never evaluated."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    best = (fx, x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return best, a, b
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # Accept the parabola's vertex only inside the bracket and for a
            # step under half the one before last, else fall back to golden.
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
                golden = False
        if golden:
            e = a - x if x >= xm else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        best = min(best, (fu, u))
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


@functools.lru_cache(maxsize=256)
def _limit_seed(beta: float) -> tuple[float, float]:
    """(g0, t^2) of the analytic c3 -> 0 optimum: g0 = tail_term(beta)/2 and
    t = optimal_nu(beta).  Cached because every inner solve of one outer
    solve shares beta, and the two erfinv calls cost about 7% of a
    single-start inner solve."""
    threshold = optimal_nu(beta)
    return 0.5 * tail_term(beta), threshold * threshold


def _limit_params(beta: float) -> LiftedParams:
    # Analytic optimum of the c3 -> 0 reparameterized objective.
    gamma, threshold_sq = _limit_seed(beta)
    return LiftedParams(c3=0.0, gamma=gamma, nu=threshold_sq / (4.0 * gamma))


def _optimize_outer(shape: ProblemShape, cfg: OptimizerConfig, kind: str,
                    inner: dict | None) -> BoundResult:
    """Shared outer search; the lower family is maximized by negation."""
    upper = kind == KIND_UPPER_LIFTED
    beta = shape.beta
    solves: dict = {} if inner is None else inner
    evaluations = 0  # run by this call; reports taken from ``inner`` cost nothing

    def solve(c3: float) -> OptimReport:
        nonlocal evaluations
        key = (c3, beta, cfg)
        report = solves.get(key)
        if report is None:
            report = minimize_inner(c3, beta, cfg)
            solves[key] = report
            evaluations += report.evaluations
        return report

    def signed_objective(c3: float) -> float:
        report = solve(c3)
        if upper:
            return upper_value_from_inner(c3, shape, report.best_value)
        return -lower_value_from_inner(c3, shape, report.best_value)

    lo, hi = cfg.c3_bracket
    t_lo, t_hi = math.log(lo / 4.0), math.log(4.0 * hi)
    (best_val, best_t), a, b = _brent_minimize(
        lambda t: signed_objective(math.exp(t)), t_lo, t_hi, cfg.outer_tol
    )
    candidates = [(best_val, math.exp(best_t))]
    # Brent never evaluates an end of its interval.  A final bracket at the
    # upper end means the optimum lies at or past it: 4 * hi itself becomes
    # a candidate and the result is non-converged.  At the lower end the
    # c3 -> 0 limit below is the candidate, and the result is non-converged
    # unless the limit wins.
    upper_edge = b == t_hi
    if upper_edge:
        candidates.append((signed_objective(4.0 * hi), 4.0 * hi))
    # The c3 -> 0 limit is exactly the simple bound; listing it with c3 = 0
    # both enforces never-worse-than-limit and wins ties at the smallest c3.
    limit_value = simple_upper(shape).value if upper else simple_lower(shape).value
    candidates.append((limit_value if upper else -limit_value, 0.0))

    best_val, best_c3 = min(candidates)
    if best_c3 == 0.0:
        params = _limit_params(shape.beta)
        converged = not upper_edge
    else:
        report = solve(best_c3)
        params = report.best_params
        converged = report.converged and not upper_edge and a != t_lo

    value = best_val if upper else -best_val
    return BoundResult(
        kind=kind,
        value=value,
        params=params,
        converged=converged,
        evaluations=evaluations,
    )


def lifted_upper_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Upper objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid upper bound; the best one is found by
    :func:`optimize_upper`.  Tends to the closed-form simple upper bound
    as c3 -> 0.
    """
    report = minimize_inner(c3, shape.beta, config)
    return upper_value_from_inner(c3, shape, report.best_value)


def lifted_lower_objective(c3: float, shape: ProblemShape, config=None) -> float:
    """Lower objective at a fixed c3 > 0 with the (gamma, nu) pair minimized out.

    Every c3 > 0 yields a valid lower bound, so the family is maximized
    over c3 by :func:`optimize_lower`.  Tends to the closed-form simple
    lower bound as c3 -> 0.
    """
    report = minimize_inner(c3, shape.beta, config)
    return lower_value_from_inner(c3, shape, report.best_value)


def optimize_upper(shape: ProblemShape, config: OptimizerConfig | None = None,
                   inner: dict | None = None) -> BoundResult:
    """Best (smallest) lifted upper bound over c3; never above the simple bound.

    ``inner`` optionally shares inner solves with other outer solves; see
    the module docstring.
    """
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_UPPER_LIFTED, inner)


def optimize_lower(shape: ProblemShape, config: OptimizerConfig | None = None,
                   inner: dict | None = None) -> BoundResult:
    """Best (largest) lifted lower bound over c3; never below the simple bound.

    ``inner`` optionally shares inner solves with other outer solves; see
    the module docstring.
    """
    return _optimize_outer(shape, config or DEFAULT_CONFIG, KIND_LOWER_LIFTED, inner)
