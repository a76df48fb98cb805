"""Derivative-free nested optimization of the lifted bound objectives.

Two levels:

* inner: minimize the 2-D objective J(c3, beta, gamma, nu) over
  gamma > c3/2, nu >= 0 with a Nelder-Mead simplex in the unconstrained
  coordinates (u, v), gamma = c3/2 + e^u, nu = e^v.  The
  reparameterization enforces feasibility by construction, so the
  moment-divergence boundary p = c3/(4 gamma) = 1/2 is never crossed.
  The simplex is multistarted from a fixed log-spaced grid because the
  landscape is not known to be unimodal.

* outer: scan c3 over a log-spaced 25-point grid on the configured
  bracket, then refine around the best point with golden-section search.
  The upper bound is minimized over c3 and the lower bound maximized.
  If the best grid point sits on a bracket edge the bracket is widened
  once by 4x and the scan retried; a persistent edge is reported as
  non-convergence.  The c3 -> 0 closed-form limit (the simple bound) is
  always included as a candidate, so the returned value can never be
  worse than the simple bound; the limit is never evaluated at c3 = 0
  itself, which is a removable singularity of the objective.

Everything is deterministic: fixed grids, no randomized restarts, and
ties between equal-valued optima resolve to the smallest c3.

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

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Multistart seed range for gamma - c3/2 and nu (log-spaced).
_SEED_LO = 1e-3
_SEED_HI = 30.0

_COARSE_POINTS = 25


@dataclass(frozen=True)
class OptimizerConfig:
    """Search tolerances and budgets.

    inner_tol: absolute objective tolerance of the inner simplex search.
    outer_tol: absolute width at which the golden-section c3 bracket stops.
    multistart_grid: inner starting points per axis (grid count squared total).
    c3_bracket: log-spaced outer search interval for c3.
    max_evals: inner objective evaluation budget per inner solve.
    """

    inner_tol: float = 1e-10
    outer_tol: float = 1e-6
    multistart_grid: int = 4
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
    if count == 1:
        return [_SEED_LO]
    ratio = _SEED_HI / _SEED_LO
    return [_SEED_LO * ratio ** (i / (count - 1)) for i in range(count)]


def minimize_inner(c3: float, beta: float, config: OptimizerConfig | None = None) -> OptimReport:
    """Minimize J(c3, beta, gamma, nu) over gamma > c3/2, nu >= 0.

    Simplex descent in (u, v) = (log(gamma - c3/2), log(nu)), multistarted
    from a fixed log grid; deterministic for identical inputs.
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


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    ratio = hi / lo
    return [lo * ratio ** (i / (count - 1)) for i in range(count)]


def _limit_params(beta: float) -> LiftedParams:
    # Analytic optimum of the c3 -> 0 reparameterized objective.
    gamma = 0.5 * tail_term(beta)
    nu_threshold = optimal_nu(beta)
    return LiftedParams(c3=0.0, gamma=gamma, nu=nu_threshold * nu_threshold / (4.0 * gamma))


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
    edge_fail = False
    for attempt in (0, 1):
        grid = _log_grid(lo, hi, _COARSE_POINTS)
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
    refined_val, refined_c3 = _golden_section(signed_objective, a, b, cfg.outer_tol)

    candidates = [(vals[i], grid[i]) for i in range(len(grid))]
    candidates.append((refined_val, refined_c3))
    # The c3 -> 0 limit is exactly the simple bound; listing it with c3 = 0
    # both enforces never-worse-than-limit and wins ties at the smallest c3.
    limit_value = simple_upper(shape).value if upper else simple_lower(shape).value
    candidates.append((limit_value if upper else -limit_value, 0.0))

    best_val, best_c3 = min(candidates)
    if best_c3 == 0.0:
        params = _limit_params(shape.beta)
        converged = not (edge_fail and i_best == len(grid) - 1)
    else:
        report = solve(best_c3)
        params = report.best_params
        converged = report.converged and not edge_fail

    value = best_val if upper else -best_val
    return BoundResult(
        kind=kind,
        value=value,
        params=params,
        converged=converged,
        evaluations=evaluations,
    )


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
