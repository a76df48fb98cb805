"""Command-line surface: single bounds, table sweeps, empirical runs.

Three subcommands:

* ``bound``: one bound at one shape, as text (value, achieving (c3,
  gamma, nu) for the lifted kinds, convergence flag) or as the cell's
  ``sweep`` row.  JSON rows carry ``inner_delta``, the exact gamma - c3/2.
* ``sweep``: a grid of (alpha, rho, kind) cells rendered as CSV or JSON
  with reference values and deltas where the embedded tables carry the
  cell.  Row order is deterministic: alpha major, rho minor, kind last.
* ``empirical``: finite-size extremes for one (m, n, k) plus the four
  theoretical bounds at that shape and a sandwich verdict.  Sampled
  supports can only understate uric and overstate lric, so in sampled
  mode a FAIL is conclusive but a pass is reported as "no violation
  found (sampled)".

Exit codes: 0 success, 2 invalid shape/dimensions, optimizer flags or a
non-finite --slack, --alphas or --rhos value (argparse usage errors also
exit 2), 3 optimizer non-convergence in ``bound``, a ``sweep`` row (or a
failed row) or a lifted bound of ``empirical``; the last two name each
on an ``error:`` line, and values and the verdict are still printed.
Usage errors are checked in order, argparse's, then the optimizer flags,
then the grid values, shape or dimensions, and the first one found is
the one named.

All output is deterministic for identical invocations: floats render
with %.6g, nothing timestamps, and sweep cells are computed one after
another in grid order.

Only ``empirical`` needs numpy, so :mod:`empirical` is imported on its
first use and ``bound`` and ``sweep`` never load it.  The subcommands
reach every solver through this module's globals (``simple_upper``,
``simple_lower``, ``optimize_upper``, ``optimize_lower``,
``empirical_ric``) at call time, so a wrapper set on one of those names
sees every call the cli makes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .bounds_simple import (
    BOUND_KINDS,
    KIND_LOWER_LIFTED,
    KIND_LOWER_SIMPLE,
    KIND_UPPER_LIFTED,
    KIND_UPPER_SIMPLE,
    BoundResult,
    ProblemShape,
    simple_lower,
    simple_upper,
)
from .optimizer import OptimizerConfig, optimize_lower, optimize_upper
from .reference_tables import reference_for_kind

CSV_HEADER = "alpha,rho,kind,value,c3,gamma,nu,converged,reference,delta"
_FIELDS = CSV_HEADER.split(",")

DEFAULT_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_RHOS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)


def _fmt(x: float | bool | str | None) -> str:
    """One output field: "" for None, true/false, a string as it is, a float at %.6g."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    if x == 0.0:  # normalize -0.0
        x = 0.0
    return "%.6g" % x


def _shape_from_args(args) -> ProblemShape:
    if (args.beta is None) == (args.rho is None):
        raise ValueError("exactly one of --beta and --rho is required")
    beta = args.beta if args.beta is not None else args.rho * args.alpha
    return ProblemShape(alpha=args.alpha, beta=beta)


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        inner_tol=args.inner_tol,
        outer_tol=args.outer_tol,
        c3_bracket=(args.c3_min, args.c3_max),
        max_evals=args.max_evals,
    )


def empirical_ric(m: int, n: int, k: int, trials: int, support_budget: int, seed: int):
    """:func:`ric_bounds.empirical.empirical_ric`, importing numpy on first use."""
    from . import empirical

    return empirical.empirical_ric(m, n, k, trials, support_budget, seed)


def _compute_bound(kind: str, shape: ProblemShape, config: OptimizerConfig) -> BoundResult:
    if kind == KIND_UPPER_SIMPLE:
        return simple_upper(shape)
    if kind == KIND_LOWER_SIMPLE:
        return simple_lower(shape)
    if kind == KIND_UPPER_LIFTED:
        return optimize_upper(shape, config)
    return optimize_lower(shape, config)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OptimizerConfig()
    parser.add_argument("--inner-tol", type=float, default=defaults.inner_tol,
                        help="stop: Newton decrement bound on V - min V, relative to "
                             "the scale of V's terms where that is below 1")
    parser.add_argument("--outer-tol", type=float, default=defaults.outer_tol,
                        help="largest Newton step in log c3 (a relative change of c3) "
                             "with which the solve stops")
    parser.add_argument("--c3-min", type=float, default=defaults.c3_bracket[0],
                        help="lower end of the c3 search; default and least value 64 eps "
                             "(about 1.4e-14): below it the slope is rounding noise")
    parser.add_argument("--c3-max", type=float, default=defaults.c3_bracket[1])
    parser.add_argument("--max-evals", type=int, default=defaults.max_evals,
                        help="cap on objective evaluations per lifted bound")


def _usage_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _meta(args, fields: tuple[str, ...]) -> dict:
    return {"version": __version__, "config": {f: getattr(args, f.replace("-", "_")) for f in fields}}


# --- bound -----------------------------------------------------------------


def _cmd_bound(args, config: OptimizerConfig, out) -> int:
    try:
        shape = _shape_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    result = _compute_bound(args.kind, shape, config)

    if args.format != "text":
        row = _row_dict(shape.alpha, shape.rho, args.kind, result)
        _write_rows(args, ("kind", "alpha", "beta", "rho", "format"), [row], out)
    else:
        out.write(f"kind: {args.kind}\n")
        out.write(f"alpha: {_fmt(shape.alpha)}\n")
        out.write(f"beta: {_fmt(shape.beta)}\n")
        out.write(f"value: {_fmt(result.value)}\n")
        if result.params is not None:
            out.write(f"c3: {_fmt(result.params.c3)}\n")
            out.write(f"gamma: {_fmt(result.params.gamma)}\n")
            out.write(f"nu: {_fmt(result.params.nu)}\n")
        out.write(f"converged: {_fmt(result.converged)}\n")
        out.write(f"evaluations: {result.evaluations}\n")
    return 0 if result.converged else 3


# --- sweep -----------------------------------------------------------------


def _row_dict(alpha: float, rho: float, kind: str, result: BoundResult | None,
              error: str | None = None) -> dict:
    """The cell's row: ``CSV_HEADER``'s fields, ``inner_delta`` and, if it failed, ``error``."""
    reference = reference_for_kind(kind, alpha, rho)
    value = c3 = gamma = nu = inner_delta = delta = None
    if result is not None:
        value = result.value
        if result.params is not None:
            c3, gamma, nu, inner_delta = result.params
        if reference is not None:
            delta = value - reference
    converged = result is not None and result.converged
    row = dict(zip(_FIELDS, (alpha, rho, kind, value, c3, gamma, nu, converged, reference, delta)))
    row["inner_delta"] = inner_delta
    if error is not None:
        row["error"] = error
    return row


def _write_rows(args, fields: tuple[str, ...], rows: list[dict], out) -> None:
    """The rows as a {"meta", "rows"} JSON document, or as CSV under its header."""
    if args.format == "json":
        json.dump({"meta": _meta(args, fields), "rows": rows}, out, sort_keys=True)
        out.write("\n")
    else:
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(",".join([_fmt(row[field]) for field in _FIELDS]) + "\n")


def _sweep_cell(alpha: float, rho: float, kind: str, config: OptimizerConfig) -> dict:
    try:
        shape = ProblemShape.from_rho(alpha, rho)
        result = _compute_bound(kind, shape, config)
    except ValueError as exc:
        return _row_dict(alpha, rho, kind, None, error=str(exc))
    return _row_dict(alpha, rho, kind, result)


def _cmd_sweep(args, config: OptimizerConfig, out) -> int:
    for flag, values in (("--alphas", args.alphas), ("--rhos", args.rhos)):
        if not all(map(math.isfinite, values)):
            return _usage_error(ValueError(f"{flag} must be finite, got {values}"))
    kinds = [k for k in BOUND_KINDS if k in set(args.kinds)]
    rows = [_sweep_cell(a, r, k, config) for a in args.alphas for r in args.rhos for k in kinds]

    failed = [r for r in rows if r.get("error") is not None or not r["converged"]]
    _write_rows(args, ("alphas", "rhos", "kinds", "format"), rows, out)
    for row in failed:
        msg = row.get("error", "optimizer did not converge")
        print(f"error: cell alpha={row['alpha']} rho={row['rho']} kind={row['kind']}: {msg}",
              file=sys.stderr)
    return 3 if failed else 0


# --- empirical ---------------------------------------------------------------


def _cmd_empirical(args, config: OptimizerConfig, out) -> int:
    m, n, k = args.m, args.n, args.k
    try:
        if not 0 < k < m < n:
            raise ValueError(f"requires 0 < k < m < n, got k={k}, m={m}, n={n}")
        if args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        if args.support_budget < 1:
            raise ValueError(f"--support-budget must be >= 1, got {args.support_budget}")
        if not math.isfinite(args.slack):
            raise ValueError(f"--slack must be finite, got {args.slack}")
        shape = ProblemShape(alpha=m / n, beta=k / n)
    except ValueError as exc:
        return _usage_error(exc)
    from .empirical import MODE_EXHAUSTIVE

    uric, lric = empirical_ric(m, n, k, args.trials, args.support_budget, args.seed)

    bounds = {kind: _compute_bound(kind, shape, config) for kind in BOUND_KINDS}
    upper_ok = uric.mean <= bounds[KIND_UPPER_LIFTED].value + args.slack
    lower_ok = lric.mean >= bounds[KIND_LOWER_LIFTED].value - args.slack
    holds = upper_ok and lower_ok
    # Sampled supports only understate uric and overstate lric, so a
    # sampled run can show a violation but not its absence.
    conclusive = uric.mode == MODE_EXHAUSTIVE or not holds

    if args.format == "json":
        payload = {
            "meta": _meta(args, ("m", "n", "k", "trials", "support_budget", "seed", "slack", "format")),
            "empirical": {
                est.quantity: {
                    "mean": est.mean,
                    "stddev": est.stddev,
                    "trials": est.trials,
                    "mode": est.mode,
                    "supports_per_trial": est.supports_per_trial,
                }
                for est in (uric, lric)
            },
            "bounds": {kind: b.value for kind, b in bounds.items()},
            "sandwich": {"slack": args.slack, "upper": upper_ok, "lower": lower_ok,
                         "verdict": holds, "conclusive": conclusive},
        }
        json.dump(payload, out, sort_keys=True)
        out.write("\n")
    else:
        out.write(
            f"m: {m}  n: {n}  k: {k}  trials: {args.trials}  seed: {args.seed}  "
            f"mode: {uric.mode}  supports-per-trial: {uric.supports_per_trial}\n"
        )
        out.write(f"uric: mean {_fmt(uric.mean)}  stddev {_fmt(uric.stddev)}\n")
        out.write(f"lric: mean {_fmt(lric.mean)}  stddev {_fmt(lric.stddev)}\n")
        out.write(f"bounds at alpha={_fmt(shape.alpha)} beta={_fmt(shape.beta)}:\n")
        for kind in BOUND_KINDS:
            out.write(f"  {kind}: {_fmt(bounds[kind].value)}\n")
        out.write(f"sandwich (slack {_fmt(args.slack)}):\n")
        out.write(
            f"  uric mean <= upper-lifted + slack: {'PASS' if upper_ok else 'FAIL'} "
            f"({_fmt(uric.mean)} vs {_fmt(bounds[KIND_UPPER_LIFTED].value + args.slack)})\n"
        )
        out.write(
            f"  lric mean >= lower-lifted - slack: {'PASS' if lower_ok else 'FAIL'} "
            f"({_fmt(lric.mean)} vs {_fmt(bounds[KIND_LOWER_LIFTED].value - args.slack)})\n"
        )
        if not holds:
            verdict = "FAIL"
        elif conclusive:
            verdict = "PASS"
        else:
            verdict = "no violation found (sampled)"
        out.write(f"verdict: {verdict}\n")
    failed = [kind for kind, bound in bounds.items() if not bound.converged]
    for kind in failed:
        print(f"error: {kind} at alpha={_fmt(shape.alpha)} beta={_fmt(shape.beta)}: "
              "optimizer did not converge", file=sys.stderr)
    return 3 if failed else 0


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ric-bounds",
        description="Bounds on restricted isometry constants of Gaussian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="compute one bound at one shape")
    p_bound.add_argument("--kind", required=True, choices=BOUND_KINDS)
    p_bound.add_argument("--alpha", type=float, required=True)
    p_bound.add_argument("--beta", type=float, default=None)
    p_bound.add_argument("--rho", type=float, default=None, help="beta/alpha (table indexing)")
    p_bound.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_config_flags(p_bound)

    p_sweep = sub.add_parser("sweep", help="compute a grid of bounds")
    p_sweep.add_argument("--alphas", type=float, nargs="*", default=list(DEFAULT_ALPHAS))
    p_sweep.add_argument("--rhos", type=float, nargs="*", default=list(DEFAULT_RHOS))
    p_sweep.add_argument("--kinds", nargs="*", choices=BOUND_KINDS, default=list(BOUND_KINDS))
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_config_flags(p_sweep)

    p_emp = sub.add_parser("empirical", help="finite-size empirical extremes + sandwich check")
    p_emp.add_argument("--m", type=int, required=True)
    p_emp.add_argument("--n", type=int, required=True)
    p_emp.add_argument("--k", type=int, required=True)
    p_emp.add_argument("--trials", type=int, default=20)
    p_emp.add_argument("--support-budget", type=int, default=100000)
    p_emp.add_argument("--seed", type=int, default=1)
    p_emp.add_argument("--slack", type=float, default=0.1)
    p_emp.add_argument("--format", choices=("text", "json"), default="text")
    _add_config_flags(p_emp)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        return _usage_error(exc)
    if args.command == "bound":
        return _cmd_bound(args, config, sys.stdout)
    if args.command == "sweep":
        return _cmd_sweep(args, config, sys.stdout)
    return _cmd_empirical(args, config, sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
