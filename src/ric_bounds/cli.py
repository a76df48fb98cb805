"""Command-line surface: single bounds, table sweeps, empirical runs.

Three subcommands:

* ``bound``: one bound at one shape, printing the value, the achieving
  (c3, gamma, nu) for the lifted kinds, and a convergence flag.
* ``sweep``: a grid of (alpha, rho, kind) cells rendered as CSV or JSON
  with reference values and deltas where the embedded tables carry the
  cell.  Row order is deterministic: alpha major, rho minor, kind last.
* ``empirical``: finite-size extremes for one (m, n, k) plus the four
  theoretical bounds at that shape and a PASS/FAIL sandwich verdict.

Exit codes: 0 success, 2 invalid shape/dimensions (argparse usage errors
also exit 2), 3 optimizer non-convergence or failed sweep rows (values
are still printed).

All output is deterministic for identical invocations: floats render
with %.6g, nothing timestamps, and sweep cells are computed one after
another in grid order.  The two lifted solves at one shape (one sweep
(alpha, rho) pair, or one empirical run) share their inner solves
through one map, which a sweep clears before the next shape.
"""

from __future__ import annotations

import argparse
import json
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
from .empirical import empirical_ric
from .optimizer import OptimizerConfig, optimize_lower, optimize_upper
from .reference_tables import reference_for_kind

CSV_HEADER = "alpha,rho,kind,value,c3,gamma,nu,converged,reference,delta"

DEFAULT_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_RHOS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
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
        multistart_grid=args.multistart,
        c3_bracket=(args.c3_min, args.c3_max),
        max_evals=args.max_evals,
    )


def _compute_bound(kind: str, shape: ProblemShape, config: OptimizerConfig,
                   inner: dict | None = None) -> BoundResult:
    if kind == KIND_UPPER_SIMPLE:
        return simple_upper(shape)
    if kind == KIND_LOWER_SIMPLE:
        return simple_lower(shape)
    if kind == KIND_UPPER_LIFTED:
        return optimize_upper(shape, config, inner=inner)
    return optimize_lower(shape, config, inner=inner)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OptimizerConfig()
    parser.add_argument("--inner-tol", type=float, default=defaults.inner_tol)
    parser.add_argument("--outer-tol", type=float, default=defaults.outer_tol)
    parser.add_argument("--multistart", type=int, default=defaults.multistart_grid,
                        help="inner multistart grid points per axis")
    parser.add_argument("--c3-min", type=float, default=defaults.c3_bracket[0])
    parser.add_argument("--c3-max", type=float, default=defaults.c3_bracket[1])
    parser.add_argument("--max-evals", type=int, default=defaults.max_evals)


def _meta(args, fields: tuple[str, ...]) -> dict:
    return {"version": __version__, "config": {f: getattr(args, f.replace("-", "_")) for f in fields}}


# --- bound -----------------------------------------------------------------


def _cmd_bound(args, out) -> int:
    try:
        shape = _shape_from_args(args)
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = _compute_bound(args.kind, shape, config)

    row = _row_dict(shape.alpha, shape.rho, args.kind, result, reference=None)
    if args.format == "json":
        meta = _meta(args, ("kind", "alpha", "beta", "rho", "format"))
        json.dump({"meta": meta, "rows": [row]}, out, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        out.write(CSV_HEADER + "\n")
        out.write(_row_csv(row) + "\n")
    else:
        out.write(f"kind: {args.kind}\n")
        out.write(f"alpha: {_fmt(shape.alpha)}\n")
        out.write(f"beta: {_fmt(shape.beta)}\n")
        out.write(f"value: {_fmt(result.value)}\n")
        if result.params is not None:
            out.write(f"c3: {_fmt(result.params.c3)}\n")
            out.write(f"gamma: {_fmt(result.params.gamma)}\n")
            out.write(f"nu: {_fmt(result.params.nu)}\n")
        out.write(f"converged: {'true' if result.converged else 'false'}\n")
        out.write(f"evaluations: {result.evaluations}\n")
    return 0 if result.converged else 3


# --- sweep -----------------------------------------------------------------


def _row_dict(alpha: float, rho: float, kind: str, result: BoundResult | None,
              reference: float | None, error: str | None = None) -> dict:
    row = {
        "alpha": alpha,
        "rho": rho,
        "kind": kind,
        "value": None if result is None else result.value,
        "c3": None,
        "gamma": None,
        "nu": None,
        "converged": False if result is None else result.converged,
        "reference": reference,
        "delta": None,
    }
    if result is not None and result.params is not None:
        row["c3"] = result.params.c3
        row["gamma"] = result.params.gamma
        row["nu"] = result.params.nu
    if result is not None and reference is not None:
        row["delta"] = result.value - reference
    if error is not None:
        row["error"] = error
    return row


def _row_csv(row: dict) -> str:
    return ",".join(
        [
            _fmt(row["alpha"]),
            _fmt(row["rho"]),
            row["kind"],
            _fmt(row["value"]),
            _fmt(row["c3"]),
            _fmt(row["gamma"]),
            _fmt(row["nu"]),
            "true" if row["converged"] else "false",
            _fmt(row["reference"]),
            _fmt(row["delta"]),
        ]
    )


def _sweep_cell(alpha: float, rho: float, kind: str, config: OptimizerConfig,
                inner: dict) -> dict:
    reference = reference_for_kind(kind, alpha, rho)
    try:
        shape = ProblemShape.from_rho(alpha, rho)
        result = _compute_bound(kind, shape, config, inner)
    except ValueError as exc:
        return _row_dict(alpha, rho, kind, None, reference, error=str(exc))
    return _row_dict(alpha, rho, kind, result, reference)


def _cmd_sweep(args, out) -> int:
    config = _config_from_args(args)
    kinds = [k for k in BOUND_KINDS if k in set(args.kinds)]
    rows = []
    inner: dict = {}  # inner solves shared by the lifted kinds of one shape
    for a in args.alphas:
        for r in args.rhos:
            inner.clear()
            rows += [_sweep_cell(a, r, k, config, inner) for k in kinds]

    failed = [r for r in rows if r.get("error") is not None or not r["converged"]]
    if args.format == "json":
        meta = _meta(args, ("alphas", "rhos", "kinds", "format"))
        json.dump({"meta": meta, "rows": rows}, out, sort_keys=True)
        out.write("\n")
    else:
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(_row_csv(row) + "\n")
    for row in failed:
        msg = row.get("error", "optimizer did not converge")
        print(f"error: cell alpha={row['alpha']} rho={row['rho']} kind={row['kind']}: {msg}",
              file=sys.stderr)
    return 3 if failed else 0


# --- empirical ---------------------------------------------------------------


def _cmd_empirical(args, out) -> int:
    m, n, k = args.m, args.n, args.k
    try:
        if not 0 < k < m < n:
            raise ValueError(f"requires 0 < k < m < n, got k={k}, m={m}, n={n}")
        shape = ProblemShape(alpha=m / n, beta=k / n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    uric, lric = empirical_ric(m, n, k, args.trials, args.support_budget, args.seed)

    inner: dict = {}
    bounds = {
        KIND_UPPER_SIMPLE: simple_upper(shape),
        KIND_UPPER_LIFTED: optimize_upper(shape, config, inner=inner),
        KIND_LOWER_SIMPLE: simple_lower(shape),
        KIND_LOWER_LIFTED: optimize_lower(shape, config, inner=inner),
    }
    upper_ok = uric.mean <= bounds[KIND_UPPER_LIFTED].value + args.slack
    lower_ok = lric.mean >= bounds[KIND_LOWER_LIFTED].value - args.slack

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
                         "verdict": upper_ok and lower_ok},
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
        out.write(f"verdict: {'PASS' if upper_ok and lower_ok else 'FAIL'}\n")
    return 0


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
    out = sys.stdout
    if args.command == "bound":
        return _cmd_bound(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    return _cmd_empirical(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
