"""Benchmark runner for ric-bounds.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the runner measures the workload end to end, with no
hooks beyond a thin recorder at the cli boundary, for ``--seconds``
seconds (at least one iteration) and reports the end-to-end metrics.
With ``--trace 1`` it runs the workload untraced for ``--seconds``
seconds, then once more with every layer hooked (see ``tracer.py``), and
reports the per-layer metrics and the tracing overhead.

Every run checks the outputs and compares the output digest with earlier
runs of the same code and seed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat each metric by name with its unit,
together with the environment.  ``--smoke`` runs every workload at a tiny
size, untraced and traced, and exits non-zero if a check fails.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the runner exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 11
SETUP_SNIPPET = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
t0 = time.perf_counter()
import ric_bounds
from ric_bounds import reference_tables
reference_tables.entries()
elapsed = time.perf_counter() - t0
if not ric_bounds.__file__.startswith(src):
    sys.exit("ric_bounds imported from " + ric_bounds.__file__)
print(repr(elapsed))
"""

# Metrics printed by name next to the BENCHMARK.json ones, for the
# workloads they apply to: lifted-cell latency on sweep, support
# throughput on the empirical workloads, and the failed share everywhere.
REPORT_UNITS = {"cell_p50_s": "s", "cell_p80_s": "s", "supports_per_s": "1/s",
                "failed_share": "ratio"}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def _configure_environment() -> dict:
    """Cap BLAS threads at nproc and unset RIC_BOUNDS_THREADS, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(max(1, min(requested, nproc)))
    was_set = os.environ.pop("RIC_BOUNDS_THREADS", None)
    return {"nproc": nproc,
            "ric_bounds_threads": "unset" if was_set is None else f"unset (was {was_set!r})"}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(numpy, base: dict, seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, **base,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "blas_thread_cap": {var: os.environ[var] for var in BLAS_ENV}, "seed": seed}


def _setup_seconds() -> float:
    """Median time for a fresh interpreter to import ric_bounds and load the
    reference tables.  One unmeasured start first writes the bytecode cache."""
    samples = []
    for rep in range(SETUP_REPS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if rep:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def _code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ric_bounds").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _same_as_earlier_runs(key: str, digest: str) -> bool:
    """Record the output digest of (workload, seed, code) in the checkout's
    build directory; False if an earlier run recorded a different one."""
    path = STATE_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        known = {}
    previous = known.setdefault(key, digest)
    if previous == digest:
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return previous == digest


def _microbench() -> tuple[dict, list[str]]:
    """ns per call of erfcx (all three branches) and erfinv on fixed arguments."""
    from ric_bounds import specfun

    cases = (("specfun.erfcx.ns_per_call", "erfcx", (0.05, 1.0, 5.0, 20.0), 5000),
             ("specfun.erfinv.ns_per_call", "erfinv", (0.1, 0.5, 0.9, 0.999), 1000))
    metrics, missing = {}, []
    for metric, name, args, number in cases:
        fn = getattr(specfun, name, None)
        if fn is None:
            missing.append(f"ric_bounds.specfun.{name}")
            metrics[metric] = 0.0
            continue
        stmt = "; ".join(f"f({a!r})" for a in args)
        times = timeit.repeat(stmt, globals={"f": fn}, number=number, repeat=5)
        metrics[metric] = statistics.median(times) / (number * len(args)) * 1e9
    return metrics, missing


def _percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _run_for(run, seed: int, seconds: float) -> list:
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(run(seed))
    return outcomes


def _end_to_end(outcomes, setup_s: float) -> dict:
    wall = [o.wall_s for o in outcomes]
    cells = [s for o in outcomes for s in o.cell_s]
    supports = sum(o.supports for o in outcomes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(o.cpu_s for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes),
    }
    if supports:
        metrics["supports_per_s"] = supports / sum(wall)
    elif cells:
        metrics["cell_p50_s"] = statistics.median(cells)
        metrics["cell_p80_s"] = _percentile(cells, 80)
    return metrics


def _measure(args, bench: dict, env: dict) -> int:
    import numpy

    import workloads

    run, root_layer = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(_environment(numpy, env, args.seed), sort_keys=True))
    problems: list[str] = []

    if args.trace:
        from tracer import Tracer

        micro, missing = _microbench()
        outcomes = _run_for(run, args.seed, args.seconds)
        tracer = Tracer()
        with tracer.installed():
            traced = run(args.seed, root=lambda: tracer.span(root_layer))
        missing += tracer.missing
        metrics = {**micro, **tracer.per_layer(),
                   "trace.overhead_s": traced.wall_s - statistics.median(o.wall_s for o in outcomes)}
        count_problem = tracer.count_check()
        if count_problem:
            problems.append(count_problem)
        if missing:
            print("trace missing hooks: " + ", ".join(missing))
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        outcomes.append(traced)
        wanted = bench["per_layer"]
    else:
        setup_s = _setup_seconds()
        outcomes = _run_for(run, args.seed, args.seconds)
        metrics = _end_to_end(outcomes, setup_s)
        wanted = bench["end_to_end"]

    for o in outcomes:
        problems += o.problems
    digests = {o.digest for o in outcomes}
    if len(digests) > 1:
        problems.append("output digest differs between iterations of one run")
    key = f"{args.workload} seed={args.seed} code={_code_fingerprint()[:16]}"
    if not _same_as_earlier_runs(key, outcomes[0].digest):
        problems.append(f"output digest differs from an earlier run of {key}")

    units = {m["name"]: m["unit"] for m in wanted} | REPORT_UNITS
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"check {args.workload} iterations={len(outcomes)} attempted={attempted} "
          f"failed={failed} digest={outcomes[0].digest[:16]}")
    for problem in dict.fromkeys(problems):
        print(f"problem {problem}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _smoke() -> int:
    """Every workload at a tiny size, untraced then traced: checks, digest
    agreement and the count cross-check."""
    import workloads
    from tracer import Tracer

    ok = True
    for name, (run, root_layer) in workloads.WORKLOADS.items():
        plain = run(workloads.DEFAULT_SEED, smoke=True)
        tracer = Tracer()
        with tracer.installed():
            traced = run(workloads.DEFAULT_SEED, smoke=True, root=lambda: tracer.span(root_layer))
        problems = plain.problems + traced.problems
        if plain.digest != traced.digest:
            problems.append("traced output differs from untraced output")
        count_problem = tracer.count_check()
        if count_problem:
            problems.append(count_problem)
        layers = tracer.per_layer()
        print(f"smoke {name}: attempted={plain.attempted} failed={plain.failed} "
              f"wall_s={plain.wall_s:.3f} traced_wall_s={traced.wall_s:.3f} "
              f"spans={len(tracer.spans)} outer.evals={layers['optimizer.outer.evals']} "
              f"digest={plain.digest[:16]} missing={tracer.missing}")
        for problem in problems:
            print(f"  problem {problem}")
        ok &= not problems
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sweep", "empirical-exhaustive",
                                               "empirical-sampled"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    env = _configure_environment()
    if not (SRC / "ric_bounds" / "__init__.py").is_file():
        print(f"error: no ric_bounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ric_bounds

    if not Path(ric_bounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: ric_bounds imported from {ric_bounds.__file__}", file=sys.stderr)
        return 2
    if args.smoke:
        return _smoke()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return _measure(args, bench, env)


if __name__ == "__main__":
    sys.exit(main())
