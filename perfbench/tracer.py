"""Per-layer tracing of ric_bounds from outside the package.

The tracer replaces module-level names through which the layers call each
other (``HOOKS``) and restores them afterwards.  Outer solves, inner solves
and empirical calls each get a span with a parent id.  The leaf kernels
(``i_uric_inner``, ``erfcx`` and the closed-form helpers) run millions of
times, so they get no span each: their call count, summed time and self
time are added to the enclosing span, which keeps memory bounded.

A layer's self time is its time minus the time of its child spans and
leaf calls.  A hook whose target no longer exists is reported as missing
and skipped.

The objective handed to the inner simplex is wrapped as well, to count
the evaluations that its feasibility guard answers with inf without
calling ``i_uric_inner``.  With that count the leaf counters can be
checked exactly against the solver's own evaluation count.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

SPAN = "span"
LEAF = "leaf"
GUARD = "guard"  # wrap the objective passed as first argument

# (module, attribute, layer, kind).  The cli names are the boundary
# between the command layer and the solvers; the others sit between
# optimizer, bounds_lifted, specfun and the empirical helpers.
HOOKS = (
    ("ric_bounds.cli", "optimize_upper", "optimizer.outer", SPAN),
    ("ric_bounds.cli", "optimize_lower", "optimizer.outer", SPAN),
    ("ric_bounds.cli", "empirical_ric", "empirical.empirical_ric", SPAN),
    ("ric_bounds.cli", "simple_upper", "bounds_simple", LEAF),
    ("ric_bounds.cli", "simple_lower", "bounds_simple", LEAF),
    ("ric_bounds.cli", "reference_for_kind", "reference_tables", LEAF),
    ("ric_bounds.optimizer", "minimize_inner", "optimizer.minimize_inner", SPAN),
    ("ric_bounds.optimizer", "_nelder_mead", "optimizer.minimize_inner", GUARD),
    ("ric_bounds.optimizer", "i_uric_inner", "bounds_lifted.i_uric_inner", LEAF),
    ("ric_bounds.optimizer", "simple_upper", "bounds_simple", LEAF),
    ("ric_bounds.optimizer", "simple_lower", "bounds_simple", LEAF),
    ("ric_bounds.optimizer", "tail_term", "bounds_simple", LEAF),
    ("ric_bounds.optimizer", "optimal_nu", "bounds_simple", LEAF),
    ("ric_bounds.bounds_lifted", "erfcx", "specfun.erfcx", LEAF),
    ("ric_bounds.empirical", "sample_matrix", "empirical.sample_matrix", SPAN),
    ("ric_bounds.empirical", "_extreme_gram_eigs", "empirical.gram_eigs", SPAN),
    ("ric_bounds.empirical", "_sampled_supports", "empirical.sampled_supports", SPAN),
)


class Span:
    __slots__ = ("id", "parent", "layer", "start", "end", "child", "leaves")

    def __init__(self, span_id: int, parent: int | None, layer: str):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans and leaf calls
        self.leaves: dict[str, list] = {}  # layer -> [calls, total_s, self_s]

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "start": self.start, "end": self.end, "child_s": self.child,
                "leaves": self.leaves}


def _record_outer(stats, args, result):
    stats["optimizer.outer.evals"] += result.evaluations
    stats["optimizer.outer.converged"] += result.converged


def _record_inner(stats, args, result):
    stats["optimizer.minimize_inner.evals"] += result.evaluations
    stats["optimizer.minimize_inner.converged"] += result.converged


def _record_gram(stats, args, result):
    count, k = args[1].shape
    stats["empirical.gram_eigs.supports"] += count
    stats["empirical.gram_eigs.bytes_computed"] += count * k * k * 8


# Counts taken from the return value or arguments at a span boundary.
_RECORDERS = {
    "optimizer.outer": _record_outer,
    "optimizer.minimize_inner": _record_inner,
    "empirical.gram_eigs": _record_gram,
}


class Tracer:
    """Spans and leaf counters of one traced workload iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stats: dict[str, float] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[Span] = []
        self._child = [0.0]  # child-time accumulator of each open span or leaf call

    def _span_wrapper(self, layer, fn):
        record = _RECORDERS.get(layer)

        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if record is not None:
                record(self.stats, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, layer, fn):
        child = self._child
        open_spans = self._open

        # No try/finally on this hot path: if fn raises, the enclosing
        # span drops the accumulators left behind (see span()).
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = _perf()
            result = fn(*args, **kwargs)
            dt = _perf() - t0
            nested = child.pop()
            child[-1] += dt
            leaves = open_spans[-1].leaves
            acc = leaves.get(layer)
            if acc is None:
                acc = leaves[layer] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += dt
            acc[2] += dt - nested
            return result

        return wrapper

    def _guard_wrapper(self, layer, fn):
        stats = self.stats
        key = f"{layer}.guard_evals"

        def wrapper(f, *args, **kwargs):
            def objective(x):
                value = f(x)
                if value == math.inf:
                    stats[key] += 1
                return value

            return fn(objective, *args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, layer: str):
        parent = self._open[-1].id if self._open else None
        rec = Span(len(self.spans), parent, layer)
        self.spans.append(rec)
        self._open.append(rec)
        depth = len(self._child)
        self._child.append(0.0)
        rec.start = _perf()
        try:
            yield rec
        finally:
            rec.end = _perf()
            rec.child = self._child[depth]
            del self._child[depth:]
            self._open.pop()
            self._child[-1] += rec.end - rec.start

    @contextmanager
    def installed(self):
        """Patch every hook point that exists; restore all of them on exit."""
        saved = []
        try:
            for module_name, attr, layer, kind in HOOKS:
                module = importlib.import_module(module_name)
                target = getattr(module, attr, None)
                if target is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrap = {SPAN: self._span_wrapper, LEAF: self._leaf_wrapper,
                        GUARD: self._guard_wrapper}[kind]
                saved.append((module, attr, target))
                setattr(module, attr, wrap(layer, target))
            yield self
        finally:
            for module, attr, target in reversed(saved):
                setattr(module, attr, target)

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self_s] over all spans and leaf counters."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            t = totals[s.layer]
            t[0] += 1
            t[1] += s.end - s.start - s.child
            for layer, (calls, _total, self_s) in s.leaves.items():
                t = totals[layer]
                t[0] += calls
                t[1] += self_s
        return totals

    def hooked(self, layer: str) -> bool:
        """Whether every hook of a layer was installed."""
        missing = set(self.missing)
        return all(f"{m}.{a}" not in missing for m, a, lay, _ in HOOKS if lay == layer)

    def per_layer(self) -> dict[str, float]:
        """The traced per-layer metrics, keyed as in BENCHMARK.json."""
        totals = self.layer_totals()
        stats = self.stats

        def calls(layer):
            return totals[layer][0] if layer in totals else 0

        def self_s(layer):
            return totals[layer][1] if layer in totals else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        inner = calls("optimizer.minimize_inner")
        outer = calls("optimizer.outer")
        iuric = calls("bounds_lifted.i_uric_inner")
        return {
            "specfun.erfcx.calls": calls("specfun.erfcx"),
            "specfun.erfcx.self_s": self_s("specfun.erfcx"),
            "bounds_lifted.i_uric_inner.calls": iuric,
            "bounds_lifted.i_uric_inner.self_s": self_s("bounds_lifted.i_uric_inner"),
            "bounds_lifted.i_uric_inner.ns_per_call":
                ratio(self_s("bounds_lifted.i_uric_inner") * 1e9, iuric),
            "optimizer.minimize_inner.calls": inner,
            "optimizer.minimize_inner.self_s": self_s("optimizer.minimize_inner"),
            "optimizer.minimize_inner.evals_per_call":
                ratio(stats["optimizer.minimize_inner.evals"], inner),
            "optimizer.minimize_inner.converged_ratio":
                ratio(stats["optimizer.minimize_inner.converged"], inner),
            "optimizer.minimize_inner.guard_evals": stats["optimizer.minimize_inner.guard_evals"],
            "optimizer.outer.calls": outer,
            "optimizer.outer.self_s": self_s("optimizer.outer"),
            "optimizer.outer.evals": stats["optimizer.outer.evals"],
            "optimizer.outer.inner_per_outer": ratio(inner, outer),
            "optimizer.outer.converged_ratio": ratio(stats["optimizer.outer.converged"], outer),
            "bounds_simple.self_s": self_s("bounds_simple"),
            "reference_tables.self_s": self_s("reference_tables"),
            "cli.self_s": self_s("cli"),
            "empirical.sample_matrix.calls": calls("empirical.sample_matrix"),
            "empirical.sample_matrix.self_s": self_s("empirical.sample_matrix"),
            "empirical.gram_eigs.calls": calls("empirical.gram_eigs"),
            "empirical.gram_eigs.self_s": self_s("empirical.gram_eigs"),
            "empirical.gram_eigs.supports": stats["empirical.gram_eigs.supports"],
            "empirical.gram_eigs.bytes_computed": stats["empirical.gram_eigs.bytes_computed"],
            "empirical.sampled_supports.calls": calls("empirical.sampled_supports"),
            "empirical.sampled_supports.self_s": self_s("empirical.sampled_supports"),
            "empirical.empirical_ric.self_s": self_s("empirical.empirical_ric"),
        }

    def count_check(self) -> str | None:
        """Cross-check the leaf counters against the solver's own eval count.

        Every evaluation either calls i_uric_inner, which calls erfcx twice,
        or is answered inf by the feasibility guard.  Returns a problem
        description, or None when the counts agree or a hook they rest on
        is missing (then the check cannot be made).  Without the guard hook
        the guard count reads 0 and the check is plain equality.
        """
        layers = ("optimizer.outer", "bounds_lifted.i_uric_inner", "specfun.erfcx")
        if not all(self.hooked(layer) for layer in layers):
            return None
        metrics = self.per_layer()
        evals = metrics["optimizer.outer.evals"]
        iuric = metrics["bounds_lifted.i_uric_inner.calls"]
        erfcx = metrics["specfun.erfcx.calls"]
        guard = metrics["optimizer.minimize_inner.guard_evals"]
        if iuric + guard != evals or erfcx != 2 * iuric:
            return (f"count cross-check failed: i_uric_inner.calls={iuric}, "
                    f"guard_evals={guard}, outer.evals={evals}, erfcx.calls={erfcx}")
        return None

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(), sort_keys=True) + "\n")
