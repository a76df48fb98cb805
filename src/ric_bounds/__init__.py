"""Bounds on restricted isometry constants of Gaussian random matrices.

The package computes, for the proportional regime k = beta*n, m = alpha*n:

* closed-form upper/lower bounds on the expected extreme singular values
  of k-column submatrices, normalized by sqrt(m) (:mod:`bounds_simple`);
* the sharper exponential-moment family optimized over its comparison
  parameter (:mod:`bounds_lifted`, :mod:`optimizer`);
* a finite-size empirical oracle via exhaustive or sampled support
  enumeration (:mod:`empirical`), the only part that uses numpy;
* embedded reference tables for regression and comparison
  (:mod:`reference_tables`);
* a deterministic CLI over all of the above (:mod:`cli`).

The bounds are scalar Python, so ``import ric_bounds`` does not load
numpy.  The empirical names (``EmpiricalEstimate``, ``GaussianMatrix``,
``empirical_ric``, ``sample_matrix``) are served by a module
``__getattr__`` (PEP 562) that imports :mod:`empirical`, and numpy with
it, on first use.

The import also keeps off the stdlib's data-class module (with the
``inspect``, ``dis``, ``ast`` and ``tokenize`` it pulls in), ``typing``,
``importlib.resources`` and ``csv``: in a fresh ``python -I`` (Python
3.11, 2-core x86-64) the import and the reference tables take about 3 ms
instead of about 25 ms; under ``-I -S``, where the site module has not
loaded ``collections``, ``enum``, ``functools`` and ``os``, about 10 ms.
The records are therefore immutable named tuples that validate in
``__new__``; they unpack, and compare equal to a tuple of equal fields.
"""

__version__ = "0.1.0"

from .bounds_lifted import (
    LiftedParams,
    SphBranch,
    big_i_uric,
    gamma_hat,
    i_sph,
    i_uric_inner,
)
from .bounds_simple import (
    BOUND_KINDS,
    BoundResult,
    ProblemShape,
    optimal_nu,
    simple_lower,
    simple_upper,
    tail_term,
)
from .optimizer import (
    OptimizerConfig,
    OptimReport,
    lifted_lower_objective,
    lifted_upper_objective,
    minimize_inner,
    optimize_lower,
    optimize_upper,
)
from .reference_tables import ReferenceEntry, bt_relation, entries, lookup
from .specfun import erf, erfc, erfcx, erfinv

__all__ = [
    "__version__",
    "BOUND_KINDS",
    "BoundResult",
    "EmpiricalEstimate",
    "GaussianMatrix",
    "LiftedParams",
    "OptimReport",
    "OptimizerConfig",
    "ProblemShape",
    "ReferenceEntry",
    "SphBranch",
    "big_i_uric",
    "bt_relation",
    "empirical_ric",
    "entries",
    "erf",
    "erfc",
    "erfcx",
    "erfinv",
    "gamma_hat",
    "i_sph",
    "i_uric_inner",
    "lifted_lower_objective",
    "lifted_upper_objective",
    "lookup",
    "minimize_inner",
    "optimal_nu",
    "optimize_lower",
    "optimize_upper",
    "sample_matrix",
    "simple_lower",
    "simple_upper",
    "tail_term",
]

_EMPIRICAL_NAMES = frozenset(("EmpiricalEstimate", "GaussianMatrix", "empirical_ric",
                              "sample_matrix"))


def __getattr__(name: str):
    if name in _EMPIRICAL_NAMES:
        from . import empirical

        return getattr(empirical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
