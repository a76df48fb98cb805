"""Bounds on restricted isometry constants of Gaussian random matrices.

The package computes, for the proportional regime k = beta*n, m = alpha*n:

* closed-form upper/lower bounds on the expected extreme singular values
  of k-column submatrices, normalized by sqrt(m) (:mod:`bounds_simple`);
* the sharper exponential-moment family optimized over its comparison
  parameter (:mod:`bounds_lifted`, :mod:`optimizer`);
* a finite-size empirical oracle via exhaustive or sampled support
  enumeration (:mod:`empirical`);
* embedded reference tables for regression and comparison
  (:mod:`reference_tables`);
* a deterministic CLI over all of the above (:mod:`cli`).
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
from .empirical import (
    EmpiricalEstimate,
    GaussianMatrix,
    empirical_ric,
    sample_matrix,
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
