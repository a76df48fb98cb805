"""Closed-form bounds on the normalized extreme singular values of
k-column submatrices of an i.i.d. Gaussian matrix.

For an m x n standard Gaussian matrix in the proportional regime
k = beta*n, m = alpha*n, the expected extremes of ||A x||_2 / sqrt(m)
over unit k-sparse x are bounded (upper RIC from above, lower RIC from
below) by

    1 +- (1/sqrt(alpha)) * sqrt(beta + 2 u / (sqrt(pi) e^{u^2})),
    u = erfinv(1 - beta).

The square root is the truncated second moment of a unit Gaussian
beyond its (1 - beta) magnitude quantile, so it always lies in (0, 1).
The lower bound may go negative for large beta; it is reported exactly
as computed, with flagging left to presentation layers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .specfun import erfinv

_SQRT_PI = math.sqrt(math.pi)

# The closed forms degenerate at beta in {0, 1} through erfinv; inputs
# outside this band are rejected rather than extrapolated.
BETA_MIN = 1e-6
BETA_MAX = 1.0 - 1e-6

KIND_UPPER_SIMPLE = "upper-simple"
KIND_LOWER_SIMPLE = "lower-simple"
KIND_UPPER_LIFTED = "upper-lifted"
KIND_LOWER_LIFTED = "lower-lifted"
BOUND_KINDS = (
    KIND_UPPER_SIMPLE,
    KIND_UPPER_LIFTED,
    KIND_LOWER_SIMPLE,
    KIND_LOWER_LIFTED,
)
_LIFTED_KINDS = frozenset({KIND_UPPER_LIFTED, KIND_LOWER_LIFTED})


def _check_beta(beta: float) -> None:
    if not BETA_MIN <= beta <= BETA_MAX:
        raise ValueError(
            f"beta must lie in [{BETA_MIN}, {BETA_MAX}] (clamped domain), got {beta!r}"
        )


class ProblemShape(namedtuple("ProblemShape", ("alpha", "beta"))):
    """Aspect-ratio pair (alpha, beta) = (m/n, k/n) with 0 < beta < alpha <= 1
    and beta in [BETA_MIN, BETA_MAX], checked in that order."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> ProblemShape:
        self = super().__new__(cls, alpha, beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"shape must be finite, got {self}")
        if not 0.0 < beta < alpha <= 1.0:
            raise ValueError(f"shape requires 0 < beta < alpha <= 1, got alpha={alpha}, beta={beta}")
        _check_beta(beta)
        return self

    @property
    def rho(self) -> float:
        """Sparsity-to-rows ratio beta/alpha = k/m used to index reference grids."""
        return self.beta / self.alpha

    @classmethod
    def from_rho(cls, alpha: float, rho: float) -> "ProblemShape":
        return cls(alpha=alpha, beta=rho * alpha)


class BoundResult(namedtuple("BoundResult", ("kind", "value", "params", "converged",
                                              "evaluations"))):
    """A computed bound value together with how it was obtained.

    ``params`` carries the achieving (c3, gamma, nu) for the lifted kinds
    and is absent for the closed-form kinds.  ``evaluations`` counts the
    evaluations of K in the one joint solve (0 for closed forms).
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: float, params: "LiftedParams | None" = None,
                converged: bool = True, evaluations: int = 0) -> BoundResult:
        self = super().__new__(cls, kind, value, params, converged, evaluations)
        if kind not in BOUND_KINDS:
            raise ValueError(f"unknown bound kind {kind!r}")
        if (params is not None) != (kind in _LIFTED_KINDS):
            raise ValueError(f"params must be present iff the kind is lifted, got {self}")
        if kind in (KIND_UPPER_SIMPLE, KIND_UPPER_LIFTED) and not value >= 1.0 - 1e-9:
            raise ValueError(f"upper bounds are >= 1 by construction, got {value}")
        if kind == KIND_LOWER_SIMPLE and not value <= 1.0 + 1e-9:
            raise ValueError(f"the simple lower bound is <= 1 by construction, got {value}")
        return self


@lru_cache(maxsize=256)
def _threshold(beta: float) -> float:
    """u = erfinv(1 - beta), which all four bound kinds at a shape share.

    Cached because erfinv is a Newton loop that costs several
    microseconds, and a sweep needs u at each shape for every kind (the
    lifted kinds through their c3 -> 0 limit).  An out-of-domain beta
    raises, and a call that raises is not cached.
    """
    _check_beta(beta)
    return erfinv(1.0 - beta)


def tail_term(beta: float) -> float:
    """sqrt(beta + 2 u / (sqrt(pi) e^{u^2})) with u = erfinv(1 - beta).

    Equals the root of the truncated Gaussian second moment
    E[h^2; |h| >= sqrt(2) u], hence strictly inside (0, 1) and
    nondecreasing in beta.
    """
    u = _threshold(beta)
    return math.sqrt(beta + 2.0 * u / (_SQRT_PI * math.exp(u * u)))


def optimal_nu(beta: float) -> float:
    """Threshold sqrt(2) erfinv(1 - beta) minimizing the scalar objective

    beta nu^2 + erfc(nu/sqrt(2)) (1 - nu^2) + 2 nu e^{-nu^2/2} / sqrt(2 pi)

    over nu >= 0; at this nu the objective equals tail_term(beta)^2.
    """
    return math.sqrt(2.0) * _threshold(beta)


def _simple_term(shape: ProblemShape) -> float:
    return tail_term(shape.beta) / math.sqrt(shape.alpha)


def simple_upper(shape: ProblemShape) -> BoundResult:
    """Closed-form upper bound 1 + tail_term(beta)/sqrt(alpha)."""
    return BoundResult(kind=KIND_UPPER_SIMPLE, value=1.0 + _simple_term(shape))


def simple_lower(shape: ProblemShape) -> BoundResult:
    """Closed-form lower bound 1 - tail_term(beta)/sqrt(alpha).

    Computed as 2 - simple_upper(shape).value so the mirror identity
    upper + lower == 2 holds exactly in floating point (exact Sterbenz
    subtraction whenever the upper value is <= 4, i.e. any alpha down to
    ~3e-3).  Negative values are returned verbatim.
    """
    return BoundResult(kind=KIND_LOWER_SIMPLE, value=2.0 - (1.0 + _simple_term(shape)))
