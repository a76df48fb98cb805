"""Exponential-moment ("lifted") bound objectives.

The closed-form bounds of :mod:`ric_bounds.bounds_simple` are the
c3 -> 0 limit of a sharper family indexed by a comparison parameter
c3 > 0 and two dual variables gamma > c3/2, nu >= 0:

    upper(c3) = (1/sqrt(alpha)) * ( -c3/2 + min_{gamma,nu} J + I_sph+ )
    lower(c3) = (1/sqrt(alpha)) * (  c3/2 - min_{gamma,nu} J - I_sph- )

with the inner objective

    J(c3, beta, gamma, nu) = nu*beta + gamma + log(M)/c3,
    M = E exp(c3 * max(h^2/(4 gamma) - nu, 0)),  h ~ N(0,1),

and the spherical term I_sph = ghat - (alpha/(2 c3)) log(1 - c3/(2 ghat))
where ghat = (2 c3 +- sqrt(4 c3^2 + 16 alpha))/8 picks the plus root for
the upper family and the minus root for the lower one.  The upper bound
is minimized and the lower bound maximized over c3 by
:mod:`ric_bounds.optimizer`.

The moment M has the closed form

    M = e^{-c3 nu}/sqrt(1-2p) * erfc(a/sqrt(2)) + erf(sqrt(2 nu gamma)),
    p = c3/(4 gamma),  a = 2 sqrt(nu gamma (1-2p)),

finite exactly when p < 1/2.  It is evaluated here on the
cancellation-free path

    M - 1 = e^{-2 nu gamma} * ( erfcx(a/sqrt(2))/sqrt(1-2p)
                                - erfcx(sqrt(2 nu gamma)) ),

which follows from r - a^2/2 = -2 nu gamma and stays finite for
parameters where e^{-c3 nu} and erfc(a/sqrt(2)) individually underflow.
log(M) is then log1p(M - 1), accurate even when M is within rounding of 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bounds_simple import ProblemShape, _check_beta
from .specfun import erfcx


class SphBranch(enum.Enum):
    """Root selector for the spherical term: PLUS for the upper-bound
    machinery (positive root), MINUS for the lower-bound machinery
    (negative root)."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class LiftedParams:
    """Comparison parameter c3 >= 0 and dual pair (gamma, nu).

    Feasibility requires gamma > c3/2, i.e. p = c3/(4 gamma) < 1/2, which
    is exactly the condition under which the exponential moment is finite.
    c3 == 0 marks the closed-form limit point.
    """

    c3: float
    gamma: float
    nu: float

    def __post_init__(self) -> None:
        if self.c3 < 0.0 or self.nu < 0.0:
            raise ValueError(f"c3 and nu must be nonnegative, got {self}")
        if not self.gamma > 0.5 * self.c3:
            raise ValueError(f"gamma must exceed c3/2 (moment finiteness), got {self}")


def gamma_hat(c3: float, alpha: float, branch: SphBranch) -> float:
    """Stationary point (2 c3 +- sqrt(4 c3^2 + 16 alpha))/8 of the spherical term.

    The PLUS root is positive and exceeds c3/2; the MINUS root is
    negative.  Their product is -alpha/4.  The c3 -> 0 limits are
    +-sqrt(alpha)/2; c3 == 0 itself is rejected because the assembled
    objectives have a removable singularity there handled by the
    closed-form limit, not by this function.
    """
    if not c3 > 0.0:
        raise ValueError(f"gamma_hat requires c3 > 0, got {c3!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"gamma_hat requires alpha in (0, 1], got {alpha!r}")
    root = math.sqrt(4.0 * c3 * c3 + 16.0 * alpha)
    if branch is SphBranch.PLUS:
        return (2.0 * c3 + root) / 8.0
    return (2.0 * c3 - root) / 8.0


def i_sph(c3: float, alpha: float, branch: SphBranch) -> float:
    """Spherical moment term ghat - (alpha/(2 c3)) log(1 - c3/(2 ghat)).

    On the PLUS branch ghat > c3/2 keeps the log argument in (0, 1); on
    the MINUS branch ghat < 0 makes it exceed 1.  Tends to +-sqrt(alpha)
    as c3 -> 0.
    """
    gh = gamma_hat(c3, alpha, branch)
    ratio = c3 / (2.0 * gh)
    if ratio >= 1.0:  # impossible for valid inputs on either branch
        raise ArithmeticError(f"log argument not positive at c3={c3}, alpha={alpha}")
    return gh - (alpha / (2.0 * c3)) * math.log1p(-ratio)


def _moment_term_stable(c3: float, gamma: float, nu: float) -> float:
    """First moment summand e^{-c3 nu}/sqrt(1-2p) * erfc(a/sqrt(2)) via
    the underflow-free erfcx path. Assumes feasibility was checked."""
    omp = 1.0 - c3 / (2.0 * gamma)  # = 1 - 2p
    s = 2.0 * nu * gamma
    return erfcx(math.sqrt(s * omp)) * math.exp(-s) / math.sqrt(omp)


def _log_moment(c3: float, gamma: float, nu: float) -> float:
    """log E exp(c3 * max(h^2/(4 gamma) - nu, 0)) for feasible parameters."""
    omp = 1.0 - c3 / (2.0 * gamma)
    if not omp > 0.0:
        raise ValueError(
            f"moment diverges: requires c3/(4 gamma) < 1/2, got c3={c3}, gamma={gamma}"
        )
    s = 2.0 * nu * gamma
    z2 = math.sqrt(s)
    z1 = z2 * math.sqrt(omp)
    # M - 1 > 0 always: erfcx is decreasing and omp < 1.
    d = math.exp(-s) * (erfcx(z1) / math.sqrt(omp) - erfcx(z2))
    return math.log1p(d)


def big_i_uric(params: LiftedParams) -> float:
    """Exponential moment E exp(c3 * max(h^2/(4 gamma) - nu, 0)), h ~ N(0,1).

    Always >= 1; equals 1/sqrt(1-2p) at nu = 0 and tends to 1 as c3 -> 0.
    Raises ValueError when p = c3/(4 gamma) >= 1/2 (the moment diverges;
    LiftedParams cannot represent that region, but c3 == 0 limit params
    are also rejected here since the moment path divides by c3 downstream).
    """
    if not params.c3 > 0.0:
        raise ValueError(f"big_i_uric requires c3 > 0, got {params.c3!r}")
    return 1.0 + math.expm1(_log_moment(params.c3, params.gamma, params.nu))


def i_uric_inner(c3: float, beta: float, gamma: float, nu: float) -> float:
    """Inner objective nu*beta + gamma + log(M)/c3 for feasible (gamma, nu).

    Identical for the upper and lower families (the sign flip of the
    linear form over a symmetric set leaves the moment unchanged).
    """
    if not c3 > 0.0:
        raise ValueError(f"i_uric_inner requires c3 > 0, got {c3!r}")
    if nu < 0.0:
        raise ValueError(f"i_uric_inner requires nu >= 0, got {nu!r}")
    _check_beta(beta)
    return nu * beta + gamma + _log_moment(c3, gamma, nu) / c3


def upper_value_from_inner(c3: float, shape: ProblemShape, inner_value: float) -> float:
    """Assemble the upper objective from an already-minimized inner value."""
    return (-0.5 * c3 + inner_value + i_sph(c3, shape.alpha, SphBranch.PLUS)) / math.sqrt(
        shape.alpha
    )


def lower_value_from_inner(c3: float, shape: ProblemShape, inner_value: float) -> float:
    """Assemble the lower objective from an already-minimized inner value."""
    return (0.5 * c3 - inner_value - i_sph(c3, shape.alpha, SphBranch.MINUS)) / math.sqrt(
        shape.alpha
    )

