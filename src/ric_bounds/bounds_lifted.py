"""Exponential-moment ("lifted") bound objectives.

The closed-form bounds of :mod:`ric_bounds.bounds_simple` are the
c3 -> 0 limit of a sharper family indexed by a comparison parameter
c3 > 0 and two dual variables gamma = c3/2 + delta, delta > 0, and nu >= 0:

    upper(c3) =  (min_{delta,nu} K + I_sph+)/sqrt(alpha)
    lower(c3) = -(min_{delta,nu} K + I_sph-)/sqrt(alpha)

with K the paper's inner objective J less the c3/2 that its bounds
subtract again, so that delta ~ beta/(2 c3) is not lost next to c3/2:

    K = J - c3/2 = nu*beta + delta + log(M)/c3,
    M = E exp(c3 * max(h^2/(4 gamma) - nu, 0)),  h ~ N(0,1),

and the spherical term I_sph = ghat - (alpha/(2 c3)) log(1 - c3/(2 ghat))
where ghat = (2 c3 +- sqrt(4 c3^2 + 16 alpha))/8 picks the plus root for
the upper family and the minus root for the lower one.  The upper bound
is minimized and the lower bound maximized over c3 by
:mod:`ric_bounds.optimizer`.

The moment M has the closed form

    M = e^{-c3 nu}/sqrt(1-2p) * erfc(a/sqrt(2)) + erf(sqrt(2 nu gamma)),
    p = c3/(4 gamma),  1 - 2p = delta/gamma,  a = 2 sqrt(nu gamma (1-2p)),

finite exactly when delta > 0.  It is evaluated here on the
cancellation-free path

    M - 1 = e^{-2 nu gamma} * ( erfcx(a/sqrt(2))/sqrt(1-2p)
                                - erfcx(sqrt(2 nu gamma)) ),

which follows from r - a^2/2 = -2 nu gamma and stays finite for
parameters where e^{-c3 nu} and erfc(a/sqrt(2)) individually underflow.
log(M) is then log1p(M - 1), accurate even when M is within rounding of 1.
The difference in parentheses cancels as p -> 0; it is summed as a series
there instead (:func:`_scaled_excess`).
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .bounds_simple import _check_beta
from .specfun import erfcx

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


class SphBranch(enum.Enum):
    """Root selector for the spherical term: PLUS for the upper-bound
    machinery (positive root), MINUS for the lower-bound machinery
    (negative root)."""

    PLUS = "plus"
    MINUS = "minus"


class LiftedParams(namedtuple("LiftedParams", ("c3", "gamma", "nu", "delta"))):
    """Comparison parameter c3 >= 0, dual pair (gamma, nu) and
    delta = gamma - c3/2, which must be positive for the moment to be
    finite.  The solvers pass delta exactly: past c3 ~ 1e7 the optimal
    delta ~ beta/(2 c3) is below ulp(c3/2), so gamma no longer carries
    it.  Given only gamma, delta is gamma - c3/2.  c3 == 0 marks the
    closed-form limit point.
    """

    __slots__ = ()

    def __new__(cls, c3: float, gamma: float, nu: float,
                delta: float | None = None) -> LiftedParams:
        if delta is None:
            delta = gamma - 0.5 * c3
        self = super().__new__(cls, c3, gamma, nu, delta)
        if c3 < 0.0 or nu < 0.0:
            raise ValueError(f"c3 and nu must be nonnegative, got {self}")
        if not delta > 0.0:
            raise ValueError(f"gamma must exceed c3/2 (moment finiteness), got {self}")
        return self


def gamma_hat(c3: float, alpha: float, branch: SphBranch) -> float:
    """Stationary point (2 c3 +- sqrt(4 c3^2 + 16 alpha))/8 of the spherical term.

    The PLUS root is positive and exceeds c3/2; the MINUS root is
    negative.  Their product is -alpha/4, which gives the MINUS root as
    -2 alpha/(2 c3 + sqrt(4 c3^2 + 16 alpha)) without cancellation.  The
    c3 -> 0 limits are +-sqrt(alpha)/2; c3 == 0 itself is rejected because
    the assembled objectives have a removable singularity there handled
    by the closed-form limit, not by this function.
    """
    if not c3 > 0.0:
        raise ValueError(f"gamma_hat requires c3 > 0, got {c3!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"gamma_hat requires alpha in (0, 1], got {alpha!r}")
    root = math.sqrt(4.0 * c3 * c3 + 16.0 * alpha)
    if branch is SphBranch.PLUS:
        return (2.0 * c3 + root) / 8.0
    # The difference 2 c3 - root cancels as c3 grows and rounds to 0 at
    # c3 >= 2^26 (alpha = 0.1).
    return -2.0 * alpha / (2.0 * c3 + root)


def _log_sph_argument(c3: float, alpha: float, gh: float) -> float:
    """log(1 - x), x = c3/(2 ghat), from 1 - x = alpha/(4 ghat^2) (by
    2 ghat (2 ghat - c3) = alpha) where x > 1/2, which happens only on the
    PLUS branch and where 1 - x cancels (it rounds to 0 from c3 ~ 7e8), and
    where x < -2^52 on the MINUS branch, where x ~ -c3^2/alpha overflows as
    c3 nears the bracket ceiling and 1 is lost next to it anyway."""
    ratio = c3 / (2.0 * gh)
    if ratio > 0.5 or ratio < -4503599627370496.0:  # -2^52
        return math.log(alpha) - 2.0 * math.log(abs(2.0 * gh))
    return math.log1p(-ratio)


def i_sph(c3: float, alpha: float, branch: SphBranch) -> float:
    """Spherical moment term ghat - (alpha/(2 c3)) log(1 - c3/(2 ghat)).

    On the PLUS branch ghat > c3/2 keeps the log argument in (0, 1); on
    the MINUS branch ghat < 0 makes it exceed 1.  Tends to +-sqrt(alpha)
    as c3 -> 0.  The first item of :func:`i_sph_derivatives`.
    """
    return i_sph_derivatives(c3, alpha, branch)[0]


def i_sph_derivatives(c3: float, alpha: float, branch: SphBranch) -> tuple[float, float, float]:
    """(I, I', I'') in c3 from one ghat and one log, I = :func:`i_sph`.
    ghat is stationary, so I' = (H + ghat)/c3 with H the log
    term (alpha/(2 c3)) log(1 - c3/(2 ghat)); ghat' = ghat/(4 ghat - c3)
    and 1 - c3/(2 ghat) = alpha/(4 ghat^2), both from
    2 ghat (2 ghat - c3) = alpha, give I'' = -2 (alpha/(4 ghat - c3) + H)/c3^2.
    As c3 -> 0, I' -> 1/4 from terms of size ghat/c3, so its rounding
    error grows like eps/c3 and that of I'' like eps/c3^2 (see
    ``optimizer._C3_FLOOR``); c3 I' and c3^2 I'' stay within about eps.
    """
    gh = gamma_hat(c3, alpha, branch)
    half = (alpha / (2.0 * c3)) * _log_sph_argument(c3, alpha, gh)
    return gh - half, (half + gh) / c3, -2.0 * (alpha / (4.0 * gh - c3) + half) / (c3 * c3)


def _scaled_excess(two_p: float, root: float, s: float, z2: float,
                   e1: float, e2: float) -> float:
    """e^s (M - 1) = erfcx(z1)/sqrt(1-2p) - erfcx(z2) from e1 = erfcx(z1),
    e2 = erfcx(z2), root = sqrt(1-2p) and z1 = z2 root.

    With eps = 1 - root = 2p/(1 + root), the difference is
    (erfcx(z1) - e2 + eps e2)/root.  As p -> 0 it cancels, and the rounding
    errors of e1 and e2 reach K divided by c3.  There it is summed as the Taylor
    series of erfcx about z2 in steps of -h, h = z2 - z1 = z2 eps, whose
    terms a_k = erfcx^(k)(z2) (-h)^k/k! follow from
    erfcx' = 2 z erfcx - 2/sqrt(pi) as a_{k+1} = -2h/(k+1) (z2 a_k - h a_{k-1}).
    The limits on eps and s eps = z2 h keep the terms shrinking from the
    first.
    """
    eps = two_p / (1.0 + root)
    if eps > 0.25 or s * eps > 1.0:
        return e1 / root - e2
    h = z2 * eps
    prev, term = e2, -h * (2.0 * z2 * e2 - _TWO_OVER_SQRT_PI)
    acc = eps * e2 + term
    k = 1
    # abs: where eps e2 underflows, acc can round to a tiny negative sum.
    while abs(term) > 1e-17 * abs(acc):
        prev, term = term, -2.0 * h / (k + 1) * (z2 * term - h * prev)
        acc += term
        k += 1
    return acc / root


def _moment(c3: float, delta: float, nu: float):
    """M - 1 on the erfcx path, with the pieces its derivatives reuse:
    (M - 1, e^{-s}, erfcx(z1), erfcx(z2), z1, z2, sqrt(1-2p), 2 gamma),
    s = 2 nu gamma.  1 - 2p = 2 delta/(2 gamma) keeps full relative
    accuracy however small delta is next to c3/2."""
    if not delta > 0.0:
        raise ValueError(
            f"moment diverges: requires gamma - c3/2 > 0, got c3={c3}, delta={delta}"
        )
    two_gamma = c3 + 2.0 * delta
    s = nu * two_gamma
    z2 = math.sqrt(s)
    root = math.sqrt(2.0 * delta / two_gamma)
    z1 = z2 * root
    e1 = erfcx(z1)
    e2 = erfcx(z2)
    w = math.exp(-s)
    excess = _scaled_excess(c3 / two_gamma, root, s, z2, e1, e2)
    return w * excess, w, e1, e2, z1, z2, root, two_gamma


def big_i_uric(params: LiftedParams) -> float:
    """Exponential moment E exp(c3 * max(h^2/(4 gamma) - nu, 0)), h ~ N(0,1),
    at ``params.delta``.

    Always >= 1; equals 1/sqrt(1-2p) at nu = 0 and tends to 1 as c3 -> 0.
    c3 == 0 limit params are rejected, since the moment path divides by
    c3 downstream.
    """
    if not params.c3 > 0.0:
        raise ValueError(f"big_i_uric requires c3 > 0, got {params.c3!r}")
    return 1.0 + _moment(params.c3, params.delta, params.nu)[0]


def _inner_k(c3: float, beta: float, delta: float, nu: float, derivatives: int):
    """K, or K with its derivatives, at delta; see :func:`i_uric_inner`."""
    if not c3 > 0.0:
        raise ValueError(f"i_uric_inner requires c3 > 0, got {c3!r}")
    if nu < 0.0:
        raise ValueError(f"i_uric_inner requires nu >= 0, got {nu!r}")
    _check_beta(beta)
    if derivatives and not nu > 0.0:  # K_nn grows like nu^{-1/2} as nu -> 0
        raise ValueError(f"i_uric_inner derivatives require nu > 0, got {nu!r}")
    d, w, e1, e2, z1, z2, root, two_gamma = _moment(c3, delta, nu)
    log_m = math.log1p(d)
    value = nu * beta + delta + log_m / c3
    if not derivatives:
        return value

    m = 1.0 + d
    t = w * e1 / (root * m)  # T/M
    rest = (1.0 - w * e2) / m  # 1 - T/M = P(|h| <= b)/M
    scale = 1.0 / (2.0 * delta * two_gamma)  # sigma^2/(4 gamma^2)
    u = t * scale * (1.0 + _TWO_OVER_SQRT_PI * z1 / e1)  # S/(4 gamma^2 M)
    # Q/(16 gamma^4 M)
    q = t * scale * scale * (3.0 + _TWO_OVER_SQRT_PI * z1 * (2.0 * z1 * z1 + 3.0) / e1)
    fb = w * z2 / (_SQRT_PI * m)  # phi(b) b/M
    grad = (1.0 - u, beta - t)
    hess = (
        c3 * (q - u * u) + 4.0 * u / two_gamma + 4.0 * fb * nu / (two_gamma * two_gamma),
        c3 * u * rest + 2.0 * fb / two_gamma,
        c3 * t * rest + fb / nu,
    )
    l_c = delta * u - nu * t  # d log(M)/dc3
    slope = (l_c - log_m / c3) / c3
    if derivatives == 1:
        return value, grad, hess, slope
    gamma = 0.5 * two_gamma
    l_cc = (delta * delta * (q - u * u) - delta * u / gamma + nu * rest * (nu * t - 2.0 * delta * u)
            + c3 * nu * fb / (two_gamma * two_gamma))
    k_cd = u / gamma + nu * u * rest + delta * (u * u - q) + 2.0 * nu * fb / (two_gamma * two_gamma)
    return value, grad, hess, slope, ((l_cc - 2.0 * slope) / c3, k_cd, fb / two_gamma - rest * l_c)


def i_uric_inner(c3: float, beta: float, gamma: float | None, nu: float, *,
                 derivatives: int = 0, delta: float | None = None):
    """Inner objective J = nu*beta + gamma + log(M)/c3 for feasible (gamma, nu);
    given ``delta`` = gamma - c3/2 in place of gamma (pass gamma as None),
    K = J - c3/2 = nu*beta + delta + log(M)/c3, the form the solvers use.

    Identical for the upper and lower families (the sign flip of the
    linear form over a symmetric set leaves the moment unchanged).  J is
    K at delta = gamma - c3/2, plus c3/2.

    With ``derivatives=True`` (or 1) returns ``(K, (K_delta, K_nu), (K_dd, K_dn,
    K_nn), K_c)``, or J first in the gamma form, from the same two erfcx
    calls; K's derivatives in (delta, nu) are J's in (gamma, nu).  With
    b = 2 sqrt(gamma nu) the clipping threshold, they come from the tilted
    tail moments

        T = E[e^{c3 (h^2/(4 gamma) - nu)}; |h| > b] = e^{-s} sigma erfcx(z1),
        S = E[h^2 ...; |h| > b] = e^{-s} sigma^3 (erfcx(z1) + 2 z1/sqrt(pi)),
        Q = E[h^4 ...; |h| > b] = e^{-s} sigma^5 (3 erfcx(z1)
                                                  + (2/sqrt(pi)) (2 z1^3 + 3 z1)),

    sigma = (1-2p)^{-1/2}, s = 2 nu gamma, z1 = sqrt(s (1-2p)), as
    K_nu = beta - T/M and K_delta = 1 - S/(4 gamma^2 M).  The Hessian adds
    the boundary terms of T and S at |h| = b, where the density is
    phi(b) = e^{-s}/sqrt(2 pi).

    K_c is the slope in c3 of K at fixed delta and nu,

        K_c = (delta u - nu t - log(M)/c3)/c3,  u = 1 - K_delta,  t = beta - K_nu,

    since d log(M)/dc3 = delta u - nu t.  At the inner optimum it is the
    slope of min K in c3 (the envelope theorem).

    With ``derivatives=2`` a fifth item follows, K's c3 row
    ``(K_cc, K_c,delta, K_c,nu)`` at fixed (delta, nu).  Differentiating
    under M's integral (the clipped exponent f is 0 at |h| = b, so only
    second derivatives gain a boundary term, 2 phi(b) f_x f_y/f_h at
    h = b) gives, with q = Q/(16 gamma^4 M), fb = phi(b) b/M, L = log(M),

        L_cc = delta^2 (q - u^2) - delta u/gamma + nu (1 - t)(nu t - 2 delta u)
               + c3 nu fb/(4 gamma^2),         K_cc = (L_cc - 2 K_c)/c3,
        K_c,delta = u/gamma + nu u (1 - t) + delta (u^2 - q) + nu fb/(2 gamma^2),
        K_c,nu = fb/(2 gamma) - (1 - t)(delta u - nu t).

    As c3 -> 0, K_cc's rounding error grows like eps/c3^2; c3^2 K_cc's
    stays within about eps.
    """
    if delta is not None:
        return _inner_k(c3, beta, delta, nu, derivatives)
    result = _inner_k(c3, beta, gamma - 0.5 * c3, nu, derivatives)
    if not derivatives:
        return result + 0.5 * c3
    return (result[0] + 0.5 * c3, *result[1:])


def signed_value(c3: float, alpha: float, k_value: float, branch: SphBranch) -> float:
    """(K + I_sph)/sqrt(alpha) from K = min J - c3/2: the upper objective on
    the PLUS branch, and minus the lower objective on the MINUS branch."""
    return (k_value + i_sph(c3, alpha, branch)) / math.sqrt(alpha)

