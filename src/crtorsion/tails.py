"""Spectral sums with quadratic growth: exact small-t asymptotics, certified
tail bounds, and term-wise analytic continuation of the associated zeta sum.

The family covered is
    sum_{k >= k0} mu(k) exp(-t lam(k)),   lam(k) = a2 k^2 + a1 k + a0,
                                          mu(k)  = m1 k + m0,
which contains the circle-bundle model (lam = k(k+m+1), mu = m+2k+1).  Three
independent tools are provided:

* ``em_heat_series`` - the Euler-Maclaurin small-t expansion.  Completing the
  square, mu splits as (m1/(2 a2)) lam' + mu0t; the lam'-part integrates to
  exp(-t lam(k0))/t exactly, the constant part produces the Gaussian
  half-power ladder through erfc, and finitely many endpoint-derivative
  corrections refine each t-coefficient (correction j first touches t^{j-1},
  so every printed coefficient is a finite exact sum).
* ``tail_bound`` - a certified integral-test bound used to decide where a
  truncated table may still be trusted.
* ``zeta_log_tail`` - value and z-derivative at z = 0 of
  sum_{k >= k0} mu(k) lam(k)^{-z}: an explicit head up to a split index K,
  then the binomial reduction of the tail to Hurwitz zeta values (mpmath
  supplies zeta, its s-derivative, and digamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .series import HalfPowerSeries, _as_doubled

SQRT_PI = math.sqrt(math.pi)

# Bernoulli numbers B_2, B_4, ..., B_22.
_BERNOULLI_EVEN = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
)


@dataclass(frozen=True)
class QuadraticLaw:
    """Eigenvalue law lam(k) = a2 k^2 + a1 k + a0 with multiplicity m1 k + m0."""

    a2: float
    a1: float
    a0: float
    m1: float
    m0: float

    def __post_init__(self):
        if self.a2 <= 0:
            raise DomainError("quadratic law requires a2 > 0")

    def lam(self, k):
        return self.a2 * k * k + self.a1 * k + self.a0

    def lam_prime(self, k):
        return 2.0 * self.a2 * k + self.a1

    def mult(self, k):
        return self.m1 * k + self.m0

    @property
    def vertex_shift(self) -> float:
        """s with lam(x) = a2 (x+s)^2 + vertex_value."""
        return self.a1 / (2.0 * self.a2)

    @property
    def vertex_value(self) -> float:
        return self.a0 - self.a1 ** 2 / (4.0 * self.a2)

    @property
    def mu_const(self) -> float:
        """mu(x) - (m1 / 2 a2) lam'(x), the constant remainder."""
        return self.m0 - self.m1 * self.a1 / (2.0 * self.a2)


# ---------------------------------------------------------------------------
# Euler-Maclaurin small-t expansion
# ---------------------------------------------------------------------------


def _poly_deriv(p: List[float]) -> List[float]:
    return [i * c for i, c in enumerate(p)][1:] or [0.0]


def _poly_mul(p: List[float], q: List[float]) -> List[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_eval(p: List[float], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _endpoint_derivative_tpoly(law: QuadraticLaw, order: int, x0: float) -> List[float]:
    """Coefficients (in powers of t) of P_order(x0; t) where
    d^k/dx^k [mu e^{-t lam}] = P_k e^{-t lam}."""
    lamp = [law.a1, 2.0 * law.a2]  # lam'(x)
    # P as list over t-powers of x-polynomials; P_0 = mu(x).
    p: List[List[float]] = [[law.m0, law.m1]]
    for _ in range(order):
        nxt: List[List[float]] = []
        for r in range(len(p) + 1):
            term = [0.0]
            if r < len(p):
                term = _poly_deriv(p[r])
            if r >= 1:
                prod = _poly_mul(lamp, p[r - 1])
                n = max(len(term), len(prod))
                term = [
                    (term[i] if i < len(term) else 0.0)
                    - (prod[i] if i < len(prod) else 0.0)
                    for i in range(n)
                ]
            nxt.append(term)
        p = nxt
    return [_poly_eval(poly, x0) for poly in p]


def em_heat_series(
    law: QuadraticLaw, k_start: int, trunc_order, em_terms: int | None = None
) -> HalfPowerSeries:
    """Small-t asymptotic expansion of sum_{k >= k_start} mu(k) e^{-t lam(k)}.

    The coefficients are exact (each receives contributions from finitely many
    Euler-Maclaurin orders); the default number of correction terms is chosen
    so that every represented coefficient is final.
    """
    t2 = _as_doubled(trunc_order, "trunc_order")
    top = max(1, math.ceil(t2 / 2) + 1)
    p = em_terms if em_terms is not None else top + 2
    if p > len(_BERNOULLI_EVEN):
        raise DomainError(
            f"requested {p} Euler-Maclaurin corrections; only "
            f"{len(_BERNOULLI_EVEN)} Bernoulli numbers are tabled"
        )
    work = t2 / 2 + 1
    x0 = float(k_start)
    lam0 = law.lam(x0)
    exp_lam0 = HalfPowerSeries.exponential(-lam0, work)

    # integral of the lam'-proportional part: (m1/2a2) e^{-t lam(x0)} / t
    acc = exp_lam0.shift(-1).scale(law.m1 / (2.0 * law.a2))

    mu0t = law.mu_const
    if mu0t != 0.0:
        # integral of the constant part:
        #   (sqrt(pi)/2) a2^{-1/2} t^{-1/2} e^{-t c~} erfc(sqrt(a2 t) beta)
        beta = x0 + law.vertex_shift
        ctilde = law.vertex_value
        erfc_terms = {0: 1.0}
        j = 0
        while j + 0.5 < work:
            coeff = (
                -(2.0 / SQRT_PI)
                * (-1.0) ** j
                * (math.sqrt(law.a2) * beta) ** (2 * j + 1)
                / (math.factorial(j) * (2 * j + 1))
            )
            erfc_terms[j + 0.5] = coeff
            j += 1
        erfc_series = HalfPowerSeries.from_terms(erfc_terms, work)
        gauss = (
            HalfPowerSeries.exponential(-ctilde, work) * erfc_series
        ).shift(-0.5).scale(mu0t * SQRT_PI / (2.0 * math.sqrt(law.a2)))
        acc = acc + gauss

    # endpoint value term + Bernoulli corrections
    acc = acc + exp_lam0.scale(0.5 * law.mult(x0))
    for j in range(1, p + 1):
        tpoly = _endpoint_derivative_tpoly(law, 2 * j - 1, x0)
        poly_series = HalfPowerSeries.from_terms(
            {r: c for r, c in enumerate(tpoly)}, work
        )
        weight = -_BERNOULLI_EVEN[j - 1] / math.factorial(2 * j)
        acc = acc + (poly_series * exp_lam0).scale(weight)
    return acc.truncate2(t2)


# ---------------------------------------------------------------------------
# Certified tail bound
# ---------------------------------------------------------------------------


def tail_bound(law: QuadraticLaw, k_start: int, t: float) -> float:
    """Upper bound for sum_{k >= k_start} mu(k) e^{-t lam(k)}, t > 0.

    Integral test from x0 = k_start - 1; valid when the summand is decreasing
    there (checked); returns +inf when the certificate does not apply.
    """
    if t <= 0:
        raise DomainError("tail_bound requires t > 0")
    x0 = k_start - 1.0
    if law.mult(k_start) <= 0 or law.lam_prime(x0) <= 0:
        return math.inf
    # decreasing iff m1 < t lam'(x) mu(x) for all x >= x0 (lhs const, rhs incr.)
    if t * law.lam_prime(x0) * law.mult(x0) <= law.m1:
        return math.inf
    part1 = law.m1 / (2.0 * law.a2 * t) * math.exp(-t * law.lam(x0))
    mu0t = law.mu_const
    part2 = 0.0
    if mu0t != 0.0:
        beta = x0 + law.vertex_shift
        z = math.sqrt(law.a2 * t) * beta
        part2 = (
            mu0t
            * SQRT_PI
            / (2.0 * math.sqrt(law.a2 * t))
            * math.exp(-t * law.vertex_value)
            * math.erfc(z)
        )
    return part1 + max(part2, 0.0) if mu0t >= 0 else max(part1 + part2, 0.0)


def trust_floor(law: QuadraticLaw, k_start: int, tol: float) -> float:
    """Smallest t (within a factor ~2) at which tail_bound(t) <= tol."""
    t_hi = 1.0
    while tail_bound(law, k_start, t_hi) > tol:
        t_hi *= 2.0
        if t_hi > 1e12:
            raise DomainError("tail bound never reaches tolerance")
    t_lo = t_hi
    while t_lo > 1e-300:
        candidate = t_lo / 2.0
        if tail_bound(law, k_start, candidate) > tol:
            break
        t_lo = candidate
    return t_lo


# ---------------------------------------------------------------------------
# Zeta continuation: value and derivative at z = 0
# ---------------------------------------------------------------------------


#: Hurwitz series terms allowed per precision level; with |rho| / (K+s)^2 at
#: most 1/81 the series reaches 1e-18 relative in about ten.
_SERIES_TERM_CAP = 64
_SERIES_REL_TOL = 1e-18


def split_index(law: QuadraticLaw, k_start: int) -> int:
    """First index K >= k_start of the continued tail: (K + s)^2 >= 81 |rho|,
    so the binomial ratio |rho| / (K + s)^2 is at most 1/81.  For the circle
    bundle law k (k + m + 1) this is K = 4 (m + 1)."""
    s = law.vertex_shift
    rho = law.vertex_value / law.a2
    return max(k_start, math.ceil(9.0 * math.sqrt(abs(rho)) - s))


def zeta_log_tail(law: QuadraticLaw, k_start: int) -> Tuple[float, float, float]:
    """(Z(0), Z'(0), error) for Z(z) = sum_{k >= k_start} mu(k) lam(k)^{-z}.

    The sum is split at K = ``split_index(law, k_start)``.  The head
    k_start <= k < K contributes sum mu(k) to Z(0) and -sum mu(k) log lam(k)
    to Z'(0), summed in mpmath.  On the tail, completing the square gives
    lam = a2 [(k+s)^2 + rho], and the binomial expansion in rho/(k+s)^2 turns
    the sum into Hurwitz zeta values at q = K + s, each of which continues
    explicitly; since |rho| / q^2 <= 1/81, about ten terms suffice for any
    law.  Head and tail are added in mpmath before conversion to float: a
    float combination would lose ~eps K^2 log K to cancellation.  Any law
    with lam(k) > 0 for all k >= k_start is accepted.

    Hurwitz zeta at moderate order with a large second argument loses many
    digits inside mpmath (observed ~16 at order 17, offset ~65), so the tail
    is evaluated on a precision ladder until two consecutive levels agree;
    their difference enters the reported error.  The head has no such loss
    and is summed once, at the first level.
    """
    _require_positive(law, k_start)
    K = split_index(law, k_start)
    head = None
    prev = None
    for dps in (30, 60, 120, 240):
        with mp.workdps(dps):
            if head is None:
                head = _head_sums(law, k_start, K)
            value, deriv, conv_err, scale = _zeta_log_tail_at(law, K, head)
        if prev is not None:
            drift = abs(deriv - prev)
            if drift <= max(1e-13, 1e-13 * scale):
                return value, deriv, conv_err + drift + 1e-15 * scale
        prev = deriv
    return value, deriv, conv_err + abs(deriv - prev) + 1e-15 * scale


def _require_positive(law: QuadraticLaw, k_start: int) -> None:
    """DomainError unless lam(k) > 0 for every integer k >= k_start.

    lam is smallest at the integers next to its vertex -s (or at k_start when
    the vertex lies below it)."""
    vertex = -law.vertex_shift
    candidates = {k_start}
    if vertex > k_start:
        candidates.update((math.floor(vertex), math.ceil(vertex)))
    if min(law.lam(k) for k in candidates) <= 0:
        raise DomainError("eigenvalues must be positive from k_start on")


def _head_sums(law: QuadraticLaw, k_start: int, K: int):
    """(sum mu(k), -sum mu(k) log lam(k)) over k_start <= k < K, in mpmath."""
    a2, a1, a0 = mp.mpf(law.a2), mp.mpf(law.a1), mp.mpf(law.a0)
    m1, m0 = mp.mpf(law.m1), mp.mpf(law.m0)
    ks = range(k_start, K)
    mus = [m1 * k + m0 for k in ks]
    logs = [mp.log((a2 * k + a1) * k + a0) for k in ks]
    return mp.fsum(mus), -mp.fdot(mus, logs)


def _zeta_log_tail_at(law: QuadraticLaw, K: int, head):
    mq = K + mp.mpf(law.vertex_shift)
    mrho = mp.mpf(law.vertex_value / law.a2)
    m1 = mp.mpf(law.m1)
    mu0t = mp.mpf(law.mu_const)
    value = m1 * mp.zeta(-1, mq) + mu0t * mp.zeta(0, mq) - mrho * m1 / 2
    deriv = (
        2 * m1 * mp.zeta(-1, mq, 1)
        + 2 * mu0t * mp.zeta(0, mq, 1)
        + mrho * m1 * mp.digamma(mq)
        - mrho * mu0t * mp.zeta(2, mq)
    )
    head_value, head_deriv = head
    scale = abs(head_value + value) + abs(head_deriv + deriv) + 1
    ratio = abs(mrho) / (mq * mq)
    for i in range(2, _SERIES_TERM_CAP):
        zodd = mp.zeta(2 * i - 1, mq)
        zeven = mp.zeta(2 * i, mq)
        term = ((-1) ** i) * mrho ** i / i * (m1 * zodd + mu0t * zeven)
        deriv += term
        if abs(term) < _SERIES_REL_TOL * scale and i > 4:
            err = abs(term) / (1 - ratio)
            break
    else:
        raise ConvergenceError(
            f"Hurwitz series at q = {float(mq):.6g} did not reach "
            f"{_SERIES_REL_TOL:g} relative in {_SERIES_TERM_CAP} terms"
        )
    deriv = deriv - mp.log(law.a2) * value
    return float(head_value + value), float(head_deriv + deriv), float(err), float(scale)
