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
  sum_{k >= k0} mu(k) lam(k)^{-z}: in closed form from Hurwitz values at the
  two roots when lam has real roots past k0, otherwise a head up to a split
  index K, then the binomial reduction of the tail to Hurwitz zeta values.
  Every Hurwitz value (zeta(j, q), zeta'(-1, q), zeta'(0, q), digamma(q))
  comes from one Euler-Maclaurin table per q.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    getcontext,
    localcontext,
)
from typing import List, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .series import HalfPowerSeries, _as_doubled, _bernoulli_over_factorial, _bose_weights

SQRT_PI = math.sqrt(math.pi)
_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class QuadraticLaw:
    """Eigenvalue law lam(k) = a2 k^2 + a1 k + a0 with multiplicity m1 k + m0."""

    a2: float
    a1: float
    a0: float
    m1: float
    m0: float

    def __post_init__(self):
        for name in ("a2", "a1", "a0", "m1", "m0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(
                    f"quadratic law coefficient {name} must be finite, got {value!r}"
                )
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


@functools.lru_cache(maxsize=None)
def _derivative_counts(r: int) -> Tuple[Tuple[int, int, int, int, int, int], ...]:
    """Per p = 0..r, (count, 2p - s, s - p) at s = r and then at s = r - 1,
    with count = (-1)^p r! / ((2p - s)! (s - p)!), or 0 outside
    s/2 <= p <= s."""

    def entry(s, p):
        if not p <= s <= 2 * p:
            return 0, 0, 0
        count = math.factorial(r) // (math.factorial(2 * p - s) * math.factorial(s - p))
        return (-1) ** p * count, 2 * p - s, s - p

    return tuple(entry(r, p) + entry(r - 1, p) for p in range(r + 1))


def _endpoint_derivative_tpoly(law: QuadraticLaw, r: int, x0: float) -> List[float]:
    """t-coefficients of P_r(x0; t), where d^r/dx^r [mu e^{-t lam}] = P_r e^{-t lam}.

    With y = x - x0 and b = lam'(x0), mu e^{-t (lam - lam(x0))} is
    (mu(x0) + m1 y) e^{-t (b y + a2 y^2)}, and the y^s t^p coefficient of the
    exponential is the single term (-1)^p b^{2p-s} a2^{s-p} / ((2p-s)! (s-p)!),
    nonzero for s/2 <= p <= s.  P_r is r! times the y^r coefficient of the
    product; r! / ((2p-s)! (s-p)!) is an integer for s = r and s = r - 1, and
    ``_derivative_counts`` keeps those integers per r.
    Raises DomainError once a coefficient leaves the float range.
    """
    b, mu0, m1, a2 = law.lam_prime(x0), law.mult(x0), law.m1, law.a2
    try:
        # r! times the y^s t^p coefficients of the exponential at s = r, r - 1
        poly = [
            mu0 * (c * b ** eb * a2 ** ea if c else 0.0)
            + m1 * (d * b ** db * a2 ** da if d else 0.0)
            for c, eb, ea, d, db, da in _derivative_counts(r)
        ]
    except OverflowError:
        poly = [math.inf]
    if not all(map(math.isfinite, poly)):
        raise DomainError(
            f"the order-{r} endpoint derivative of {law} at x = {x0:g} leaves the float range"
        )
    return poly


def em_heat_series(law: QuadraticLaw, k_start: int, trunc_order) -> HalfPowerSeries:
    """Small-t asymptotic expansion of sum_{k >= k_start} mu(k) e^{-t lam(k)}.

    The coefficients are exact: correction j first touches t^{j-1}, and the
    corrections run two orders past the last represented one.  Correction j
    is the closed-form endpoint derivative P_{2j-1}
    (``_endpoint_derivative_tpoly``) weighted by the exact B_2j / (2j)! that
    the direct route's Hurwitz evaluations also read, rounded once to float
    (``_bose_weights``), so the order has no cap.  Each correction
    is multiplied by e^{-t lam(x0)} on its own: summing them into one
    t-polynomial first costs the large-weight coefficients digits.

    Every part is a plain coefficient array in powers t^{j/2}, j = 0, 1, ...
    (a product is one ``np.convolve``), added at its own power of t into one
    accumulator on the slots t^{-1}, t^{-1/2}, ... below ``trunc_order``.
    """
    t2 = _as_doubled(trunc_order, "trunc_order")
    p = max(1, math.ceil(t2 / 2) + 1) + 2
    work = t2 / 2 + 1
    size = max(0, t2 + 2)
    x0 = float(k_start)
    lam0 = law.lam(x0)
    exp_lam0 = np.array(HalfPowerSeries.exponential(-lam0, work).coeffs, dtype=float)

    def product(a, b):  # the series product, truncated as both factors are
        return np.convolve(a, b)[:size] if size else a

    def add(coeffs, start2):  # acc += the series whose coeffs start at t^{start2 / 2}
        lead = start2 + 2
        acc[:lead] += 0.0  # the zero padding below its first slot, as a series sum adds
        acc[lead:] += coeffs[: size - lead]

    # integral of the lam'-proportional part: (m1/2a2) e^{-t lam(x0)} / t
    acc = exp_lam0 * (law.m1 / (2.0 * law.a2))

    mu0t = law.mu_const
    if mu0t != 0.0:
        # integral of the constant part:
        #   (sqrt(pi)/2) a2^{-1/2} t^{-1/2} e^{-t c~} erfc(sqrt(a2 t) beta)
        beta = x0 + law.vertex_shift
        ctilde = law.vertex_value
        erfc_series = np.zeros(size)
        erfc_series[:1] = 1.0
        j = 0
        while j + 0.5 < work:
            erfc_series[2 * j + 1] = (
                -(2.0 / SQRT_PI)
                * (-1.0) ** j
                * (math.sqrt(law.a2) * beta) ** (2 * j + 1)
                / (math.factorial(j) * (2 * j + 1))
            )
            j += 1
        exp_ctilde = np.array(HalfPowerSeries.exponential(-ctilde, work).coeffs, dtype=float)
        gauss = product(exp_ctilde, erfc_series)
        add(gauss * (mu0t * SQRT_PI / (2.0 * math.sqrt(law.a2))), -1)

    # endpoint value term + Bernoulli corrections
    add(exp_lam0 * (0.5 * law.mult(x0)), 0)
    for j, weight in enumerate(_bose_weights(p, exact=False), 1):
        tpoly = _endpoint_derivative_tpoly(law, 2 * j - 1, x0)
        poly = np.zeros(size)
        poly[: 2 * len(tpoly) : 2] = tpoly[: (size + 1) // 2]
        add(product(poly, exp_lam0) * -weight, 0)
    return HalfPowerSeries(min(-2, t2), tuple(acc.tolist()), t2)


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
    try:
        decay = math.exp(-t * law.lam(x0))
    except OverflowError:  # lam(x0) < 0: no bound in the float range
        return math.inf
    part1 = law.m1 / (2.0 * law.a2 * t) * decay
    mu0t = law.mu_const
    part2 = 0.0
    if mu0t != 0.0:
        # e^{-t vertex_value} erfc(z) = e^{-t lam(x0)} erfcx(z): the left side
        # overflows once -t vertex_value > 709, the right does not
        z = math.sqrt(law.a2 * t) * (x0 + law.vertex_shift)
        part2 = mu0t * SQRT_PI / (2.0 * math.sqrt(law.a2 * t)) * decay * _erfcx(z)
    return part1 + max(part2, 0.0) if mu0t >= 0 else max(part1 + part2, 0.0)


def _erfcx(z: float) -> float:
    """The scaled complementary error function e^{z^2} erfc(z), z >= 0.

    Below z = 5 the product itself; above, 24 terms of the continued fraction
    erfc(z) = e^{-z^2} / sqrt(pi) / (z + (1/2) / (z + 1 / (z + (3/2) / ...))),
    evaluated from the back (15 already reach float precision at z = 5)."""
    if z < 5.0:
        return math.exp(z * z) * math.erfc(z)
    acc = z
    for k in range(24, 0, -1):
        acc = z + 0.5 * k / acc
    return 1.0 / (SQRT_PI * acc)


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

#: Precision levels of the ladder, in decimal digits.
_LADDER = (30, 60, 120, 240)


def _context(dps: int) -> Context:
    """The decimal context of ladder level ``dps``: dps + 2 significant
    digits, so its unit roundoff 10^(-1-dps) is no larger than that of a
    binary float carrying dps digits (1.97e-31 at 30), and an exponent range
    that no product of the head leaves."""
    return Context(prec=dps + 2, Emax=MAX_EMAX, Emin=MIN_EMIN)


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _fsum(terms) -> Decimal:
    """The exact sum of the Decimal ``terms``, rounded once to the current
    context.  Only the additions run in the unbounded context, whose ``add``
    is called directly: the current context is never switched."""
    return +functools.reduce(_EXACT.add, terms, Decimal(0))


def _ln(x: Decimal) -> Decimal:
    """Natural logarithm at the current precision; every full-precision
    logarithm of the direct route is taken here."""
    return x.ln()


def _eps() -> Decimal:
    """Unit roundoff bound 10^(1 - prec) of the current context."""
    return Decimal(1).scaleb(1 - getcontext().prec)


def split_index(law: QuadraticLaw, k_start: int) -> int:
    """First index K >= k_start of the continued tail: (K + s)^2 >= 81 |rho|,
    so the binomial ratio |rho| / (K + s)^2 is at most 1/81.  For the circle
    bundle law k (k + m + 1) this is K = 4 (m + 1)."""
    s = law.vertex_shift
    rho = law.vertex_value / law.a2
    return max(k_start, math.ceil(9.0 * math.sqrt(abs(rho)) - s))


def zeta_log_tail(law: QuadraticLaw, k_start: int) -> Tuple[float, float, float]:
    """(Z(0), Z'(0), error) for Z(z) = sum_{k >= k_start} mu(k) lam(k)^{-z}.

    When lam = a2 (k + r1)(k + r2), r1 <= r2 real, with a = k_start + r1 > 0,
    the sum closes (Quine, Heydari and Song, Trans. AMS 338, 1993): with
    b = k_start + r2 and c_r = m0 - m1 r, so that mu(k) = m1 (k + r) + c_r,

        Z(0)  = 1/2 sum_{(q, r) = (a, r1), (b, r2)} [m1 zeta(-1, q) + c_r zeta(0, q)],
        Z'(0) = sum [m1 zeta'(-1, q) + c_r zeta'(0, q)] - m1 (r2 - r1)^2 / 4 - log a2 Z(0),

    since u^{-z} (u + d)^{-z} - u^{-2z} / 2 - (u + d)^{-2z} / 2 is O(z^2) and
    only its d^2 / u^2 part against m1 u meets the pole of zeta(1 + 2z)
    (u = k + r1, d = r2 - r1).  The circle bundle has a = 1 (stored
    constants) and b = m + 2: one Hurwitz family (``_closed_form_at``).

    Other laws are split at K = ``split_index(law, k_start)``: the head
    k_start <= k < K from two logarithms of products (``_head_sums``), the
    tail, with lam = a2 [(k+s)^2 + rho], from the binomial expansion in
    rho/(k+s)^2 into Hurwitz values at q = K + s, about ten terms since
    |rho| / q^2 <= 1/81 (``_zeta_log_tail_at``).  Both are added in decimal,
    as a float combination would lose ~eps K^2 log K to cancellation.

    Every Hurwitz value comes from one Euler-Maclaurin evaluation per q and
    precision level (``_HurwitzFamily``).  Each level of the ladder
    (``_context``) returns an a-priori bound on the decimal rounding of
    Z'(0), built from the magnitudes of the terms it combines; the first
    whose bound is at most max(1e-13, 1e-13 scale), scale = |Z(0)| +
    |Z'(0)| + 1, is kept.  The error is the series remainder (none for the
    closed form), that bound and half an ulp of the float Z'(0).  Any law
    with lam(k) > 0 for all k >= k_start is accepted.
    """
    _require_positive(law, k_start)
    for dps in _LADDER:
        with localcontext(_context(dps)):
            value, deriv, conv_err, scale, rounding = _level(law, k_start)
        if rounding <= max(1e-13, 1e-13 * scale):
            break
    return float(value), float(deriv), conv_err + rounding + 0.5 * math.ulp(float(deriv))


def _level(law: QuadraticLaw, k_start: int):
    """(Z(0), Z'(0), series remainder, scale, rounding) at the working
    precision: the closed form when it applies, else head and tail."""
    roots = _real_roots(law)
    if roots is not None and k_start + roots[0] > 0:
        return _closed_form_at(law, k_start, roots)
    K = split_index(law, k_start)
    return _zeta_log_tail_at(law, K, _head_sums(law, k_start, K))


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


def _real_roots(law: QuadraticLaw):
    """(r1, r2), r1 <= r2, with lam(k) = a2 (k + r1)(k + r2), in decimal from
    the law's coefficients; None when the roots are complex.  The
    discriminant a1^2 - 4 a2 a0 is exact, the root of larger size is a sum of
    two terms of one sign and the other comes from the product
    r1 r2 = a0 / a2, so each root is within 3 eps of itself
    (k (k + m + 1) gives r1 = 0 exactly)."""
    a2, a1, a0 = map(Decimal, (law.a2, law.a1, law.a0))
    with localcontext(_EXACT):
        disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return None
    big = (a1 + disc.sqrt() if a1 >= 0 else a1 - disc.sqrt()) / (2 * a2)
    small = a0 / a2 / big if big else big
    return (small, big) if small <= big else (big, small)


def _head_sums(law: QuadraticLaw, k_start: int, K: int):
    """(sum mu(k), -sum mu(k) log lam(k), rounding) over k_start <= k < K, in
    decimal at the working precision, from mu(k) = mu(k_start) +
    m1 (k - k_start) and the two logarithms of ``_log_moments``; ``rounding``
    bounds the decimal rounding of the second sum (see ``_zeta_log_tail_at``
    for how it counts)."""
    m1, m0 = Decimal(law.m1), Decimal(law.m0)
    ks = (K * (K - 1) - k_start * (k_start - 1)) // 2  # sum of k over the head
    total = m1 * ks + m0 * (K - k_start)
    a2, a1, a0 = map(Decimal, (law.a2, law.a1, law.a0))
    logs, moments = _log_moments(
        lambda i: (a2 * (k_start + i) + a1) * (k_start + i) + a0, K - k_start
    )
    lead = m1 * k_start + m0
    deriv = -(lead * logs + m1 * moments)
    # the two logarithms, of products carried with guard digits, are each
    # within eps (|value| + 1); the lead rounds twice, then three roundings
    units = (abs(m1) * k_start + abs(m0)) * (3 * abs(logs) + 1)
    units += abs(m1) * (2 * abs(moments) + 1) + abs(deriv)
    return total, deriv, _eps() * units


def _closed_form_at(law: QuadraticLaw, k_start: int, roots):
    """(Z(0), Z'(0), 0, scale, rounding) of the whole sum at the working
    precision, in closed form from the real ``roots`` = (r1, r2) with
    k_start + r1 > 0 (see ``zeta_log_tail``); scale = |Z(0)| + |Z'(0)| + 1.

    ``rounding`` bounds the decimal rounding of Z'(0) as
    ``_zeta_log_tail_at`` counts: each Hurwitz value its accuracy
    (``_SPECIAL_ULPS``) times its magnitude and the rounding of q carried
    through its q-derivative, and one eps per operation and accumulation."""
    m1, m0 = Decimal(law.m1), Decimal(law.m0)
    value = deriv = Decimal(0)
    units = value_units = 0
    for r in roots:
        q = k_start + r
        zeta_m1, zeta_0 = _zeta_primes(q)
        c = m0 - m1 * r
        # zeta(-1, q) = -(q^2 - q + 1/6) / 2 and zeta(0, q) = 1/2 - q
        value += c * (Decimal(1) / 2 - q) - m1 * ((q - 1) * q + Decimal(1) / 6) / 2
        term = m1 * zeta_m1 + c * zeta_0
        deriv += term
        # q = k_start + r moves by (3 |r| + q) eps (the root, then the sum)
        # and c by (5 |m1 r| + 2 |m0|) eps (it rounds twice and moves with r)
        dq, dc = 3 * abs(r) + q, 5 * abs(m1 * r) + 2 * abs(m0)
        value_units += 8 * (abs(m1) * (q * q + q + 1) / 2 + abs(c) * (q + 1))
        value_units += dq * (abs(m1) * (q + 1) + abs(c)) + dc * (q + 1)
        # each value: its accuracy and the product; the sum and the
        # accumulation; dq through the q-derivatives zeta'(0, q) + q - 1/2
        # of zeta'(-1, q) and digamma(q) of zeta'(0, q), where
        # |digamma(q)| < |log q| + 1/q
        digamma = Decimal(abs(math.log(float(q))) + 1.0 / float(q))
        units += (_SPECIAL_ULPS + 1) * (abs(m1 * zeta_m1) + abs(c * zeta_0)) + dc * abs(zeta_0)
        units += dq * (abs(m1) * (abs(zeta_0) + q + 1) + abs(c) * digamma)
        units += abs(term) + abs(deriv)
    value /= 2
    r1, r2 = roots
    gap = r2 - r1
    anomaly = m1 * gap * gap / 4
    log_a2 = _ln(Decimal(law.a2))
    deriv -= anomaly + log_a2 * value
    # the gap moves by (3 |r1| + 3 |r2| + gap) eps and the anomaly by
    # m1 gap / 2 times that, then rounds three times; the logarithm, the
    # product and the two subtractions
    units += abs(m1) * gap * (3 * (abs(r1) + abs(r2)) + gap) + 3 * abs(anomaly)
    units += abs(log_a2) * (2 * abs(value) + value_units) + 2 * abs(deriv)
    scale = abs(value) + abs(deriv) + 1
    return value, deriv, 0.0, float(scale), float(_eps() * units)


def _log_moments(x, n: int):
    """(sum_{i<n} log x(i), sum_{i<n} i log x(i)) for positive x(i), from two
    logarithms (none when n = 0): ln prod x(i), and ln prod_{j>=1} S_j with
    the suffix products S_j = prod_{j<=i<n} x(i).  The x(i) and the products
    carry 2 log10 n + 4 guard digits: the n^2 / 2 roundings in prod S_j each
    cost one unit of that precision, and stay below one unit of the current
    precision, at which the two logarithms are taken."""
    if not n:
        return Decimal(0), Decimal(0)
    with localcontext() as ctx:
        ctx.prec += 2 * len(str(n)) + 4
        suffix = moments = Decimal(1)
        for i in range(n - 1, 0, -1):
            suffix *= x(i)
            moments *= suffix
        product = suffix * x(0)
    return _ln(product), _ln(moments)


#: zeta'(-1, 1) = 1/12 - log A (A the Glaisher-Kinkelin constant) and
#: zeta'(0, 1) = -log(2 pi) / 2, to 260 digits.
_ZETA_PRIME_M1_AT_1 = Decimal(
    "-0.16542114370045092921391966024278064276403638033520178366652230635"
    "73596996665771727595251003325087555383771201878848931122162119125117"
    "97248364987182258879359946190409353647531780827341622694584598894742"
    "86319181153676673944873081002959361712905843907198843135866"
)
_ZETA_PRIME_0_AT_1 = Decimal(
    "-0.91893853320467274178032973640561763986139747363778341281715154048"
    "27656959272603976947432986359541976220056466246343374463668628818407"
    "93572155875915222681393603560742547358669046395905991380805630163234"
    "87309462737462551825169495447741009585935139198161159813057"
)


def _zeta_primes(q):
    """(zeta'(-1, q), zeta'(0, q)); at q = 1 the stored constants."""
    if q == 1:
        return +_ZETA_PRIME_M1_AT_1, +_ZETA_PRIME_0_AT_1
    family = _HurwitzFamily(q)
    return family.zeta_prime_m1(), family.zeta_prime_0()


#: Relative accuracy, in units of ``_eps()``, of the values of one
#: ``_HurwitzFamily``: zeta(j, q) to within the requested tolerance, and
#: zeta'(-1, q), zeta'(0, q) and digamma(q); ``TestHurwitzFamily`` checks
#: both against mpmath at every ladder level.
_ZETA_ULPS = 6
_SPECIAL_ULPS = 4


def _zeta_log_tail_at(law: QuadraticLaw, K: int, head):
    """(Z(0), Z'(0), series remainder, scale, rounding) at the working
    precision: the tail k >= K through the Hurwitz values at q = K + s of
    one ``_HurwitzFamily``, added to ``head`` = ``_head_sums(law, k_start,
    K)``; scale = |Z(0)| + |Z'(0)| + 1 before the binomial series.  s, rho
    and mu_const are each one rounding of an exact quotient of the law's
    coefficients.

    ``rounding`` bounds the decimal rounding of Z'(0), the head's included.
    Each term counts, times its magnitude, the relative accuracy of its
    Hurwitz value (``_ZETA_ULPS``, ``_SPECIAL_ULPS``), the rounding of q (of
    s, then of the sum) carried through the value's q-derivative, and one
    eps for each operation that forms the term and for each of rho and
    mu_const; each accumulation adds one eps of the partial sum, and each
    zeta(j, q) the tolerance it was summed to.  eps = ``_eps()`` is twice
    the unit roundoff, so every rounding counts twice over.  The values'
    accuracies are measured, not proven: the bound is not an enclosure.
    """
    eps = _eps()
    a2, a1, a0, m1, m0 = map(Decimal, (law.a2, law.a1, law.a0, law.m1, law.m0))
    with localcontext(_EXACT):
        twice_a2 = 2 * a2
        disc = a1 * a1 - 2 * twice_a2 * a0
        mu_num = twice_a2 * m0 - m1 * a1
        twice_a2_sq = twice_a2 * twice_a2
    s, mrho, mu0t = a1 / twice_a2, -disc / twice_a2_sq, mu_num / twice_a2
    mq = K + s
    family = _HurwitzFamily(mq)
    # zeta(-1, q) = -(q^2 - q + 1/6) / 2 and zeta(0, q) = 1/2 - q
    value = (
        -m1 * ((mq - 1) * mq + Decimal(1) / 6) / 2
        + mu0t * (Decimal(1) / 2 - mq)
        - mrho * m1 / 2
    )
    abs_q = abs(mq)
    # q moves by dq = (|s| + |q|) eps, spread = dq / |q| relative to itself
    dq = abs(s) + abs_q
    spread = dq / abs_q
    value_units = 8 * (
        abs(m1) * (mq * mq + abs_q + 1) / 2 + abs(mu0t) * (abs_q + 1) + abs(mrho * m1) / 2
    )
    value_units += dq * (abs(m1) * (abs_q + 1) + abs(mu0t))
    zeta_m1, zeta_0, digamma = family.zeta_prime_m1(), family.zeta_prime_0(), family.digamma()
    deriv = 2 * m1 * zeta_m1 + 2 * mu0t * zeta_0 + mrho * m1 * digamma
    # q-derivatives: zeta'(-1, q) -> zeta'(0, q) + q - 1/2, zeta'(0, q) ->
    # digamma(q), digamma(q) -> zeta(2, q) < 1/q + 1/q^2
    units = 2 * abs(m1) * ((_SPECIAL_ULPS + 3) * abs(zeta_m1) + dq * (abs(zeta_0) + abs_q + 1))
    units += 2 * abs(mu0t) * ((_SPECIAL_ULPS + 4) * abs(zeta_0) + dq * abs(digamma))
    units += abs(mrho * m1) * ((_SPECIAL_ULPS + 4) * abs(digamma) + spread * (1 + 1 / abs_q))
    head_value, head_deriv, head_rounding = head
    # zeta(2i-1, q) and zeta(2i, q) enter Z'(0) weighted by rho^i / i times m1
    # and mu0t; each needs only eps of the partial Z'(0) after weighting, and
    # an order of weight zero (mu0t = 0 for the circle bundle) none at all
    budget = eps * (abs(head_value + value) + abs(head_deriv + deriv) + 1)

    def hurwitz(i, coeff):
        weight = abs(mrho) ** i / i * abs(coeff)
        if not weight:
            family.skip()
            return Decimal(0)
        return family.next(budget / weight)

    # zeta(j, q) moves by j spread eps / 2 of itself when q rounds, and
    # rho^i by i eps / 2 when rho does
    term = mrho * mu0t * hurwitz(1, mu0t)
    deriv -= term
    units += (_ZETA_ULPS + 5 + spread) * abs(term) + abs(deriv)
    scale = abs(head_value + value) + abs(head_deriv + deriv) + 1
    ratio = abs(mrho) / (mq * mq)
    rel_tol = Decimal(_SERIES_REL_TOL)
    for i in range(2, _SERIES_TERM_CAP):
        zodd = hurwitz(i, m1)
        zeven = hurwitz(i, mu0t)
        weight, odd, even = mrho ** i / i, m1 * zodd, mu0t * zeven
        term = ((-1) ** i) * weight * (odd + even)
        deriv += term
        units += (_ZETA_ULPS + 7 + i * (spread + 1)) * abs(weight) * (abs(odd) + abs(even))
        units += abs(deriv)
        if abs(term) < rel_tol * scale and i > 4:
            err = abs(term) / (1 - ratio)
            break
    else:
        raise ConvergenceError(
            f"Hurwitz series at q = {float(mq):.6g} did not reach "
            f"{_SERIES_REL_TOL:g} relative in {_SERIES_TERM_CAP} terms"
        )
    log_a2 = _ln(Decimal(law.a2))
    deriv = deriv - log_a2 * value
    units += abs(log_a2) * (2 * abs(value) + value_units) + abs(deriv)
    deriv = head_deriv + deriv
    units += abs(deriv)
    # each of the 2i - 1 zeta(j, q) is within budget after its weight
    rounding = eps * units + (2 * i - 1) * budget + head_rounding
    return head_value + value, deriv, float(err), float(scale), float(rounding)


#: The shared Euler-Maclaurin evaluation shifts q to Q >= _EM_SHIFT_PER_BIT
#: times the working precision in bits (prec / log10 2), where its terms for
#: orders up to ~40 fall below the unit roundoff within _EM_TERM_CAP
#: corrections at every ladder level.
_EM_SHIFT_PER_BIT = 0.3
_EM_TERM_CAP = 128


@functools.lru_cache(maxsize=None)
def _bernoulli_ratio(i: int, prec: int) -> Decimal:
    """``_bernoulli_over_factorial(i)`` rounded once to ``prec`` digits."""
    ratio = _bernoulli_over_factorial(i)
    return Context(prec=prec).divide(ratio.numerator, ratio.denominator)


class _HurwitzFamily:
    """Hurwitz zeta values at one q, at the working precision, from one
    Euler-Maclaurin evaluation: zeta(j, q) for j = 2, 3, ... in turn, and
    zeta'(-1, q), zeta'(0, q) = log Gamma(q) - log(2 pi) / 2 and digamma(q).

    With Q = q + N the first shift past _EM_SHIFT_PER_BIT times the working
    precision in bits (N = 0 when q is past it already),

        zeta(j, q) = sum_{k<N} (q+k)^{-j} + Q^{1-j} / (j-1) + Q^{-j} / 2
                     + sum_{i>=1} B_2i / (2i)! (j)_{2i-1} Q^{-j-2i+1},

    with (j)_r the rising factorial, and at Q the Stirling forms

        zeta'(-1, Q) = (Q^2/2 - Q/2 + 1/12) log Q - Q^2/4 + 1/12
                       - sum_{i>=2} B_2i / ((2i)(2i-1)(2i-2)) Q^{2-2i},
        zeta'(0, Q)  = (Q - 1/2) log Q - Q + sum_{i>=1} B_2i / ((2i)(2i-1)) Q^{1-2i},
        digamma(Q)   = log Q - 1/(2Q) - sum_{i>=1} B_2i / (2i) Q^{-2i},

    from which the shift terms (q+k) log(q+k), log(q+k) and 1/(q+k) are
    subtracted; the N logarithms sum from two (``_log_moments``), since
    sum (q+k) log(q+k) = q sum log(q+k) + sum k log(q+k).  The head powers
    and Q^{-j} advance from the previous order by one division by an exact
    divisor each (``skip`` advances them past an order that is not needed);
    every series reads one table of B_2i / (2i)! Q^{1-2i}.  The first omitted
    term bounds each remainder, so a series stops at its first term below
    its tolerance (``tol`` for ``next``, eps of the value for the other
    three) and raises ConvergenceError if the Bernoulli table runs out
    first.  A shifted zeta'(-1, q) cancels up to ~Q^2 log Q of its size
    against its shift terms, so the three special values of a shifted family
    sum their leading and shift terms from exact q+k and Q with
    3 log10 Q + 3 guard digits; an unshifted family has no shift terms to
    cancel against and takes them at the working precision.
    """

    def __init__(self, q):
        self._prec = getcontext().prec
        bits = self._prec / _LOG10_2
        shift = max(0, math.ceil(Decimal(_EM_SHIFT_PER_BIT * bits) - q))
        self.q = q
        self._bases = [q + k for k in range(shift)]
        self._head = [1 / x for x in self._bases]  # (q+k)^{1-j}, next order j
        self._big_q = q + shift
        self._q_power = 1 / self._big_q  # Q^{1-j}, next order j
        self._order = 1
        self._table: List[Decimal] = []  # B_2i / (2i)! Q^{1-2i}
        self._table_power = self._q_power  # Q^{1-2i}, next entry i
        self._guard = 3 * len(str(int(self._big_q))) + 3 if shift else 0

    def _series(self, factors, tol, name):
        """The terms f_i B_2i / (2i)! Q^{1-2i}, (i, f_i) from ``factors``, that
        come before the first term below ``tol``."""
        big_q, terms = self._big_q, []
        for i, factor in factors:
            if i > _EM_TERM_CAP:
                raise ConvergenceError(
                    f"Euler-Maclaurin series of {name} at q + N = {float(big_q):.6g}"
                    f" did not reach {tol:.3g} in {_EM_TERM_CAP} terms"
                )
            while i > len(self._table):
                self._table.append(
                    _bernoulli_ratio(len(self._table) + 1, getcontext().prec)
                    * self._table_power
                )
                self._table_power /= big_q * big_q
            term = factor * self._table[i - 1]
            if abs(term) < tol:
                return terms
            terms.append(term)

    def skip(self):
        """Pass over the next order j without summing zeta(j, q): the head
        powers and Q^{1-j} advance to it."""
        self._order += 1
        self._head = [p / x for p, x in zip(self._head, self._bases)]
        self._q_power /= self._big_q

    def next(self, tol):
        """zeta(j, q) for the next order j, to within ``tol``."""
        lead = self._q_power / self._order  # Q^{1-j} / (j - 1)
        self.skip()
        j, q_j = self._order, self._q_power
        series = self._series(_rising_factors(q_j, j), tol, f"zeta({j}, q)")
        return _fsum(self._head + [lead, q_j / 2] + series)

    @functools.cached_property
    def _guarded(self):
        """Q, log Q, sum log(q+k) and sum (q+k) log(q+k) over k < N, at the
        guarded precision: the working precision the family was built at plus
        ``_guard`` digits (none when N = 0)."""
        with localcontext() as ctx:
            ctx.prec = self._prec + self._guard
            n = len(self._bases)
            big_q = self.q + n
            logs, moments = _log_moments(lambda k: self.q + k, n)
            return big_q, _ln(big_q), logs, self.q * logs + moments

    def _stirling(self, base, factors, name):
        """base + the series over ``factors``, to eps of the value."""
        return _fsum([base] + self._series(factors, _eps() * abs(base), name))

    def zeta_prime_m1(self):
        """zeta'(-1, q)."""
        with localcontext() as ctx:
            ctx.prec += self._guard
            big_q, log_q, _, weighted_logs = self._guarded
            base = (
                ((big_q - 1) * big_q / 2 + Decimal(1) / 12) * log_q
                - big_q * big_q / 4
                + Decimal(1) / 12
                - weighted_logs
            )
        factors = ((i, -self._big_q * math.factorial(2 * i - 3)) for i in itertools.count(2))
        return self._stirling(base, factors, "zeta'(-1, q)")

    def zeta_prime_0(self):
        """zeta'(0, q) = log Gamma(q) - log(2 pi) / 2."""
        with localcontext() as ctx:
            ctx.prec += self._guard
            big_q, log_q, logs, _ = self._guarded
            base = (big_q - Decimal(1) / 2) * log_q - big_q - logs
        factors = ((i, math.factorial(2 * i - 2)) for i in itertools.count(1))
        return self._stirling(base, factors, "zeta'(0, q)")

    def digamma(self):
        """digamma(q)."""
        with localcontext() as ctx:
            ctx.prec += self._guard
            big_q, log_q, _, _ = self._guarded
            reciprocals = [1 / (self.q + k) for k in range(len(self._bases))]
            base = log_q - 1 / (2 * big_q) - _fsum(reciprocals)
        factors = ((i, -math.factorial(2 * i - 1) / self._big_q) for i in itertools.count(1))
        return self._stirling(base, factors, "digamma(q)")


def _rising_factors(scale, j):
    """(i, scale (j)_{2i-1}) for i = 1, 2, ..."""
    rising = j
    for i in itertools.count(1):
        yield i, scale * rising
        rising *= (j + 2 * i - 1) * (j + 2 * i)
