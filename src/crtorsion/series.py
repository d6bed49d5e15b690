"""Truncated Laurent series in half-integer powers of t.

The series ``c_0 t^{b} + c_1 t^{b+1/2} + c_2 t^{b+1} + ...`` is stored with all
exponents doubled so that indices stay integral: ``base2 = 2b`` and
``coeffs[i]`` multiplies ``t^{(base2 + i)/2}``.  ``trunc2`` is twice the first
exponent *not* represented; arithmetic propagates it pessimistically so that a
result never claims more accuracy than its inputs support.

Coefficients may be floats or ``fractions.Fraction``; with the rational backend
add/mul/inv are exact, which is what the identity tests rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ArityError, DomainError, IllConditionedWarning, SingularLeadError

Number = float | Fraction

#: Condition number above which fit_half_powers attaches IllConditionedWarning.
DEFAULT_COND_THRESHOLD = 1e12


def _zero_like(x: Number) -> Number:
    return Fraction(0) if isinstance(x, Fraction) else 0.0


@dataclass(frozen=True)
class HalfPowerSeries:
    """Truncated Laurent series in powers t^{j/2}, exponents stored doubled."""

    base2: int
    coeffs: tuple
    trunc2: int

    def __post_init__(self):
        if len(self.coeffs) != self.trunc2 - self.base2:
            raise ArityError(
                f"coeffs length {len(self.coeffs)} != trunc2-base2 "
                f"= {self.trunc2 - self.base2}"
            )

    # -- constructors --------------------------------------------------

    @classmethod
    def from_terms(cls, terms: dict, trunc_order) -> "HalfPowerSeries":
        """Build from a map ``{exponent: coefficient}`` with half-integer keys."""
        trunc2 = _as_doubled(trunc_order, "trunc_order")
        if not terms:
            return cls(trunc2, (), trunc2)
        keys2 = [_as_doubled(k, "exponent") for k in terms]
        base2 = min(keys2)
        if base2 >= trunc2:
            return cls(trunc2, (), trunc2)
        fill = (
            Fraction(0)
            if any(isinstance(v, Fraction) for v in terms.values())
            else 0.0
        )
        coeffs = [fill] * (trunc2 - base2)
        for k, v in terms.items():
            k2 = _as_doubled(k, "exponent")
            if k2 < trunc2:
                coeffs[k2 - base2] = v
        return cls(base2, tuple(coeffs), trunc2)

    @classmethod
    def zero(cls, trunc_order) -> "HalfPowerSeries":
        t2 = _as_doubled(trunc_order, "trunc_order")
        return cls(t2, (), t2)

    @classmethod
    def constant(cls, value: Number, trunc_order) -> "HalfPowerSeries":
        return cls.from_terms({0: value}, trunc_order)

    @classmethod
    def exponential(cls, rate: Number, trunc_order) -> "HalfPowerSeries":
        """Series of exp(rate * t) truncated at trunc_order (integer powers)."""
        t2 = _as_doubled(trunc_order, "trunc_order")
        exact = isinstance(rate, Fraction)
        one = Fraction(1) if exact else 1.0
        terms = {}
        term = one
        k = 0
        while 2 * k < t2:
            terms[k] = term
            k += 1
            term = term * rate / k
        return cls.from_terms(terms, trunc_order) if terms else cls.zero(trunc_order)

    # -- basic queries --------------------------------------------------

    @property
    def base_order(self) -> float:
        return self.base2 / 2.0

    @property
    def trunc_order(self) -> float:
        return self.trunc2 / 2.0

    def coefficient(self, exponent) -> Number:
        """Coefficient of t^exponent (0 for represented-but-absent slots).

        Raises DomainError for exponents at or beyond the truncation order,
        where the series carries no information.
        """
        e2 = _as_doubled(exponent, "exponent")
        if e2 >= self.trunc2:
            raise DomainError(
                f"exponent {exponent} is not represented (trunc_order "
                f"{self.trunc_order})"
            )
        if e2 < self.base2:
            return 0.0
        return self.coeffs[e2 - self.base2]

    def __call__(self, t: float) -> float:
        """Evaluate the truncated series at 0 < t < inf."""
        if not 0.0 < t < math.inf:  # also rejects nan
            raise DomainError(f"series evaluation requires 0 < t < inf, got t = {t!r}")
        u = math.sqrt(t)
        return float(sum(float(c) * u ** (self.base2 + i) for i, c in enumerate(self.coeffs)))

    def exponents(self) -> list:
        return [(self.base2 + i) / 2.0 for i in range(len(self.coeffs))]

    # -- normal forms ---------------------------------------------------

    def trimmed(self, rel_tol: float = 0.0) -> "HalfPowerSeries":
        """Drop leading coefficients that vanish (or, for floats, are below
        ``rel_tol`` times the largest magnitude in the series)."""
        if not self.coeffs:
            return self
        scale = max(abs(float(c)) for c in self.coeffs)
        if scale == 0.0:
            return HalfPowerSeries(self.trunc2, (), self.trunc2)
        cut = 0
        for c in self.coeffs:
            if abs(float(c)) > rel_tol * scale:
                break
            cut += 1
        return HalfPowerSeries(self.base2 + cut, self.coeffs[cut:], self.trunc2)

    def pad_to(self, base2: int) -> "HalfPowerSeries":
        """Extend representation downwards with explicit zeros."""
        if base2 >= self.base2:
            return self
        fill = _zero_like(self.coeffs[0]) if self.coeffs else 0.0
        return HalfPowerSeries(
            base2, (fill,) * (self.base2 - base2) + self.coeffs, self.trunc2
        )

    def truncate2(self, trunc2: int) -> "HalfPowerSeries":
        if trunc2 >= self.trunc2:
            return self
        n = max(0, trunc2 - self.base2)
        base2 = min(self.base2, trunc2)
        return HalfPowerSeries(base2, self.coeffs[:n], trunc2)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        trunc2 = min(self.trunc2, other.trunc2)
        base2 = min(self.base2, other.base2)
        if base2 >= trunc2:
            return HalfPowerSeries(trunc2, (), trunc2)
        a = self.pad_to(base2).truncate2(trunc2)
        b = other.pad_to(base2).truncate2(trunc2)
        return HalfPowerSeries(
            base2, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), trunc2
        )

    def __neg__(self) -> "HalfPowerSeries":
        return HalfPowerSeries(self.base2, tuple(-c for c in self.coeffs), self.trunc2)

    def __sub__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        return self + (-other)

    def scale(self, factor: Number) -> "HalfPowerSeries":
        return HalfPowerSeries(
            self.base2, tuple(c * factor for c in self.coeffs), self.trunc2
        )

    def shift(self, exponent) -> "HalfPowerSeries":
        """Multiply by t^exponent."""
        e2 = _as_doubled(exponent, "exponent")
        return HalfPowerSeries(self.base2 + e2, self.coeffs, self.trunc2 + e2)

    def __mul__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        # Writing a = t^{ba}(a0 + ...+ O(t^{(Ta-ba)/2})), the product's error
        # terms are O(t^{(Ta+bb)/2}) and O(t^{(Tb+ba)/2}); keep the smaller.
        trunc2 = min(self.trunc2 + other.base2, other.trunc2 + self.base2)
        base2 = self.base2 + other.base2
        n = trunc2 - base2
        if n <= 0:
            return HalfPowerSeries(trunc2, (), trunc2)
        out = [_zero_like(self.coeffs[0]) if self.coeffs else 0.0] * n
        # zero slots (the half powers of exponentials, Bose factors and their
        # products) contribute nothing; skip them on both sides
        nonzero = [(j, cj) for j, cj in enumerate(other.coeffs[:n]) if cj != 0]
        for i, ci in enumerate(self.coeffs[:n]):
            if ci == 0:
                continue
            for j, cj in nonzero:
                if i + j >= n:
                    break
                out[i + j] = out[i + j] + ci * cj
        return HalfPowerSeries(base2, tuple(out), trunc2)

    def inverse(self) -> "HalfPowerSeries":
        """Formal reciprocal; truncated at trunc_order - 2*base_order."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise SingularLeadError("cannot invert a series with zero leading coefficient")
        lead = self.coeffs[0]
        n = self.trunc2 - self.base2
        exact = isinstance(lead, Fraction)
        one = Fraction(1) if exact else 1.0
        inv = [one / lead] + [_zero_like(lead)] * (n - 1)
        # (sum inv_k t^{k/2}) * (sum a_j t^{j/2}) = 1 order by order
        for k in range(1, n):
            acc = _zero_like(lead)
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv[k] = -acc / lead
        return HalfPowerSeries(-self.base2, tuple(inv), self.trunc2 - 2 * self.base2)

    # -- comparison helpers ----------------------------------------------

    def max_abs_coeff_diff(self, other: "HalfPowerSeries") -> float:
        """max |coefficient difference| over exponents both series represent."""
        lo = max(self.base2, other.base2)
        hi = min(self.trunc2, other.trunc2)
        worst = 0.0
        e2 = lo
        while e2 < hi:
            d = abs(float(self.coefficient(e2 / 2.0)) - float(other.coefficient(e2 / 2.0)))
            worst = max(worst, d)
            e2 += 1
        return worst


def _as_doubled(x, name: str) -> int:
    """Validate a half-integer and return it doubled as an int."""
    if isinstance(x, int):
        return 2 * x
    if isinstance(x, Fraction):
        two = 2 * x
        if two.denominator != 1:
            raise DomainError(f"{name} must be a half-integer, got {x}")
        return int(two)
    two = 2 * float(x)
    if two != round(two):
        raise DomainError(f"{name} must be a half-integer, got {x}")
    return int(round(two))


def bose_factor(a: Number, trunc_order, exact: bool | None = None) -> HalfPowerSeries:
    """Laurent expansion of 1/(1 - exp(-a t)) about t = 0.

    The leading term is 1/(a t); only integer powers occur (half-power slots
    are zero).  With ``exact`` (or a Fraction argument) the coefficients are
    computed in rational arithmetic.
    """
    if exact is None:
        exact = isinstance(a, Fraction)
    if exact and not isinstance(a, Fraction):
        a = Fraction(a)
    if a <= 0:
        raise DomainError("bose_factor requires a > 0")
    t2 = _as_doubled(trunc_order, "trunc_order")
    # 1 - e^{-at} = t * (a - a^2 t/2 + ...); invert the bracket, shift by t^{-1}.
    # Inverse coefficient k reads bracket terms 0..k only, so t2 + 2 slots
    # give exactly the t2 + 2 coefficients below t^{trunc_order} after the shift.
    bracket_trunc2 = t2 + 2
    one = Fraction(1) if exact else 1.0
    terms = {}
    term = a * one
    k = 1
    while 2 * (k - 1) < bracket_trunc2:
        terms[k - 1] = term if k % 2 == 1 else -term
        k += 1
        term = term * a / k
    bracket = HalfPowerSeries.from_terms(terms, bracket_trunc2 / 2)
    return bracket.inverse().shift(-1)


@dataclass(frozen=True)
class FitResult:
    """Least-squares half-power fit: coefficients plus conditioning diagnostic."""

    coeffs: tuple
    cond: float
    ill_conditioned: bool

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]


def fit_half_powers(
    samples: Sequence[tuple],
    base_order,
    num_terms: int,
) -> FitResult:
    """Fit value ~ sum_j c_j t^{base_order + j/2} by least squares.

    QR on a column-scaled Vandermonde in sqrt(t); the condition number of the
    scaled design matrix is reported, and IllConditionedWarning is attached
    (not raised as an error) past ``DEFAULT_COND_THRESHOLD``.  A non-finite
    abscissa or value raises DomainError naming the first such sample.
    """
    if num_terms < 1:
        raise ArityError("num_terms must be >= 1")
    if len(samples) < num_terms:
        raise ArityError(
            f"need at least {num_terms} samples, got {len(samples)}"
        )
    t = np.asarray([s[0] for s in samples], dtype=float)
    y = np.asarray([s[1] for s in samples], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(y)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"sample {i} is not finite: (t, value) = ({float(t[i])!r}, {float(y[i])!r})"
        )
    if np.any(t <= 0):
        raise DomainError("all sample abscissae must satisfy t > 0")
    if len(np.unique(t)) != len(t):
        raise DomainError("sample abscissae must be distinct")
    b2 = _as_doubled(base_order, "base_order")
    u = np.sqrt(t)
    design = np.column_stack([u ** (b2 + j) for j in range(num_terms)])
    scales = np.linalg.norm(design, axis=0)
    scales[scales == 0.0] = 1.0
    scaled = design / scales
    cond = float(np.linalg.cond(scaled))
    q, r = np.linalg.qr(scaled)
    coeffs = np.linalg.solve(r, q.T @ y) / scales
    ill = cond > DEFAULT_COND_THRESHOLD
    if ill:
        warnings.warn(
            f"half-power fit condition number {cond:.3e} exceeds {DEFAULT_COND_THRESHOLD:.1e}",
            IllConditionedWarning,
            stacklevel=2,
        )
    return FitResult(tuple(float(c) for c in coeffs), cond, ill)

