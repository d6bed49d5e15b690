"""Truncated Laurent series in half-integer powers of t.

The series ``c_0 t^{b} + c_1 t^{b+1/2} + c_2 t^{b+1} + ...`` is stored with all
exponents doubled so that indices stay integral: ``base2 = 2b`` and
``coeffs[i]`` multiplies ``t^{(base2 + i)/2}``.  ``trunc2`` is twice the first
exponent *not* represented; arithmetic propagates it pessimistically so that a
result never claims more accuracy than its inputs support.

Coefficients may be floats or ``fractions.Fraction``; with the rational backend
add/mul/inv are exact, which is what the identity tests rely on.  A product is
one ``np.convolve`` of the two coefficient arrays (float64, or object arrays of
``Fraction``, which numpy multiplies and adds exactly).

``bose_factor`` writes the expansion of ``1/(1 - e^{-a t})`` in closed form
from the exact ``B_2i / (2i)!`` of ``_bernoulli_over_factorial``, the one
Bernoulli table of the package: ``tails`` reads it for the Euler-Maclaurin
heat series and for the direct route's Hurwitz evaluations.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

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
    def constant(cls, value: Number, trunc_order) -> "HalfPowerSeries":
        t2 = _as_doubled(trunc_order, "trunc_order")
        if t2 <= 0:
            return cls(t2, (), t2)
        return cls(0, (value,) + (_zero_like(value),) * (t2 - 1), t2)

    @classmethod
    def exponential(cls, rate: Number, trunc_order) -> "HalfPowerSeries":
        """Series of exp(rate * t) truncated at trunc_order (integer powers)."""
        t2 = _as_doubled(trunc_order, "trunc_order")
        if t2 <= 0:
            return cls(t2, (), t2)
        exact = isinstance(rate, Fraction)
        coeffs = [Fraction(0) if exact else 0.0] * t2
        term = Fraction(1) if exact else 1.0
        for k in range(0, t2, 2):
            coeffs[k] = term
            term = term * rate / (k // 2 + 1)
        return cls(0, tuple(coeffs), t2)

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

    def truncate2(self, trunc2: int) -> "HalfPowerSeries":
        if trunc2 >= self.trunc2:
            return self
        n = max(0, trunc2 - self.base2)
        base2 = min(self.base2, trunc2)
        return HalfPowerSeries(base2, self.coeffs[:n], trunc2)

    # -- arithmetic -----------------------------------------------------

    def _window(self, base2: int, n: int) -> tuple:
        """Coefficients on slots base2 .. base2 + n - 1, zero below base2."""
        lead = min(self.base2 - base2, n)
        fill = _zero_like(self.coeffs[0]) if self.coeffs else 0.0
        return (fill,) * lead + self.coeffs[: n - lead]

    def __add__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        trunc2 = min(self.trunc2, other.trunc2)
        base2 = min(self.base2, other.base2)
        if base2 >= trunc2:
            return HalfPowerSeries(trunc2, (), trunc2)
        n = trunc2 - base2
        return HalfPowerSeries(
            base2,
            tuple(x + y for x, y in zip(self._window(base2, n), other._window(base2, n))),
            trunc2,
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
        prod = np.convolve(_coeff_array(self.coeffs), _coeff_array(other.coeffs))
        return HalfPowerSeries(base2, tuple(prod[:n].tolist()), trunc2)

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
        if lo >= hi:
            return 0.0
        a = np.asarray(self.coeffs[lo - self.base2 : hi - self.base2], dtype=float)
        b = np.asarray(other.coeffs[lo - other.base2 : hi - other.base2], dtype=float)
        return float(np.max(np.abs(a - b)))


def _coeff_array(coeffs: tuple) -> np.ndarray:
    """Coefficients as float64, or as an object array when any is a Fraction."""
    arr = np.array(coeffs)
    return arr if arr.dtype == object else arr.astype(float, copy=False)


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


@functools.lru_cache(maxsize=None)
def _tangent_numbers(n: int) -> Tuple[int, ...]:
    """T_0 .. T_n by the integer recurrence of Brent and Harvey (2011), whose
    T_k do not depend on n; the cost grows like n^2."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@functools.lru_cache(maxsize=None)
def _bernoulli_over_factorial(i: int) -> Fraction:
    """B_2i / (2i)! = (-1)^(i-1) 2i T_i / (4^i (4^i - 1) (2i)!), exact, i >= 1;
    the one Bernoulli source of the Bose series, the heat Euler-Maclaurin
    series and the direct route."""
    # in blocks of 16: a circle-bundle sweep reads 11 entries, the first two
    # ladder levels at most 23
    t = _tangent_numbers(16 * -(-i // 16))
    return Fraction(
        (-1) ** (i - 1) * 2 * i * t[i], 4 ** i * (4 ** i - 1) * math.factorial(2 * i)
    )


@functools.lru_cache(maxsize=None)
def _bose_weights(count: int, exact: bool) -> tuple:
    """B_2i / (2i)! for i = 1..count, exact or rounded once to float."""
    weights = tuple(_bernoulli_over_factorial(i) for i in range(1, count + 1))
    return weights if exact else tuple(float(w) for w in weights)


def bose_factor(a: Number, trunc_order, exact: bool | None = None) -> HalfPowerSeries:
    """Laurent expansion of 1/(1 - exp(-a t)) about t = 0, in closed form:

        1/(1 - e^{-x}) = 1/x + 1/2 + sum_{i >= 1} B_2i / (2i)! x^{2i-1},  x = a t,

    from t^{-1} up to (not including) t^{trunc_order}, with the exact
    ``_bernoulli_over_factorial``.  Only integer powers occur (half-power
    slots are zero).  With ``exact`` (or a Fraction argument) the
    coefficients are rational.
    """
    if exact is None:
        exact = isinstance(a, Fraction)
    if not 0 < a < math.inf:  # also rejects nan
        raise DomainError(f"bose_factor requires 0 < a < inf, got a = {a!r}")
    a = Fraction(a) if exact else float(a)
    t2 = _as_doubled(trunc_order, "trunc_order")
    size = t2 + 2  # slot 0 is t^{-1}, slot 4i is t^{2i-1}
    if size <= 0:
        return HalfPowerSeries(t2, (), t2)
    coeffs = [Fraction(0) if exact else 0.0] * size
    coeffs[0] = 1 / a
    if size > 2:
        coeffs[2] = Fraction(1, 2) if exact else 0.5
    for i, weight in enumerate(_bose_weights((size - 1) // 4, exact), 1):
        coeffs[4 * i] = weight * a ** (2 * i - 1)
    return HalfPowerSeries(-2, tuple(coeffs), t2)


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
    ordered = np.sort(t)
    if (ordered[1:] == ordered[:-1]).any():
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

