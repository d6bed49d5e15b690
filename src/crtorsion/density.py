"""Model heat-kernel densities for homogeneous strongly pseudoconvex data.

Everything here is written in the adapted diagonal basis: the curvature
endomorphism is reduced to its eigenvalue list ``a_1..a_n`` and the degree
derivation acts on the wedge basis element indexed by a subset J with
eigenvalue ``-sum_{j in J} a_j``.  All downstream consumers are (super)traces,
so the diagonal form is sufficient.

Two normalization constants appear: the full density carries
``(2 pi)^{-(n+1)}`` while the scalar super-trace identities carry
``(2 pi)^{-n}``; their ratio of exactly ``2 pi`` is pinned by a unit test.
The ``normalized=False`` variants omit the transcendental prefactor so the
identities can be verified exactly with rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

from .errors import DomainError
from .series import HalfPowerSeries, _as_doubled, bose_factor

TWO_PI = 2.0 * math.pi


def cr_density_norm(n: int) -> float:
    """Prefactor (2 pi)^{-(n+1)} of the full (wedge-resolved) density."""
    return TWO_PI ** (-(n + 1))


def scalar_density_norm(n: int) -> float:
    """Prefactor (2 pi)^{-n} of the scalar super-trace densities."""
    return TWO_PI ** (-n)


@dataclass(frozen=True)
class LeviSpectrum:
    """Eigenvalues a_1..a_n of the curvature form on a (2n+1)-manifold."""

    n: int
    eigenvalues: Tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if len(self.eigenvalues) != self.n:
            raise DomainError(
                f"expected {self.n} eigenvalues, got {len(self.eigenvalues)}"
            )
        if any(a < 0 for a in self.eigenvalues):
            raise DomainError("eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", tuple(self.eigenvalues))

    @property
    def strongly_pseudoconvex(self) -> bool:
        return all(a > 0 for a in self.eigenvalues)

    def require_strongly_pseudoconvex(self, what: str) -> None:
        if not self.strongly_pseudoconvex:
            raise DomainError(f"{what} requires all eigenvalues > 0")

    def det(self):
        out = self.eigenvalues[0]
        for a in self.eigenvalues[1:]:
            out = out * a
        return out

    @property
    def det_norm(self) -> float:
        """prod_j a_j / (2 pi) = det(R / 2 pi), in floats."""
        out = 1.0
        for a in self.eigenvalues:
            out *= float(a) / TWO_PI
        return out


@dataclass(frozen=True)
class WedgeDiagonalDensity:
    """Half-power series per wedge subset J of {1..n} (2^n entries)."""

    n: int
    per_subset: Dict[FrozenSet[int], HalfPowerSeries]

    def __post_init__(self):
        if len(self.per_subset) != 2 ** self.n:
            raise DomainError(
                f"need 2^{self.n} subset entries, got {len(self.per_subset)}"
            )

    def __getitem__(self, subset) -> HalfPowerSeries:
        return self.per_subset[frozenset(subset)]

    def supertrace_N(self) -> HalfPowerSeries:
        """sum_J (-1)^|J| |J| series_J  (the degree-weighted super trace)."""
        acc = None
        for subset, series in self.per_subset.items():
            q = len(subset)
            if q == 0:
                continue
            term = series.scale(q if q % 2 == 0 else -q)
            acc = term if acc is None else acc + term
        if acc is None:
            raise DomainError("n >= 1 expected; no weighted subsets found")
        return acc


def _subsets(n: int):
    items = range(1, n + 1)
    for size in range(n + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


def _per_eigenvalue_factor(a, trunc_order, exact: bool) -> HalfPowerSeries:
    """a * bose(a) for a > 0; the zero-eigenvalue convention gives t^{-1}."""
    if a == 0:
        one = Fraction(1) if exact else 1.0
        return HalfPowerSeries.from_terms({-1: one}, trunc_order)
    return bose_factor(a, trunc_order, exact=exact).scale(a)


def model_density_coeffs(
    levi: LeviSpectrum,
    rank_e: int,
    trunc_order,
    normalized: bool = True,
) -> WedgeDiagonalDensity:
    """Wedge-diagonal expansion of the model heat density.

    Entry for subset J is
        rank * (2 pi)^{-(n+1)} * prod_j [a_j / (1 - e^{-a_j t})] * e^{-t sum_{j in J} a_j}
    truncated at ``trunc_order``.  A zero eigenvalue contributes the factor
    1/t in place of a_j/(1 - e^{-a_j t}).

    With ``normalized=False`` the (2 pi)^{-(n+1)} factor is omitted (exact
    rational verification keeps only the rank factor).
    """
    if rank_e < 1:
        raise DomainError("rank_e must be >= 1")
    exact = any(isinstance(a, Fraction) for a in levi.eigenvalues)
    # Work with extra guard orders: multiplying n factors of base -1 needs
    # headroom so every subset entry is valid down to t^{-n}.
    guard = levi.n + 1
    work_order = _plus(trunc_order, guard)
    factors = [
        _per_eigenvalue_factor(a, work_order, exact) for a in levi.eigenvalues
    ]
    core = factors[0]
    for f in factors[1:]:
        core = core * f
    pref = rank_e * cr_density_norm(levi.n) if normalized else rank_e
    if exact and not normalized:
        pref = Fraction(rank_e)
    per_subset = {}
    for subset in _subsets(levi.n):
        rate = sum(levi.eigenvalues[j - 1] for j in subset)
        if rate == 0:
            entry = core
        else:
            entry = core * HalfPowerSeries.exponential(-rate, work_order)
        per_subset[subset] = entry.scale(pref).truncate2(_as_doubled(trunc_order, "trunc_order"))
    return WedgeDiagonalDensity(levi.n, per_subset)


def supertrace_N_density(
    levi: LeviSpectrum, trunc_order, normalized: bool = True
) -> HalfPowerSeries:
    """Scalar series (2 pi)^{-n} det * STr[N e^{t gamma}] / det(1 - e^{-t R}).

    Equals sum_J (-1)^|J| |J| (2 pi)^{-n} prod_j[a_j bose(a_j)] e^{-t sum_J a_j},
    the degree-weighted subset sum of the unnormalized rank-one wedge density;
    by the super-trace identity this collapses to the expansion of the scalar
    trace density, so the returned series has base order exactly -1.
    The leading (more singular) coefficients cancel arithmetically and are
    trimmed; with float coefficients the trim tolerance is 1e-9 relative.
    """
    levi.require_strongly_pseudoconvex("supertrace_N_density")
    exact = any(isinstance(a, Fraction) for a in levi.eigenvalues)
    acc = model_density_coeffs(levi, 1, trunc_order, normalized=False).supertrace_N()
    pref = scalar_density_norm(levi.n) if normalized else (Fraction(1) if exact else 1.0)
    return acc.scale(pref).trimmed(rel_tol=0.0 if exact else 1e-9)


def rt_density(levi: LeviSpectrum, t: float) -> float:
    """Pointwise scalar trace density det(R/2pi) * sum_j 1/(1 - e^{a_j t}).

    Evaluated stably as -e^{-a t}/(1 - e^{-a t}) per eigenvalue.
    """
    levi.require_strongly_pseudoconvex("rt_density")
    if t <= 0:
        raise DomainError("rt_density requires t > 0")
    acc = 0.0
    for a in levi.eigenvalues:
        x = math.exp(-float(a) * t)
        acc += -x / (1.0 - x)
    return levi.det_norm * acc


def rt_density_series(
    levi: LeviSpectrum, trunc_order, normalized: bool = True
) -> HalfPowerSeries:
    """Small-t expansion of the scalar trace density.

    Each eigenvalue contributes the expansion of 1/(1 - e^{a t}), read off
    ``bose_factor`` through 1/(1 - e^{a t}) = 1 - 1/(1 - e^{-a t}); the sum is
    weighted by det(R/2pi) (det(R) only when ``normalized=False``).
    """
    levi.require_strongly_pseudoconvex("rt_density_series")
    exact = any(isinstance(a, Fraction) for a in levi.eigenvalues)
    acc = None
    for a in levi.eigenvalues:
        one = Fraction(1) if isinstance(a, Fraction) else 1.0
        contrib = HalfPowerSeries.constant(one, trunc_order) - bose_factor(a, trunc_order)
        acc = contrib if acc is None else acc + contrib
    pref = levi.det_norm if normalized else levi.det() * (Fraction(1) if exact else 1.0)
    return acc.scale(pref)


def hatA_coeffs(levi: LeviSpectrum) -> Tuple[float, float]:
    """Closed forms of the two surviving expansion coefficients of rt_density.

    In eigenvalue form:
        hatA_{-1} = -(det R / (2 pi)^n) * sum_j 1/a_j
        hatA_0    = (n/2) * det R / (2 pi)^n
    All coefficients below order -1 vanish identically.
    """
    levi.require_strongly_pseudoconvex("hatA_coeffs")
    det_norm = levi.det_norm
    inv_sum = sum(1.0 / float(a) for a in levi.eigenvalues)
    return (-det_norm * inv_sum, 0.5 * levi.n * det_norm)


def subset_sum_identity_residual(levi: LeviSpectrum, t: float) -> float:
    """Brute-force residual of the alternating subset-sum identity.

    Checks, at a point t > 0,
        e^{-(a_1+..+a_n) t} * sum_j prod_{i != j} (1 - e^{a_i t})
          = sum_q (-1)^{n+q} q sum_{|J|=q} e^{-t sum_{j in J} a_j}
    over all 2^n subsets; returns |lhs - rhs|.
    """
    levi.require_strongly_pseudoconvex("subset_sum_identity_residual")
    if t <= 0:
        raise DomainError("t must be > 0")
    a = [float(x) for x in levi.eigenvalues]
    n = levi.n
    lhs = math.exp(-sum(a) * t)
    total = 0.0
    for j in range(n):
        prod = 1.0
        for i in range(n):
            if i != j:
                prod *= 1.0 - math.exp(a[i] * t)
        total += prod
    lhs *= total
    rhs = 0.0
    for subset in _subsets(n):
        q = len(subset)
        rate = sum(a[j - 1] for j in subset)
        rhs += (-1.0) ** (n + q) * q * math.exp(-rate * t)
    return abs(lhs - rhs)


def _plus(trunc_order, k: int):
    return _as_doubled(trunc_order, "trunc_order") / 2 + k
