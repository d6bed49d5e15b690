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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Tuple

import numpy as np

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
        if not all(0 <= a < math.inf for a in self.eigenvalues):  # also rejects nan
            raise DomainError(
                f"eigenvalues must be finite and nonnegative, got {tuple(self.eigenvalues)}"
            )
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


@dataclass(frozen=True, eq=False)
class WedgeDiagonalDensity:
    """Half-power series per wedge subset J of {1..n} (2^n entries).

    Row i of ``rows`` holds the coefficients of the entry of ``subsets[i]`` on
    the doubled exponents ``base2 .. trunc2 - 1``, which all entries share.
    """

    n: int
    subsets: Tuple[FrozenSet[int], ...]
    rows: np.ndarray
    base2: int
    trunc2: int

    def __post_init__(self):
        shape = (2 ** self.n, self.trunc2 - self.base2)
        if len(self.subsets) != shape[0] or self.rows.shape != shape:
            raise DomainError(
                f"need {shape[0]} subsets and rows of shape {shape}, got "
                f"{len(self.subsets)} and {self.rows.shape}"
            )

    @property
    def per_subset(self) -> Dict[FrozenSet[int], HalfPowerSeries]:
        return {subset: self[subset] for subset in self.subsets}

    def __getitem__(self, subset) -> HalfPowerSeries:
        row = self.rows[self.subsets.index(frozenset(subset))]
        return HalfPowerSeries(self.base2, tuple(row.tolist()), self.trunc2)

    def supertrace_N(self) -> HalfPowerSeries:
        """sum_J (-1)^|J| |J| series_J  (the degree-weighted super trace)."""
        weights = np.array([(-1) ** len(s) * len(s) for s in self.subsets])
        return HalfPowerSeries(
            self.base2, tuple((weights @ self.rows).tolist()), self.trunc2
        )


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> Tuple[FrozenSet[int], ...]:
    """The 2^n subsets of {1..n}, by size and then lexicographically."""
    items = range(1, n + 1)
    return tuple(
        frozenset(combo) for size in range(n + 1) for combo in combinations(items, size)
    )


@functools.lru_cache(maxsize=None)
def _membership(n: int) -> np.ndarray:
    """0/1 matrix whose row i marks the members of ``_subsets(n)[i]`` (cached,
    so read-only)."""
    member = np.array([[j in s for j in range(1, n + 1)] for s in _subsets(n)], dtype=int)
    member.setflags(write=False)
    return member


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

    All 2^n entries come from one product: the core prod_j [a_j bose(a_j)]
    as a Toeplitz matrix, applied to one row of e^{-t rate_J} coefficients
    per subset.

    With ``normalized=False`` the (2 pi)^{-(n+1)} factor is omitted (exact
    rational verification keeps only the rank factor).
    """
    if rank_e < 1:
        raise DomainError("rank_e must be >= 1")
    exact = any(isinstance(a, Fraction) for a in levi.eigenvalues)
    dtype, zero = (object, Fraction(0)) if exact else (float, 0.0)
    t2 = _as_doubled(trunc_order, "trunc_order")
    # every entry starts at t^{-n}; only its slots below t^{trunc_order} are kept
    base2 = min(-2 * levi.n, t2)
    width = t2 - base2
    if width == 0:
        return WedgeDiagonalDensity(
            levi.n, _subsets(levi.n), np.empty((2 ** levi.n, 0), dtype), base2, t2
        )
    core = np.ones(1, dtype)
    for a in levi.eigenvalues:
        # a bose(a) up to the last kept slot of the product, t^{-1} first
        factor = _per_eigenvalue_factor(a, (width - 2) / 2, exact)
        core = np.convolve(core, np.array(factor.coeffs, dtype))[:width]
    pref = rank_e * cr_density_norm(levi.n) if normalized else rank_e
    if exact and not normalized:
        pref = Fraction(rank_e)
    # row J: e^{-t rate_J} on the slots t^0, t^{1/2}, ... (half powers zero);
    # the coefficient of t^k is prod_{i <= k} (-rate_J / i)
    rates = _membership(levi.n) @ np.array(levi.eigenvalues, dtype)
    expo = np.full((len(rates), width), zero, dtype)
    expo[:, 0] = 1
    expo[:, 2::2] = np.multiply.accumulate(
        rates[:, None] / -np.arange(1, (width + 1) // 2), axis=1
    )
    # entry J is the core times row J: toeplitz[i, k] = core[k - i], 0 for k < i
    padded = np.concatenate((np.full(width - 1, zero, dtype), core))
    toeplitz = padded[_toeplitz_index(width)]
    rows = (expo @ toeplitz) * pref
    return WedgeDiagonalDensity(levi.n, _subsets(levi.n), rows, base2, t2)


@functools.lru_cache(maxsize=None)
def _toeplitz_index(width: int) -> np.ndarray:
    """index[i, k] = k - i + width - 1: reads a length-width sequence, padded
    in front by width - 1 zeros, as an upper triangular Toeplitz matrix
    (cached, so read-only)."""
    span = np.arange(width)
    index = span[None, :] - span[:, None] + width - 1
    index.setflags(write=False)
    return index


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

    Evaluated without cancellation or overflow as
        -(1 / (2 pi t)) * sum_j prod_{i != j} (a_i / 2 pi) * phi(a_j t),
    phi(x) = x / expm1(x) = x e^{-x} / -expm1(-x), and phi(0) = 1 (an a_j t
    that underflows).
    """
    levi.require_strongly_pseudoconvex("rt_density")
    if not 0 < t < math.inf:  # also rejects nan
        raise DomainError(f"rt_density requires 0 < t < inf, got t = {t!r}")
    a = [float(x) for x in levi.eigenvalues]
    acc = 0.0
    for j, aj in enumerate(a):
        others = math.prod(ai / TWO_PI for i, ai in enumerate(a) if i != j)
        x = aj * t
        acc += others * (x * math.exp(-x) / -math.expm1(-x) if x else 1.0)
    return -acc / (TWO_PI * t)


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
    bose = [bose_factor(a, trunc_order) for a in levi.eigenvalues]
    # sum_j (1 - bose(a_j)) = n - sum_j bose(a_j); slot 2 holds t^0
    acc = -np.sum([b.coeffs for b in bose], axis=0)
    if acc.size > 2:
        acc[2] += levi.n
    pref = levi.det_norm if normalized else levi.det() * (Fraction(1) if exact else 1.0)
    return HalfPowerSeries(bose[0].base2, tuple((acc * pref).tolist()), bose[0].trunc2)


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
    if not 0 < t < math.inf:  # also rejects nan
        raise DomainError(f"t must satisfy 0 < t < inf, got t = {t!r}")
    a = [float(x) for x in levi.eigenvalues]
    n = levi.n
    lhs = math.exp(-sum(a) * t)
    total = 0.0
    for j in range(n):
        prod = 1.0
        for i in range(n):
            if i != j:
                prod *= -math.expm1(a[i] * t)
        total += prod
    lhs *= total
    rhs = 0.0
    for subset in _subsets(n):
        q = len(subset)
        rate = sum(a[j - 1] for j in subset)
        rhs += (-1.0) ** (n + q) * q * math.exp(-rate * t)
    return abs(lhs - rhs)
