"""Gaussian collapse integrals near lower-dimensional strata.

``gaussian_stratum_expansion`` evaluates, in closed form,

    int_{R^r} g(y) exp(-m c |y|^2 / t) dy

for a polynomial g: each even monomial y^{2 beta} contributes
prod_i Gamma(beta_i + 1/2) (t/(m c))^{|beta| + r/2}; odd monomials vanish.
The resulting series in t has base order r/2, so genuinely fractional powers
of t occur exactly when the codimension r is odd, and every coefficient decays
like m^{-r/2 - |beta|}.

``stratum_suppression_envelope`` is the off-stratum bound C m^n e^{-eps m d^2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError
from .mellin import QuadratureConfig, _gauss_kronrod
from .series import HalfPowerSeries

MultiIndex = Tuple[int, ...]

_REFERENCE_QUADRATURE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=200)


@dataclass(frozen=True)
class StratumIntegrand:
    """Polynomial-times-Gaussian data on a codimension-r chart.

    ``poly`` maps multi-indices (length r) to coefficients of y^alpha;
    ``c`` is the isotropic quadratic-form scale.
    """

    r: int
    poly: Dict[MultiIndex, float]
    c: float

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("codimension r must be >= 1")
        if self.c <= 0:
            raise DomainError("quadratic form scale c must be positive")
        for alpha in self.poly:
            if len(alpha) != self.r or any(a < 0 for a in alpha):
                raise DomainError(f"bad multi-index {alpha} for r = {self.r}")

    def evaluate(self, y) -> float:
        acc = 0.0
        for alpha, coeff in self.poly.items():
            term = coeff
            for yi, ai in zip(y, alpha):
                term *= yi ** ai
            acc += term
        return acc


def gaussian_stratum_expansion(
    integrand: StratumIntegrand, m: int, trunc_order
) -> HalfPowerSeries:
    """Exact half-power series of the collapsed Gaussian integral.

    Term for an even multi-index 2 beta:
        coeff * prod_i Gamma(beta_i + 1/2) * (t/(m c))^{|beta| + r/2}.
    Exponents live on r/2 + integers; odd-degree monomials integrate to zero.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    r = integrand.r
    terms: Dict[float, float] = {}
    for alpha, coeff in integrand.poly.items():
        if coeff == 0.0 or any(a % 2 for a in alpha):
            continue
        beta = [a // 2 for a in alpha]
        weight = coeff
        for b in beta:
            weight *= math.gamma(b + 0.5)
        exponent = sum(beta) + r / 2.0
        scale = (m * integrand.c) ** exponent
        terms[exponent] = terms.get(exponent, 0.0) + weight / scale
    return HalfPowerSeries.from_terms(terms, trunc_order)


def stratum_suppression_envelope(m: int, d: float, C: float, eps: float, n: int) -> float:
    """The off-stratum correction bound C m^n exp(-eps m d^2), monotone
    decreasing in d and in m d^2."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    if C <= 0 or eps <= 0:
        raise DomainError("C and eps must be positive")
    if d < 0:
        raise DomainError("distance must be nonnegative")
    return C * float(m) ** n * math.exp(-eps * m * d * d)


def quadrature_reference(
    integrand: StratumIntegrand, m: int, t: float, radius_sigmas: float = 10.0
) -> float:
    """Independent check: per-axis adaptive quadrature of the same integral
    over the box |y_i| <= radius_sigmas * sqrt(t/(m c)).

    Tensorizes per monomial, so each factor is a 1-d integral
    int y^a e^{-s y^2} dy, taken by the package's adaptive Gauss-Kronrod rule.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    s = m * integrand.c / t
    half_width = radius_sigmas / math.sqrt(s)
    total = 0.0
    cache: Dict[int, float] = {}

    def axis_integral(a: int) -> float:
        if a not in cache:
            if a % 2:
                cache[a] = 0.0
            else:
                cache[a] = _gauss_kronrod(
                    lambda y: y ** a * np.exp(-s * y * y),
                    (-half_width, half_width),
                    _REFERENCE_QUADRATURE,
                    partial=0.0,
                )[0]
        return cache[a]

    for alpha, coeff in integrand.poly.items():
        term = coeff
        for a in alpha:
            term *= axis_integral(a)
            if term == 0.0:
                break
        total += term
    return total
