"""Gaussian stratum-collapse integrals and the off-stratum envelope."""

import math

import numpy as np
import pytest

from crtorsion.errors import DomainError
from crtorsion.strata import (
    StratumIntegrand,
    gaussian_stratum_expansion,
    quadrature_reference,
    stratum_suppression_envelope,
)

SQRT_PI = math.sqrt(math.pi)


class TestClosedForms:
    def test_constant_r1(self):
        integrand = StratumIntegrand(1, {(0,): 1.0}, 1.0)
        m = 9
        series = gaussian_stratum_expansion(integrand, m, 2)
        assert float(series.coefficient(0.5)) == pytest.approx(
            SQRT_PI / math.sqrt(m), rel=1e-14
        )
        assert series.base_order == 0.5

    def test_second_moment_r1(self):
        integrand = StratumIntegrand(1, {(2,): 1.0}, 1.0)
        m = 4
        series = gaussian_stratum_expansion(integrand, m, 3)
        assert float(series.coefficient(1.5)) == pytest.approx(
            (SQRT_PI / 2) / m ** 1.5, rel=1e-14
        )

    def test_constant_r2(self):
        integrand = StratumIntegrand(2, {(0, 0): 1.0}, 1.0)
        m = 6
        series = gaussian_stratum_expansion(integrand, m, 3)
        assert float(series.coefficient(1)) == pytest.approx(math.pi / m, rel=1e-14)

    def test_odd_monomials_vanish(self):
        integrand = StratumIntegrand(2, {(1, 2): 3.0, (0, 0): 1.0}, 1.0)
        series = gaussian_stratum_expansion(integrand, 5, 4)
        # only the constant term survives
        nonzero = [
            (e, c) for e, c in zip(series.exponents(), series.coeffs) if c != 0.0
        ]
        assert [e for e, _ in nonzero] == [1.0]


class TestHalfPowerParity:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fractional_powers_iff_odd_codimension(self, r):
        poly = {tuple([0] * r): 1.0, tuple([2] + [0] * (r - 1)): 0.7}
        series = gaussian_stratum_expansion(StratumIntegrand(r, poly, 1.3), 11, r / 2 + 4)
        fractional = [
            e
            for e, c in zip(series.exponents(), series.coeffs)
            if float(c) != 0.0 and e != int(e)
        ]
        if r % 2 == 1:
            assert fractional
        else:
            assert not fractional


class TestLargeMSuppression:
    def test_coefficients_shrink_at_half_power_rates(self):
        r = 3
        poly = {(0, 0, 0): 1.0, (2, 0, 0): 1.0, (2, 2, 0): 0.5}
        for m in (8, 16, 64):
            s1 = gaussian_stratum_expansion(StratumIntegrand(r, poly, 1.0), m, 6)
            s2 = gaussian_stratum_expansion(StratumIntegrand(r, poly, 1.0), 2 * m, 6)
            for e, c in zip(s1.exponents(), s1.coeffs):
                if float(c) == 0.0:
                    continue
                ratio = float(s2.coefficient(e)) / float(c)
                assert ratio == pytest.approx(2.0 ** (-e), rel=1e-12)

    def test_all_coefficients_vanish_as_m_grows(self):
        integrand = StratumIntegrand(1, {(0,): 1.0, (2,): 2.0}, 0.7)
        small = gaussian_stratum_expansion(integrand, 100, 4)
        big = gaussian_stratum_expansion(integrand, 10_000, 4)
        assert max(abs(float(c)) for c in big.coeffs) < 0.03
        for e in big.exponents():
            assert abs(float(big.coefficient(e))) <= abs(float(small.coefficient(e))) + 1e-300


class TestQuadratureCrossCheck:
    def test_random_integrands(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            r = int(rng.integers(1, 4))
            poly = {}
            for _ in range(int(rng.integers(1, 4))):
                alpha = tuple(int(2 * rng.integers(0, 3)) for _ in range(r))
                poly[alpha] = float(rng.uniform(-2, 2))
            integrand = StratumIntegrand(r, poly, float(rng.uniform(0.5, 2.0)))
            m = int(rng.integers(4, 50))
            # truncation covers the largest generated monomial (|alpha|/2 + r/2)
            series = gaussian_stratum_expansion(integrand, m, r / 2 + 8)
            for t in (1e-4, 1e-2, 1e-1):
                closed = series(t)
                ref = quadrature_reference(integrand, m, t)
                assert abs(closed - ref) <= 1e-8 * max(1.0, abs(ref))


class TestEnvelope:
    def test_on_stratum_value(self):
        assert stratum_suppression_envelope(16, 0.0, 2.5, 0.3, 2) == pytest.approx(
            2.5 * 16 ** 2
        )

    def test_crossover_scale(self):
        m, eps, C, n = 32, 0.4, 1.7, 3
        d = math.sqrt(math.log(float(m) ** n) / (eps * m))
        assert stratum_suppression_envelope(m, d, C, eps, n) == pytest.approx(C, rel=1e-12)

    def test_quadrupling_m_eventually_decreases(self):
        C, eps, n, d = 1.0, 0.2, 2, 0.8
        m = 64
        a = stratum_suppression_envelope(m, d, C, eps, n)
        b = stratum_suppression_envelope(4 * m, d, C, eps, n)
        assert b < a
        assert b / a == pytest.approx(4 ** n * math.exp(-3 * eps * m * d * d), rel=1e-12)

    def test_monotone_in_distance(self):
        vals = [
            stratum_suppression_envelope(10, d, 1.0, 0.5, 1)
            for d in (0.0, 0.3, 0.9, 2.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            stratum_suppression_envelope(0, 0.0, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            stratum_suppression_envelope(1, -1.0, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            StratumIntegrand(0, {}, 1.0)
        with pytest.raises(DomainError):
            StratumIntegrand(1, {(0, 0): 1.0}, 1.0)
