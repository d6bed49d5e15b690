"""Model density expansions: wedge-diagonal coefficients, the degree-weighted
super-trace identity, the scalar trace density, and its closed-form leading
coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from crtorsion.density import (
    LeviSpectrum,
    cr_density_norm,
    hatA_coeffs,
    model_density_coeffs,
    rt_density,
    rt_density_series,
    scalar_density_norm,
    subset_sum_identity_residual,
    supertrace_N_density,
)
from crtorsion.errors import DomainError
from crtorsion.series import HalfPowerSeries, bose_factor

TWO_PI = 2.0 * math.pi


def random_levi(rng, n=None, exact=False):
    n = n or int(rng.integers(1, 5))
    if exact:
        eigs = tuple(
            Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4))) for _ in range(n)
        )
        return LeviSpectrum(n, eigs)
    return LeviSpectrum(n, tuple(rng.uniform(0.5, 3.0, size=n)))


def inverted_rt_density_series(levi, trunc_order, normalized=True):
    """Reference: rt_density_series by inverting the bracket of
    1 - e^{a t} = -(a t + (a t)^2/2! + ...) term by term, apart from
    bose_factor."""
    exact = any(isinstance(a, Fraction) for a in levi.eigenvalues)
    one = Fraction(1) if exact else 1.0
    t2 = round(2 * trunc_order)
    acc = None
    for a in levi.eigenvalues:
        bracket_trunc2 = 2 * (t2 + 4)
        terms = {}
        term = -a * one
        k = 1
        while 2 * (k - 1) < bracket_trunc2:
            terms[k - 1] = term
            k += 1
            term = term * a / k
        bracket = HalfPowerSeries.from_terms(terms, bracket_trunc2 / 2)
        contrib = bracket.inverse().shift(-1).truncate2(t2)
        acc = contrib if acc is None else acc + contrib
    det = levi.det()
    return acc.scale(float(det) * scalar_density_norm(levi.n) if normalized else det * one)


class TestLeviSpectrum:
    def test_validation(self):
        with pytest.raises(DomainError):
            LeviSpectrum(2, (1.0,))
        with pytest.raises(DomainError):
            LeviSpectrum(1, (-1.0,))
        assert not LeviSpectrum(2, (1.0, 0.0)).strongly_pseudoconvex
        assert LeviSpectrum(2, (1.0, 2.0)).strongly_pseudoconvex

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(DomainError, match="eigenvalues must be finite"):
            LeviSpectrum(2, (1.0, bad))


class TestModelDensity:
    def test_n1_empty_subset_coefficients(self):
        a = 1.7
        dens = model_density_coeffs(LeviSpectrum(1, (a,)), 1, 2)
        empty = dens[frozenset()]
        norm = TWO_PI ** -2
        assert float(empty.coefficient(-1)) == pytest.approx(norm, rel=1e-13)
        assert float(empty.coefficient(0)) == pytest.approx(norm * a / 2, rel=1e-13)

    def test_n1_full_subset_coefficient(self):
        a = 1.7
        dens = model_density_coeffs(LeviSpectrum(1, (a,)), 1, 2)
        full = dens[frozenset({1})]
        norm = TWO_PI ** -2
        # a bose(a) e^{-a t} = 1/t - a/2 + ...
        assert float(full.coefficient(0)) == pytest.approx(-norm * a / 2, rel=1e-13)

    def test_zero_eigenvalue_convention(self):
        dens = model_density_coeffs(LeviSpectrum(1, (0.0,)), 1, 3)
        empty = dens[frozenset()]
        norm = TWO_PI ** -2
        assert float(empty.coefficient(-1)) == pytest.approx(norm, rel=1e-14)
        for e in (-0.5, 0, 0.5, 1, 2):
            assert float(empty.coefficient(e)) == pytest.approx(0.0, abs=1e-16)

    def test_linear_in_rank(self):
        levi = LeviSpectrum(2, (1.0, 2.0))
        one = model_density_coeffs(levi, 1, 1)
        three = model_density_coeffs(levi, 3, 1)
        for s in one.per_subset:
            a = one[s]
            b = three[s]
            for e in a.exponents():
                assert float(b.coefficient(e)) == pytest.approx(
                    3.0 * float(a.coefficient(e)), rel=1e-13, abs=1e-16
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_entry_is_core_times_exponential_exactly(self, n):
        # the Toeplitz product against a schoolbook reference: the core
        # prod_j a_j bose(a_j) times e^{-t rate_J}, entry by entry
        rng = np.random.default_rng(60 + n)
        for order in (1, 3.5):
            levi = random_levi(rng, n, exact=True)
            dens = model_density_coeffs(levi, 2, order, normalized=False)
            work = order + n + 1
            core = None
            for a in levi.eigenvalues:
                factor = bose_factor(a, work).scale(a)
                core = factor if core is None else core * factor
            t2 = round(2 * order)
            for subset in dens.subsets:
                rate = sum((levi.eigenvalues[j - 1] for j in subset), Fraction(0))
                want = (core * HalfPowerSeries.exponential(-rate, work)).scale(Fraction(2))
                got = dens[subset]
                assert (got.base2, got.trunc2) == (want.base2, t2)
                assert got.coeffs == want.coeffs[: t2 - want.base2]
                assert all(isinstance(c, Fraction) for c in got.coeffs)

    def test_subset_count(self):
        dens = model_density_coeffs(LeviSpectrum(3, (1.0, 2.0, 0.5)), 1, 0)
        assert len(dens.per_subset) == 8

    def test_nweighted_supertrace_matches_hatA(self):
        # STr N of the rank-1 wedge density at orders -1, 0 equals hatA / 2 pi
        rng = np.random.default_rng(5)
        for _ in range(6):
            levi = random_levi(rng)
            dens = model_density_coeffs(levi, 1, 1)
            stn = dens.supertrace_N().trimmed(rel_tol=1e-10)
            a_m1, a_0 = hatA_coeffs(levi)
            assert float(stn.coefficient(-1)) == pytest.approx(
                a_m1 / TWO_PI, rel=1e-10
            )
            assert float(stn.coefficient(0)) == pytest.approx(a_0 / TWO_PI, rel=1e-10)


class TestSupertraceIdentity:
    def test_n1_closed_form(self):
        a = 2.3
        stn = supertrace_N_density(LeviSpectrum(1, (a,)), 2)
        assert float(stn.coefficient(-1)) == pytest.approx(-1.0 / TWO_PI, rel=1e-13)
        assert float(stn.coefficient(0)) == pytest.approx(a / (2 * TWO_PI), rel=1e-13)

    def test_n2_leading_coefficient(self):
        stn = supertrace_N_density(LeviSpectrum(2, (1.0, 1.0)), 1)
        assert float(stn.coefficient(-1)) == pytest.approx(
            -2.0 * TWO_PI ** -2, rel=1e-12
        )

    def test_base_order_is_minus_one(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            levi = random_levi(rng)
            stn = supertrace_N_density(levi, 3)
            assert stn.base_order == -1.0

    def test_identity_against_rt_series_float(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            levi = random_levi(rng)
            lhs = supertrace_N_density(levi, 7)
            rhs = rt_density_series(levi, 7)
            scale = max(abs(float(c)) for c in rhs.coeffs)
            assert lhs.max_abs_coeff_diff(rhs) / scale < 1e-10

    def test_identity_exact_rational(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            levi = random_levi(rng, exact=True)
            lhs = supertrace_N_density(levi, 5, normalized=False)
            rhs = rt_density_series(levi, 5, normalized=False)
            lo = max(lhs.base2, rhs.base2)
            hi = min(lhs.trunc2, rhs.trunc2)
            for e2 in range(lo, hi):
                assert lhs.coefficient(e2 / 2.0) == rhs.coefficient(e2 / 2.0)

    def test_subset_sum_identity_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            levi = random_levi(rng)
            t = float(rng.uniform(0.1, 2.0))
            assert subset_sum_identity_residual(levi, t) < 1e-10

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            supertrace_N_density(LeviSpectrum(2, (1.0, 0.0)), 3)


class TestRtDensity:
    def test_n1_point_value(self):
        val = rt_density(LeviSpectrum(1, (1.0,)), 1.0)
        want = (1.0 / TWO_PI) / (1.0 - math.e)
        assert val == pytest.approx(want, rel=1e-13)
        assert val == pytest.approx(-0.0926, abs=2e-4)

    def test_small_t_leading_behavior(self):
        levi = LeviSpectrum(1, (1.0,))
        for t in (1e-4, 1e-6):
            assert t * rt_density(levi, t) == pytest.approx(-1.0 / TWO_PI, rel=1e-3)

    def test_n2_unrolled_definition(self):
        val = rt_density(LeviSpectrum(2, (1.0, 2.0)), 1.0)
        want = (2.0 / TWO_PI ** 2) * (1.0 / (1.0 - math.e) + 1.0 / (1.0 - math.e ** 2))
        assert val == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rt_density(LeviSpectrum(1, (1.0,)), 0.0)
        with pytest.raises(DomainError):
            rt_density(LeviSpectrum(1, (0.0,)), 1.0)
        with pytest.raises(DomainError, match="0 < t < inf"):
            rt_density(LeviSpectrum(1, (1.0,)), math.nan)

    @pytest.mark.parametrize("t", [1e-4, 1e-8, 1e-10, 1e-12, 1e-300])
    def test_small_t_has_no_cancellation(self, t):
        # 1/(1 - e^{t}) = -1/expm1(t): no digit is lost as t -> 0
        want = -1.0 / (TWO_PI * math.expm1(t))
        got = rt_density(LeviSpectrum(1, (1.0,)), t)
        assert got == pytest.approx(want, rel=4e-16)

    def test_tiny_eigenvalue(self):
        # a t underflows the subtraction 1 - e^{-a t}; the density stays
        # -(1/2 pi t) to leading order
        for a in (1e-200, 1e-320):
            got = rt_density(LeviSpectrum(1, (a,)), 1.0)
            assert got == pytest.approx(-1.0 / TWO_PI, rel=1e-12)
        # the second eigenvalue's term carries the factor a_1 -> 0
        got = rt_density(LeviSpectrum(2, (1e-320, 2.0)), 0.5)
        want = (2.0 / TWO_PI ** 2) * (-1.0 / 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [600.0, 800.0])
    def test_large_t_decays(self, t):
        # expm1(a t) would overflow past a t = 709; the density underflows instead
        assert rt_density(LeviSpectrum(1, (1.0,)), t) == pytest.approx(
            -math.exp(-t) / TWO_PI, rel=1e-12
        )

    @pytest.mark.parametrize("order", [2, 4.5, 7])
    def test_series_equals_bracket_inversion_exactly(self, order):
        rng = np.random.default_rng(43)
        for _ in range(6):
            levi = random_levi(rng, exact=True)
            got = rt_density_series(levi, order, normalized=False)
            want = inverted_rt_density_series(levi, order, normalized=False)
            assert (got.base2, got.trunc2) == (want.base2, want.trunc2)
            assert got.coeffs == want.coeffs
            assert all(isinstance(c, Fraction) for c in got.coeffs)

    def test_series_matches_bracket_inversion_float(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            levi = random_levi(rng)
            for normalized in (False, True):
                got = rt_density_series(levi, 7, normalized)
                want = inverted_rt_density_series(levi, 7, normalized)
                scale = max(abs(c) for c in want.coeffs)
                assert got.max_abs_coeff_diff(want) / scale <= 1e-15

    def test_series_matches_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            levi = random_levi(rng)
            series = rt_density_series(levi, 4)
            for t in (1e-3, 1e-2):
                assert series(t) == pytest.approx(rt_density(levi, t), rel=1e-6)


class TestHatACoeffs:
    def test_n1_closed_forms(self):
        for a in (0.5, 1.0, 2.5):
            a_m1, a_0 = hatA_coeffs(LeviSpectrum(1, (a,)))
            assert a_m1 == pytest.approx(-1.0 / TWO_PI, rel=1e-14)
            assert a_0 == pytest.approx(a / (4 * math.pi), rel=1e-14)

    def test_n2_unit_eigenvalues(self):
        a_m1, a_0 = hatA_coeffs(LeviSpectrum(2, (1.0, 1.0)))
        assert a_m1 == pytest.approx(-2.0 / TWO_PI ** 2, rel=1e-14)
        assert a_0 == pytest.approx(1.0 / TWO_PI ** 2, rel=1e-14)

    def test_matches_rt_series_coefficients(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            levi = random_levi(rng)
            a_m1, a_0 = hatA_coeffs(levi)
            series = rt_density_series(levi, 2)
            scale = max(abs(a_m1), abs(a_0))
            assert abs(float(series.coefficient(-1)) - a_m1) / scale < 1e-12
            assert abs(float(series.coefficient(0)) - a_0) / scale < 1e-12

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            hatA_coeffs(LeviSpectrum(1, (0.0,)))


def test_normalization_ratio_pinned():
    # the wedge density carries one more factor of 1/(2 pi) than the scalar one
    for n in (1, 2, 3, 5):
        assert scalar_density_norm(n) / cr_density_norm(n) == pytest.approx(
            TWO_PI, rel=1e-15
        )
