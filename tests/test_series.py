"""Half-power series engine: arithmetic, expansion of the thermal factor,
and the half-power least-squares fitter."""

import math
from fractions import Fraction

import numpy as np
import pytest

import crtorsion
from crtorsion import series, tails
from crtorsion.errors import ArityError, DomainError, SingularLeadError
from crtorsion.series import (
    HalfPowerSeries,
    bose_factor,
    fit_half_powers,
)


def bernoulli_plus(n_max):
    """Independent oracle: B+_n with B+_1 = +1/2 via the standard recurrence.

    t/(1 - e^{-t}) = sum B+_n t^n / n!.
    """
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * b[k]
        b.append(-acc / (n + 1))
    b[1] = Fraction(1, 2)
    return b


def bose_oracle(a: Fraction, trunc: int):
    """Taylor oracle for 1/(1 - e^{-a t}): coefficient of t^{n-1} is
    B+_n a^{n-1} / n!."""
    bp = bernoulli_plus(trunc + 2)
    return {
        n - 1: bp[n] * a ** (n - 1) / math.factorial(n)
        for n in range(0, trunc + 2)
        if n - 1 < trunc
    }


def random_rational_series(rng, base2, size):
    return HalfPowerSeries(
        base2,
        tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(size)),
        base2 + size,
    )


def bracket_inverse_bose(a: Fraction, trunc_order) -> HalfPowerSeries:
    """Reference: 1/(1 - e^{-a t}) by inverting the bracket
    (1 - e^{-a t}) / t = a - a^2 t / 2! + ... term by term."""
    t2 = round(2 * trunc_order)
    terms = {}
    term = a
    k = 1
    while 2 * (k - 1) < t2 + 2:
        terms[k - 1] = term if k % 2 == 1 else -term
        k += 1
        term = term * a / k
    return HalfPowerSeries.from_terms(terms, (t2 + 2) / 2).inverse().shift(-1)


class TestArithmetic:
    def test_mul_shifts_base(self):
        a = HalfPowerSeries.from_terms({-1: 1.0, 0: 1.0}, 3)  # t^{-1} + 1
        b = HalfPowerSeries.from_terms({1: 1.0}, 4)  # t
        prod = a * b
        assert prod.coefficient(0) == 1.0
        assert prod.coefficient(1) == 1.0
        assert prod.base_order == 0.0

    def test_inv_geometric(self):
        a = HalfPowerSeries.from_terms({0: 1.0, 1: 1.0}, 3.5)  # 1 + t
        inv = a.inverse()
        for p, want in [(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)]:
            assert inv.coefficient(p) == pytest.approx(want, abs=1e-15)

    def test_half_power_product(self):
        a = HalfPowerSeries.from_terms({0.5: 1.0}, 2)
        prod = a * a
        assert prod.coefficient(1) == 1.0
        assert prod.base_order == 1.0

    def test_inv_truncation_propagation(self):
        # result truncated at trunc_order - 2*base_order
        a = HalfPowerSeries.from_terms({-1: 2.0, 0: 1.0}, 2)
        inv = a.inverse()
        assert inv.base_order == 1.0
        assert inv.trunc_order == 2.0 - 2 * (-1.0)

    def test_inv_zero_lead_raises(self):
        a = HalfPowerSeries.from_terms({0: 0.0, 1: 1.0}, 3)
        with pytest.raises(SingularLeadError):
            a.inverse()

    def test_rational_arithmetic_is_exact(self):
        a = HalfPowerSeries.from_terms(
            {-1: Fraction(1, 3), 0: Fraction(2, 7), 1: Fraction(-5, 11)}, 3
        )
        b = HalfPowerSeries.from_terms({0: Fraction(3, 5), 2: Fraction(1, 9)}, 3)
        prod = a * b
        assert all(isinstance(c, Fraction) for c in prod.coeffs)
        assert prod.coefficient(-1) == Fraction(1, 3) * Fraction(3, 5)
        total = a + b
        assert total.coefficient(0) == Fraction(2, 7) + Fraction(3, 5)

    def test_mul_matches_double_loop_exactly(self):
        # the product is one convolution of the coefficient arrays; on
        # Fraction coefficients it equals the schoolbook double loop exactly
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = random_rational_series(rng, int(rng.integers(-6, 4)), int(rng.integers(1, 13)))
            b = random_rational_series(rng, int(rng.integers(-6, 4)), int(rng.integers(1, 13)))
            got = a * b
            trunc2 = min(a.trunc2 + b.base2, b.trunc2 + a.base2)
            n = trunc2 - a.base2 - b.base2
            want = [Fraction(0)] * n
            for i, ci in enumerate(a.coeffs):
                for j, cj in enumerate(b.coeffs):
                    if i + j < n:
                        want[i + j] += ci * cj
            assert (got.base2, got.trunc2) == (a.base2 + b.base2, trunc2)
            assert got.coeffs == tuple(want)
            assert all(isinstance(c, Fraction) for c in got.coeffs)

    def test_add_aligns_and_truncates(self):
        a = HalfPowerSeries.from_terms({-1: Fraction(2), 1: Fraction(3)}, 2)
        b = HalfPowerSeries.from_terms({0: Fraction(5), 0.5: Fraction(7)}, 1)
        total = a + b
        assert (total.base2, total.trunc2) == (-2, 2)
        assert total.coeffs == (2, 0, 5, 7)
        assert all(isinstance(c, Fraction) for c in total.coeffs)

    @pytest.mark.parametrize("order", [0, 0.5, 1, 7.5, 13])
    def test_exponential_matches_term_loop_exactly(self, order):
        for rate in (Fraction(1), Fraction(-7, 3), Fraction(5, 11), Fraction(0)):
            got = HalfPowerSeries.exponential(rate, order)
            want, term = {}, Fraction(1)
            for k in range(math.ceil(order)):
                want[k] = term
                term = term * rate / (k + 1)
            assert (got.base2, got.trunc2) == ((0, round(2 * order)) if want else (0, 0))
            for e2 in range(got.base2, got.trunc2):
                c = got.coefficient(e2 / 2)
                assert c == want.get(e2 / 2, 0) and isinstance(c, Fraction)

    def test_max_abs_coeff_diff_reads_shared_slots(self):
        a = HalfPowerSeries.from_terms({-1: 1.0, 0: 2.0, 1: 3.0}, 2)
        b = HalfPowerSeries.from_terms({0: 2.5, 1: 3.0, 2: 9.0}, 2.5)
        assert a.max_abs_coeff_diff(b) == 0.5  # t^0 .. t^{3/2} only
        nan = HalfPowerSeries.from_terms({0: float("nan")}, 1)
        assert math.isnan(nan.max_abs_coeff_diff(b))

    def test_mul_truncation_is_min_propagated(self):
        a = HalfPowerSeries.from_terms({0: 1.0}, 2)      # trunc t^2
        b = HalfPowerSeries.from_terms({1: 1.0}, 5)      # trunc t^5
        prod = a * b
        assert prod.trunc_order == min(2 + 1, 5 + 0)


class TestBoseFactor:
    def test_unit_rate_matches_oracle(self):
        got = bose_factor(1.0, 4)
        want = bose_oracle(Fraction(1), 4)
        for e, c in want.items():
            assert float(got.coefficient(e)) == pytest.approx(float(c), abs=1e-14)
        # spec example values
        assert got.coefficient(-1) == pytest.approx(1.0)
        assert got.coefficient(0) == pytest.approx(0.5)
        assert got.coefficient(1) == pytest.approx(1.0 / 12)
        assert got.coefficient(2) == pytest.approx(0.0, abs=1e-14)
        assert got.coefficient(3) == pytest.approx(-1.0 / 720)

    def test_rate_two_exact(self):
        got = bose_factor(Fraction(2), 2)
        assert got.coefficient(-1) == Fraction(1, 2)
        assert got.coefficient(0) == Fraction(1, 2)
        assert got.coefficient(1) == Fraction(1, 6)

    def test_exact_matches_oracle_everywhere(self):
        a = Fraction(7, 3)
        got = bose_factor(a, 5)
        want = bose_oracle(a, 5)
        for e, c in want.items():
            assert got.coefficient(e) == c

    def test_leading_coefficient_is_inverse_rate(self):
        rng = np.random.default_rng(7)
        for a in rng.uniform(0.3, 5.0, size=8):
            got = bose_factor(float(a), 1)
            assert float(got.coefficient(-1)) == pytest.approx(1.0 / a, rel=1e-13)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(DomainError):
            bose_factor(0.0, 3)
        with pytest.raises(DomainError):
            bose_factor(-1.5, 3)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, a, exact):
        with pytest.raises(DomainError, match="0 < a < inf"):
            bose_factor(a, 3, exact=exact)

    @pytest.mark.parametrize("order", [0, 0.5, 1, 7.5, 13])
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(7, 3), Fraction(1, 7), Fraction(19, 2)])
    def test_closed_form_equals_bracket_inversion_exactly(self, a, order):
        got = bose_factor(a, order)
        want = bracket_inverse_bose(a, order)
        assert (got.base2, got.trunc2) == (want.base2, want.trunc2)
        assert got.coeffs == want.coeffs
        assert all(isinstance(c, Fraction) for c in got.coeffs)

    def test_float_rate_close_to_bracket_inversion(self):
        for a in (0.37, 1.0, 2.9, 11.5):
            got = bose_factor(a, 13)
            want = bracket_inverse_bose(Fraction(a), 13)
            for c, w in zip(got.coeffs, want.coeffs):
                assert c == pytest.approx(float(w), rel=1e-15, abs=1e-300)

    def test_one_bernoulli_table(self):
        assert tails._bernoulli_over_factorial is series._bernoulli_over_factorial
        assert tails._bernoulli_over_factorial(1) == Fraction(1, 12)
        assert "_tangent_numbers" not in vars(tails)

    def test_inverse_identity_random_rates(self):
        # bose(a) * (1 - e^{-a t}) == 1 coefficient-wise
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.5, 3.0, size=10):
            order = 8
            bose = bose_factor(float(a), order)
            one_minus = HalfPowerSeries.constant(1.0, order) - HalfPowerSeries.exponential(
                -float(a), order
            )
            prod = bose * one_minus
            unit = HalfPowerSeries.constant(1.0, prod.trunc2 / 2.0)
            assert prod.max_abs_coeff_diff(unit) < 1e-12

    @pytest.mark.parametrize("T", [1, 2.5, 7, 12])
    @pytest.mark.parametrize("a", [0.37, 2.9, Fraction(5, 3), Fraction(1, 7)])
    def test_truncation_order_changes_no_coefficient(self, a, T):
        # coefficient k of the inverse reads bracket terms 0..k only, so a
        # deeper expansion truncated to T is the same series, bit for bit
        got = bose_factor(a, T)
        assert got.trunc_order == T
        deep = bose_factor(a, T + 3).truncate2(got.trunc2)
        assert (got.base2, got.trunc2) == (deep.base2, deep.trunc2)
        assert got.coeffs == deep.coeffs
        assert all(type(c) is type(d) for c, d in zip(got.coeffs, deep.coeffs))


class TestFit:
    def test_planted_model_in_span(self):
        t = np.linspace(0.01, 0.2, 20)
        y = 2.0 / t + 3.0 + 5.0 * np.sqrt(t)
        fit = fit_half_powers(list(zip(t, y)), -1, 4)
        assert np.allclose(fit.coeffs, (2.0, 0.0, 3.0, 5.0), atol=1e-6)
        assert not fit.ill_conditioned

    def test_thermal_kernel_expansion(self):
        # 3-term fit on [0.005, 0.1]: limited by the omitted t/12 term, which
        # biases the t^0 slot by ~1.3e-2 regardless of the grid; extending the
        # ladder removes the bias entirely.
        t = np.geomspace(0.005, 0.1, 30)
        y = np.exp(-t) / (1.0 - np.exp(-t))
        fit = fit_half_powers(list(zip(t, y)), -1, 3)
        assert np.allclose(fit.coeffs, (1.0, 0.0, -0.5), atol=2e-2)
        fit5 = fit_half_powers(list(zip(t, y)), -1, 5)
        assert np.allclose(fit5.coeffs[:3], (1.0, 0.0, -0.5), atol=1e-5)

    def test_underdetermined_raises(self):
        with pytest.raises(ArityError):
            fit_half_powers([(0.1, 1.0), (0.2, 2.0)], -1, 4)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            fit_half_powers([(0.0, 1.0), (0.1, 1.0)], -1, 2)
        with pytest.raises(DomainError):
            fit_half_powers([(0.1, 1.0), (0.1, 2.0)], -1, 2)

    def test_repeated_abscissa_named(self):
        # unsorted, with the repeat apart
        samples = [(0.3, 1.0), (0.1, 2.0), (0.2, 3.0), (0.3, 4.0)]
        with pytest.raises(DomainError, match="sample abscissae must be distinct"):
            fit_half_powers(samples, -1, 2)

    @pytest.mark.parametrize("sample", [(math.nan, 2.0), (0.2, math.inf), (-math.inf, 1.0)])
    def test_non_finite_sample_named(self, sample):
        # a nan abscissa reached the SVD (LinAlgError), and an inf value
        # returned nan coefficients with no warning
        samples = [(0.1, 1.0), sample, (0.3, 3.0)]
        with pytest.raises(DomainError, match=r"sample 1 is not finite"):
            fit_half_powers(samples, -1, 2)

    def test_synthetic_series_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_terms = int(rng.integers(1, 7))
            coeffs = rng.uniform(-4, 4, size=n_terms)
            series = HalfPowerSeries(-2, tuple(coeffs), -2 + n_terms)
            grid = np.geomspace(0.02, 0.5, 36)
            fit = fit_half_powers([(float(t), series(float(t))) for t in grid], -1, n_terms)
            scale = max(1e-12, float(np.max(np.abs(coeffs))))
            assert np.max(np.abs(np.asarray(fit.coeffs) - coeffs)) / scale < 1e-8

    def test_condition_number_reported(self):
        t = np.geomspace(1e-3, 0.5, 40)
        y = 1.0 / t
        fit = fit_half_powers(list(zip(t, y)), -1, 6)
        assert fit.cond > 1.0


class TestSeriesEvaluation:
    def test_call_and_exponents(self):
        s = HalfPowerSeries.from_terms({-1: 2.0, 0.5: 3.0}, 1.5)
        assert s(0.25) == pytest.approx(2.0 / 0.25 + 3.0 * 0.5)
        assert s.exponents()[0] == -1.0

    def test_call_rejects_nonpositive(self):
        s = HalfPowerSeries.constant(1.0, 2)
        with pytest.raises(DomainError):
            s(0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_call_rejects_non_finite(self, t):
        # s(nan) returned nan and s(inf) returned 0.0
        s = HalfPowerSeries.from_terms({-1: 2.0, 0.5: 3.0}, 1.5)
        with pytest.raises(DomainError, match="0 < t < inf"):
            s(t)

    def test_trimmed_drops_cancelled_leaders(self):
        s = HalfPowerSeries.from_terms({-2: 1e-18, -1: 1.0, 0: 2.0}, 1)
        t = s.trimmed(rel_tol=1e-12)
        assert t.base_order == -1.0
        assert t.coefficient(-1) == 1.0


def test_package_exports_resolve():
    # import * raises AttributeError for a name in __all__ that is not bound
    namespace = {}
    exec("from crtorsion import *", namespace)
    assert set(crtorsion.__all__) <= set(namespace)
