"""Quadratic-law spectral sums: Euler-Maclaurin expansion, certified tail
bounds, and the Hurwitz-zeta continuation used by the direct torsion route."""

import dataclasses
import math
from collections import defaultdict
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from crtorsion import tails
from crtorsion.errors import ConvergenceError, DomainError
from crtorsion.spectra import QuadraticTail, SpectrumTable
from crtorsion.tails import (
    QuadraticLaw,
    em_heat_series,
    split_index,
    tail_bound,
    trust_floor,
    zeta_log_tail,
)

SQRT_PI = math.sqrt(math.pi)

# frozen via an independent high-precision evaluation (validated against the
# classical round-sphere zeta determinant): d/dz at 0 of the m = 0 spectral sum
ROUND_SPHERE_ZETA_PRIME = -1.1616845748018036

# theta'(0) of the circle-bundle spectrum (the direct route, which is
# Z'(0) of cp1_law(m) from k = 1), frozen from the law-anchored Hurwitz series
# that continued from k = 1 without a split; m = 32, 64, 128 are the
# correctly rounded closed form 4 zeta'(-1) + 2 log H(N) - N log N! - N^2 / 2
# with N = m + 1 (mpmath, 50 digits)
CP1_THETA_PRIME = {
    8: 1.735827348453908,
    16: 8.68507083909494,
    32: 27.702650575136595,
    64: 76.3848051857439,
    128: 195.47728941176095,
}


def cp1_law(m: int) -> QuadraticLaw:
    return QuadraticLaw(1.0, float(m + 1), 0.0, 2.0, float(m + 1))


def brute_sum(law: QuadraticLaw, k_start: int, t: float) -> float:
    total = 0.0
    k = k_start
    while True:
        x = t * law.lam(k)
        if x > 60.0 and k > k_start + 4:
            break
        total += law.mult(k) * math.exp(-x)
        k += 1
    return total


def _exact_endpoint_derivatives(law: QuadraticLaw, order: int, x0: float):
    """t-coefficients of P_0(x0; t) .. P_order(x0; t), where
    d^k/dx^k [mu e^{-t lam}] = P_k e^{-t lam}, in exact rationals from the chain
    P_{k+1} = P_k' - t lam' P_k on the t^p x^i coefficients of P_k."""
    a2, a1, m1, m0, x0 = map(Fraction, (law.a2, law.a1, law.m1, law.m0, x0))
    poly = {(0, 0): m0, (0, 1): m1}
    out = []
    for k in range(order + 1):
        tcoeffs = [Fraction(0)] * (k + 1)
        for (p, i), c in poly.items():
            tcoeffs[p] += c * x0 ** i
        out.append(tcoeffs)
        nxt = defaultdict(Fraction)
        for (p, i), c in poly.items():
            if i:
                nxt[p, i - 1] += i * c
            nxt[p + 1, i] -= a1 * c
            nxt[p + 1, i + 1] -= 2 * a2 * c
        poly = nxt
    return out


class TestEmHeatSeries:
    def test_cp1_hand_derived_coefficients(self):
        for m in (0, 4, 11):
            M = m + 1
            series = em_heat_series(cp1_law(m), 1, 3)
            assert float(series.coefficient(-1)) == pytest.approx(1.0, rel=1e-13)
            assert float(series.coefficient(-0.5)) == pytest.approx(0.0, abs=1e-13)
            assert float(series.coefficient(0)) == pytest.approx(
                -M / 2 - 1 / 6, rel=1e-12
            )
            assert float(series.coefficient(1)) == pytest.approx(
                M * M / 12 - 1 / 60, rel=1e-11
            )
            assert float(series.coefficient(2)) == pytest.approx(
                M * M / 60 - 1 / 252, rel=1e-10
            )

    def test_theta_function_coefficients(self):
        # sum_{k>=1} e^{-t k^2} = (1/2) sqrt(pi/t) - 1/2 + O(t^inf)
        law = QuadraticLaw(1.0, 0.0, 0.0, 0.0, 1.0)
        series = em_heat_series(law, 1, 4)
        assert float(series.coefficient(-0.5)) == pytest.approx(SQRT_PI / 2, rel=1e-13)
        assert float(series.coefficient(0)) == pytest.approx(-0.5, rel=1e-13)
        for e in (0.5, 1, 1.5, 2, 2.5, 3):
            assert float(series.coefficient(e)) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_sum_at_small_t(self):
        # a trunc-order-T series can only match to O(t^T); scale tolerance with t
        for law, k0 in ((cp1_law(6), 1), (QuadraticLaw(2.0, 3.0, 1.0, 1.0, 2.0), 2)):
            series = em_heat_series(law, k0, 3)
            for t in (2e-3, 1e-3, 5e-4):
                want = brute_sum(law, k0, t)
                budget = 1e3 * t ** 3 + 1e-10 * abs(want)
                assert abs(series(t) - want) <= budget

    def test_residual_order_scaling(self):
        law = cp1_law(3)
        trunc = 3
        series = em_heat_series(law, 1, trunc)
        res = []
        for t in (2e-2, 1e-2):
            res.append(abs(series(t) - brute_sum(law, 1, t)))
        # dropping t by 2 should shrink the residual by ~2^trunc
        assert res[1] < res[0] / 2 ** (trunc - 0.8)

    def test_half_powers_appear_for_constant_multiplicity(self):
        law = QuadraticLaw(1.0, 1.0, 0.0, 0.0, 3.0)  # mu const: Gaussian ladder
        series = em_heat_series(law, 1, 2)
        assert abs(float(series.coefficient(-0.5))) > 0.1

    @pytest.mark.parametrize(
        "law, x0",
        (
            (cp1_law(6), 1.0),
            (cp1_law(127), 1.0),
            (QuadraticLaw(2.0, 3.0, 1.0, 1.0, 2.0), 2.0),
            (QuadraticLaw(0.7, -3.1, 9.4, 0.0, 1.3), 5.0),
        ),
    )
    def test_endpoint_derivatives_match_exact_chain(self, law, x0):
        # within a few eps of every exact coefficient through r = 21
        exact = _exact_endpoint_derivatives(law, 21, x0)
        for r, want in enumerate(exact):
            got = tails._endpoint_derivative_tpoly(law, r, x0)
            assert len(got) == len(want) == r + 1
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= Fraction(1e-14) * abs(w), (r, g, w)

    def test_matches_brute_sum_at_high_order(self):
        # trunc order 8.5 needs 12 Bernoulli corrections: the residual falls
        # like t^8.5 down to rounding
        for law in (cp1_law(6), QuadraticLaw(2.0, 3.0, 1.0, 1.0, 2.0)):
            series = em_heat_series(law, 1, 8.5)
            for t in (5e-2, 2e-2, 1e-2):
                want = brute_sum(law, 1, t)
                assert abs(series(t) - want) <= (t ** 8.5 + 4e-15) * want


class TestTailBound:
    def test_bounds_brute_tail(self):
        law = cp1_law(9)
        for k0, t in ((40, 5e-3), (40, 2e-2), (100, 1e-3)):
            actual = brute_sum(law, k0, t)
            bound = tail_bound(law, k0, t)
            assert actual <= bound
            assert bound < 6.0 * actual + 1e-12

    def test_small_t_certificate_refused(self):
        law = cp1_law(9)
        assert tail_bound(law, 40, 1e-9) == math.inf

    def test_trust_floor_monotone(self):
        law = cp1_law(9)
        floor = trust_floor(law, 2000, 1e-12)
        assert tail_bound(law, 2000, floor) <= 1e-12
        assert tail_bound(law, 2000, floor / 4.0) > 1e-12

    def test_erfcx_matches_scipy(self):
        from scipy.special import erfcx

        zs = [5.0, math.nextafter(5.0, 0.0)]
        zs += [10.0 * i / 4000 for i in range(4001)]
        zs += [10.0 * 1e5 ** (i / 600) for i in range(601)]  # 10 .. 1e6
        worst = max(abs(tails._erfcx(z) / erfcx(z) - 1.0) for z in zs)
        assert worst <= 4e-15

    def test_constant_multiplicity_part_matches_erfc_form(self):
        # mu_const != 0: the bound is the integral of mu e^{-t lam} from
        # x0 = k_start - 1, whose constant part carries e^{-t vertex_value}
        # erfc(z); at t = 0.05 and 0.5 that factor alone overflows a float
        law = QuadraticLaw(0.01, 40.0, 0.0, 0.0, 50.0)
        assert law.mu_const == 50.0 and law.vertex_value == -40000.0
        for t in (1e-3, 0.05, 0.5):
            with mpmath.workdps(40):
                a2, a1 = mpmath.mpf(law.a2), mpmath.mpf(law.a1)
                z = mpmath.sqrt(a2 * t) * a1 / (2 * a2)
                want = 50 * mpmath.sqrt(mpmath.pi) / (2 * mpmath.sqrt(a2 * t))
                want *= mpmath.exp(t * a1 ** 2 / (4 * a2)) * mpmath.erfc(z)
            got = tail_bound(law, 1, t)
            assert got == pytest.approx(float(want), rel=1e-13)
            assert brute_sum(law, 1, t) <= got

    def test_deep_vertex_bound_is_finite(self):
        # the law of a bare OverflowError: -t vertex_value = 882 at t = 1
        law = QuadraticLaw(0.25, 30.0, 17.9, 4.0, 18.0)
        assert -law.vertex_value > 709.0
        assert 0.0 <= tail_bound(law, 513, 1.0) < 1e-300
        assert 0.0 < trust_floor(law, 513, 1e-13) < 1.0

    def test_negative_start_value_is_refused_not_raised(self):
        # lam(x0) < 0 makes e^{-t lam(x0)} leave the float range as t grows
        law = QuadraticLaw(1.0, -36.0, 6.0, 2.0, 17.0)
        assert law.lam(20.0) < 0.0 < law.lam_prime(20.0)
        assert tail_bound(law, 21, 1e3) == math.inf
        with pytest.raises(DomainError, match="never reaches"):
            trust_floor(law, 21, 1e-13)


class TestZetaLogTail:
    def test_round_sphere_frozen_value(self):
        _, deriv, err = zeta_log_tail(cp1_law(0), 1)
        assert deriv == pytest.approx(ROUND_SPHERE_ZETA_PRIME, abs=1e-12)
        assert err < 1e-10

    def test_value_at_zero_closed_form(self):
        for m in (0, 5, 12):
            val, _, _ = zeta_log_tail(cp1_law(m), 1)
            assert val == pytest.approx(-(m + 1) / 2 - 1 / 6, rel=1e-12)

    def test_pure_square_law_is_riemann_zeta(self):
        # lam = k^2, mu = 1: Z(z) = zeta(2z), so Z(0) = -1/2, Z'(0) = -log(2 pi)
        law = QuadraticLaw(1.0, 0.0, 0.0, 0.0, 1.0)
        val, deriv, _ = zeta_log_tail(law, 1)
        assert val == pytest.approx(-0.5, rel=1e-12)
        assert deriv == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_additivity_with_explicit_lines(self):
        # explicit -mu log(lam) over k < K plus the continued tail from K
        law = cp1_law(7)
        full_val, full_deriv, _ = zeta_log_tail(law, 1)
        K = 37
        head_val = sum(law.mult(k) for k in range(1, K))
        head_deriv = -sum(law.mult(k) * math.log(law.lam(k)) for k in range(1, K))
        tail_val, tail_deriv, _ = zeta_log_tail(law, K)
        assert head_val + tail_val == pytest.approx(full_val, rel=1e-11)
        assert head_deriv + tail_deriv == pytest.approx(full_deriv, rel=1e-11)

    def test_scale_factor_in_law(self):
        # lam -> 4 lam shifts Z'(0) by -log(4) Z(0)
        base = QuadraticLaw(1.0, 2.0, 0.0, 2.0, 2.0)
        scaled = QuadraticLaw(4.0, 8.0, 0.0, 2.0, 2.0)
        v0, d0, _ = zeta_log_tail(base, 1)
        v1, d1, _ = zeta_log_tail(scaled, 1)
        assert v1 == pytest.approx(v0, rel=1e-12)
        assert d1 == pytest.approx(d0 - math.log(4.0) * v0, rel=1e-11)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            zeta_log_tail(QuadraticLaw(1.0, 0.0, -10.0, 1.0, 1.0), 1)

    def test_zero_eigenvalue_past_k_start_rejected(self):
        # lam = (k - 5)^2 is positive at k_start = 1 but vanishes at k = 5
        with pytest.raises(DomainError):
            zeta_log_tail(QuadraticLaw(1.0, -10.0, 25.0, 0.0, 1.0), 1)

    @pytest.mark.parametrize("a", (0.5, 3.0, 10.0, 100.0))
    def test_shifted_squares_closed_form(self, a):
        # prod_{k>=1} (k^2 + a) = 2 sinh(pi sqrt a) / sqrt a (zeta-regularized);
        # a >= 1 lies outside |rho| < (k_start + s)^2, the old anchor's limit
        law = QuadraticLaw(1.0, 0.0, a, 0.0, 1.0)
        _, deriv, err = zeta_log_tail(law, 1)
        r = math.sqrt(a)
        want = -math.log(2.0 * math.sinh(math.pi * r) / r)
        assert abs(deriv - want) <= max(err, 1e-14 * abs(want))
        assert err < 1e-12

    @pytest.mark.parametrize("m", sorted(CP1_THETA_PRIME))
    def test_cp1_frozen_values(self, m):
        _, deriv, err = zeta_log_tail(cp1_law(m), 1)
        want = CP1_THETA_PRIME[m]
        assert deriv == pytest.approx(want, rel=1e-13)
        assert abs(deriv - want) <= err

    def test_split_index_for_circle_bundle(self):
        for m in (0, 1, 8, 128, 1024):
            assert split_index(cp1_law(m), 1) == 4 * (m + 1)
        assert split_index(cp1_law(8), 100) == 100

    def test_no_mpmath_zeta_and_log_count_independent_of_m(self, monkeypatch):
        # every Hurwitz value comes from the shared Euler-Maclaurin tables and
        # the circle bundle is summed in closed form: no mpmath zeta,
        # log Gamma, digamma or log call, and a count of decimal logarithms
        # (all taken through ``tails._ln``) that stops growing with m
        counts = {}

        def count(name, original):
            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            return counting

        for name in ("zeta", "loggamma", "digamma", "log"):
            monkeypatch.setattr(mpmath, name, count(f"mpmath.{name}", getattr(mpmath, name)))
        monkeypatch.setattr(tails, "_ln", count("ln", tails._ln))
        logs = {}
        for m in (0, 8, 128, 512, 1024, 16384):
            counts.clear()
            zeta_log_tail(cp1_law(m), 1)
            logs[m] = counts.pop("ln", 0)
            assert counts == {}, m
        assert logs[128] == logs[1024] == logs[16384]
        assert max(logs.values()) <= 256
        # zeta'(-1, 1) and zeta'(0, 1) are constants, not a shifted family
        assert all(logs[m] <= 12 for m in logs if m >= 32)

    @pytest.mark.parametrize("m, logs", ((8, 4), (128, 2)))
    def test_direct_route_work_per_circle_bundle_report(self, m, logs, monkeypatch):
        # the closed form at the roots 0 and m + 1: the stored constants at
        # q = 1 and one Hurwitz family at q = m + 2, no split and no binomial
        # series (four families, 6 and 4 logarithms and 9 and 10 summed
        # Hurwitz orders before).  Full logarithms: log a2 = log 1 (exact and
        # free) and the family's log Q, plus, at m = 8, where m + 2 lies below
        # the shift point, its two shift logarithms
        counts = defaultdict(int)
        ln, family = tails._ln, tails._HurwitzFamily

        class CountingFamily(family):
            def __init__(self, q):
                counts["family"] += 1
                super().__init__(q)

            def next(self, tol):
                counts["next"] += 1
                return super().next(tol)

            def skip(self):
                counts["skip"] += 1
                return super().skip()

        def counting_ln(x):
            counts["ln"] += 1
            return ln(x)

        monkeypatch.setattr(tails, "_ln", counting_ln)
        monkeypatch.setattr(tails, "_HurwitzFamily", CountingFamily)
        _, deriv, err = zeta_log_tail(cp1_law(m), 1)
        assert abs(deriv - CP1_THETA_PRIME[m]) <= err
        assert dict(counts) == {"ln": logs, "family": 1}

    @pytest.mark.parametrize(
        "m, want", ((4096, 13275.691709107743), (16384, 64445.577867662316))
    )
    def test_large_weight_values_match_explicit_head(self, m, want):
        # frozen from the term-by-term head of 4 (m+1) logarithms
        _, deriv, err = zeta_log_tail(cp1_law(m), 1)
        assert abs(deriv - want) <= err

    def test_circle_bundle_settles_on_first_ladder_level(self, monkeypatch):
        # the rounding bound of the first level meets the tolerance: one
        # level, head and tail evaluated once
        levels = []
        context = tails._context

        def counting_context(dps):
            levels.append(dps)
            return context(dps)

        monkeypatch.setattr(tails, "_context", counting_context)
        for m in (8, 128, 1024, 2 ** 22):
            levels.clear()
            zeta_log_tail(cp1_law(m), 1)
            assert levels == [30], m

    def test_missed_bound_escalates_with_the_head(self, monkeypatch):
        # a first-level bound above the tolerance sends the whole sum to the
        # next level, the head with the tail (k^2 + 3 has complex roots) and
        # the closed form alike, and the second level's result is returned
        context = tails._context
        first = context(30).prec
        levels = []
        monkeypatch.setattr(tails, "_context", lambda dps: levels.append(dps) or context(dps))
        shifted = QuadraticLaw(1.0, 0.0, 3.0, 0.0, 1.0)
        cases = (
            ("_head_sums", shifted, -math.log(2 * math.sinh(math.pi * 3 ** 0.5) / 3 ** 0.5)),
            ("_closed_form_at", cp1_law(8), CP1_THETA_PRIME[8]),
        )
        for name, law, want in cases:
            precs = []
            original = getattr(tails, name)

            def inflated(*args, original=original, precs=precs):
                precs.append(getcontext().prec)
                *result, rounding = original(*args)
                return (*result, rounding + (1 if precs[-1] == first else 0))

            monkeypatch.setattr(tails, name, inflated)
            levels.clear()
            _, deriv, err = zeta_log_tail(law, 1)
            assert levels == [30, 60], name
            assert precs == [context(30).prec, context(60).prec], name
            assert deriv == pytest.approx(want, rel=1e-13)
            assert err < 1e-13

    def test_unconverged_series_raises(self, monkeypatch):
        # k^2 + 3 has complex roots: its tail takes the binomial series
        monkeypatch.setattr(tails, "_SERIES_TERM_CAP", 4)
        with pytest.raises(ConvergenceError):
            zeta_log_tail(QuadraticLaw(1.0, 0.0, 3.0, 0.0, 1.0), 1)


def _mp_head(law: QuadraticLaw, k_start: int, k_end: int):
    """(sum mu(k), -sum mu(k) log lam(k)) over k_start <= k < k_end, term by
    term at 40 digits."""
    with mpmath.workdps(40):
        m1, m0 = mpmath.mpf(law.m1), mpmath.mpf(law.m0)
        mus = [m1 * k + m0 for k in range(k_start, k_end)]
        logs = [
            mpmath.log((mpmath.mpf(law.a2) * k + law.a1) * k + law.a0)
            for k in range(k_start, k_end)
        ]
        return mpmath.fsum(mus), -mpmath.fsum(mu * lg for mu, lg in zip(mus, logs))


#: Random quadratic laws lam = a2 [(k + shift)^2 + rho] with
#: rho = rel_rho * (k_start + shift)^2, on both sides of |rho| < q^2.
RANDOM_LAWS = dict(
    a2=st.floats(0.25, 4.0),
    k_start=st.integers(1, 60),
    shift=st.floats(-40.0, 40.0),
    rel_rho=st.floats(-3.0, 3.0),
    m1=st.floats(0.0, 3.0),
    m0=st.floats(-2.0, 5.0),
)


def _random_law(a2, k_start, shift, rel_rho, m1, m0):
    """(law, whether lam(k) > 0 for every k >= k_start)."""
    q = k_start + shift
    rho = rel_rho * max(q * q, 1.0)
    law = QuadraticLaw(a2, 2.0 * a2 * shift, a2 * (rho + shift * shift), m1, m0)
    vertex = math.ceil(-shift) + 1
    positive = all(law.lam(k) > 0 for k in range(k_start, max(k_start, vertex) + 1))
    return law, positive


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(extra=st.integers(0, 200), **RANDOM_LAWS)
def test_additivity_on_random_laws(a2, k_start, shift, rel_rho, m1, m0, extra):
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    if not positive:
        with pytest.raises(DomainError):
            zeta_log_tail(law, k_start)
        return
    k_split = k_start + extra
    full_val, full_deriv, full_err = zeta_log_tail(law, k_start)
    tail_val, tail_deriv, tail_err = zeta_log_tail(law, k_split)
    head_val, head_deriv = map(float, _mp_head(law, k_start, k_split))
    # the float combination below rounds at ~eps of the summands
    rounding = 4e-16 * (abs(head_deriv) + abs(tail_deriv) + abs(full_deriv))
    assert abs(head_deriv + tail_deriv - full_deriv) <= full_err + tail_err + rounding
    assert head_val + tail_val == pytest.approx(full_val, rel=1e-12, abs=1e-9)


#: Laws a2 (k + r1)(k + r2) with both factors positive from k_start on:
#: k_start + r1 = lead, r2 = r1 + gap (double roots are tested separately:
#: in float coefficients they round to complex pairs or split).
REAL_ROOT_LAWS = dict(
    a2=st.floats(0.25, 4.0),
    k_start=st.integers(1, 60),
    lead=st.floats(0.01, 50.0),
    gap=st.floats(0.01, 300.0),
    m1=st.floats(0.0, 3.0),
    m0=st.floats(-2.0, 5.0),
)


def _closed_head(law: QuadraticLaw, k_start: int, K: int):
    """(sum mu(k), -sum mu(k) log lam(k)) over k_start <= k < K at the first
    ladder level, as the difference of the closed forms from k_start and
    from K, asserting the closed form applies."""
    with localcontext(tails._context(30)):
        roots = tails._real_roots(law)
        assert roots is not None and k_start + roots[0] > 0
        full, tail = (tails._closed_form_at(law, k, roots) for k in (k_start, K))
        return full[0] - tail[0], full[1] - tail[1]


def _mp(x: Decimal):
    """A Decimal as an mpmath number, at 260 digits."""
    with mpmath.workdps(260):
        return mpmath.mpf(str(x))


def _assert_heads_agree(got, want):
    """Decimal ``got`` within 1e-25 relative of the mpmath ``want``."""
    with mpmath.workdps(40):
        for g, w in zip(got, want):
            assert abs(_mp(g) - w) <= 1e-25 * abs(w)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(extra=st.integers(0, 3000), **REAL_ROOT_LAWS)
def test_closed_form_head_matches_explicit_head(a2, k_start, lead, gap, m1, m0, extra):
    r1 = lead - k_start
    r2 = r1 + gap
    law = QuadraticLaw(a2, a2 * (r1 + r2), a2 * r1 * r2, m1, m0)
    K = k_start + extra
    got = _closed_head(law, k_start, K)
    want = _mp_head(law, k_start, K)
    _assert_heads_agree(got, want)


@pytest.mark.parametrize("a2, r, k_start", ((1.0, 0.5, 1), (3.0, 0.75, 4), (0.5, -2.25, 3)))
def test_closed_form_head_on_double_root(a2, r, k_start):
    # rho = 0: lam = a2 (k + r)^2, both factors from the same root
    law = QuadraticLaw(a2, 2 * a2 * r, a2 * r * r, 1.5, 0.7)
    assert law.vertex_value == 0.0
    K = split_index(law, k_start) + 200
    got = _closed_head(law, k_start, K)
    want = _mp_head(law, k_start, K)
    _assert_heads_agree(got, want)


def test_circle_bundle_roots_are_exact():
    with localcontext(tails._context(30)):
        for m in (0, 8, 16384):
            assert tails._real_roots(cp1_law(m)) == (0, m + 1)


def test_head_with_both_factors_negative_is_explicit(monkeypatch):
    # (k - 5.3)(k - 5.6) from k_start = 1: both factors are negative up to
    # k = 5, so the sum is split, its head summed term by term and its tail
    # taken from one family; from k_start = 6 it closes, one family per root
    law = QuadraticLaw(1.0, -10.9, 29.68, 1.0, 2.0)
    families = []
    family = tails._HurwitzFamily
    monkeypatch.setattr(tails, "_HurwitzFamily", lambda q: families.append(q) or family(q))
    with localcontext(tails._context(30)):
        got = tails._head_sums(law, 1, 40)
        assert families == []
        _assert_heads_agree(got, _mp_head(law, 1, 40))
        tails._level(law, 1)
        assert len(families) == 1
        families.clear()
        tails._level(law, 6)
    assert len(families) == 2


@pytest.mark.parametrize("rho", (1e4, 1e6))
def test_complex_root_head_at_large_split(rho, monkeypatch):
    # lam = k^2 + rho has complex roots, so the head is summed from the two
    # logarithms of products, however many terms K = 9 sqrt(rho) it has
    law = QuadraticLaw(1.0, 0.0, rho, 2.0, 1.0)
    K = split_index(law, 1)
    assert K == round(9 * math.sqrt(rho))
    logs = []
    ln = tails._ln
    monkeypatch.setattr(tails, "_ln", lambda x: logs.append(x) or ln(x))
    with localcontext(tails._context(30)):
        assert tails._real_roots(law) is None
        got = tails._head_sums(law, 1, K)
    assert len(logs) <= 2
    _assert_heads_agree(got, _mp_head(law, 1, K))


@pytest.mark.parametrize(
    "name, reference",
    (
        ("_ZETA_PRIME_M1_AT_1", lambda: mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher)),
        ("_ZETA_PRIME_0_AT_1", lambda: -mpmath.log(2 * mpmath.pi) / 2),
    ),
)
def test_stored_constants_correct_to_every_digit(name, reference):
    # zeta'(-1, 1) and zeta'(0, 1) are stored, not computed: each stored
    # digit is checked, and there are enough for the top ladder level
    stored = getattr(tails, name)
    digits = len(stored.as_tuple().digits)
    assert digits >= 250
    with mpmath.workdps(300):
        half_ulp = mpmath.mpf(10) ** stored.as_tuple().exponent / 2
        assert abs(mpmath.mpf(str(stored)) - reference()) <= half_ulp


def _per_call_reference(law: QuadraticLaw, k_start: int):
    """(Z(0), Z'(0)) at 120 digits: the same split, head and binomial series as
    ``zeta_log_tail``'s split route, but one mpmath Hurwitz zeta call per
    order and the series run to 1e-40 of the sum.  s, rho and mu_const are
    formed from the law's exact float coefficients."""
    with mpmath.workdps(120):
        K = split_index(law, k_start)
        a2, a1, a0 = (mpmath.mpf(x) for x in (law.a2, law.a1, law.a0))
        m1, m0 = mpmath.mpf(law.m1), mpmath.mpf(law.m0)
        s = a1 / (2 * a2)
        rho = a0 / a2 - s * s
        mu0t = m0 - m1 * s
        mus = [m1 * k + m0 for k in range(k_start, K)]
        head_value = mpmath.fsum(mus)
        head_deriv = -mpmath.fsum(
            mu * mpmath.log((a2 * k + a1) * k + a0) for mu, k in zip(mus, range(k_start, K))
        )
        q = K + s
        value = m1 * mpmath.zeta(-1, q) + mu0t * mpmath.zeta(0, q) - rho * m1 / 2
        deriv = (
            2 * m1 * mpmath.zeta(-1, q, 1)
            + 2 * mu0t * mpmath.zeta(0, q, 1)
            + rho * m1 * mpmath.digamma(q)
            - rho * mu0t * mpmath.zeta(2, q)
        )
        for i in range(2, 200):
            term = (-rho) ** i / i * (m1 * mpmath.zeta(2 * i - 1, q) + mu0t * mpmath.zeta(2 * i, q))
            deriv += term
            if abs(term) <= 1e-40 * abs(head_deriv + deriv):
                break
        else:
            raise AssertionError("reference series did not converge")
        deriv -= mpmath.log(a2) * value
        return float(head_value + value), float(head_deriv + deriv)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**RANDOM_LAWS)
def test_matches_per_call_reference_on_random_laws(a2, k_start, shift, rel_rho, m1, m0):
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    assume(positive)
    val, deriv, err = zeta_log_tail(law, k_start)
    want_val, want_deriv = _per_call_reference(law, k_start)
    assert abs(deriv - want_deriv) <= err
    assert val == pytest.approx(want_val, rel=1e-13, abs=1e-12)


def _closed_form_reference(law: QuadraticLaw, k_start: int):
    """(Z(0), Z'(0)) at 70 digits from the roots of the law's exact float
    coefficients: the closed form of ``zeta_log_tail``'s docstring, with
    mpmath's Hurwitz zeta; None when the roots are complex or
    k_start + r1 <= 0."""
    with mpmath.workdps(70):
        a2, a1, a0, m1, m0 = map(mpmath.mpf, (law.a2, law.a1, law.a0, law.m1, law.m0))
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return None
        r1, r2 = sorted((a1 + sign * mpmath.sqrt(disc)) / (2 * a2) for sign in (-1, 1))
        if k_start + r1 <= 0:
            return None
        value = deriv = 0
        for r in (r1, r2):
            q, c = k_start + r, m0 - m1 * r
            value += (m1 * mpmath.zeta(-1, q) + c * mpmath.zeta(0, q)) / 2
            deriv += m1 * mpmath.zeta(-1, q, 1) + c * mpmath.zeta(0, q, 1)
        deriv -= m1 * (r2 - r1) ** 2 / 4 + mpmath.log(a2) * value
        return float(value), float(deriv)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**RANDOM_LAWS)
def test_error_covers_exact_coefficient_reference_on_random_laws(
    a2, k_start, shift, rel_rho, m1, m0
):
    # real roots past k_start against the closed form, other laws against the
    # binomial reference, both from the exact float coefficients; with s, rho
    # and mu_const taken as rounded floats most laws fell outside the error
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    assume(positive)
    val, deriv, err = zeta_log_tail(law, k_start)
    want = _closed_form_reference(law, k_start) or _per_call_reference(law, k_start)
    assert abs(deriv - want[1]) <= err
    assert val == pytest.approx(want[0], rel=1e-13, abs=1e-12)


def _level(law: QuadraticLaw, k_start: int, dps: int):
    """(Z'(0), rounding bound) of one ladder level, head included, as the
    Decimal before any float rounding."""
    with localcontext(tails._context(dps)):
        _, deriv, _, _, rounding = tails._level(law, k_start)
    return deriv, rounding


def _assert_bound_covers_drift(law: QuadraticLaw, k_start: int):
    """The first level's rounding bound is at least its exact distance to
    the second level, head and tail recomputed there."""
    deriv30, rounding = _level(law, k_start, 30)
    deriv60, _ = _level(law, k_start, 60)
    drift = abs(deriv30 - deriv60)
    assert drift < Decimal("1e-20") * (abs(deriv60) + 1)  # not a float-rounded difference
    assert Decimal(rounding) >= drift, (rounding, drift)
    return drift


@pytest.mark.parametrize("m", (1, 2, 3, *(2 ** p for p in range(3, 23))))
def test_rounding_bound_covers_drift_on_circle_bundle(m):
    assert _assert_bound_covers_drift(cp1_law(m), 1) > 0


def _without_constant_part(law: QuadraticLaw) -> QuadraticLaw:
    """``law`` with m0 = m1 a1 / (2 a2): mu_const is exactly 0, as for the
    circle bundle, so ``zeta_log_tail`` skips the even Hurwitz orders."""
    law = dataclasses.replace(law, m0=law.m1 * law.a1 / (2.0 * law.a2))
    assert law.mu_const == 0.0
    return law


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**RANDOM_LAWS)
def test_rounding_bound_covers_drift_on_random_laws(a2, k_start, shift, rel_rho, m1, m0):
    # mu_const != 0: the even Hurwitz orders are summed
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    assume(positive and law.mu_const != 0.0)
    _assert_bound_covers_drift(law, k_start)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**RANDOM_LAWS)
def test_rounding_bound_covers_drift_without_constant_part(a2, k_start, shift, rel_rho, m1, m0):
    # mu_const = 0: the even Hurwitz orders are skipped
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    assume(positive)
    _assert_bound_covers_drift(_without_constant_part(law), k_start)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(**RANDOM_LAWS)
def test_matches_per_call_reference_without_constant_part(a2, k_start, shift, rel_rho, m1, m0):
    law, positive = _random_law(a2, k_start, shift, rel_rho, m1, m0)
    assume(positive)
    law = _without_constant_part(law)
    val, deriv, err = zeta_log_tail(law, k_start)
    want_val, want_deriv = _per_call_reference(law, k_start)
    assert abs(deriv - want_deriv) <= err
    assert val == pytest.approx(want_val, rel=1e-13, abs=1e-12)


class TestHurwitzFamily:
    # mpmath's Hurwitz zeta loses about (j - 1) log10 q digits, so the
    # reference runs with that many guard digits on top of 250
    @pytest.mark.parametrize("q", ("0.5", "3", "40.5", "292.5", "1e4"))
    def test_against_mpmath_at_every_ladder_level(self, q):
        orders = range(2, 41)
        want = {}
        for j in orders:
            guard = math.ceil((j - 1) * math.log10(max(float(q), 1.0)))
            with mpmath.workdps(250 + guard):
                want[j] = mpmath.zeta(j, mpmath.mpf(q))
        shifts = set()
        for dps in tails._LADDER:
            with localcontext(tails._context(dps)):
                eps = tails._eps()
                family = tails._HurwitzFamily(Decimal(q))
                shifts.add(len(family._bases))
                got = {
                    j: family.next(eps * Decimal(mpmath.nstr(want[j], 20))) for j in orders
                }
            with mpmath.workdps(260):
                for j in orders:
                    assert abs(_mp(got[j]) - want[j]) <= 6 * _mp(eps) * want[j], (dps, j)
        # (unshifted, shifted) branches taken: 40.5 is shifted from 60 digits on
        branches = {"0.5": (False, True), "3": (False, True), "40.5": (True, True)}
        assert (0 in shifts, max(shifts) > 0) == branches.get(q, (True, False))

    @staticmethod
    def _assert_special_values(q: str, family_at):
        """zeta'(-1, q), zeta'(0, q) and digamma(q) of ``family_at()``, built
        at every ladder level, within 4 eps of mpmath's."""
        with mpmath.workdps(250):
            x = mpmath.mpf(q)
            want = {
                "zeta'(-1, q)": mpmath.zeta(-1, x, 1),
                "zeta'(0, q)": mpmath.loggamma(x) - mpmath.log(2 * mpmath.pi) / 2,
                "digamma(q)": mpmath.digamma(x),
            }
        for dps in tails._LADDER:
            with localcontext(tails._context(dps)):
                eps = tails._eps()
                family = family_at()
                got = {
                    "zeta'(-1, q)": family.zeta_prime_m1(),
                    "zeta'(0, q)": family.zeta_prime_0(),
                    "digamma(q)": family.digamma(),
                }
            with mpmath.workdps(260):
                for name, value in got.items():
                    err = abs(_mp(value) - want[name])
                    assert err <= 4 * _mp(eps) * abs(want[name]), (dps, name)

    @pytest.mark.parametrize("q", ("0.5", "3", "40.5", "292.5", "1e4"))
    def test_special_values_against_mpmath_at_every_ladder_level(self, q):
        self._assert_special_values(q, lambda: tails._HurwitzFamily(Decimal(q)))

    def test_table_exhaustion_raises(self):
        with localcontext(tails._context(30)):
            family = tails._HurwitzFamily(Decimal(3))
            with pytest.raises(ConvergenceError):
                family.next(Decimal(0))

    def test_bernoulli_ratios_exact(self):
        for dps in tails._LADDER:
            prec = tails._context(dps).prec
            for i in (1, 2, 7, 30, tails._EM_TERM_CAP):
                got = tails._bernoulli_ratio(i, prec)
                with mpmath.workdps(260):
                    p, d = mpmath.bernfrac(2 * i)
                    want = mpmath.mpf(p) / (d * math.factorial(2 * i))
                    eps = _mp(Decimal(1).scaleb(1 - prec))
                    assert abs(_mp(got) - want) <= eps * abs(want), (prec, i)


def test_law_validation():
    with pytest.raises(DomainError):
        QuadraticLaw(0.0, 1.0, 0.0, 1.0, 1.0)


#: Where a law enters the program, each entry point building its own.
_LAW_ENTRIES = {
    "from_law": lambda law: SpectrumTable.from_law([], 1, QuadraticTail(5, law, (0, 1), True)),
    "zeta_log_tail": lambda law: zeta_log_tail(law, 1),
    "em_heat_series": lambda law: em_heat_series(law, 1, 4.5),
    "tail_bound": lambda law: tail_bound(law, 1, 0.1),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("field", ("a2", "a1", "a0", "m1", "m0"))
@pytest.mark.parametrize("entry", sorted(_LAW_ENTRIES))
def test_non_finite_law_coefficient_is_named(entry, field, bad):
    # from_law raised a bare ValueError for m0 = nan and an OverflowError for
    # m0 = inf, and built a table for a2 = inf; zeta_log_tail raised
    # decimal.InvalidOperation and em_heat_series blamed an endpoint
    # derivative: the law now refuses the coefficient by name
    with pytest.raises(DomainError, match=rf"coefficient {field} must be finite"):
        _LAW_ENTRIES[entry](dataclasses.replace(cp1_law(8), **{field: bad}))
