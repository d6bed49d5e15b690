"""Torsion pipeline: expansion-coefficient extraction, the two independent
routes to the regularized derivative at zero, the asymptotic right-hand side,
the rescaled scaling identity, and report serialization."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from crtorsion.errors import ArityError, CrTorsionError, DomainError, TwoPathMismatchError
from crtorsion.mellin import DEFAULT_TOL, GAMMA_PRIME_1
from crtorsion.spectra import (
    QuadraticTail,
    SpectrumTable,
    cp1_geometry,
    cp1_spectrum,
    trace_degree,
)
from crtorsion.tails import QuadraticLaw, em_heat_series, zeta_log_tail
from crtorsion.torsion import (
    TorsionReport,
    asympt_sweep,
    closed_form_bhat,
    extract_bhat,
    reports_to_csv,
    reports_to_json,
    residual_trend_ok,
    theta_prime_zero_direct_result,
    theta_prime_zero_result,
    torsion_report,
    torsion_rhs,
)

from law_listing import listed

TWO_PI = 2.0 * math.pi

# validated independently against the classical round-sphere determinant
ROUND_SPHERE_THETA_PRIME = -1.1616845748018036


def random_finite_spectrum(rng, n=1, max_lines=50):
    n_lines = int(rng.integers(3, max_lines + 1))
    lines = [
        (
            int(rng.integers(0, n + 1)),
            float(rng.uniform(0.4, 25.0)),
            int(rng.integers(1, 5)),
        )
        for _ in range(n_lines)
    ]
    if rng.uniform() < 0.5:
        lines.append((0, 0.0, int(rng.integers(1, 4))))
    return SpectrumTable.from_lines(lines, n=n)


class TestClosedFormBhat:
    def test_finite_taylor(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 3)], n=1)
        bh = closed_form_bhat(spec, j_max=6)
        # STr N e^{-t Box} = -3 e^{-2t} = -3 + 6 t - 6 t^2 + ...
        assert bh[0] == 0.0 and bh[1] == 0.0
        assert bh[2] == pytest.approx(-3.0)
        assert bh[4] == pytest.approx(6.0)
        assert bh[6] == pytest.approx(-6.0)

    def test_cp1_euler_maclaurin_values(self):
        m = 20
        bh = closed_form_bhat(cp1_spectrum(m, 64))
        M = m + 1
        assert bh[0] == pytest.approx(-1.0, rel=1e-12)
        assert bh[1] == pytest.approx(0.0, abs=1e-12)
        assert bh[2] == pytest.approx(M / 2 + 1 / 6, rel=1e-12)
        assert bh[4] == pytest.approx(-(M * M / 12 - 1 / 60), rel=1e-11)

    def test_independent_of_truncation(self):
        a = closed_form_bhat(cp1_spectrum(7, 64))
        b = closed_form_bhat(cp1_spectrum(7, 4096))
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m", (8, 128, 16384))
    def test_long_ladder_extends_default(self, m):
        # j_max = 2 + 16 needs 12 Euler-Maclaurin corrections; the ladder
        # only grows, and the shared coefficients do not move
        spec = cp1_spectrum(m, 4 * m)
        long = closed_form_bhat(spec, j_max=2 + 16)
        assert len(long) == 19
        assert long[:11] == closed_form_bhat(spec)

    def test_float_range_is_a_named_error(self):
        # at m = 16384 the endpoint derivatives of order ~70 leave the float
        # range; 2 + 60 still fits
        spec = cp1_spectrum(16384, 65536)
        assert all(map(math.isfinite, closed_form_bhat(spec, j_max=2 + 60)))
        with pytest.raises(DomainError, match=r"j_max = 82: the order-\d+ endpoint.*QuadraticLaw"):
            closed_form_bhat(spec, j_max=2 + 80)


def _taylor_loop(lines, n, j_max):
    """Reference: Taylor coefficients of sum (-1)^q q mult e^{-lam t},
    accumulated line by line, with each slot's sum of |terms|."""
    coeffs, scale = [0.0] * (j_max + 1), [0.0] * (j_max + 1)
    for q, lam, mult in lines:
        w = q if q % 2 == 0 else -q
        for p in range((j_max - 2 * n) // 2 + 1):
            term = w * mult * ((-lam) ** p / math.factorial(p) if p else 1.0)
            coeffs[2 * n + 2 * p] += term
            scale[2 * n + 2 * p] += abs(term)
    return coeffs, scale


def _log_loop(lines):
    """Reference: sum of (-1)^q q mult log(lam) line by line, and sum |terms|."""
    terms = [(q if q % 2 == 0 else -q) * mult * math.log(lam) for q, lam, mult in lines if lam > 0]
    return math.fsum(terms), math.fsum(abs(x) for x in terms)


class TestLinesOutsideLaw:
    # closed_form_bhat and the direct route sum the lines outside the tail
    # law with numpy; the loops above are the reference (numpy's pow and log
    # may differ from libm's by an ulp, hence the eps-sized tolerances)

    def test_finite_tables_match_loops(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            spec = random_finite_spectrum(rng, n=n)
            j_max = 2 * n + 8
            want, scale = _taylor_loop(spec.lines.tolist(), n, j_max)
            got = closed_form_bhat(spec, j_max)
            for g, w, s in zip(got, want, scale):
                assert abs(g - w) <= 1e-14 * s
            want, scale = _log_loop(spec.lines.tolist())
            assert abs(theta_prime_zero_direct_result(spec)[0] - want) <= 1e-15 * scale

    def test_law_mask_keeps_only_extra_lines(self):
        from crtorsion.spectra import QuadraticTail

        m, k_max = 5, 40
        base = cp1_spectrum(m, k_max)
        # off the law k(k+6), on it but past k_max, degree 0 (weight zero),
        # and a degree-1 zero mode
        extra = [(1, 7.5, 2), (1, 51.0 * 57.0, 1), (0, 3.3, 4), (1, 0.0, 1)]
        tail = QuadraticTail(k_max + 1, base.tail.law, (0, 1), covers_all_lines=True)
        spec = SpectrumTable.from_lines(listed(base).tolist() + extra, n=1, tail=tail)
        want, scale = _taylor_loop(extra, 1, 10)
        for g, b, w, s in zip(closed_form_bhat(spec), closed_form_bhat(base), want, scale):
            assert abs((g - b) - w) <= 1e-14 * (abs(b) + s)
        direct, base_direct = (theta_prime_zero_direct_result(x)[0] for x in (spec, base))
        want, scale = _log_loop(extra)
        assert abs((direct - base_direct) - want) <= 1e-14 * (abs(base_direct) + scale)
        # the same table with the law lines implied, not stored
        implied = SpectrumTable.from_law([(0, 0.0, m + 1)] + extra, n=1, tail=tail)
        assert np.array_equal(listed(implied), spec.lines)
        assert closed_form_bhat(implied) == closed_form_bhat(spec)
        assert theta_prime_zero_direct_result(implied) == theta_prime_zero_direct_result(spec)


class TestExtractBhat:
    def test_cp1_fit_matches_closed_form(self):
        m = 20
        spec = cp1_spectrum(m, 2048)
        grid = np.geomspace(2e-4, 2e-2, 40)
        fit = extract_bhat(spec, 5, grid)
        bh = closed_form_bhat(spec)
        assert fit[0] == pytest.approx(bh[0], rel=1e-6)
        assert fit[0] < 0
        # no significant half-power term for the free action: the fitted
        # t^{-1/2} slot sits at grid-bias level, tiny against the t^0 scale
        assert abs(fit[1]) < 1e-4
        assert abs(fit[1]) < 1e-5 * abs(fit[2])
        assert fit[2] == pytest.approx(bh[2], rel=5e-4)

    def test_grid_below_floor_rejected(self):
        spec = cp1_spectrum(4, 32)  # tiny table: floor is large
        with pytest.raises(DomainError):
            extract_bhat(spec, 4, [1e-7, 1e-6, 1e-5, 1e-4, 1e-3])

    def test_rescaled_coefficients_approach_density_limit(self):
        # bhat_0 / m -> (1/2pi) * hatA_0 integral = 1/2 over the m-sweep
        vals = []
        for m in (16, 32, 64):
            spec = cp1_spectrum(m, 2048)
            grid = np.geomspace(2e-4, 2e-2, 40)
            fit = extract_bhat(spec, 5, grid)
            vals.append(fit[2] / m)
        errs = [abs(v - 0.5) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.02
        # bhat_{-1} is already at its limit -1
        spec = cp1_spectrum(64, 2048)
        fit = extract_bhat(spec, 5, np.geomspace(2e-4, 2e-2, 40))
        assert fit[0] == pytest.approx(-1.0, abs=1e-4)


class TestHeatRoute:
    def test_no_nonzero_modes_gives_zero(self):
        spec = SpectrumTable.from_lines([(0, 0.0, 4)], n=1)
        got = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
        assert got == 0.0

    def test_one_line_zeta_oracle(self):
        for lam, mult in ((2.0, 1), (5.0, 3)):
            spec = SpectrumTable.from_lines([(1, lam, mult)], n=1)
            got = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
            assert got == pytest.approx(-mult * math.log(lam), abs=1e-10)

    @pytest.mark.parametrize("lam, mult", [(2.0, 1), (5.0, 3)])
    def test_value_at_zero_is_theta0(self, lam, mult):
        # theta(0) = -M[STr N e^{-t Box}](0) = -(-mult) for one degree-1 line
        spec = SpectrumTable.from_lines([(1, lam, mult)], n=1)
        res = theta_prime_zero_result(spec, closed_form_bhat(spec))
        assert res.value0 == mult

    def test_bhat_arity(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 1)], n=1)
        with pytest.raises(ArityError):
            theta_prime_zero_result(spec, [0.0, 0.0]).derivative0

    def test_gamma_mutation_shifts_by_exact_amount(self):
        # replacing Gamma'(1) by 0 must change the result by exactly
        # |Gamma'(1) (bhat_0 - STr N kernel)|
        rng = np.random.default_rng(77)
        spec = random_finite_spectrum(rng)
        bh = closed_form_bhat(spec)
        base = theta_prime_zero_result(spec, bh).derivative0
        mutated = theta_prime_zero_result(spec, bh, gamma_prime_1=0.0).derivative0
        expected_shift = abs(
            GAMMA_PRIME_1 * (bh[2] - spec.supertrace_N_kernel())
        )
        assert abs(base - mutated) == pytest.approx(expected_shift, rel=1e-12)


class TestDirectRoute:
    def test_single_line(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 1)], n=1)
        assert theta_prime_zero_direct_result(spec)[0] == pytest.approx(-math.log(2.0))

    def test_log_additivity(self):
        spec = SpectrumTable.from_lines([(1, 2.0, 1), (1, 8.0, 1)], n=1)
        assert theta_prime_zero_direct_result(spec)[0] == pytest.approx(-math.log(16.0))

    def test_round_sphere_value(self):
        spec = cp1_spectrum(0, 512)
        got = theta_prime_zero_direct_result(spec)[0]
        assert got == pytest.approx(ROUND_SPHERE_THETA_PRIME, abs=1e-10)

    @pytest.mark.parametrize("m", [2**e for e in range(0, 23, 2)])
    def test_bound_covers_closed_form_error(self, m):
        # theta'(0) = 4 zeta'(-1) + 2 log H(N) - N log N! - N^2 / 2, N = m + 1,
        # with log H(N) = sum_{j <= N} j log j = zeta'(-1, N + 1) - zeta'(-1)
        direct, err = theta_prime_zero_direct_result(cp1_spectrum(m))
        actual = _cp1_closed_form_error(m, direct)
        assert actual <= err <= 100 * actual

    def test_stable_under_kmax_doubling(self):
        a = theta_prime_zero_direct_result(cp1_spectrum(10, 10_000))[0]
        b = theta_prime_zero_direct_result(cp1_spectrum(10, 20_000))[0]
        assert abs(a - b) < 1e-6


def _cp1_closed_form_error(m: int, value: float) -> float:
    """|value - theta'(0)| for the circle bundle at weight m, where
    theta'(0) = 4 zeta'(-1) + 2 log H(N) - N log N! - N^2 / 2, N = m + 1,
    with log H(N) = sum_{j <= N} j log j = zeta'(-1, N + 1) - zeta'(-1)."""
    with mpmath.workdps(50):
        n = m + 1
        zeta_prime = mpmath.zeta(-1, 1, 1)
        log_h = mpmath.zeta(-1, n + 1, 1) - zeta_prime
        exact = 4 * zeta_prime + 2 * log_h - n * mpmath.loggamma(n + 1) - mpmath.mpf(n) ** 2 / 2
        return float(abs(mpmath.mpf(value) - exact))


def _three_degree_law_table() -> SpectrumTable:
    law = QuadraticLaw(a2=1.0, a1=3.0, a0=0.0, m1=2.0, m0=3.0)
    tail = QuadraticTail(k_next=65, law=law, degrees=(0, 1, 2), covers_all_lines=True)
    return SpectrumTable.from_law([(0, 0.0, 3)], n=2, tail=tail)


class TestTwoPathConsistency:
    def test_finite_random_spectra(self):
        rng = np.random.default_rng(123)
        for _ in range(8):
            spec = random_finite_spectrum(rng, n=int(rng.integers(1, 3)))
            heat = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
            direct = theta_prime_zero_direct_result(spec)[0]
            assert abs(heat - direct) < 1e-10

    def test_cp1_m10(self):
        spec = cp1_spectrum(10, 10_000)
        heat = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
        direct = theta_prime_zero_direct_result(spec)[0]
        assert abs(heat - direct) < 1e-5

    def test_positive_degree_kernel_bookkeeping(self):
        # zero modes in degrees >= 1 feed the Gamma-term through
        # bhat_0 - STr[N kernel]; both routes must still agree exactly
        spec = SpectrumTable.from_lines(
            [(1, 0.0, 3), (1, 2.0, 1), (2, 5.0, 2), (0, 0.0, 4)], n=2
        )
        assert spec.supertrace_N_kernel() == -3.0
        heat = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
        direct = theta_prime_zero_direct_result(spec)[0]
        want = -math.log(2.0) + 4.0 * math.log(5.0)
        assert direct == pytest.approx(want, rel=1e-15)
        assert abs(heat - direct) < 1e-10

    def test_three_degree_law_matches_per_degree_sums(self):
        # an n = 2 law table in degrees 0, 1, 2: the tail weight -1 + 2 adds
        # the same terms as a per-degree loop, -c and 2c, with no rounding
        spec = _three_degree_law_table()
        tail = spec.tail
        series = em_heat_series(tail.law, tail.k_first, 4.5)
        want = [0.0] * 13
        for q in tail.degrees:
            w = -q if q % 2 else q
            for j in range(13):
                e = -2 + j / 2.0
                if q and series.base_order <= e and 2 * e < series.trunc2:
                    want[j] += w * series.coefficient(e)
        assert closed_form_bhat(spec) == want
        _, deriv, _ = zeta_log_tail(tail.law, tail.k_first)
        terms = [(q if q % 2 else -q) * deriv for q in tail.degrees if q]
        assert theta_prime_zero_direct_result(spec)[0] == math.fsum(terms)

    def test_report_rejects_geometry_of_another_dimension(self):
        with pytest.raises(DomainError, match="n = 2.*n = 1"):
            torsion_report(_three_degree_law_table(), cp1_geometry(), 8)

    def test_round_sphere_heat_route(self):
        spec = cp1_spectrum(0, 2048)
        heat = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
        assert heat == pytest.approx(ROUND_SPHERE_THETA_PRIME, abs=1e-7)

    def test_coefficient_error_propagation(self):
        # the expansion certificate is trusted: an error eps in the t^{-1}
        # slot shifts the result by ~eps/floor, and in the t^0 slot by
        # ~eps (log(1/floor) - EULER_GAMMA).  This is why the singular ladder
        # comes from closed forms (or must be fitted to matching accuracy).
        from crtorsion.spectra import supertrace_trust_floor

        m = 12
        spec = cp1_spectrum(m, 4096)
        floor = supertrace_trust_floor(spec, 1e-13)
        bh = closed_form_bhat(spec)
        base = theta_prime_zero_result(spec, bh).derivative0
        eps = 1e-3
        low = list(bh)
        low[0] += eps  # t^{-1} slot
        shifted = theta_prime_zero_result(spec, low).derivative0
        assert abs(shifted - base) == pytest.approx(eps / floor, rel=0.2)
        mid = list(bh)
        mid[2] += eps  # t^0 slot
        shifted0 = theta_prime_zero_result(spec, mid).derivative0
        assert abs(shifted0 - base) == pytest.approx(
            eps * (math.log(1.0 / floor) - 0.5772156649), rel=0.2
        )

    def test_fitted_coefficients_agree_at_fit_accuracy(self):
        from crtorsion.spectra import supertrace_trust_floor

        m = 12
        spec = cp1_spectrum(m, 4096)
        floor = supertrace_trust_floor(spec, 1e-13)
        grid = np.geomspace(1e-4, 2e-2, 48)
        fitted = list(extract_bhat(spec, 5, grid).coeffs)
        bh = closed_form_bhat(spec)
        hybrid = fitted + list(bh[5:])  # extended floor-model terms stay exact
        heat = theta_prime_zero_result(spec, hybrid).derivative0
        direct = theta_prime_zero_direct_result(spec)[0]
        budget = 3.0 * (
            abs(fitted[0] - bh[0]) / floor
            + 2.0 * abs(fitted[1] - bh[1]) / math.sqrt(floor)
            + 14.0 * abs(fitted[2] - bh[2])
            + 2.0 * abs(fitted[3] - bh[3])
            + abs(fitted[4] - bh[4])
        ) + 1e-8
        assert abs(heat - direct) < budget


class TestRhs:
    def test_unit_log_argument_vanishes(self):
        geom = cp1_geometry()
        m = 7
        levi = geom.levi.__class__(1, (TWO_PI / m,))
        model = geom.__class__(1, levi, geom.volume, 1)
        assert torsion_rhs(model, m) == pytest.approx(0.0, abs=1e-14)

    def test_formula_unrolled(self):
        geom = cp1_geometry()
        V = geom.volume
        for m in (3, 12):
            want = (1.0 / (4 * math.pi)) * m * math.log(m / TWO_PI) * (1 / TWO_PI) * V
            assert torsion_rhs(geom, m) == pytest.approx(want, rel=1e-14)

    def test_rank_linearity(self):
        one = torsion_rhs(cp1_geometry(rank_e=1), 9)
        two = torsion_rhs(cp1_geometry(rank_e=2), 9)
        assert two == pytest.approx(2.0 * one, rel=1e-14)


def _scaling_identity_gap(spec, rep):
    """|theta'(0) / m^n + log m theta~(0) - theta~'(0)| between the unscaled
    heat route and the report's theta~."""
    unscaled = theta_prime_zero_result(spec, closed_form_bhat(spec)).derivative0
    return abs(
        unscaled / float(rep.m) ** spec.n
        + math.log(rep.m) * rep.theta_tilde_0
        - rep.theta_tilde_prime_0
    )


class TestScalingIdentity:
    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_identity_gap_small(self, m):
        spec = cp1_spectrum(m, max(1024, m * m))
        rep = torsion_report(spec, cp1_geometry(), m)
        assert _scaling_identity_gap(spec, rep) < 1e-8
        assert rep.supertrace_N_kernel == 0.0
        # the theta~ quadrature's own estimate, which the heat error scales
        assert 0.0 < rep.theta_tilde_error < 1e-10

    def test_tilde_limits(self):
        # theta~(0) -> -1/2 and theta~'(0) -> -log(2 pi)/2 as m grows
        t0_target = -0.5
        tp_target = -0.5 * math.log(TWO_PI)
        rows = []
        for m in (8, 32):
            rep = torsion_report(cp1_spectrum(m, 1024 if m < 32 else 4096), cp1_geometry(), m)
            rows.append(rep)
        errs0 = [abs(r.theta_tilde_0 - t0_target) for r in rows]
        errsp = [abs(r.theta_tilde_prime_0 - tp_target) for r in rows]
        assert errs0[1] < errs0[0]
        assert errsp[1] < errsp[0]
        # exact finite-m value of theta~(0) is -(m+1)/(2m) - 1/(6m)
        for r, m in zip(rows, (8, 32)):
            assert r.theta_tilde_0 == pytest.approx(
                -(m + 1) / (2 * m) - 1 / (6 * m), rel=1e-10
            )


    def test_zero_modes_only_report(self):
        # no nonzero line: both Mellin inputs fall back to the null decay
        # certificate and both derivatives vanish
        spec = SpectrumTable.from_lines([(1, 0.0, 2), (0, 0.0, 1)], n=1)
        rep = torsion_report(spec, cp1_geometry(), 8)
        assert rep.theta_prime_0 == 0.0
        assert rep.theta_tilde_prime_0 == 0.0
        assert rep.theta_prime_0_direct == 0.0

    def test_tilde_floor_past_one_rejected(self):
        # m * floor = 2.0 here: the rescaled table is not trusted anywhere
        # on (0, 1], so the report must refuse rather than integrate it
        spec = cp1_spectrum(32, 16)
        with pytest.raises(DomainError, match=r"m = 32: .*m\*floor = 2"):
            torsion_report(spec, cp1_geometry(), 32)


class TestTableLength:
    def test_default_table_passes_the_gate_at_every_weight(self):
        # with m^2 lines, m = 131, 135, 147, 167 and 227 exceeded the budget
        geometry = cp1_geometry()
        for m in range(1, 1025):
            torsion_report(cp1_spectrum(m), geometry, m)

    def test_table_too_short_for_weight(self):
        with pytest.raises(DomainError) as exc:
            torsion_report(cp1_spectrum(32, 16), cp1_geometry(), 32)
        assert (
            "m = 32: the trust floor t = 0.0625 of a table that stops at k_next = 17, "
            "rescaled to m*floor = 2, reaches t = 1" in str(exc.value)
        )

    def test_table_too_short_for_the_heat_route(self):
        # a floor past t = 1 before any rescale: the rescaled route, the
        # report's only Mellin call, refuses and names the weight, the floor
        # and the table's k_next = k_max + 1, not an internal m = 1
        with pytest.raises(DomainError) as exc:
            torsion_report(cp1_spectrum(8, 1), cp1_geometry(), 8)
        assert (
            "m = 8: the trust floor t = 4 of a table that stops at k_next = 2, "
            "rescaled to m*floor = 32, reaches t = 1; "
            "the spectrum table is too short for this weight" in str(exc.value)
        )
        assert "m = 1" not in str(exc.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: torsion_report(cp1_spectrum(8, 0), cp1_geometry(), 8),
            lambda: torsion_report(cp1_spectrum(8, -5), cp1_geometry(), 8),
            lambda: asympt_sweep(cp1_geometry(), lambda m: cp1_spectrum(m, 0), [8, 16]),
        ],
        ids=["torsion-kmax0", "torsion-kmax-neg", "sweep-kmax0"],
    )
    def test_k_max_below_one_is_named_error(self, build):
        # 0 is a value, not "use the default"
        with pytest.raises(DomainError, match="k_max must be >= 1"):
            build()


class TestMetricRescaling:
    def test_geometry_and_spectrum_rescale_consistently(self):
        # scaling every eigenvalue by c (metric rescale) multiplies the Levi
        # eigenvalue by c and the volume by 1/c^n; the regularized derivative
        # shifts exactly by -log(c) theta(0) and the residual by
        # (2/3) log(c)/m for this family.  Exercises the a2 != 1 continuation
        # and the right-hand side in one end-to-end identity.
        from crtorsion.density import LeviSpectrum
        from crtorsion.spectra import GeometryModel, QuadraticTail
        from crtorsion.tails import QuadraticLaw

        c, m = 2.5, 16
        base = cp1_spectrum(m, 2048)
        lines = [(q, c * lam, mult) for (q, lam, mult) in listed(base)]
        law = QuadraticLaw(c, c * (m + 1), 0.0, 2.0, float(m + 1))
        tail = QuadraticTail(
            k_next=2049, law=law, degrees=(0, 1), covers_all_lines=True, k_first=1
        )
        scaled_spec = SpectrumTable.from_lines(lines, n=1, tail=tail)
        geom = GeometryModel(1, LeviSpectrum(1, (c,)), 4 * math.pi ** 2 / c, 1)
        rep0 = torsion_report(base, cp1_geometry(), m)
        rep1 = torsion_report(scaled_spec, geom, m)
        theta0 = -(m + 1) / 2 - 1 / 6
        assert rep1.theta_prime_0 == pytest.approx(
            rep0.theta_prime_0 - math.log(c) * theta0, abs=1e-9
        )
        assert abs(rep1.theta_prime_0 - rep1.theta_prime_0_direct) < 1e-9
        assert rep1.residual - rep0.residual == pytest.approx(
            (2.0 / 3.0) * math.log(c) / m, abs=1e-10
        )


class TestSweep:
    def test_reports_and_trend(self):
        reports = asympt_sweep(
            cp1_geometry(),
            lambda m: cp1_spectrum(m, 1024),
            [8, 16, 32, 64],
        )
        assert [r.m for r in reports] == [8, 16, 32, 64]
        resids = [abs(r.residual) for r in reports]
        assert all(b < a for a, b in zip(resids, resids[1:]))
        assert residual_trend_ok(reports)

    def test_ms_must_increase(self):
        with pytest.raises(DomainError):
            asympt_sweep(cp1_geometry(), lambda m: cp1_spectrum(m, 64), [8, 8])

    def test_two_path_budget_enforced(self):
        with pytest.raises(TwoPathMismatchError):
            TorsionReport(
                m=2,
                theta_prime_0=1.0,
                theta_prime_0_direct=2.0,
                bhat=(0.0,),
                rhs=0.0,
                residual=0.0,
                error_budget=1e-6,
            )


def _report_or_error(spec, m):
    try:
        return dataclasses.asdict(torsion_report(spec, cp1_geometry(), m))
    except DomainError as exc:
        return repr(exc)


class TestLawBackedReports:
    @pytest.mark.parametrize("k_max", [1, 4, 1024])
    @pytest.mark.parametrize("m", [0, 1, 8, 128])
    def test_same_report_as_stored_rows(self, m, k_max):
        spec = cp1_spectrum(m, k_max)
        stored = SpectrumTable.from_lines(listed(spec).tolist(), n=1, tail=spec.tail)
        assert _report_or_error(cp1_spectrum(m, k_max), m) == _report_or_error(stored, m)

    def test_report_never_builds_lines(self):
        # a law table refuses to list its lines, so a report that listed
        # them would raise
        spec = cp1_spectrum(128, 128 * 128)
        torsion_report(spec, cp1_geometry(), 128)
        with pytest.raises(DomainError, match="does not list its lines"):
            spec.lines
        assert spec.stored.size == 1

    @pytest.mark.parametrize("m", [8, 65536])
    def test_report_makes_no_pass_over_an_empty_outside_law_set(self, m, monkeypatch):
        # a circle-bundle table has no weighted line outside its law: the
        # Taylor terms of closed_form_bhat (np.cumsum) and the log terms of
        # the direct route (np.log) are never formed
        def refuse(*args, **kwargs):
            raise AssertionError("a pass over the lines outside the law")

        monkeypatch.setattr(np, "cumsum", refuse)
        monkeypatch.setattr(np, "log", refuse)
        report = torsion_report(cp1_spectrum(m), cp1_geometry(), m)
        assert report.m == m

    def test_readers_never_list_a_law_table(self):
        # the oracle gate, a report, the plain traces and the gap all read
        # the circle bundle's table from its law; listing it would raise
        from crtorsion.oracle import validate_cp1
        from crtorsion.spectra import spectral_gap

        assert validate_cp1().passed
        for m in (1, 64, 1000):
            spec = cp1_spectrum(m)
            with pytest.raises(DomainError, match="does not list its lines"):
                spec.lines
            torsion_report(spec, cp1_geometry(), m)
            for q in (0, 1):
                assert trace_degree(spec, q, 1e-3 / m).value > 0.0
                assert spectral_gap(spec, q) == m + 2.0

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_named_before_the_trust_floor(self, tol, monkeypatch):
        # the tolerance is checked where it enters the report, before the
        # trust floor bisects for min(1e-13, tol / 100)
        from crtorsion import spectra

        def no_floor(*args):
            raise AssertionError("trust floor bisected for an invalid tolerance")

        monkeypatch.setattr(spectra, "trust_floor", no_floor)
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            torsion_report(cp1_spectrum(8, 256), cp1_geometry(), 8, tol)

    def test_tail_bound_calls_do_not_follow_the_nodes(self, monkeypatch):
        # the trust floor certifies the omitted tail once per report; the
        # integrand itself reads values only, at as many nodes as the
        # tolerance asks for
        from crtorsion import spectra, tails

        calls = {"tail_bound": 0, "nodes": 0, "trust_floor": 0}
        tail_bound, value = tails.tail_bound, SpectrumTable._supertrace_value
        trust_floor = tails.trust_floor

        def counting_bound(*args):
            calls["tail_bound"] += 1
            return tail_bound(*args)

        def counting_floor(*args):
            calls["trust_floor"] += 1
            return trust_floor(*args)

        def counting_value(self, t):
            calls["nodes"] += np.size(t)
            return value(self, t)

        monkeypatch.setattr(tails, "tail_bound", counting_bound)
        monkeypatch.setattr(spectra, "tail_bound", counting_bound)
        monkeypatch.setattr(SpectrumTable, "_supertrace_value", counting_value)
        monkeypatch.setattr(spectra, "trust_floor", counting_floor)
        seen = []
        # at m = 1 the starting panels meet 1e-9 (105 nodes) but not 1e-12,
        # which takes one bisection (147); from m = 8 on the starting panels
        # meet every tolerance down to 1e-14, and the roundoff floors stop
        # bisection below that
        for tol in (1e-9, 1e-12):
            calls.update(tail_bound=0, nodes=0, trust_floor=0)
            torsion_report(cp1_spectrum(1, 1024), cp1_geometry(), 1, tol)
            seen.append(dict(calls))
        assert seen[0]["nodes"] < seen[1]["nodes"]
        assert seen[0]["tail_bound"] == seen[1]["tail_bound"] > 0
        assert seen[0]["trust_floor"] == seen[1]["trust_floor"] == 1

    @pytest.mark.parametrize("m", [8, 128, 1000, 65536])
    def test_one_kernel_call_per_report(self, m, monkeypatch):
        # the heat route's one rule evaluates the panel on [sqrt(floor), 1]
        # and the tail's doubling panels in one round, so one call of the
        # super-trace kernel; the decay certificate reads no line
        from crtorsion import spectra

        sizes, value = [], spectra._Supertrace.value

        def spy(self, t):
            sizes.append(np.size(t))
            return value(self, t)

        spec = cp1_spectrum(m)
        monkeypatch.setattr(spectra._Supertrace, "value", spy)
        torsion_report(spec, cp1_geometry(), m)
        assert len(sizes) == 1 and sizes[0] % 21 == 0

    def test_sub_roundoff_tol_stops_at_the_floors(self, monkeypatch):
        # below the roundoff, the error net of the panels' 50 eps resabs
        # floors is within the floors: the one rule keeps its starting
        # panels instead of bisecting into noise on [sqrt(floor), 1]
        # (8 379 nodes and an estimate of 5.0e-14 at tol = 1e-15)
        from crtorsion import mellin

        seen = []
        gauss_kronrod = mellin._gauss_kronrod

        def spy(fn, edges, abs_tol, rel_tol, partial):
            nodes = []
            value, error = gauss_kronrod(
                lambda t: nodes.append(t.size) or fn(t), edges, abs_tol, rel_tol, partial
            )
            seen.append((sum(nodes), error))
            return value, error

        monkeypatch.setattr(mellin, "_gauss_kronrod", spy)
        for tol in (1e-15, 5e-16):
            seen.clear()
            torsion_report(cp1_spectrum(8, 1024), cp1_geometry(), 8, tol)
            [(nodes, error)] = seen
            assert nodes < 500 and error <= 5.0e-14, tol


class TestGeneralLawReports:
    # law-backed n = 1 tables beyond the circle bundle (mu_const != 0, deep
    # vertices): every report passes its gate or raises a named error
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @example(a2=0.25, a1=30.0, a0=17.9, m1=4, m0=18, k_max=512, m=1)
    @given(
        a2=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.7]),
        a1=st.floats(-3.0, 40.0),
        a0=st.floats(-5.0, 20.0),
        m1=st.integers(0, 4),
        m0=st.integers(1, 20),
        k_max=st.sampled_from([64, 512, 4096]),
        m=st.sampled_from([1, 2, 8]),
    )
    def test_report_passes_or_names_its_error(self, a2, a1, a0, m1, m0, k_max, m):
        law = QuadraticLaw(a2, a1, a0, float(m1), float(m0))
        tail = QuadraticTail(k_max + 1, law, (0, 1), covers_all_lines=True)
        try:
            spec = SpectrumTable.from_law([], n=1, tail=tail)
            rep = torsion_report(spec, cp1_geometry(), m)
        except CrTorsionError:
            return
        assert abs(rep.theta_prime_0 - rep.theta_prime_0_direct) <= rep.error_budget

    def test_deep_vertex_law_reports(self):
        # -t vertex_value = 882 at the trust floor's first probe t = 1: this
        # law raised a bare OverflowError before tail_bound used erfcx
        law = QuadraticLaw(0.25, 30.0, 17.9, 4.0, 18.0)
        tail = QuadraticTail(k_next=513, law=law, degrees=(0, 1), covers_all_lines=True)
        spec = SpectrumTable.from_law([], n=1, tail=tail)
        rep = torsion_report(spec, cp1_geometry(), 1)
        assert math.isfinite(rep.theta_prime_0) and math.isfinite(rep.error_budget)


class TestLargeWeight:
    # frozen direct-route theta'(0) of cp1_spectrum(256, 65536)
    DIRECT_M256 = 477.56641101962884

    def test_report_beyond_the_sweep(self):
        geom = cp1_geometry()
        spec = cp1_spectrum(256, 65536)
        rep = torsion_report(spec, geom, 256)
        rep128 = torsion_report(cp1_spectrum(128, 16384), geom, 128)
        assert _scaling_identity_gap(spec, rep) < 1e-8
        assert abs(rep.residual) < abs(rep128.residual)
        assert rep.theta_prime_0_direct == pytest.approx(self.DIRECT_M256, rel=1e-13)

    @pytest.mark.parametrize("m", [3084, 3195, 3291, 3391, 4001])
    def test_heat_error_within_its_estimate_where_1_over_m_rounds(self, m):
        # weights where a product with the rounded m^{-n}, which gives every
        # node one relative error, put the heat error above its estimate:
        # 3291 and 4001 failed the gate (exit 3), and 3084, 3195 and 3391
        # did once the kernel summed its rows over power-of-two widths
        rep = torsion_report(cp1_spectrum(m), cp1_geometry(), m)
        eps_log = math.ulp(1.0) * math.log(m)
        err_heat = m * (rep.theta_tilde_error + eps_log * abs(rep.theta_tilde_0))
        assert _cp1_closed_form_error(m, rep.theta_prime_0) <= err_heat

    # frozen direct-route theta'(0) of cp1_spectrum(512, 262144)
    DIRECT_M512 = 1130.0078237935431

    def test_tilde_at_m512_evaluates_no_more_nodes_than_heat(self, monkeypatch):
        # QUADPACK's extrapolation spent 1 071 nodes on the rescaled trace
        # here, against 210 for the heat route
        from crtorsion import torsion

        spec = cp1_spectrum(512, 512 * 512)
        bhat = closed_form_bhat(spec)
        nodes = []
        value = SpectrumTable._supertrace_value

        def counting_value(self, t):
            nodes[-1] += np.size(t)
            return value(self, t)

        monkeypatch.setattr(SpectrumTable, "_supertrace_value", counting_value)
        nodes.append(0)
        theta_prime_zero_result(spec, bhat)
        nodes.append(0)
        torsion._theta_mellin(spec, bhat, 512, DEFAULT_TOL)
        heat, tilde = nodes
        assert 0 < tilde <= heat

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_report_at_4m_lines_stays_under_150_mb(self):
        # ROADMAP item 3: the default table at m = 2^22 holds 4m = 2^24 law
        # lines, which the kernel reads in chunks from the law; storing them
        # peaked at 670 MB.  The child reports its peak RSS as VmHWM: its
        # ru_maxrss would include this test process's, carried through fork
        # and exec
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import re\n"
            "from crtorsion.spectra import cp1_geometry, cp1_spectrum\n"
            "from crtorsion.torsion import torsion_report\n"
            "m = 2 ** 22\n"
            "rep = torsion_report(cp1_spectrum(m), cp1_geometry(), m)\n"
            "gap = abs(rep.theta_prime_0 - rep.theta_prime_0_direct)\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1], gap <= rep.error_budget)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        peak_kb, gate = proc.stdout.split()
        assert gate == "True"
        assert int(peak_kb) < 150 * 1024

    def test_report_at_m512(self):
        spec = cp1_spectrum(512, 512 * 512)
        rep = torsion_report(spec, cp1_geometry(), 512)
        assert abs(rep.theta_prime_0 - rep.theta_prime_0_direct) <= rep.error_budget
        assert _scaling_identity_gap(spec, rep) < 1e-8
        assert rep.theta_prime_0_direct == pytest.approx(self.DIRECT_M512, rel=1e-13)


class TestHeatValueFromTilde:
    @pytest.mark.parametrize(
        "m, k_max",
        [
            *((m, max(1024, m * m)) for m in (8, 16, 32, 64, 128)),
            # the unscaled heat route misses the direct value by more than
            # its estimate from m = 16384 on (0.115 against 1.5e-3 at 262144)
            *((m, 4 * m) for m in (16384, 65536, 262144)),
        ],
    )
    def test_value_and_strict_gate(self, m, k_max):
        spec = cp1_spectrum(m, k_max)
        rep = torsion_report(spec, cp1_geometry(), m)
        assert rep.theta_prime_0 == m * (rep.theta_tilde_prime_0 - math.log(m) * rep.theta_tilde_0)
        # theta~(0) carries no quadrature error: only the rounding of its
        # product with log m joins theta~'(0)'s estimate
        rounding = math.ulp(1.0) * math.log(m) * abs(rep.theta_tilde_0)
        err_heat = m * (rep.theta_tilde_error + rounding)
        assert rep.error_budget == err_heat + theta_prime_zero_direct_result(spec)[1]
        assert abs(rep.theta_prime_0 - rep.theta_prime_0_direct) <= rep.error_budget

    def test_weight_one_is_the_heat_route(self):
        # theta~ at m = 1 is the unscaled call itself, bit for bit
        spec = cp1_spectrum(1, 1024)
        rep = torsion_report(spec, cp1_geometry(), 1)
        heat = theta_prime_zero_result(spec, closed_form_bhat(spec))
        assert rep.theta_prime_0 == heat.derivative0
        assert rep.error_budget == heat.error_estimate + theta_prime_zero_direct_result(spec)[1]


class TestLongTimeBound:
    def test_rescaled_degree_traces_uniformly_bounded(self):
        # fitted constants: with c = 1, c' = 0 the rescaled degree-1 traces
        # m^{-1} Tr^(1)[e^{-(t/m) Box}] e^{t} stay bounded by a single C
        grid = np.linspace(1.0, 40.0, 40)
        sup = 0.0
        for m in (8, 16, 32):
            spec = cp1_spectrum(m, 2048)
            vals = [
                trace_degree(spec, 1, t / m).value / m * math.exp(t) for t in grid
            ]
            sup = max(sup, max(vals))
        C = 1.05 * sup
        fine = np.linspace(1.0, 60.0, 160)
        for m in (8, 16, 32):
            spec = cp1_spectrum(m, 2048)
            for t in fine:
                assert trace_degree(spec, 1, t / m).value / m <= C * math.exp(-t)


class TestSerialization:
    def _reports(self):
        return asympt_sweep(
            cp1_geometry(), lambda m: cp1_spectrum(m, 512), [8, 16]
        )

    def test_csv_columns_and_values(self):
        reports = self._reports()
        text = reports_to_csv(reports, {"tool": "crtorsion"})
        rows = [r for r in text.splitlines() if not r.startswith("#")]
        header = rows[0].split(",")
        assert header == [
            "m",
            "theta_prime_0",
            "theta_prime_0_direct",
            "rhs",
            "residual",
            "error_budget",
        ]
        parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert float(parsed[0]["theta_prime_0"]) == reports[0].theta_prime_0

    def test_json_and_csv_agree(self):
        reports = self._reports()
        data = json.loads(reports_to_json(reports, {"seed": 0}))
        text = reports_to_csv(reports)
        rows = list(
            csv.DictReader(
                io.StringIO("\n".join(r for r in text.splitlines() if not r.startswith("#")))
            )
        )
        for jrow, crow, rep in zip(data["reports"], rows, reports):
            for key in ("theta_prime_0", "theta_prime_0_direct", "rhs", "residual"):
                assert float(crow[key]) == jrow[key]
            assert jrow["theta_tilde_error"] == rep.theta_tilde_error
            assert "theta_tilde_error" not in crow

    def test_json_report_keys_are_the_report_fields(self):
        data = json.loads(reports_to_json(self._reports()))
        fields = [f.name for f in dataclasses.fields(TorsionReport)]
        for jrow in data["reports"]:
            assert list(jrow) == fields
