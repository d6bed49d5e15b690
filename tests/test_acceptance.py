"""Acceptance suite: every criterion at its pinned tolerance, one printed
verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The circle-bundle closed form is gated: the Galerkin oracle (criterion 10)
runs as a fixture before any criterion that consumes cp1 spectra.
"""

import math
import time

import numpy as np
import pytest

from crtorsion.density import (
    LeviSpectrum,
    hatA_coeffs,
    rt_density_series,
    subset_sum_identity_residual,
    supertrace_N_density,
)
from crtorsion.mellin import mellin_at_zero, riemann_zeta_check
from crtorsion.oracle import validate_cp1
from crtorsion.spectra import SpectrumTable, cp1_geometry, cp1_spectrum, spectral_gap
from crtorsion.strata import (
    StratumIntegrand,
    gaussian_stratum_expansion,
    quadrature_reference,
)
from crtorsion.torsion import (
    asympt_sweep,
    closed_form_bhat,
    theta_prime_zero_direct_result,
    theta_prime_zero_result,
    torsion_report,
)

ZETA_PRIME_0_TARGET = -0.9189385332


def announce(num: int, text: str):
    print(f"\nACCEPTANCE {num}: {text} PASS")


@pytest.fixture(scope="module")
def cp1_gate():
    """Criterion-10 oracle must pass before the closed form is trusted."""
    report = validate_cp1(
        m_eigs=(1, 5),
        m_kernel=tuple(range(0, 9)),
        m_heat=64,
        num_eigs=10,
        basis_factor=4,
        eig_tol=1e-6,
        heat_tol=0.02,
    )
    assert report.passed, f"circle-bundle oracle failed: {report}"
    return report


def random_levi_set(count: int = 200, seed: int = 2026):
    """The shared random eigenvalue set used by criteria 2 and 3."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        out.append(LeviSpectrum(n, tuple(rng.uniform(0.5, 3.0, size=n))))
    return out


def test_criterion_1_riemann_zeta_pipeline():
    t0 = time.time()
    zeta0, zeta_prime0 = riemann_zeta_check()
    elapsed = time.time() - t0
    assert zeta0 == -0.5  # exact certificate copy
    assert abs(zeta_prime0 - ZETA_PRIME_0_TARGET) < 1e-8
    assert elapsed < 1.0
    announce(1, f"zeta(0) = {zeta0}, zeta'(0) = {zeta_prime0:.10f} ({elapsed:.2f}s)")


def test_criterion_2_supertrace_identity():
    t0 = time.time()
    t_rng = np.random.default_rng(20262)
    worst_series = 0.0
    worst_subset = 0.0
    for levi in random_levi_set():
        lhs = supertrace_N_density(levi, 6.5)  # through the t^6 coefficient
        rhs = rt_density_series(levi, 6.5)
        scale = max(abs(float(c)) for c in rhs.coeffs)
        worst_series = max(worst_series, lhs.max_abs_coeff_diff(rhs) / scale)
        worst_subset = max(
            worst_subset,
            subset_sum_identity_residual(levi, float(t_rng.uniform(0.2, 1.5))),
        )
    elapsed = time.time() - t0
    assert worst_series < 1e-10
    assert worst_subset < 1e-10
    assert elapsed < 5.0
    announce(
        2,
        f"super-trace identity rel err {worst_series:.2e}, subset-sum "
        f"residual {worst_subset:.2e} over 200 spectra ({elapsed:.2f}s)",
    )


def test_criterion_3_hatA_coefficients():
    worst = 0.0
    for levi in random_levi_set():
        a_m1, a_0 = hatA_coeffs(levi)
        series = rt_density_series(levi, 1.5)
        scale = max(abs(a_m1), abs(a_0))
        worst = max(
            worst,
            abs(float(series.coefficient(-1)) - a_m1) / scale,
            abs(float(series.coefficient(0)) - a_0) / scale,
        )
        stn = supertrace_N_density(levi, 2)
        assert stn.base_order == -1.0
    assert worst < 1e-12
    announce(3, f"hatA closed forms match expansions to {worst:.2e}; base order -1")


def test_criterion_4_mellin_formula():
    from tests.test_mellin import gamma_family

    rng = np.random.default_rng(99)
    worst_ratio = 0.0
    for _ in range(20):
        k = int(rng.integers(0, 3))
        coeffs = rng.uniform(-2.0, 2.0, size=2 * k + 3)
        inp, _, deriv = gamma_family(coeffs, k)
        res = mellin_at_zero(inp)
        worst_ratio = max(
            worst_ratio,
            abs(res.derivative0 - deriv) / max(10.0 * res.error_estimate, 1e-300),
        )
    assert worst_ratio <= 1.0
    from crtorsion.mellin import MellinInput

    res = mellin_at_zero(MellinInput(lambda t: np.exp(-t), 0, (1.0,), (1.0, 1.0)))
    assert res.value0 == 1.0
    assert abs(res.derivative0) < 1e-10
    announce(
        4,
        f"20 Gamma-family inputs within 10x error estimate (worst ratio "
        f"{worst_ratio:.3f}); exp(-t) -> (1, 0)",
    )


def test_criterion_5_two_path_agreement(cp1_gate):
    t0 = time.time()
    rng = np.random.default_rng(515)
    worst_finite = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        n_lines = int(rng.integers(3, 51))
        lines = [
            (
                int(rng.integers(0, n + 1)),
                float(rng.uniform(0.4, 25.0)),
                int(rng.integers(1, 5)),
            )
            for _ in range(n_lines)
        ]
        spec = SpectrumTable.from_lines(lines, n=n)
        heat = theta_prime_zero_result(spec, n, closed_form_bhat(spec)).derivative0
        direct = theta_prime_zero_direct_result(spec)[0]
        worst_finite = max(worst_finite, abs(heat - direct))
    assert worst_finite < 1e-8
    spec = cp1_spectrum(10, 10_000)
    heat = theta_prime_zero_result(spec, 1, closed_form_bhat(spec)).derivative0
    direct = theta_prime_zero_direct_result(spec)[0]
    gap_cp1 = abs(heat - direct)
    elapsed = time.time() - t0
    assert gap_cp1 < 1e-5
    assert elapsed < 30.0
    announce(
        5,
        f"two-path gap: finite {worst_finite:.2e} (<1e-8), circle-bundle "
        f"m=10 {gap_cp1:.2e} (<1e-5) ({elapsed:.1f}s)",
    )


def test_criterion_6_scaling_identity(cp1_gate):
    gaps = {}
    for m in (8, 16, 32):
        spec = cp1_spectrum(m, max(1024, m * m))
        rep = torsion_report(spec, cp1_geometry(), m)
        gaps[m] = rep.scaling_identity_gap
        assert rep.scaling_identity_gap < 1e-8
        assert spec.supertrace_N_kernel() == 0.0
    announce(
        6,
        "scaling identity gaps "
        + ", ".join(f"m={m}: {g:.1e}" for m, g in gaps.items())
        + "; STr[N kernel] = 0",
    )


def test_criterion_7_main_asymptotic(cp1_gate):
    t0 = time.time()
    ms = [8, 16, 32, 64, 128]
    reports = asympt_sweep(
        cp1_geometry(), lambda m: cp1_spectrum(m, max(1024, m * m)), ms
    )
    elapsed = time.time() - t0
    resids = {r.m: abs(r.residual) for r in reports}
    assert resids[64] > resids[128]
    assert resids[32] > resids[64]
    assert resids[128] < 0.5 * resids[16]
    assert elapsed < 300.0
    announce(
        7,
        "residuals "
        + ", ".join(f"m={m}: {resids[m]:.5f}" for m in ms)
        + f"; last three strictly decreasing, ratio(128/16) = "
        f"{resids[128] / resids[16]:.3f} < 0.5 ({elapsed:.1f}s)",
    )


def test_criterion_8_spectral_gap(cp1_gate):
    ms = np.arange(4, 65)
    gaps = np.array([spectral_gap(cp1_spectrum(int(m), 4), 1) for m in ms])
    slope, intercept = np.polyfit(ms, gaps, 1)
    # fitted line must be a lower bound with positive slope >= 0.9
    c2 = float(np.max(slope * ms - gaps))
    assert slope >= 0.9
    assert np.all(gaps >= slope * ms - c2 - 1e-9)
    announce(8, f"spectral gap lower bound slope c1 = {slope:.6f} >= 0.9")


def test_criterion_9_stratum_half_powers():
    rng = np.random.default_rng(909)
    worst_quad = 0.0
    for r in (1, 2, 3):
        poly = {tuple([0] * r): 1.0}
        for _ in range(2):
            alpha = tuple(int(2 * rng.integers(0, 3)) for _ in range(r))
            poly[alpha] = float(rng.uniform(0.2, 2.0))
        integrand = StratumIntegrand(r, poly, 1.0)
        m = 16
        series = gaussian_stratum_expansion(integrand, m, r / 2 + 8)
        fractional = [
            e
            for e, c in zip(series.exponents(), series.coeffs)
            if float(c) != 0.0 and e != int(e)
        ]
        assert bool(fractional) == (r % 2 == 1)
        doubled = gaussian_stratum_expansion(integrand, 2 * m, r / 2 + 8)
        for e, c in zip(series.exponents(), series.coeffs):
            if float(c) == 0.0:
                continue
            ratio = abs(float(doubled.coefficient(e)) / float(c))
            assert ratio <= 2.0 ** (-r / 2) + 1e-12
        for t in (1e-3, 1e-2):
            ref = quadrature_reference(integrand, m, t)
            worst_quad = max(worst_quad, abs(series(t) - ref) / max(1.0, abs(ref)))
    assert worst_quad < 1e-8
    announce(
        9,
        f"half powers iff odd codimension; coefficients shrink at least "
        f"2^(-r/2) under m doubling; quadrature agreement {worst_quad:.2e}",
    )


def test_criterion_10_cp1_oracle(cp1_gate):
    rep = cp1_gate
    assert rep.eigenvalue_rel_error < 1e-6
    assert rep.kernel_dims == rep.kernel_dims_expected == tuple(
        m + 1 for m in range(0, 9)
    )
    assert max(rep.heat_coeff_rel_errors) < 0.02
    announce(
        10,
        f"Galerkin eigenvalue error {rep.eigenvalue_rel_error:.2e} (<1e-6); "
        f"kernel dims {rep.kernel_dims}; heat coefficients within "
        f"{max(rep.heat_coeff_rel_errors) * 100:.2f}% (<2%)",
    )
