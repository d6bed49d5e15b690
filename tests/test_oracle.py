"""Galerkin validation gate for the circle-bundle closed-form spectrum."""

import math

import numpy as np
import pytest

from crtorsion.errors import DomainError
from crtorsion.oracle import (
    galerkin_block_eigenvalues,
    validate_cp1,
    validate_eigenvalues,
    validate_heat_coefficients,
    validate_kernel_dimension,
)


def _moment_log(g1, g2):
    """log of g1! g2! / (g1+g2+1)!  (sphere moment up to the volume factor)."""
    return math.lgamma(g1 + 1) + math.lgamma(g2 + 1) - math.lgamma(g1 + g2 + 2)


def _zbar_terms(alpha, beta):
    """Zbar applied to z^alpha zbar^beta as a list of (coeff, alpha', beta')."""
    out = []
    if beta[0] > 0:
        out.append((beta[0], (alpha[0], alpha[1] + 1), (beta[0] - 1, beta[1])))
    if beta[1] > 0:
        out.append((-beta[1], (alpha[0] + 1, alpha[1]), (beta[0], beta[1] - 1)))
    return out


def _loop_block_eigenvalues(m, K, d1_offset=0, null_tol=1e-10):
    """Reference: the entry-by-entry assembly, with the equality test on the
    Zbar terms' difference vectors spelled out."""
    d = (m + d1_offset, -d1_offset)
    basis = []
    for tot in range(K + 1):
        for b1 in range(tot + 1):
            b2 = tot - b1
            alpha = (b1 + d[0], b2 + d[1])
            if alpha[0] >= 0 and alpha[1] >= 0:
                basis.append(((b1, b2), alpha))
    if not basis:
        return np.array([])
    nb = len(basis)
    norms = np.array([0.5 * _moment_log(b[0] + a[0], b[1] + a[1]) for (b, a) in basis])
    gram = np.empty((nb, nb))
    quad = np.zeros((nb, nb))
    for i, (bi, ai) in enumerate(basis):
        ti = _zbar_terms(ai, bi)
        for j, (bj, aj) in enumerate(basis):
            g = (ai[0] + bj[0], ai[1] + bj[1])
            gram[i, j] = math.exp(_moment_log(g[0], g[1]) - norms[i] - norms[j])
            tj = _zbar_terms(aj, bj)
            acc = 0.0
            for ci, a2i, b2i in ti:
                for cj, a2j, b2j in tj:
                    if (
                        a2i[0] + b2j[0] == a2j[0] + b2i[0]
                        and a2i[1] + b2j[1] == a2j[1] + b2i[1]
                    ):
                        gg = (a2i[0] + b2j[0], a2i[1] + b2j[1])
                        acc += ci * cj * math.exp(
                            _moment_log(gg[0], gg[1]) - norms[i] - norms[j]
                        )
            quad[i, j] = acc
    w, v = np.linalg.eigh(gram)
    keep = w > null_tol * w.max()
    proj = v[:, keep] / np.sqrt(w[keep])
    return np.sort(np.linalg.eigvalsh(proj.T @ quad @ proj))


class TestGalerkinBlocks:
    def test_principal_block_matches_closed_form(self):
        for m in (0, 2, 5):
            K = 8
            eigs = galerkin_block_eigenvalues(m, K)
            expected = np.array([k * (k + m + 1.0) for k in range(K + 1)])
            assert len(eigs) == K + 1
            assert np.max(np.abs(eigs - expected) / np.maximum(expected, 1.0)) < 1e-8

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_matches_loop_assembly(self, m):
        sizes = []
        for off in (-2, 0, 2, m + 2, -(m + 2)):
            for K in (1, 6, 10):
                want = _loop_block_eigenvalues(m, K, off)
                got = galerkin_block_eigenvalues(m, K, off)
                assert len(got) == len(want)
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
                sizes.append(len(want))
        if m == 5:
            # off = m + 2 needs b2 >= 7: the K = 1 and K = 6 blocks are empty
            assert 0 in sizes

    def test_shifted_block_starts_higher(self):
        # difference vector with a negative component has no low modes:
        # the k-ladder starts at k = offset
        m, off = 3, 2
        eigs = galerkin_block_eigenvalues(m, 8, d1_offset=off)
        expected_first = off * (off + m + 1.0)
        assert eigs[0] == pytest.approx(expected_first, rel=1e-9)

    def test_eigenvalue_validation_wrapper(self):
        assert validate_eigenvalues(1, num_eigs=8, basis_factor=3) < 1e-7
        assert validate_eigenvalues(4, num_eigs=6, basis_factor=3) < 1e-7

    def test_too_few_kept_eigenvalues_rejected(self):
        # the K = 30 block keeps 23 eigenvalues after the null-space cut
        with pytest.raises(DomainError, match="keeps 23 .* 30 requested"):
            validate_eigenvalues(1, num_eigs=30, basis_factor=1)


class TestKernelDimension:
    def test_matches_holomorphic_section_count(self):
        for m in range(0, 7):
            assert validate_kernel_dimension(m) == m + 1


class TestHeatCoefficients:
    def test_rescaled_trace_coefficients_match_density(self):
        errs = validate_heat_coefficients(64)
        assert errs[0] < 0.02
        assert errs[1] < 0.02

    def test_agreement_improves_with_m(self):
        e32 = validate_heat_coefficients(32)
        e128 = validate_heat_coefficients(128)
        assert e128[1] < e32[1]


def test_criterion_10_report_pinned():
    # values of the entry-by-entry assembly at the criterion-10 settings
    report = validate_cp1()
    assert report.passed
    assert report.kernel_dims == tuple(range(1, 10))
    assert report.heat_coeff_rel_errors == (2.876746130198171e-07, 0.010253229563911725)
    assert abs(report.eigenvalue_rel_error - 3.2073596890195445e-14) < 1e-12
    assert report.eigenvalue_rel_error < 1e-13
