"""Galerkin validation gate for the circle-bundle closed-form spectrum."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from crtorsion import oracle
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


def _eigh_block_eigenvalues(m, K, d1_offset=0, null_tol=1e-10):
    """Reference: the full-eigh route.  The block's moment assembly in plain
    numpy, with the null space cut from an eigendecomposition of the whole
    Gram matrix rather than of its pivoted-Cholesky range."""
    d1, d2 = m + d1_offset, -d1_offset
    pairs = [
        (b1, tot - b1)
        for tot in range(K + 1)
        for b1 in range(tot + 1)
        if b1 + d1 >= 0 and tot - b1 + d2 >= 0
    ]
    if not pairs:
        return np.array([])
    b1, b2 = np.array(pairs).T
    B1, B2 = np.add.outer(b1, b1) + d1, np.add.outer(b2, b2) + d2
    log_fact = np.array([math.lgamma(k + 1) for k in range(B1.max() + B2.max() + 3)])

    def log_moment(g1, g2):
        out = np.full(g1.shape, -np.inf)
        ok = (g1 >= 0) & (g2 >= 0)
        g1, g2 = g1[ok], g2[ok]
        out[ok] = log_fact[g1] + log_fact[g2] - log_fact[g1 + g2 + 1]
        return out

    log_norm = -0.5 * log_moment(B1.diagonal(), B2.diagonal())

    def moment(s1, s2):
        return np.exp(log_moment(B1 + s1, B2 + s2) + log_norm[:, None] + log_norm)

    gram = moment(0, 0)
    quad = (
        np.outer(b1, b1) * moment(-1, 1)
        - (np.outer(b1, b2) + np.outer(b2, b1)) * gram
        + np.outer(b2, b2) * moment(1, -1)
    )
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

    @pytest.mark.parametrize(
        "m, K, off",
        [(1, 40, 0), (5, 40, 0)]
        + [(m, K, off) for m in (1, 5) for K in (20, 30) for off in (0, 2, -2)],
    )
    def test_matches_full_eigh_route(self, m, K, off):
        want = _eigh_block_eigenvalues(m, K, off)
        got = galerkin_block_eigenvalues(m, K, off)
        # the Gram matrix has rank <= K + 1 on the sphere
        assert len(got) == len(want) <= K + 1
        n = 10  # num_eigs at the criterion-10 settings
        low = np.abs(got[:n] - want[:n]) / np.maximum(np.abs(want[:n]), 1.0)
        assert low.max() < 1e-12
        # The top Ritz values sit next to the null-space cut: a half-ulp
        # symmetric jitter of the reference's own Gram entries moves them by
        # up to ~7e-8 relative at these K, so 1e-9 would test roundoff.
        np.testing.assert_allclose(got[n:], want[n:], rtol=1e-6)

    @pytest.mark.parametrize("null_tol", [0.0, 1.0, math.nan, -1.0])
    def test_null_tol_outside_unit_interval_rejected(self, null_tol):
        with pytest.raises(DomainError, match="null_tol"):
            galerkin_block_eigenvalues(1, 5, null_tol=null_tol)


def _dpstrf_factor(gram):
    """Reference: LAPACK's pivoted Cholesky at its default tolerance, its
    factor's first rank columns with the rows put back in input order."""
    chol, piv, rank, _ = lapack.dpstrf(gram, lower=1)
    basis = np.empty((gram.shape[0], rank))
    basis[piv - 1] = np.tril(chol[:, :rank])
    return basis


#: every block the criterion-10 gate factors: the eigenvalue blocks
#: (m, K = 4 * 10, principal) and the kernel-count blocks (m = 0..8, K = 6,
#: d1_offset = -(m + 2)..2)
CRITERION_10_BLOCKS = [(m, 40, 0) for m in (1, 5)] + [
    (m, 6, -off) for m in range(9) for off in range(-2, m + 3)
]


class TestPivotedCholesky:
    @pytest.mark.parametrize(
        "m, K, off",
        CRITERION_10_BLOCKS
        + [(m, K, off) for m in (1, 5) for K in (6, 20, 40) for off in (0, 2, -2)],
    )
    def test_matches_dpstrf(self, m, K, off, monkeypatch):
        grams = []
        factor = oracle._pivoted_cholesky

        def keep_gram(gram):
            grams.append(gram.copy())
            return factor(gram)

        monkeypatch.setattr(oracle, "_pivoted_cholesky", keep_gram)
        got = galerkin_block_eigenvalues(m, K, off)
        if not grams:  # an empty block has no Gram matrix
            assert got.size == 0
            return
        # The last pivots sit at the n u max(diag) stop, on roundoff: there
        # the order of dgemv's sums inside LAPACK decides, and the rank may
        # differ by one.  The null-space cut discards those directions.
        rank, rank_lapack = factor(grams[0]).shape[1], _dpstrf_factor(grams[0]).shape[1]
        assert abs(rank - rank_lapack) <= 1
        monkeypatch.setattr(oracle, "_pivoted_cholesky", _dpstrf_factor)
        want = galerkin_block_eigenvalues(m, K, off)
        assert got.shape == want.shape
        assert np.array_equal(np.abs(got) < 1e-8, np.abs(want) < 1e-8)
        # the first num_eigs = 10 at the criterion-10 settings, short of the
        # top Ritz value, which sits next to the null-space cut (see
        # test_matches_full_eigh_route)
        low = min(10, got.size - 1)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert rel[:low].max(initial=0.0) < 1e-12
        assert rel.max() < 1e-6

    def test_reconstructs_a_low_rank_matrix(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 7))
        a = x @ x.T
        basis = oracle._pivoted_cholesky(a)
        assert basis.shape == (30, 7)
        np.testing.assert_allclose(basis @ basis.T, a, atol=1e-12 * np.abs(a).max())


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

    def test_zero_weight_rejected_before_dividing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="m >= 1"):
                validate_heat_coefficients(0)


def test_gate_without_eigenvalue_weights_rejected():
    with pytest.raises(DomainError, match="m_eigs"):
        validate_cp1(m_eigs=())


def test_gate_without_kernel_weights_rejected():
    # () == () would otherwise pass the zero-mode count vacuously
    with pytest.raises(DomainError, match="m_kernel"):
        validate_cp1(m_kernel=())


@pytest.mark.parametrize("kwargs, name", [
    ({"num_eigs": 0}, "num_eigs"),
    ({"basis_factor": 0}, "basis_factor"),
])
def test_eigenvalue_check_names_bad_argument(kwargs, name):
    with pytest.raises(DomainError, match=name):
        validate_eigenvalues(1, **kwargs)


def test_criterion_10_report_pinned():
    # values of the entry-by-entry assembly at the criterion-10 settings
    report = validate_cp1()
    assert report.passed
    assert report.kernel_dims == tuple(range(1, 10))
    assert report.heat_coeff_rel_errors == (2.876746130198171e-07, 0.010253229563911725)
    assert abs(report.eigenvalue_rel_error - 3.2073596890195445e-14) < 1e-12
    assert report.eigenvalue_rel_error < 1e-13
