"""Galerkin validation gate for the circle-bundle closed-form spectrum."""

import math
import tracemalloc
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import lapack

from crtorsion import oracle
from crtorsion.errors import DomainError
from crtorsion.spectra import cp1_spectrum, trace_degree
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


def _loop_forms(m, K, d1_offset=0):
    """Reference: the block's Gram matrix and quadratic form in the redundant
    monomial dictionary (None, None for an empty block)."""
    d = (m + d1_offset, -d1_offset)
    basis = []
    for tot in range(K + 1):
        for b1 in range(tot + 1):
            b2 = tot - b1
            alpha = (b1 + d[0], b2 + d[1])
            if alpha[0] >= 0 and alpha[1] >= 0:
                basis.append(((b1, b2), alpha))
    if not basis:
        return None, None
    return _dictionary_forms(basis)


def _dictionary_forms(basis):
    """Reference: the normalized Gram matrix and quadratic form of the
    monomials z^alpha zbar^beta, basis = [(beta, alpha), ...], assembled
    entry by entry, with the equality test on the Zbar terms' difference
    vectors spelled out."""
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
    return gram, quad


def _loop_block_eigenvalues(m, K, d1_offset=0, null_tol=1e-10):
    """Reference: Rayleigh-Ritz on the entry-by-entry forms, with the null
    space cut from an eigendecomposition of the whole Gram matrix."""
    gram, quad = _loop_forms(m, K, d1_offset)
    if gram is None:
        return np.array([])
    w, v = np.linalg.eigh(gram)
    keep = w > null_tol * w.max()
    proj = v[:, keep] / np.sqrt(w[keep])
    return np.sort(np.linalg.eigvalsh(proj.T @ quad @ proj))


def _ladder(m, K, d1_offset=0):
    """The closed form: k (k + m + 1) for the lines k <= K that the block of
    difference (m + d1_offset, -d1_offset) holds, from its lowest degree."""
    k = np.arange(max(0, -(m + d1_offset)) + max(0, d1_offset), K + 1)
    return k * (k + m + 1.0)


def _dense_forms(m, K, d1_offset=0):
    """Reference: the block's Gram matrix and quadratic form in the redundant
    monomial dictionary, assembled in plain numpy (None, None for an empty
    block)."""
    d1, d2 = m + d1_offset, -d1_offset
    pairs = [
        (b1, tot - b1)
        for tot in range(K + 1)
        for b1 in range(tot + 1)
        if b1 + d1 >= 0 and tot - b1 + d2 >= 0
    ]
    if not pairs:
        return None, None
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
    return gram, quad


def _ritz(gram, quad, q, null_tol=1e-10):
    """Rayleigh-Ritz on the span of the columns of q, with the null space of
    the projected Gram matrix cut at null_tol of its largest eigenvalue."""
    w, y = np.linalg.eigh(q.T @ gram @ q)
    keep = w > null_tol * w.max()
    z = q @ (y[:, keep] / np.sqrt(w[keep]))
    return np.sort(np.linalg.eigvalsh(z.T @ quad @ z))


def _eigh_block_eigenvalues(m, K, d1_offset=0):
    """Reference: the float full-eigh route, Rayleigh-Ritz on the dense
    dictionary forms with the null space cut from an eigendecomposition of
    the whole Gram matrix."""
    gram, quad = _dense_forms(m, K, d1_offset)
    if gram is None:
        return np.array([])
    return _ritz(gram, quad, np.eye(len(gram)))


def _dpstrf_block_eigenvalues(m, K, d1_offset=0):
    """Reference: the float pivoted-Cholesky route, Rayleigh-Ritz on the
    orthonormalized range of LAPACK's pivoted Cholesky factor of the dense
    dictionary Gram matrix at its default tolerance."""
    gram, quad = _dense_forms(m, K, d1_offset)
    if gram is None:
        return np.array([])
    chol, piv, rank, _ = lapack.dpstrf(gram, lower=1)
    basis = np.empty((gram.shape[0], rank))
    basis[piv - 1] = np.tril(chol[:, :rank])
    return _ritz(gram, quad, np.linalg.qr(basis)[0])


def _assert_matches_float_route(m, K, off, want):
    """The exact block against the closed form, each line to 1e-12, and
    against a float route ``want`` on the redundant dictionary.

    The float route keeps only the lines above its null-space cut (27 of 41
    at m = 1, K = 40) and reads up to 2.7e-12 off the closed form at the
    kernel-count blocks and 1.9e-3 at its top Ritz values, so it is held to
    its count and its zero modes; the closed form holds the values."""
    got = galerkin_block_eigenvalues(m, K, off)
    exact = _ladder(m, K, off)
    assert got.shape == exact.shape
    assert np.all(np.abs(got - exact) <= 1e-12 * np.maximum(exact, 1.0))
    # the Gram matrix has rank <= J + 1 <= K + 1 on the sphere
    assert want.size <= got.size <= K + 1
    assert np.count_nonzero(np.abs(got) < 1e-8) == np.count_nonzero(np.abs(want) < 1e-8)
    assert np.array_equal(np.abs(got[: want.size]) < 1e-8, np.abs(want) < 1e-8)


#: every block the criterion-10 gate factored at its former depth: the
#: eigenvalue blocks (m, K = 4 * 10, principal) and the kernel-count blocks
#: (m = 0..8, K = 6, d1_offset = -(m + 2)..2)
CRITERION_10_BLOCKS = [(m, 40, 0) for m in (1, 5)] + [
    (m, 6, -off) for m in range(9) for off in range(-2, m + 3)
]


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
                # The reference's top Ritz value sits next to its null-space
                # cut and reads up to 2.3e-9 off the closed form at K = 10
                # (m = 5); that one is held to the closed form instead.
                np.testing.assert_allclose(got[:-1], want[:-1], rtol=1e-9, atol=1e-9)
                exact = _ladder(m, K, off)
                assert np.all(np.abs(got - exact) <= 1e-12 * np.maximum(exact, 1.0))
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

    def test_thirty_eigenvalues_from_one_degree(self):
        # the block of degree num_eigs - 1 holds exactly the lines k < 30
        eigs = galerkin_block_eigenvalues(1, 29)
        assert len(eigs) == 30
        assert validate_eigenvalues(1, num_eigs=30, basis_factor=1) < 1e-12

    @pytest.mark.parametrize("m", [1, 5, 500, 5000, 65536])
    def test_exact_at_large_weights(self, m):
        assert validate_eigenvalues(m) < 1e-12

    @pytest.mark.parametrize("m", [1, 5, 500])
    def test_depth_does_not_change_the_result(self, m):
        # Zbar lowers the degree, so each span of degree <= j is invariant
        got = [validate_eigenvalues(m, 10, factor) for factor in (1, 2, 4)]
        assert got[0] == got[1] == got[2]
        deep = galerkin_block_eigenvalues(m, 40)[:10]
        np.testing.assert_allclose(deep, galerkin_block_eigenvalues(m, 9), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "m, K, off",
        [(1, 40, 0), (5, 40, 0)]
        + [(m, K, off) for m in (1, 5) for K in (20, 30) for off in (0, 2, -2)],
    )
    def test_matches_full_eigh_route(self, m, K, off):
        _assert_matches_float_route(m, K, off, _eigh_block_eigenvalues(m, K, off))


class TestPivotedCholesky:
    @pytest.mark.parametrize(
        "m, K, off",
        CRITERION_10_BLOCKS
        + [(m, K, off) for m in (1, 5) for K in (6, 20, 40) for off in (0, 2, -2)],
    )
    def test_matches_dpstrf(self, m, K, off):
        _assert_matches_float_route(m, K, off, _dpstrf_block_eigenvalues(m, K, off))


@pytest.mark.parametrize("m, K, off", [(1, 40, 0), (5, 40, 0), (7, 6, 0), (3, 10, -5)])
def test_projected_form_symmetric(m, K, off):
    # eigvalsh reads one triangle: the decimal projection L^-1 A L^-T,
    # symmetric in exact arithmetic, must be so far below float resolution
    d1, d2 = m + off, -off
    cols = oracle._image_map(d1, d2, K)
    with localcontext(Context(prec=20 + 2 * len(cols))):
        proj = oracle._project(*oracle._forms(d1, d2, cols))
    assert np.abs(proj - proj.T).max() <= 1e-20 * np.abs(proj).max()


@pytest.mark.parametrize("a, b", [(0, 0), (3, 5), (40, 0), (1, 65)])
def test_moments_are_beta_ratios(a, b):
    # the running product against M(a, b + p) = a! (b + p)! / (a + b + p + 1)!
    def beta(a, b):
        return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))

    with localcontext(Context(prec=50)):
        got = oracle._moments(a, b, 12, Decimal(3))
        want = [3 * beta(a, b + p) / beta(a, b) for p in range(12)]
        for g, w in zip(got, want, strict=True):
            assert abs(g - Decimal(w.numerator) / w.denominator) <= Decimal("1e-45") * g


def test_factorial_ratio():
    for n in range(8):
        for k in range(8):
            want = Fraction(math.factorial(n), math.factorial(k))
            assert oracle._factorial_ratio(n, k) == want


def test_single_eigenvalue():
    # num_eigs = 1 reads the smallest block that K >= 1 allows
    assert validate_eigenvalues(7, num_eigs=1) < 1e-15


@pytest.mark.parametrize("m, K, off", [(1, 20, 0), (5, 30, -2), (3, 10, -5)])
def test_projected_forms_match_dense(m, K, off):
    # The one-variable basis F_d x^j is the dictionary's monomials
    # z^(b + d) zbar^b with b = (lo1, lo2 + j): its exact Gram matrix and
    # H^T G_W H, scaled to a unit diagonal, equal the entry-by-entry forms of
    # those monomials.
    d1, d2 = m + off, -off
    cols = oracle._image_map(d1, d2, K)
    lo1, lo2 = max(0, -d1), max(0, -d2)
    with localcontext(Context(prec=60)):
        moments, form = oracle._forms(d1, d2, cols)
        n = len(cols)
        gram = np.array([[float(moments[i + j]) for j in range(n)] for i in range(n)])
        form = np.array([[float(x) for x in row] for row in form])
    norm = 1.0 / np.sqrt(gram.diagonal())
    gram_ref, quad_ref = _dictionary_forms(
        [((lo1, lo2 + j), (lo1 + d1, lo2 + j + d2)) for j in range(n)]
    )
    for got, dense in ((gram, gram_ref), (form, quad_ref)):
        got = got * norm[:, None] * norm
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


class TestBlockMemory:
    @staticmethod
    def _peak_bytes(m, K):
        # numpy's lazy set-up outside the trace: any block does it, so the
        # smallest one, not a second build of the measured block
        galerkin_block_eigenvalues(1, 1)
        tracemalloc.start()
        try:
            eigs = galerkin_block_eigenvalues(m, K)
            return eigs, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_criterion_10_block_holds_no_square_matrix(self):
        # The redundant dictionary of this block held n = 861 monomials, and
        # an n x n float matrix is 5.9 MB; the one-variable block has 41
        # functions, all of whose eigenvalues are returned.
        eigs, peak = self._peak_bytes(5, 40)
        assert len(eigs) == 41
        assert peak < 3e6

    def test_k80_block_in_linear_memory(self):
        # the dictionary held n = 3321 monomials: one n x n float matrix
        # would be 88 MB
        m, K = 1, 80
        eigs, peak = self._peak_bytes(m, K)
        k = np.arange(20)
        expected = k * (k + m + 1.0)
        rel = np.abs(eigs[:20] - expected) / np.maximum(expected, 1.0)
        assert rel.max() < 1e-12
        assert peak < 12e6


class TestKernelDimension:
    def test_matches_holomorphic_section_count(self):
        for m in range(0, 13):
            assert validate_kernel_dimension(m) == m + 1

    def test_large_weight(self):
        assert validate_kernel_dimension(1000) == 1001

    def test_rank_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows, cols, inner = (int(x) for x in rng.integers(1, 7, size=3))
            mat = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
            assert oracle._rank(mat.T.tolist()) == np.linalg.matrix_rank(mat)


class TestBatchedBlocks:
    @pytest.mark.parametrize("m", range(9))
    def test_batch_matches_batch_of_one(self, m):
        # the kernel count's pass over the blocks of each weight of criterion
        # 10 (m = 0..4 are also selfcheck's) against each block alone: J + 1
        # less the exact rank of the integer Zbar map is the number of zero
        # eigenvalues of the block
        total = 0
        for off in range(-2, m + 3):
            cols = oracle._image_map(m - off, off, 6)
            eigs = galerkin_block_eigenvalues(m, 6, -off)
            assert eigs.size == len(cols)
            zeros = len(cols) - oracle._rank(cols)
            assert zeros == np.count_nonzero(np.abs(eigs) < 1e-8)
            total += zeros
        assert validate_kernel_dimension(m) == total

    def test_empty_blocks_in_place(self):
        # at m = 5, K = 6 the offset m + 2 = 7 needs b2 >= 7: an empty block
        offsets = [7, 0, 7, -3, 2]
        sizes = [len(oracle._image_map(5 + off, -off, 6)) for off in offsets]
        assert sizes == [galerkin_block_eigenvalues(5, 6, off).size for off in offsets]
        assert sizes[0] == sizes[2] == 0 < sizes[1]
        assert oracle._image_map(12, -7, 6) == []


class TestHeatCoefficients:
    def test_rescaled_trace_coefficients_match_density(self):
        errs = validate_heat_coefficients(64)
        assert errs[0] < 0.02
        assert errs[1] < 0.02

    def test_agreement_improves_with_m(self):
        e32 = validate_heat_coefficients(32)
        e128 = validate_heat_coefficients(128)
        assert e128[1] < e32[1]

    @pytest.mark.parametrize("m", [185, 256, 341])
    def test_table_grows_where_the_default_is_short(self, m):
        # cp1_spectrum(m)'s own tail bound at the smallest node passes 1e-10
        assert trace_degree(cp1_spectrum(m), 0, 5e-3 / m, nonzero_only=False).tail_bound > 1e-10
        assert max(validate_heat_coefficients(m)) < 0.02

    def test_zero_weight_rejected_before_dividing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="m >= 1"):
                validate_heat_coefficients(0)

    @pytest.mark.parametrize("m", [2.5, 64.0])
    def test_non_integer_weight_named(self, m):
        with pytest.raises(DomainError, match=r"\bm="):
            validate_heat_coefficients(m)

    @staticmethod
    def _fitted_samples(m, monkeypatch):
        seen, fit = [], oracle.fit_half_powers

        def record(samples, *args):
            seen.append(samples)
            return fit(samples, *args)

        monkeypatch.setattr(oracle, "fit_half_powers", record)
        validate_heat_coefficients(m)
        return seen[0]

    @pytest.mark.parametrize("m", [1, 7, 64, 128, 1000])
    def test_grid_equals_per_node_traces(self, m, monkeypatch):
        # the one-pass grid, bit for bit, against one trace_degree per node
        grid = np.geomspace(5e-3, 0.3, 48)
        spec = cp1_spectrum(m, max(2048, 4 * m))
        want = [
            (float(t), trace_degree(spec, 0, t / m, nonzero_only=False).value / m)
            for t in grid
        ]
        assert self._fitted_samples(m, monkeypatch) == want

    def test_node_past_tail_bound_rejected(self, monkeypatch):
        # cut at k_max = 64, the table's tail bound exceeds 1e-10 at the
        # smallest nodes only, as trace_degree reports it
        m, spec = 8, cp1_spectrum(8, 64)
        bounds = [
            trace_degree(spec, 0, t / m, nonzero_only=False).tail_bound
            for t in np.geomspace(5e-3, 0.3, 48)
        ]
        assert max(bounds) > 1e-10 > min(bounds)
        monkeypatch.setattr(oracle, "cp1_spectrum", lambda m, k_max=None: spec)
        with pytest.raises(DomainError, match="below trust floor"):
            validate_heat_coefficients(m)


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
    ({"num_eigs": 2.5}, "num_eigs"),
    ({"basis_factor": 4.0}, "basis_factor"),
    ({"m": 1.5}, "m"),
    ({"m": -1}, "m"),
])
def test_eigenvalue_check_names_bad_argument(kwargs, name):
    kwargs = {"m": 1, **kwargs}
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        validate_eigenvalues(**kwargs)


@pytest.mark.parametrize("args, name", [
    ((-1, 6), "m"),
    ((1.0, 6), "m"),
    ((1, 0), "K"),
    ((1, 6.0), "K"),
    ((1, "6"), "K"),
    ((1, 6, 0.5), "d1_offset"),
])
def test_block_names_bad_argument(args, name):
    with pytest.raises(DomainError, match=rf"\b{name}="):
        galerkin_block_eigenvalues(*args)


@pytest.mark.parametrize("m", [-1, -5, 2.0])
def test_kernel_count_names_bad_weight(m):
    # a negative m gave an empty offset range and returned 0 zero modes
    with pytest.raises(DomainError, match=r"\bm="):
        validate_kernel_dimension(m)


def test_gate_at_the_paper_weights():
    report = validate_cp1(m_eigs=(1, 5, 4096, 65536), m_kernel=(0, 1000))
    assert report.passed
    assert report.eigenvalue_rel_error < 1e-12
    assert report.kernel_dims == (1, 1001)


def test_criterion_10_report_pinned():
    # values of the entry-by-entry assembly at the criterion-10 settings; the
    # heat errors are those of the degree trace the super trace's kernel
    # reads from the law
    report = validate_cp1()
    assert report.passed
    assert report.kernel_dims == tuple(range(1, 10))
    assert report.heat_coeff_rel_errors == (2.876746126867502e-07, 0.010253229564057609)
    assert abs(report.eigenvalue_rel_error - 3.2073596890195445e-14) < 1e-12
    assert report.eigenvalue_rel_error < 1e-13
