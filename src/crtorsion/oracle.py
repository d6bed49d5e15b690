"""Independent validation of the circle-bundle closed-form spectrum.

The degree-0 Fourier component of the Kohn Laplacian on the 3-sphere model is
diagonalized by Rayleigh-Ritz in a monomial dictionary.  Writing points of the
sphere as (z1, z2) with |z1|^2 + |z2|^2 = 1, the weight-m subspace is spanned
by monomials z^alpha zbar^beta with |alpha| - |beta| = m.  Two structural
facts make the computation exact up to roundoff:

* inner products on the sphere couple (alpha, beta) with (alpha', beta') only
  when alpha - beta = alpha' - beta' (componentwise), so the problem splits
  into blocks indexed by the difference vector d;
* within a block of difference d and antiholomorphic degree at most K, the
  span restricted to the sphere is exactly the sum of the true eigenspace
  lines with k <= K, so the projected eigenproblem returns exact eigenvalues
  (the dictionary is redundant; the metric null space is removed first).

Monomial moments: the sphere average of z^g zbar^g is proportional to
g1! g2! / (|g| + 1)!.

The quadratic form is ||Zbar u||^2 with Zbar = z2 d/dzbar1 - z1 d/dzbar2,
normalized so that the model's Levi eigenvalue is 1; the expected eigenvalues
are k (k + m + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .density import LeviSpectrum, model_density_coeffs
from .errors import DomainError
from .series import fit_half_powers
from .spectra import CP1_VOLUME, cp1_spectrum, trace_degree


def galerkin_block_eigenvalues(
    m: int, K: int, d1_offset: int = 0, null_tol: float = 1e-10
) -> np.ndarray:
    """Sorted eigenvalues of the degree-0 block with difference vector
    d = (m + d1_offset, -d1_offset), antiholomorphic degree <= K.

    The basis is z^alpha zbar^beta with alpha = beta + d, so every entry of
    both matrices is a moment at B = beta_i + beta_j + d: the Gram entry is
    M(B) and, since both Zbar terms shift alpha - beta by (1, 1), the
    quadratic form is
    b1_i b1_j M(B + (-1, 1)) - (b1_i b2_j + b2_i b1_j) M(B)
    + b2_i b2_j M(B + (1, -1)), with M normalized by the monomial norms.
    """
    if m < 0 or K < 1:
        raise DomainError("need m >= 0 and K >= 1")
    if not 0 < null_tol < 1:
        raise DomainError(f"need 0 < null_tol < 1, got {null_tol}")
    d1, d2 = m + d1_offset, -d1_offset
    tot = np.repeat(np.arange(K + 1), np.arange(1, K + 2))
    b1 = np.arange(tot.size) - tot * (tot + 1) // 2
    b2 = tot - b1
    inside = (b1 + d1 >= 0) & (b2 + d2 >= 0)
    b1, b2 = b1[inside], b2[inside]
    if not b1.size:
        return np.array([])
    # log of g1! g2! / (g1+g2+1)!, padded with -inf (a zero moment) so the
    # shifted lookups at g = -1 (where the Zbar coefficient is 0) stay in
    # range.  math.lgamma, not scipy's gammaln: the top eigenvalues of a block
    # are conditioned at ~1e-9 and show last-bit differences in the moments.
    n1, n2 = 2 * b1.max() + d1 + 2, 2 * b2.max() + d2 + 2
    log_fact = np.array([math.lgamma(k + 1) for k in range(n1 + n2)])
    g1, g2 = np.arange(n1)[:, None], np.arange(n2)
    log_moment = log_fact[g1] + log_fact[g2] - log_fact[g1 + g2 + 1]
    log_moment = np.pad(log_moment, 1, constant_values=-np.inf).ravel()
    width = n2 + 2
    row = (b1 * width + b2).astype(np.int32)
    idx = np.add.outer(row, row + np.int32((d1 + 1) * width + d2 + 1))
    log_norm = -0.5 * log_moment[idx.diagonal()]

    def moments(out: np.ndarray) -> np.ndarray:
        """Normalized moments at the flat indices ``idx``, written into ``out``."""
        # "clip" writes straight into out; the default "raise" buffers a copy
        np.take(log_moment, idx, out=out, mode="clip")
        out += log_norm[:, None]
        out += log_norm
        return np.exp(out, out=out)

    gram = moments(np.empty(idx.shape))
    # On the sphere |z1|^2 + |z2|^2 = 1 makes every lower-degree monomial a
    # combination of degree-K ones, so the Gram matrix has rank <= K + 1.
    # Pivoted Cholesky finds that range; Rayleigh-Ritz on its orthonormal
    # basis gives the eigenpairs (the SVD of the factor is less accurate).
    q = np.linalg.qr(_pivoted_cholesky(gram))[0]
    w, y = np.linalg.eigh(q.T @ gram @ q)
    keep = w > null_tol * w.max()
    proj = (q @ y[:, keep]) / np.sqrt(w[keep])
    # The quadratic form is assembled entry by entry before it is projected:
    # its terms nearly cancel, and reducing each term on its own loses
    # digits.  It is built in the Gram matrix's room, with one scratch table.
    scratch = gram * b2
    scratch *= -b1[:, None]
    quad = np.add(scratch, scratch.T, out=gram)
    for shift, b in ((1 - width, b1), (2 * (width - 1), b2)):
        idx += np.int32(shift)
        moments(scratch)
        scratch *= b[:, None]
        scratch *= b
        quad += scratch
    return np.sort(np.linalg.eigvalsh(proj.T @ quad @ proj))


def _pivoted_cholesky(a: np.ndarray) -> np.ndarray:
    """Factor L, rows in the order of ``a``, with a = L L^T on the range of
    the positive semidefinite ``a``: rank columns, by Cholesky with diagonal
    pivoting that reads the lower triangle of ``a`` only.

    LAPACK's dpstrf at its default tolerance, step for step: each step takes
    the largest remaining diagonal a_ii - sum_k L_ik^2 as pivot (the first on
    ties, in dpstrf's swap order) and stops once it is at most
    n * u * max_i a_ii, u = 2^-53; the pivot's column is its column of ``a``
    less the product of the earlier columns with the pivot's row, times
    1 / sqrt(pivot).  Columns are stored as the rows of L^T.
    """
    n = a.shape[0]
    diag = a.diagonal()
    sumsq = np.zeros(n)
    perm = np.arange(n)  # dpstrf's row order, for its tie-breaking
    lt = np.empty((n, n))  # only the rows of finished steps are touched
    stop = n * (np.finfo(float).eps / 2.0) * diag.max()
    rank = 0
    for j in range(n):
        rest = (diag - sumsq)[perm[j:]]
        p = j + int(rest.argmax())
        ajj = float(rest[p - j])
        if not ajj > stop:  # also stops on nan
            break
        pivot = int(perm[p])
        perm[p], perm[j] = perm[j], pivot
        ajj = math.sqrt(ajj)
        col = np.concatenate((a[pivot, :pivot], a[pivot:, pivot]))
        if j:
            col -= lt[:j].T @ lt[:j, pivot]
        col *= 1.0 / ajj
        col[perm[:j]] = 0.0
        col[pivot] = ajj
        lt[j] = col
        col *= col
        sumsq += col
        rank = j + 1
    return lt[:rank].T


@dataclass(frozen=True)
class OracleReport:
    eigenvalue_rel_error: float
    kernel_dims: Tuple[int, ...]
    kernel_dims_expected: Tuple[int, ...]
    heat_coeff_rel_errors: Tuple[float, float]
    passed: bool


def validate_eigenvalues(m: int, num_eigs: int = 10, basis_factor: int = 4) -> float:
    """Max relative error of the first ``num_eigs`` Galerkin eigenvalues
    against k(k+m+1), using a basis truncation ``basis_factor`` times deeper.

    Raises DomainError when the null-space cut keeps fewer than ``num_eigs``
    eigenvalues, rather than checking only those it kept.
    """
    if num_eigs < 1:
        raise DomainError(f"need num_eigs >= 1, got num_eigs={num_eigs}")
    if basis_factor < 1:
        raise DomainError(f"need basis_factor >= 1, got basis_factor={basis_factor}")
    K = basis_factor * num_eigs
    eigs = galerkin_block_eigenvalues(m, K)
    if len(eigs) < num_eigs:
        raise DomainError(
            f"Galerkin block m={m}, K={K} keeps {len(eigs)} eigenvalues "
            f"after the null-space cut; {num_eigs} requested"
        )
    k = np.arange(num_eigs)
    expected = k * (k + m + 1.0)
    return float(np.max(np.abs(eigs[:num_eigs] - expected) / np.maximum(expected, 1.0)))


def validate_kernel_dimension(m: int, K: int = 6, zero_tol: float = 1e-8) -> int:
    """Count zero modes across all difference-vector blocks.

    Blocks with d1_offset outside [-(m+2), 2] are provably empty of zero modes
    in this range check; the expected total is m + 1.
    """
    count = 0
    for off in range(-2, m + 3):
        eigs = galerkin_block_eigenvalues(m, K, d1_offset=-off)
        count += int(np.sum(np.abs(eigs) < zero_tol))
    return count


def validate_heat_coefficients(
    m: int, k_max: int | None = None
) -> Tuple[float, float]:
    """Relative errors of the fitted t^{-1}, t^0 coefficients of the rescaled
    degree-0 heat trace against the model-density prediction.

    The rescaled trace m^{-1} Tr^(0)[e^{-(t/m) Box}] should match
    vol * (2 pi)^{-2} * a/(1 - e^{-a t}) with a = 1 as m grows; in this
    convention the t^{-1} coefficient is 1 and the t^0 coefficient is 1/2.
    """
    if m < 1:
        raise DomainError(f"need weight m >= 1, got m={m}")
    if k_max is None:
        k_max = max(2048, 4 * m)
    spec = cp1_spectrum(m, k_max)
    grid = np.geomspace(5e-3, 0.3, 48)
    samples = []
    for t in grid:
        tv = trace_degree(spec, 0, t / m, nonzero_only=False)
        if tv.tail_bound > 1e-10:
            raise DomainError("heat-coefficient grid extends below trust floor")
        samples.append((float(t), tv.value / m))
    fit = fit_half_powers(samples, -1, 5)
    density = model_density_coeffs(LeviSpectrum(1, (1.0,)), 1, 2)
    empty = density[frozenset()]
    target_m1 = CP1_VOLUME * empty.coefficient(-1)
    target_0 = CP1_VOLUME * empty.coefficient(0)
    return (
        abs(fit[0] - target_m1) / abs(target_m1),
        abs(fit[2] - target_0) / abs(target_0),
    )


def validate_cp1(
    m_eigs: Tuple[int, ...] = (1, 5),
    m_kernel: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8),
    m_heat: int = 64,
    num_eigs: int = 10,
    basis_factor: int = 4,
    eig_tol: float = 1e-6,
    heat_tol: float = 0.02,
) -> OracleReport:
    """Full validation gate for the closed-form circle-bundle spectrum."""
    if not m_eigs:
        raise DomainError("m_eigs must name at least one weight")
    if not m_kernel:
        raise DomainError("m_kernel must name at least one weight")
    eig_err = max(validate_eigenvalues(m, num_eigs, basis_factor) for m in m_eigs)
    dims = tuple(validate_kernel_dimension(m) for m in m_kernel)
    dims_expected = tuple(m + 1 for m in m_kernel)
    heat_errs = validate_heat_coefficients(m_heat)
    passed = (
        eig_err < eig_tol
        and dims == dims_expected
        and max(heat_errs) < heat_tol
    )
    return OracleReport(eig_err, dims, dims_expected, heat_errs, passed)
