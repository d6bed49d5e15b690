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
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .density import LeviSpectrum, model_density_coeffs
from .errors import DomainError
from .series import fit_half_powers
from .spectra import CP1_VOLUME, cp1_spectrum, trace_degree


#: Gram columns formed per step of the sweep that projects the two forms
_PANEL = 32


def _require_int(**values: int) -> None:
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {name}={value!r}")


def galerkin_block_eigenvalues(m: int, K: int, d1_offset: int = 0) -> np.ndarray:
    """Sorted eigenvalues of the degree-0 block with difference vector
    d = (m + d1_offset, -d1_offset), antiholomorphic degree <= K.

    The basis is z^alpha zbar^beta with alpha = beta + d, so every entry of
    both matrices is a moment at B = beta_i + beta_j + d: the Gram entry is
    M(B) and, since both Zbar terms shift alpha - beta by (1, 1), the
    quadratic form is
    b1_i b1_j M(B + (-1, 1)) - (b1_i b2_j + b2_i b1_j) M(B)
    + b2_i b2_j M(B + (1, -1)), with M normalized by the monomial norms.

    No n x n matrix is formed: the factor reads the Gram matrix a column at
    a time, and both forms are projected onto its range panel by panel, so
    memory is O(n (rank + _PANEL)) for n basis monomials.
    """
    _require_int(m=m, K=K, d1_offset=d1_offset)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    if K < 1:
        raise DomainError(f"need K >= 1, got K={K}")
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
    log_moment = np.full((n1 + 2, n2 + 2), -np.inf)
    log_moment[1:-1, 1:-1] = log_fact[g1] + log_fact[g2] - log_fact[g1 + g2 + 1]
    log_moment = log_moment.ravel()
    width = n2 + 2
    row = (b1 * width + b2).astype(np.int32)
    col_row = row + np.int32((d1 + 1) * width + d2 + 1)  # B_ij at row_i + col_row_j
    log_norm = -0.5 * log_moment[row + col_row]

    def column(p: int) -> np.ndarray:
        """Column p of the Gram matrix.  The norms are added as one sum, so
        column(p)[i] == column(i)[p] exactly."""
        return np.exp(log_moment[col_row[p]:][row] + (log_norm + log_norm[p]))

    def moments(shift: int, idx: np.ndarray, norm: np.ndarray, out=None) -> np.ndarray:
        """Normalized moments at the flat indices ``idx + shift``."""
        # "clip" writes straight into out; the default "raise" buffers a copy
        out = np.take(log_moment[shift:], idx, out=out, mode="clip")
        out += norm
        return np.exp(out, out=out)

    # On the sphere |z1|^2 + |z2|^2 = 1 makes every lower-degree monomial a
    # combination of degree-K ones, so the Gram matrix has rank <= K + 1.
    # Pivoted Cholesky finds that range; Rayleigh-Ritz on its orthonormal
    # basis gives the eigenpairs (the SVD of the factor is less accurate).
    # The diagonal is exp(log M_ii - 2 (0.5 log M_ii)) = exp(0) = 1 exactly.
    q = np.linalg.qr(_pivoted_cholesky(np.ones(b1.size), column))[0]
    # One sweep over column panels projects the Gram matrix and the quadratic
    # form.  The form is assembled entry by entry before it is projected: its
    # terms nearly cancel, and reducing each term on its own loses digits.
    # Indices are taken at B + (-1, 1); B and B + (1, -1) lie width - 1 and
    # 2 (width - 1) further on.
    low = col_row + np.int32(1 - width)
    rank = q.shape[1]
    gram_q, quad_q = np.zeros((rank, rank)), np.zeros((rank, rank))
    for start in range(0, b1.size, _PANEL):
        cols = slice(start, start + _PANEL)
        idx = np.add.outer(row, low[cols])
        norm = np.add.outer(log_norm, log_norm[cols])
        gram = moments(width - 1, idx, norm)
        quad = gram * b2[cols]
        quad *= -b1[:, None]
        term = gram * b1[cols]
        term *= -b2[:, None]
        quad += term
        for shift, b in ((0, b1), (2 * (width - 1), b2)):
            moments(shift, idx, norm, out=term)
            term *= b[:, None]
            term *= b[cols]
            quad += term
        gram_q += (q.T @ gram) @ q[cols]
        quad_q += (q.T @ quad) @ q[cols]
    w, y = np.linalg.eigh(gram_q)
    keep = w > 1e-10 * w.max()  # drop the Gram matrix's numerical null space
    z = y[:, keep] / np.sqrt(w[keep])
    return np.linalg.eigvalsh(z.T @ quad_q @ z)  # ascending


def _pivoted_cholesky(diag: np.ndarray, column) -> np.ndarray:
    """Factor L, rows in input order, with a = L L^T on the range of the
    positive semidefinite, symmetric matrix a = [column(0), column(1), ...]
    of diagonal ``diag``: rank columns, by Cholesky with diagonal pivoting
    that asks for one column of a per step.

    LAPACK's dpstrf at its default tolerance, step for step: each step takes
    the largest remaining diagonal a_ii - sum_k L_ik^2 as pivot (the first on
    ties, in dpstrf's swap order) and stops once it is at most
    n * u * max_i a_ii, u = 2^-53; the pivot's column is its column of a
    less the product of the earlier columns with the pivot's row, times
    1 / sqrt(pivot).  Columns are stored as the rows of L^T, in a buffer
    that doubles when the rank outgrows it.
    """
    n = diag.size
    sumsq = np.zeros(n)
    perm = np.arange(n)  # dpstrf's row order, for its tie-breaking
    lt = np.empty((min(n, 16), n))
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
        col = column(pivot) - lt[:j].T @ lt[:j, pivot]
        col *= 1.0 / ajj
        col[perm[:j]] = 0.0
        col[pivot] = ajj
        if j == lt.shape[0]:
            lt = np.concatenate((lt, np.empty_like(lt)))
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
    _require_int(m=m, num_eigs=num_eigs, basis_factor=basis_factor)
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


def validate_kernel_dimension(m: int) -> int:
    """Count zero modes (|eigenvalue| < 1e-8) across all difference-vector
    blocks of antiholomorphic degree <= 6.

    Blocks with d1_offset outside [-(m+2), 2] are provably empty of zero modes
    in this range check; the expected total is m + 1.
    """
    _require_int(m=m)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    count = 0
    for off in range(-2, m + 3):
        eigs = galerkin_block_eigenvalues(m, 6, d1_offset=-off)
        count += int(np.sum(np.abs(eigs) < 1e-8))
    return count


def validate_heat_coefficients(m: int) -> Tuple[float, float]:
    """Relative errors of the fitted t^{-1}, t^0 coefficients of the rescaled
    degree-0 heat trace against the model-density prediction.

    The rescaled trace m^{-1} Tr^(0)[e^{-(t/m) Box}] should match
    vol * (2 pi)^{-2} * a/(1 - e^{-a t}) with a = 1 as m grows; in this
    convention the t^{-1} coefficient is 1 and the t^0 coefficient is 1/2.
    """
    if m < 1:
        raise DomainError(f"need weight m >= 1, got m={m}")
    spec = cp1_spectrum(m, max(2048, 4 * m))
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
