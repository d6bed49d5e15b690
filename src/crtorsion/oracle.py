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
are k (k + m + 1).  Zbar takes the block of difference d and degree <= K into
the image block of difference d + (1, 1) and degree <= K - 1, two terms per
monomial, so the form is the Gram matrix of the images, H^T G_W H.  Both
projected forms, q^T G q on an orthonormal basis q of the Gram matrix's range
and (H q)^T G_W (H q), come from one sweep that forms only the column panels
on and below the diagonal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .density import LeviSpectrum, model_density_coeffs
from .errors import DomainError
from .series import fit_half_powers
from .spectra import CP1_VOLUME, _require_int, cp1_spectrum, trace_degree_nodes


#: Gram columns formed per step of the sweep that projects the two forms
_PANEL = 32


def _log_moments(n1: int, n2: int) -> np.ndarray:
    """log of g1! g2! / (g1 + g2 + 1)! on the n1 x n2 grid of g >= 0.

    math.lgamma, not scipy's gammaln: the top eigenvalues of a block are
    conditioned at ~1e-9 and show last-bit differences in the moments.
    """
    log_fact = np.array([math.lgamma(k + 1) for k in range(n1 + n2)])
    g1, g2 = np.arange(n1)[:, None], np.arange(n2)
    return log_fact[g1] + log_fact[g2] - log_fact[g1 + g2 + 1]


# Cached: rebuilding it per block makes the 81 degree-6 blocks of the
# kernel-dimension check about 15 % slower.
@functools.lru_cache(maxsize=16)
def _triangle(K: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(b1, b2, up, coef), shared by every block of degree K: all (b1, b2) of
    degree <= K, by degree and then b1, so the first K (K + 1) / 2 are those
    of degree <= K - 1; for each such c, up[:, c] holds the places of c + e1
    and c + e2, and coef[:, c] = (c1 + 1, -(c2 + 1)) the coefficients of the
    image monomial c in Zbar of those two."""
    tot = np.repeat(np.arange(K + 1), np.arange(1, K + 2))
    b1 = np.arange(tot.size) - tot * (tot + 1) // 2
    b2 = tot - b1
    c = slice(0, K * (K + 1) // 2)
    above = np.arange(c.stop) + tot[c] + 2
    out = (b1, b2, np.stack((above, above - 1)), np.stack((b1[c] + 1, -(b2[c] + 1))))
    for a in out:
        a.flags.writeable = False
    return out


def galerkin_block_eigenvalues(m: int, K: int, d1_offset: int = 0) -> np.ndarray:
    """Sorted eigenvalues of the degree-0 block with difference vector
    d = (m + d1_offset, -d1_offset), antiholomorphic degree <= K.

    The basis is z^alpha zbar^beta with alpha = beta + d, normalized, so the
    Gram entry of beta_i, beta_j is the normalized moment M(beta_i + beta_j + d).
    Zbar maps z^alpha zbar^beta to
    b1 z^(alpha+e2) zbar^(beta-e1) - b2 z^(alpha+e1) zbar^(beta-e2): monomials
    of the image block, difference d + (1, 1) and degree <= K - 1.  With H
    that two-term map onto the normalized image monomials and G_W their Gram
    matrix, the quadratic form ||Zbar u||^2 is H^T G_W H.

    No n x n matrix is formed: the factor reads the Gram matrix a column at
    a time, giving an orthonormal basis q of its range, and the two projected
    forms q^T G q and (H q)^T G_W (H q) come from one panelled sweep
    (``_projected_gram``), so memory is O(n (rank + _PANEL)) for n basis
    monomials.
    """
    _require_int(m=m, K=K, d1_offset=d1_offset)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    if K < 1:
        raise DomainError(f"need K >= 1, got K={K}")
    d1, d2 = m + d1_offset, -d1_offset
    b1, b2, up, coef = _triangle(K)
    inside = (b1 >= -d1) & (b2 >= -d2)
    n = int(np.count_nonzero(inside))
    if not n:
        return np.array([])
    # Both blocks read one table of log moments, the image at an offset of
    # (1, 1).  The block's largest b1 is K - max(0, -d2), and the image's
    # largest g is one step above the block's in each coordinate.
    top1, top2 = K - max(0, -d2), K - max(0, -d1)
    table = _log_moments(2 * top1 + d1 + 2, 2 * top2 + d2 + 2)
    width, log_moment = table.shape[1], table.ravel()
    flat = (b1 * width + b2).astype(np.int32)
    row = flat[inside]
    shift = d1 * width + d2  # B_ij at row_i + row_j + shift
    log_norm = -0.5 * log_moment[2 * row + shift]
    col_row = row + np.int32(shift)

    def column(p: int) -> np.ndarray:
        """Column p of the Gram matrix.  The norms are added as one sum, so
        column(p)[i] == column(i)[p] exactly."""
        return np.exp(log_moment[col_row[p]:][row] + (log_norm + log_norm[p]))

    # On the sphere |z1|^2 + |z2|^2 = 1 makes every lower-degree monomial a
    # combination of degree-K ones, so the Gram matrix has rank <= K + 1.
    # Pivoted Cholesky finds that range; Rayleigh-Ritz on its orthonormal
    # basis gives the eigenpairs (the SVD of the factor is less accurate).
    # The diagonal is exp(log M_ii - 2 (0.5 log M_ii)) = exp(0) = 1 exactly.
    q = np.linalg.qr(_pivoted_cholesky(np.ones(n), column))[0]
    gram_q = _projected_gram(log_moment, row, shift, log_norm, q)
    # H q on the image monomials that Zbar reaches from the block.  pos is
    # each beta's place in the block, or n off it, where q has a zero row.
    pos = np.full(b1.size, n)
    pos[inside] = np.arange(n)
    via = pos[up]
    hit = via.min(axis=0) < n
    via, img_row = via[:, hit], flat[: up.shape[1]][hit]
    img_shift = shift + width + 1
    img_log_norm = -0.5 * log_moment[2 * img_row + img_shift]
    # H between the normalized monomials: coef * exp(log_norm_beta - img_log_norm_c)
    h = coef[:, hit] * np.exp(np.concatenate((log_norm, [0.0]))[via] - img_log_norm)
    ext_q = np.concatenate((q, np.zeros((1, q.shape[1]))))
    hq = h[0, :, None] * ext_q[via[0]] + h[1, :, None] * ext_q[via[1]]
    quad_q = _projected_gram(log_moment, img_row, img_shift, img_log_norm, hq)
    w, y = np.linalg.eigh(gram_q)
    keep = w > 1e-10 * w.max()  # drop the Gram matrix's numerical null space
    z = y[:, keep] / np.sqrt(w[keep])
    return np.linalg.eigvalsh(z.T @ quad_q @ z)  # ascending


def _projected_gram(
    log_moment: np.ndarray, row: np.ndarray, shift: int, log_norm: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """x^T G x, exactly symmetric, for the Gram matrix
    G_ij = exp(log_moment[row_i + row_j + shift] + (log_norm_i + log_norm_j)).

    Only the panels of _PANEL columns on and below the diagonal are formed:
    with each diagonal block halved they sum to a T with T + T^T = x^T G x.
    """
    col_row = row + np.int32(shift)
    half = np.zeros((x.shape[1], x.shape[1]))
    for start in range(0, row.size, _PANEL):
        cols = slice(start, start + _PANEL)
        g = np.take(log_moment, np.add.outer(row[start:], col_row[cols]))
        g += np.add.outer(log_norm[start:], log_norm[cols])
        np.exp(g, out=g)
        g[:_PANEL] *= 0.5  # the diagonal block
        half += (x[start:].T @ g) @ x[cols]
    return half + half.T


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
    _require_int(m=m)
    if m < 1:
        raise DomainError(f"need weight m >= 1, got m={m}")
    spec = cp1_spectrum(m, max(2048, 4 * m))
    grid = np.geomspace(5e-3, 0.3, 48)
    values, bounds = trace_degree_nodes(spec, 0, grid / m, nonzero_only=False)
    if (bounds > 1e-10).any():
        raise DomainError("heat-coefficient grid extends below trust floor")
    samples = list(zip(grid.tolist(), (values / m).tolist()))
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
