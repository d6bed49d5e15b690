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

The blocks of one weight and degree are factored together in one batched
pass (the kernel-dimension check's m + 5 blocks; a single block is a batch
of one).  They share the (b1, b2) triangle and one moment table.  Each
block's monomials come first, in triangle order, padded to the largest block
at log norm -inf, which gives zero Gram rows and columns: the pivoted
Cholesky never pivots on the padding, stops each block at its own tolerance,
and writes zero columns for a block that stopped before the others.  QR, the
two sweeps and the Gram eigendecomposition run on the whole batch; the
null-space cut drops the directions of those zero columns, and Rayleigh-Ritz
runs block by block on the kept ones.  Batching is what pays for the
kernel count, whose blocks hold at most 28 monomials: numpy's cost per call
outweighs their arithmetic, and the 14 kernel-count calls of a criterion-10
gate plus selfcheck take 27 ms against 58 ms block by block (2-CPU Xeon VM,
one BLAS thread).
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
    that two-term map onto the image monomials and G_W their Gram matrix, the
    quadratic form ||Zbar u||^2 is H^T G_W H.

    No n x n matrix is formed: the factor reads the Gram matrix a column at
    a time, giving an orthonormal basis q of its range, and the two projected
    forms q^T G q and (H q)^T G_W (H q) come from one panelled sweep
    (``_projected_gram``), so memory is O(n (rank + _PANEL)) for n basis
    monomials.  This is ``_galerkin_blocks`` with a batch of one.
    """
    return _galerkin_blocks(m, K, [d1_offset])[0]


def _galerkin_blocks(m: int, K: int, d1_offsets) -> list:
    """``galerkin_block_eigenvalues(m, K, off)`` for each off in
    ``d1_offsets``, all factored in one batched pass; an empty block gives an
    empty array in its place.

    The blocks share the triangle of (b1, b2) and one moment table.  Each
    block's monomials come first, in triangle order, padded to the largest
    block at log norm -inf: the padding has zero Gram rows and columns, so
    the factor never pivots on it and each block factors as it would alone.
    """
    _require_int(m=m, K=K)
    for d1_offset in d1_offsets:
        _require_int(d1_offset=d1_offset)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    if K < 1:
        raise DomainError(f"need K >= 1, got K={K}")
    offsets = np.array(d1_offsets, dtype=np.int64)
    b1, b2, up, coef = _triangle(K)
    inside = (b1 >= -(m + offsets[:, None])) & (b2 >= offsets[:, None])
    busy = np.flatnonzero(inside.any(axis=1))
    out = [np.array([]) for _ in offsets]
    if not busy.size:
        return out
    inside, d1, d2 = inside[busy], m + offsets[busy], -offsets[busy]
    # One table of log moments for the batch, each image read at an offset
    # of (1, 1).  A block's largest b1 is K - max(0, -d2), and its image's
    # largest g is one step above the block's in each coordinate.
    top1, top2 = K - np.maximum(0, -d2), K - np.maximum(0, -d1)
    table = _log_moments(int((2 * top1 + d1).max()) + 2, int((2 * top2 + d2).max()) + 2)
    width, log_moment = table.shape[1], table.ravel()
    flat = (b1 * width + b2).astype(np.int32)
    shift = (d1 * width + d2).astype(np.int32)  # B_ij at row_i + row_j + shift
    at = np.arange(busy.size)
    places, real = _front(inside)
    row = flat[places]
    log_norm = np.where(real, -0.5 * log_moment[2 * row + shift[:, None]], -np.inf)
    col_row = row + shift[:, None]

    def column(p: np.ndarray) -> np.ndarray:
        """Column p[b] of each block b's Gram matrix.  The norms are added as
        one sum, so column(p)[b, i] == column(i)[b, p] exactly."""
        return np.exp(
            np.take(log_moment, row + col_row[at, p][:, None])
            + (log_norm + log_norm[at, p][:, None])
        )

    # On the sphere |z1|^2 + |z2|^2 = 1 makes every lower-degree monomial a
    # combination of degree-K ones, so the Gram matrix has rank <= K + 1.
    # Pivoted Cholesky finds that range; Rayleigh-Ritz on its orthonormal
    # basis gives the eigenpairs (the SVD of the factor is less accurate).
    # The diagonal is exp(log M_ii - 2 (0.5 log M_ii)) = exp(0) = 1 exactly,
    # and exp(-inf) = 0 on the padding.
    q = np.linalg.qr(_pivoted_cholesky(real.astype(float), column))[0]
    # u = q in raw monomials (the norms scale its rows; 0 on the padding),
    # then a zero row at n, off the block.  G = D M D for the raw moments M
    # and D the norms, so q^T G q = u^T M u.
    n = row.shape[1]
    u = np.zeros((at.size, n + 1, q.shape[2]))
    np.multiply(np.exp(log_norm)[..., None], q, out=u[:, :n])
    moment = np.exp(log_moment)
    gram_q = _projected_gram(moment, row, shift, u[:, :n])
    # Zbar u in the raw image monomials that Zbar reaches from each block:
    # image monomial c takes coef[k, c] times u's row via[k, c].
    via = np.where(inside, np.cumsum(inside, axis=1) - 1, n)[:, up]
    img_places, img_real = _front(via.min(axis=1) < n)
    via = np.where(img_real[:, None], np.take_along_axis(via, img_places[:, None], axis=2), n)
    img_coef = coef[:, img_places, None]
    zbar_u = img_coef[0] * u[at[:, None], via[:, 0]] + img_coef[1] * u[at[:, None], via[:, 1]]
    quad_q = _projected_gram(moment, flat[img_places], shift + width + 1, zbar_u)
    w, y = np.linalg.eigh(gram_q)
    for b, wb, yb, quad in zip(busy.tolist(), w, y, quad_q):
        keep = wb > 1e-10 * wb.max()  # drop the Gram matrix's numerical null space
        z = yb[:, keep] / np.sqrt(wb[keep])
        out[b] = np.linalg.eigvalsh(z.T @ quad @ z)  # ascending
    return out


def _front(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(places, real) for a batch of masks over the triangle: each row's
    places where mask holds, in triangle order, padded to the longest row
    with its first place; real marks the slots that are not padding."""
    counts = np.count_nonzero(mask, axis=1)
    places = np.argsort(~mask, axis=1, kind="stable")[:, : counts.max()]
    real = np.arange(places.shape[1]) < counts[:, None]
    return np.where(real, places, places[:, :1]), real


def _projected_gram(
    moment: np.ndarray, row: np.ndarray, shift: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """x_b^T M_b x_b, exactly symmetric, for each block b of a batch, with
    M_b,ij = moment[row_b,i + row_b,j + shift_b].

    The sweep gathers moments and takes no exp: the caller scales the rows
    of x by the norms.  Only the panels of _PANEL columns on and below the
    diagonal are formed: with each diagonal block halved they sum to a T
    with T + T^T = x^T M x.
    """
    xt = x.transpose(0, 2, 1)
    col_row = row + shift[:, None]
    half = np.zeros((x.shape[0], x.shape[2], x.shape[2]))
    for start in range(0, row.shape[1], _PANEL):
        cols = slice(start, start + _PANEL)
        g = np.take(moment, row[:, start:, None] + col_row[:, None, cols])
        g[:, :_PANEL] *= 0.5  # the diagonal block
        half += (xt[:, :, start:] @ g) @ x[:, cols]
    return half + half.transpose(0, 2, 1)


def _pivoted_cholesky(diag: np.ndarray, column) -> np.ndarray:
    """Factors L_b, rows in input order, with a_b = L_b L_b^T on the range of
    each positive semidefinite, symmetric matrix a_b of a batch, given its
    diagonal diag[b] and column(p)[b] = column p[b] of a_b: by Cholesky with
    diagonal pivoting that asks for one column of each a_b per step.  A
    zero diagonal entry (padding) has a zero row and column and is never a
    pivot; n_b counts the nonzero ones.

    LAPACK's dpstrf at its default tolerance, step for step and block by
    block: each step takes the largest remaining diagonal a_ii - sum_k L_ik^2
    as pivot (the first on ties, in dpstrf's swap order) and stops once it is
    at most n_b * u * max_i a_ii, u = 2^-53; the pivot's column is its column
    of a less the product of the earlier columns with the pivot's row, times
    1 / sqrt(pivot).  A block that has stopped gets zero columns until every
    block has stopped, so L_b has rank_b columns and then zeros.  Columns
    are stored as the rows of L^T, in a buffer that doubles when the rank
    outgrows it.
    """
    nb, n = diag.shape
    at = np.arange(nb)
    sumsq = np.zeros((nb, n))
    perm = np.tile(np.arange(n), (nb, 1))  # dpstrf's row order, for its tie-breaking
    lt = np.empty((nb, min(n, 16), n))
    stop = np.count_nonzero(diag, axis=1) * (np.finfo(float).eps / 2.0) * diag.max(axis=1)
    live = np.ones(nb, dtype=bool)
    open_rows = np.ones((nb, n))  # 0 on the pivots so far
    rank = 0
    for j in range(n):
        order = perm[:, j:]  # a view: the swap below writes to perm
        rest = (diag - sumsq)[at[:, None], order]
        p = rest.argmax(axis=1)
        ajj = rest[at, p]
        live &= ajj > stop  # also stops on nan
        if not live.any():
            break
        pivot = order[at, p]
        order[at, p] = order[:, 0]
        order[:, 0] = pivot
        ajj = np.sqrt(np.where(live, ajj, 1.0))
        col = column(pivot) - (lt[at, :j, pivot][:, None] @ lt[:, :j])[:, 0]
        col *= (live / ajj)[:, None]  # zero on blocks that stopped
        col *= open_rows
        col[at, pivot] = ajj * live
        open_rows[at, pivot] = 0.0
        if j == lt.shape[1]:
            lt = np.concatenate((lt, np.empty_like(lt)), axis=1)
        lt[:, j] = col
        col *= col
        sumsq += col
        rank = j + 1
    return lt[:, :rank].transpose(0, 2, 1)


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
    blocks = _galerkin_blocks(m, 6, [-off for off in range(-2, m + 3)])
    return sum(int(np.count_nonzero(np.abs(eigs) < 1e-8)) for eigs in blocks)


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
