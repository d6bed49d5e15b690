"""Independent validation of the circle-bundle closed-form spectrum.

The degree-0 Fourier component of the Kohn Laplacian on the 3-sphere model is
diagonalized by Rayleigh-Ritz on monomials.  Writing points of the sphere as
(z1, z2) with |z1|^2 + |z2|^2 = 1, the weight-m subspace is spanned by
monomials z^alpha zbar^beta with |alpha| - |beta| = m.  Inner products couple
two monomials only when their difference vectors alpha - beta agree, so the
problem splits into blocks indexed by d = (d1, d2), d1 + d2 = m.

On the sphere each block is one-dimensional.  The block of difference d and
antiholomorphic degree <= K is F_d times the polynomials of degree
<= J = K - max(0, -d1) - max(0, -d2) in x = |z2|^2, where
F_d = z^max(0, d) zbar^max(0, -d) (componentwise), and |z1|^2 = 1 - x.  The
sphere average of |z1|^(2a) |z2|^(2b) is a! b! / (a + b + 1)! =
int_0^1 (1 - x)^a x^b dx, so the Gram matrix of the basis F_d x^j is the
Hankel matrix of the moments of the weight (1 - x)^|d1| x^|d2|.  The span of
degree <= K holds exactly the eigenspace lines k <= K, so the projected
eigenproblem returns their eigenvalues exactly, to compare with k (k + m + 1).

The quadratic form is ||Zbar u||^2 with Zbar = z2 d/dzbar1 - z1 d/dzbar2,
normalized so that the model's Levi eigenvalue is 1.  Zbar takes the block
into the image block of difference d + (1, 1): each F_d x^j goes to two
monomials, which are F_(d+(1,1)) times an integer polynomial in x.  With H
that integer map and G_W the image block's Gram matrix, the form is
H^T G_W H.  Its zero modes are the kernel of H, counted exactly.

Every moment is a rational number, taken as a ratio to the block's first
moment by a running product, so no factorial of a weight-sized integer is
formed.  The Gram matrix is factored as L D L^T and the form projected to
D^(-1/2) L^-1 H^T G_W H L^-T D^(-1/2) in the standard library's decimal
module, then handed to a float symmetric eigensolver.  The Hankel matrix
loses about 1.5 digits per degree, like the Hilbert matrix, so the decimal
context carries 20 + 2 n digits for n = J + 1 basis functions: 40 for the
ten eigenvalues of the criterion-10 gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .density import LeviSpectrum, model_density_coeffs
from .errors import DomainError
from .series import fit_half_powers
from .spectra import CP1_VOLUME, _require_int, cp1_spectrum, trace_degree_nodes


def _image_map(d1: int, d2: int, K: int) -> List[List[int]]:
    """Zbar on the block of difference (d1, d2) and degree <= K: for each
    basis function F_d x^j, j <= J, the integer coefficients of its image in
    the basis F_d' x^i of the image block, d' = (d1 + 1, d2 + 1).  Empty when
    J < 0."""
    lo1, lo2 = max(0, -d1), max(0, -d2)  # the zbar exponents of F_d
    up1, up2 = max(0, -d1 - 1), max(0, -d2 - 1)  # and of F_d'
    width = K - up1 - up2  # the image block's degree is <= K - 1
    cols = []
    for j in range(K - lo1 - lo2 + 1):
        b1, b2 = lo1, lo2 + j  # F_d x^j = z^(b + d) zbar^b
        col = [0] * width
        # Zbar z^a zbar^b = b1 z^(a+e2) zbar^(b-e1) - b2 z^(a+e1) zbar^(b-e2),
        # and the image monomial with zbar^c is F_d' (1 - x)^g1 x^g2, g = c - up
        for c, g1, g2 in ((b1, b1 - 1 - up1, b2 - up2), (-b2, b1 - up1, b2 - 1 - up2)):
            if c:
                for i in range(g1 + 1):
                    col[g2 + i] += c * (-1) ** i * math.comb(g1, i)
        cols.append(col)
    return cols


def _moments(a: int, b: int, count: int, first: Decimal) -> List[Decimal]:
    """first * M(a, b + p) / M(a, b), p < count, in the current decimal
    context, where M(a, b) = a! b! / (a + b + 1)! = int_0^1 (1 - x)^a x^b dx."""
    out = [first]
    for p in range(1, count):
        out.append(out[-1] * (b + p) / (a + b + 1 + p))
    return out


def _factorial_ratio(n: int, k: int) -> Fraction:
    """n! / k! for nearby n and k."""
    return Fraction(math.perm(n, n - k)) if n >= k else 1 / Fraction(math.perm(k, k - n))


def _rank(cols: List[List[int]]) -> int:
    """Rank of integer vectors, by fraction-free elimination."""
    rows = [col for col in cols if any(col)]
    rank = 0
    while rows:
        pivot = rows.pop()
        p = next(i for i, v in enumerate(pivot) if v)
        rank += 1
        for i, row in enumerate(rows):
            if row[p]:
                rows[i] = [pivot[p] * x - row[p] * y for x, y in zip(row, pivot)]
        rows = [row for row in rows if any(row)]
    return rank


def _forms(d1: int, d2: int, cols: List[List[int]]) -> Tuple[List[Decimal], List[List[Decimal]]]:
    """The Gram matrix and the quadratic form of the block of difference
    (d1, d2) with image map ``cols``, in the current decimal context and as
    multiples of M(|d1|, |d2|): the moments g, with Gram entry (i, j) at
    g[i + j], and the form H^T G_W H."""
    a, b, a_img, b_img = abs(d1), abs(d2), abs(d1 + 1), abs(d2 + 1)
    ratio = (
        _factorial_ratio(a_img, a)
        * _factorial_ratio(b_img, b)
        * _factorial_ratio(a + b + 1, a_img + b_img + 1)
    )  # M(a_img, b_img) / M(a, b)
    gram = _moments(a, b, 2 * len(cols) - 1, Decimal(1))
    image = _moments(a_img, b_img, 2 * len(cols[0]) - 1, Decimal(ratio.numerator) / ratio.denominator)
    terms = [[(k, c) for k, c in enumerate(col) if c] for col in cols]
    form = [
        [sum(ci * cj * image[k + l] for k, ci in ti for l, cj in tj) for tj in terms]
        for ti in terms
    ]
    return gram, form


def _project(gram: List[Decimal], form: List[List[Decimal]]) -> np.ndarray:
    """D^(-1/2) L^-1 A L^-T D^(-1/2) as a float matrix, for the Hankel Gram
    matrix G = L D L^T of the moments ``gram`` and the form A, computed in
    the current decimal context."""
    n = len(form)
    low, ld, diag = [], [], []  # G = L D L^T, row by row; ld holds the rows of L D
    for i in range(n):
        row, ld_row = [], []
        for j in range(i):
            ld_row.append(gram[i + j] - sum(x * y for x, y in zip(row, ld[j])))
            row.append(ld_row[j] / diag[j])
        diag.append(gram[2 * i] - sum(x * y for x, y in zip(row, ld_row)))
        low.append(row)
        ld.append(ld_row)
    x_rows = []  # rows of L^-1 A
    for i in range(n):
        row = form[i]
        for k in range(i):
            row = [u - low[i][k] * v for u, v in zip(row, x_rows[k])]
        x_rows.append(row)
    y_rows = []  # rows of L^-1 (L^-1 A)^T = L^-1 A L^-T
    for i in range(n):
        row = [x_row[i] for x_row in x_rows]
        for k in range(i):
            row = [u - low[i][k] * v for u, v in zip(row, y_rows[k])]
        y_rows.append(row)
    scale = [1 / d.sqrt() for d in diag]
    return np.array(
        [[float(y * si * sj) for y, sj in zip(row, scale)] for row, si in zip(y_rows, scale)]
    )


def galerkin_block_eigenvalues(m: int, K: int, d1_offset: int = 0) -> np.ndarray:
    """Sorted eigenvalues of the degree-0 block with difference vector
    d = (m + d1_offset, -d1_offset), antiholomorphic degree <= K: J + 1 of
    them, k (k + m + 1) for k = K - J ... K, or none for an empty block.

    The forms are built and projected (``_forms``, ``_project``) in decimal
    at 20 + 2 n digits for the block's n = J + 1 basis functions, and the
    float eigensolver reads the projected form.
    """
    _require_int(m=m, K=K, d1_offset=d1_offset)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    if K < 1:
        raise DomainError(f"need K >= 1, got K={K}")
    d1, d2 = m + d1_offset, -d1_offset
    cols = _image_map(d1, d2, K)
    if not cols:
        return np.array([])
    with localcontext(Context(prec=20 + 2 * len(cols))):
        proj = _project(*_forms(d1, d2, cols))
    return np.linalg.eigvalsh(proj)  # ascending


@dataclass(frozen=True)
class OracleReport:
    eigenvalue_rel_error: float
    kernel_dims: Tuple[int, ...]
    kernel_dims_expected: Tuple[int, ...]
    heat_coeff_rel_errors: Tuple[float, float]
    passed: bool


def validate_eigenvalues(m: int, num_eigs: int = 10, basis_factor: int = 4) -> float:
    """Max relative error of the first ``num_eigs`` Galerkin eigenvalues
    against k(k+m+1), from the principal block of degree num_eigs - 1.

    Zbar lowers the degree, so the span of degree <= j is invariant for every
    j and a deeper block gives the same first ``num_eigs`` eigenvalues:
    ``basis_factor`` is checked but no longer changes the result.
    """
    _require_int(m=m, num_eigs=num_eigs, basis_factor=basis_factor)
    if num_eigs < 1:
        raise DomainError(f"need num_eigs >= 1, got num_eigs={num_eigs}")
    if basis_factor < 1:
        raise DomainError(f"need basis_factor >= 1, got basis_factor={basis_factor}")
    eigs = galerkin_block_eigenvalues(m, max(num_eigs - 1, 1))[:num_eigs]
    k = np.arange(num_eigs)
    expected = k * (k + m + 1.0)
    return float(np.max(np.abs(eigs - expected) / np.maximum(expected, 1.0)))


def validate_kernel_dimension(m: int) -> int:
    """Count zero modes across all difference-vector blocks of
    antiholomorphic degree <= 6: per block, J + 1 less the exact rank of its
    integer Zbar map.

    Blocks with d1_offset outside [-(m+2), 2] are provably empty of zero modes
    in this range check; the expected total is m + 1.
    """
    _require_int(m=m)
    if m < 0:
        raise DomainError(f"need m >= 0, got m={m}")
    count = 0
    for off in range(-2, m + 3):
        cols = _image_map(m - off, off, 6)
        count += len(cols) - _rank(cols)
    return count


def validate_heat_coefficients(m: int) -> Tuple[float, float]:
    """Relative errors of the fitted t^{-1}, t^0 coefficients of the rescaled
    degree-0 heat trace against the model-density prediction.

    The rescaled trace m^{-1} Tr^(0)[e^{-(t/m) Box}] should match
    vol * (2 pi)^{-2} * a/(1 - e^{-a t}) with a = 1 as m grows; in this
    convention the t^{-1} coefficient is 1 and the t^0 coefficient is 1/2.
    The table is ``cp1_spectrum(m)``'s, max(1024, 4 m) lines, except at
    m = 185 ... 341: there its tail bound at the smallest node t = 5e-3 / m
    passes 1e-10, and the table grows to k_max^2 t >= 40 (bound ~e^{-40} / t).
    """
    _require_int(m=m)
    if m < 1:
        raise DomainError(f"need weight m >= 1, got m={m}")
    spec = cp1_spectrum(m)
    grid = np.geomspace(5e-3, 0.3, 48)
    k_max = math.ceil(math.sqrt(40.0 * m / grid[0]))
    if spec.tail.k_next <= k_max:
        spec = cp1_spectrum(m, k_max)
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
    m_eigs: Tuple[int, ...] = (1, 5, 4096),
    m_kernel: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8),
    m_heat: int = 64,
    num_eigs: int = 10,
    basis_factor: int = 4,
    eig_tol: float = 1e-12,
    heat_tol: float = 0.02,
) -> OracleReport:
    """Full validation gate for the closed-form circle-bundle spectrum.

    ``basis_factor`` goes to ``validate_eigenvalues``, where it no longer
    changes the result.
    """
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
