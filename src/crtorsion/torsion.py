"""Torsion pipeline: expansion coefficients, the regularized log-determinant
derivative by two independent routes, the asymptotic right-hand side, and
m-sweep reports.

Route 1 (heat kernel): the four-term formula at z = 0 of the Mellin transform
of the rescaled degree-weighted heat super trace, delegated to
``mellin_at_zero`` with theta~(z) = -M[m^{-n} STr N e^{-(t/m) Box} perp](z).
A report takes theta'(0) = m^n (theta~'(0) - log m theta~(0)) from its one
Mellin call.  theta~(0) is an expansion coefficient with no quadrature in
it, so the error is m^n times theta~'(0)'s estimate plus the float rounding
eps m^n log m |theta~(0)| of the product; at m = 1 this is the unscaled heat
route, ``theta_prime_zero_result``, bit for bit.  At
large m the unscaled route is the weaker one: its floor model, the truncated
small-t expansion below the trust floor, stops holding as m * floor nears 1,
and from m = 16384 on it misses the direct value by more than its estimate.

Route 2 (direct): term-wise -log(lambda) over the listed lines plus analytic
continuation of the quadratic-law tail through Hurwitz zeta values.

The two routes share nothing numerically beyond the spectrum itself; every
report enforces |heat - direct| <= err_heat + err_direct, with no factor and
no floor.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import ArityError, DomainError, TwoPathMismatchError, UnsupportedTailError
from .mellin import DEFAULT_TOL, GAMMA_PRIME_1, MellinInput, MellinResult, _require_tol, mellin_at_zero
from .series import FitResult, fit_half_powers
from .spectra import (
    FiniteTail,
    GeometryModel,
    QuadraticTail,
    SpectrumTable,
    decay_certificate,
    heat_supertrace_N,
    supertrace_trust_floor,
)
from .tails import em_heat_series, zeta_log_tail

TWO_PI = 2.0 * math.pi
#: Unit in the last place of 1.0, the float rounding unit of the heat value.
_EPS = math.ulp(1.0)

#: Default number of half-power slots (exponents -n .. -n + j_max/2).
DEFAULT_JMAX_EXTRA = 8

#: Largest truncation-tail bound, relative to the sampled value + 1, that a
#: fitted grid point may carry.
FIT_TAIL_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Expansion coefficients of the heat super trace
# ---------------------------------------------------------------------------


def closed_form_bhat(spec: SpectrumTable, j_max: int | None = None) -> List[float]:
    """Exact expansion coefficients of STr[N e^{-t Box}] on the ladder
    t^{-n}, t^{-n+1/2}, ..., computed without fitting.

    Finite tables get the Taylor coefficients of the finite sum (no singular
    part).  Tables whose quadratic tail law covers all listed lines get the
    Euler-Maclaurin closed form of the full law sum, plus Taylor terms of any
    lines outside the law.  Anything else must go through ``extract_bhat``.
    """
    n = spec.n
    if j_max is None:
        j_max = 2 * n + DEFAULT_JMAX_EXTRA
    coeffs = [0.0] * (j_max + 1)
    trunc = (j_max - 2 * n) / 2.0 + 0.5  # first exponent beyond the ladder

    if isinstance(spec.tail, QuadraticTail) and spec.tail.covers_all_lines:
        law = spec.tail.law
        try:
            series = em_heat_series(law, spec.tail.k_first, trunc)
        except DomainError as exc:
            raise DomainError(f"closed_form_bhat with j_max = {j_max}: {exc}") from exc
        weight = spec.tail.weight
        for j in range(j_max + 1):
            e2 = j - 2 * n  # twice the exponent -n + j/2
            if series.base2 <= e2 < series.trunc2:
                coeffs[j] += weight * series.coeffs[e2 - series.base2]
    elif isinstance(spec.tail, QuadraticTail):
        raise UnsupportedTailError(
            "tail law does not cover the listed lines; use extract_bhat"
        )

    lam, w = spec._outside_law
    # e^{-lam t} Taylor lands on integer exponents p >= 0, i.e. j = 2n + 2p;
    # cumsum keeps the rounding of a line-by-line running sum (np.sum pairs);
    # a circle-bundle table has no line outside its law
    if w.size:
        for p in range((j_max - 2 * n) // 2 + 1):
            term = (-lam) ** p / math.factorial(p) if p else 1.0
            j = 2 * n + 2 * p
            coeffs[j] = float(np.cumsum(np.concatenate(([coeffs[j]], w * term)))[-1])
    return coeffs


def extract_bhat(
    spec: SpectrumTable,
    num_terms: int,
    t_grid: Sequence[float],
) -> FitResult:
    """Fit the expansion coefficients from sampled super traces.

    The grid must lie where the truncation tail bound is negligible relative
    to the sampled values; violating grids raise DomainError.
    """
    n = spec.n
    if num_terms > 2 * n + 2 + DEFAULT_JMAX_EXTRA:
        raise ArityError(f"num_terms {num_terms} beyond supported ladder")
    samples = []
    for t in t_grid:
        tv = heat_supertrace_N(spec, float(t), False)
        samples.append((float(t), tv.value))
        if tv.tail_bound > FIT_TAIL_REL_TOL * (abs(tv.value) + 1.0):
            raise DomainError(
                f"t = {t:.3g} lies below the trusted floor of the truncated "
                f"table (tail bound {tv.tail_bound:.2e})"
            )
    return fit_half_powers(samples, -n, num_terms)


# ---------------------------------------------------------------------------
# Route 1: heat-kernel / Mellin path
# ---------------------------------------------------------------------------


def _theta_mellin(
    spec: SpectrumTable,
    bhat: Sequence[float],
    m: int,
    tol: float,
    gamma_prime_1: float = GAMMA_PRIME_1,
) -> MellinResult:
    """(theta(0), theta'(0), error) of the rescaled trace m^{-n} S(t/m), where
    S(t) = STr[N e^{-t Box} perp] and theta(z) = -M[m^{-n} S(t/m)](z).

    The substitution t -> t/m turns the expansion coefficient of t^{-n+j/2}
    into bhat_j m^{-j/2} (up to the overall m^{-n}), moves the trust floor to
    m * floor and the decay certificate to t >= 1/m.  At m = 1 every
    rescaling is exact, so this is the heat route itself.  ``tol`` is the
    quadrature tolerance; the trust floor certifies the tail to min(1e-13, tol/100).
    """
    n = spec.n
    if len(bhat) < 2 * n + 1:
        raise ArityError(
            f"bhat must supply the ladder through t^0: need {2 * n + 1} "
            f"coefficients, got {len(bhat)}"
        )
    scale = float(m) ** (-n)
    expansion = [float(b) * float(m) ** (-0.5 * j) for j, b in enumerate(bhat)]
    expansion[2 * n] -= spec.supertrace_N_kernel() * scale
    _require_tol(tol)
    floor = supertrace_trust_floor(spec, tol=min(1e-13, tol * 1e-2))
    if m * floor >= 1.0:
        k_next = spec.tail.k_next
        what = f"the trust floor t = {floor:.3g} of a table that stops at k_next = {k_next}"
        if m > 1:
            what = f"m = {m}: {what}, rescaled to m*floor = {m * floor:.3g},"
        raise DomainError(f"{what} reaches t = 1; the spectrum table is too short for this weight")

    # the trust floor above certifies the omitted tail once for every node,
    # so the integrand reads values only
    def f(t: np.ndarray) -> np.ndarray:
        return scale * spec._supertrace_value(t / m)

    C, c = decay_certificate(spec, t_min=1.0 / m)
    inp = MellinInput(f, n, tuple(expansion), (scale * C, c / m), m * floor)
    res = mellin_at_zero(inp, tol, gamma_prime_1=gamma_prime_1)
    return MellinResult(-res.value0, -res.derivative0, res.error_estimate)


def theta_prime_zero_result(
    spec: SpectrumTable,
    bhat: Sequence[float],
    tol: float = DEFAULT_TOL,
    gamma_prime_1: float = GAMMA_PRIME_1,
) -> MellinResult:
    """Unscaled heat-kernel route: (theta(0), theta'(0), error) by the
    four-term formula; ``torsion_report`` takes the rescaled one instead."""
    return _theta_mellin(spec, bhat, 1, tol, gamma_prime_1)


# ---------------------------------------------------------------------------
# Route 2: direct zeta continuation
# ---------------------------------------------------------------------------


def theta_prime_zero_direct_result(spec: SpectrumTable) -> Tuple[float, float]:
    """(theta'(0), error bound) via term-wise continuation.

    Listed lines contribute (-1)^q q mult log(lambda) exactly; a quadratic
    tail adds the continued remainder from ``zeta_log_tail``, which sums the
    law in decimal arithmetic at O(1) cost in m.  When the tail law covers
    the listed lines, the continuation starts at the first law index instead
    of k_next, where a float split would lose ~eps k_next^2 log(k_next) to
    cancellation; the result is then independent of the table truncation.
    The bound adds ``zeta_log_tail``'s error in each tail degree, half an ulp
    of the law term, 8e-16 (sum |term| + 1) over the other lines and half an
    ulp of the ``fsum`` total.
    """
    terms = []
    err = 0.0
    if isinstance(spec.tail, QuadraticTail):
        law = spec.tail.law
        k_anchor = spec.tail.k_first if spec.tail.covers_all_lines else spec.tail.k_next
        _, deriv, zerr = zeta_log_tail(law, k_anchor)
        if spec.tail.weight:
            terms.append(-spec.tail.weight * deriv)
            err += 0.5 * math.ulp(terms[0])
        err += sum(spec.tail.degrees) * zerr
    elif not isinstance(spec.tail, FiniteTail):
        raise UnsupportedTailError(f"unsupported tail policy {spec.tail!r}")
    lam, w = spec._outside_law
    listed = (w[lam > 0.0] * np.log(lam[lam > 0.0])).tolist() if w.size else []
    total = math.fsum(terms + listed)
    err += 8e-16 * (math.fsum(map(abs, listed)) + 1.0)
    return total, err + 0.5 * math.ulp(total)


# ---------------------------------------------------------------------------
# Asymptotic right-hand side
# ---------------------------------------------------------------------------


def torsion_rhs(model: GeometryModel, m: int) -> float:
    """Closed form of the asymptotic prediction for constant curvature data:

        (rank / 4 pi) m^n sum_j log(m a_j / 2 pi) det(R / 2 pi) vol .
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    model.levi.require_strongly_pseudoconvex("torsion_rhs")
    log_sum = sum(math.log(m * float(a) / TWO_PI) for a in model.levi.eigenvalues)
    return (
        model.rank_e
        / (4.0 * math.pi)
        * float(m) ** model.n
        * log_sum
        * model.levi.det_norm
        * model.volume
    )


# ---------------------------------------------------------------------------
# Reports and the m-sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    """One m-slice of the sweep; two-path consistency is enforced on build.

    ``theta_prime_0`` is the heat value m^n (theta~'(0) - log m theta~(0)),
    taken from the ``theta_tilde_*`` fields; ``error_budget`` is its error
    m^n (``theta_tilde_error`` + eps log m |``theta_tilde_0``|) plus the
    direct route's bound, and |heat - direct| must not exceed it.
    ``theta_tilde_error`` is theta~'(0)'s quadrature estimate alone:
    theta~(0) is an expansion coefficient, and eps log m |theta~(0)| is the
    float rounding of its product with log m.
    """

    m: int
    theta_prime_0: float
    theta_prime_0_direct: float
    bhat: Tuple[float, ...]
    rhs: float
    residual: float
    error_budget: float
    theta_tilde_0: float = 0.0
    theta_tilde_prime_0: float = 0.0
    theta_tilde_error: float = 0.0
    supertrace_N_kernel: float = 0.0

    def __post_init__(self):
        gap = abs(self.theta_prime_0 - self.theta_prime_0_direct)
        if not gap <= self.error_budget:
            raise TwoPathMismatchError(
                f"m={self.m}: |heat - direct| = {gap:.3e} exceeds the error "
                f"budget {self.error_budget:.3e}"
            )


def torsion_report(
    spec: SpectrumTable,
    model: GeometryModel,
    m: int,
    tol: float = DEFAULT_TOL,
) -> TorsionReport:
    """Build the full report for Fourier weight ``m``; ``spec`` and ``model``
    must describe the same dimension n."""
    n = model.n
    if spec.n != n:
        raise DomainError(f"spectrum table has n = {spec.n}, geometry has n = {n}")
    if m < 1:
        raise DomainError("m must be >= 1")
    bhat = closed_form_bhat(spec)
    # the heat value is theta~'s: theta'(0) = m^n (theta~'(0) - log m theta~(0));
    # theta~(0) is an expansion coefficient, free of quadrature error, so the
    # error is theta~'(0)'s plus the float rounding of log m theta~(0)
    tilde = _theta_mellin(spec, bhat, m, tol)
    mn = float(m) ** n
    log_m = math.log(m)
    heat = mn * (tilde.derivative0 - log_m * tilde.value0)
    err_heat = mn * (tilde.error_estimate + _EPS * log_m * abs(tilde.value0))
    direct, err_direct = theta_prime_zero_direct_result(spec)
    rhs = torsion_rhs(model, m)
    return TorsionReport(
        m=m,
        theta_prime_0=heat,
        theta_prime_0_direct=direct,
        bhat=tuple(float(b) for b in bhat),
        rhs=rhs,
        residual=(heat - rhs) / mn,
        error_budget=err_heat + err_direct,
        theta_tilde_0=tilde.value0,
        theta_tilde_prime_0=tilde.derivative0,
        theta_tilde_error=tilde.error_estimate,
        supertrace_N_kernel=spec.supertrace_N_kernel(),
    )


def asympt_sweep(
    model: GeometryModel,
    spectrum_source: Callable[[int], SpectrumTable],
    ms: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> List[TorsionReport]:
    """One TorsionReport per m, ms strictly increasing."""
    ms = list(ms)
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise DomainError("ms must be a nonempty strictly increasing sequence")
    return [torsion_report(spectrum_source(m), model, m, tol) for m in ms]


def residual_trend_ok(reports: Sequence[TorsionReport]) -> bool:
    """Strict decrease of |residual| over the final three reports."""
    rs = [abs(r.residual) for r in reports[-3:]]
    return all(b < a for a, b in zip(rs, rs[1:]))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "m",
    "theta_prime_0",
    "theta_prime_0_direct",
    "rhs",
    "residual",
    "error_budget",
)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def reports_to_csv(reports: Sequence[TorsionReport], metadata: dict | None = None) -> str:
    buf = io.StringIO()
    for line in _metadata_lines(metadata):
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in sorted(reports, key=lambda r: r.m):
        writer.writerow([r.m, *(_fmt(getattr(r, c)) for c in CSV_COLUMNS[1:])])
    return buf.getvalue()


def reports_to_json(reports: Sequence[TorsionReport], metadata: dict | None = None) -> str:
    payload = {
        "metadata": metadata or {},
        "reports": [asdict(r) for r in sorted(reports, key=lambda r: r.m)],
    }
    return json.dumps(payload, indent=2)


def _metadata_lines(metadata: dict | None) -> List[str]:
    if not metadata:
        return []
    return [f"{k}: {json.dumps(v, sort_keys=True, default=str)}" for k, v in sorted(metadata.items())]
