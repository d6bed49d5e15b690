"""Mellin transform at z = 0 for heat-trace-like functions.

For f with certified small-t expansion f ~ sum_j f_{-k+j/2} t^{-k+j/2} and
exponential decay |f(t)| <= C e^{-c t} (t >= 1), the transform
M[f](z) = (1/Gamma(z)) int_0^inf f t^{z-1} dt is holomorphic at 0 with

    M[f](0)  = f_0
    M[f]'(0) = int_0^1 (f - sum_{j<=2k} f_{-k+j/2} t^{-k+j/2}) dt/t
             + int_1^inf f dt/t
             + sum_{j<2k} f_{-k+j/2} / (j/2 - k)
             - Gamma'(1) f_0 .

The value at 0 is copied from the certificate; only the derivative needs
quadrature.  Half-power cusps on (0,1] are removed by the substitution
t = u^2.  Evaluators backed by truncated spectral sums declare a trust floor;
below it the regularized integrand is integrated in closed form from the
certificate's extended terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

from scipy.integrate import IntegrationWarning, quad

from .errors import ArityError, DomainError, QuadratureError
from .series import bose_factor

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061
#: Gamma'(1) = -gamma; kept named so the deliberate-mutation test can zero it.
GAMMA_PRIME_1 = -EULER_GAMMA

_EPS = 2.22e-16


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-11
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    tail_cutoff_tol: float = 1e-13

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol, self.tail_cutoff_tol) <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions must be >= 10")


@dataclass(frozen=True)
class MellinInput:
    """Evaluator plus certificates.

    ``expansion[j]`` is the coefficient of t^{-k+j/2}; at least 2k+1 entries
    (through the t^0 term).  Entries beyond index 2k are optional extended
    terms; they model the segment (0, eval_floor] when the evaluator cannot be
    trusted there (truncated spectral sums), and sharpen the cancellation
    floor otherwise.  ``decay = (C, c)`` certifies |f(t)| <= C e^{-c t} for
    t >= 1.
    """

    f: Callable[[float], float]
    k: int
    expansion: Tuple[float, ...]
    decay: Tuple[float, float]
    eval_floor: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("k must be >= 0")
        if len(self.expansion) < 2 * self.k + 1:
            raise ArityError(
                f"expansion needs at least {2 * self.k + 1} entries (through t^0), "
                f"got {len(self.expansion)}"
            )
        C, c = self.decay
        if c <= 0 or C < 0:
            raise DomainError("decay certificate requires c > 0 and C >= 0")
        if self.eval_floor < 0 or self.eval_floor >= 1.0:
            raise DomainError("eval_floor must lie in [0, 1)")
        object.__setattr__(self, "expansion", tuple(float(x) for x in self.expansion))


class MellinResult(NamedTuple):
    value0: float
    derivative0: float
    error_estimate: float


def _quad_checked(fn, a, b, cfg: QuadratureConfig, partial: float):
    """scipy quad with the package error policy.

    Accepts roundoff-limited results whose reported error is still small;
    raises QuadratureError (carrying the partial estimate) otherwise.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(
            fn,
            a,
            b,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=cfg.max_subdivisions,
            full_output=1,
        )
    value, abserr = out[0], out[1]
    if len(out) > 3:  # message present: tolerance not met
        if not math.isfinite(value) or abserr > 1e5 * max(
            cfg.abs_tol, cfg.rel_tol * abs(value)
        ):
            raise QuadratureError(
                f"quadrature on [{a:.3g}, {b:.3g}] did not converge: {out[3]}",
                partial=partial + value,
            )
    return value, abserr


def mellin_at_zero(
    inp: MellinInput,
    cfg: QuadratureConfig | None = None,
    gamma_prime_1: float = GAMMA_PRIME_1,
) -> MellinResult:
    """Value and derivative of M[f] at z = 0 with an error estimate.

    value0 is the certified f_0 verbatim.  derivative0 follows the four-term
    formula; the reported error bounds quadrature error, tail truncation, the
    first omitted floor-model term, and float cancellation in the subtracted
    integrand.  ``gamma_prime_1`` exists so diagnostic suites can mutate the
    Gamma'(1) constant; production callers leave the default.
    """
    cfg = cfg or QuadratureConfig()
    k = inp.k
    exp = inp.expansion
    value0 = exp[2 * k]

    pole_sum = sum(exp[j] / (j / 2.0 - k) for j in range(2 * k))

    has_extended = len(exp) > 2 * k + 1
    floor = inp.eval_floor
    if has_extended and k >= 1 and abs(exp[0]) > 0:
        # Float cancellation in f - P costs ~ eps |f_{-k}| t^{-k} dt/t near 0.
        # Raise the floor until the integrated noise is ~10 abs_tol, but never
        # beyond where the extended terms still decrease (model validity).
        noise_floor = (
            _EPS * abs(exp[0]) / (10.0 * max(cfg.abs_tol, 1e-13))
        ) ** (1.0 / k)
        floor = max(floor, min(noise_floor, 0.05))
    if inp.eval_floor > 0 and not has_extended:
        raise DomainError(
            "an evaluator with a positive trust floor needs extended expansion "
            "terms to model (0, floor]"
        )

    # closed-form integral of the modeled remainder over (0, floor]
    low = 0.0
    err_low = 0.0
    if floor > 0:
        last = [0.0, 0.0]  # last nonzero term on the t^p and t^(p+1/2) ladders
        for j in range(2 * k + 1, len(exp)):
            e = (j - 2 * k) / 2.0
            term = exp[j] * floor ** e / e
            low += term
            if term != 0.0:
                # the first omitted term is the usual asymptotic proxy; zero
                # half-power slots must not mask it
                err_low = abs(term)
                last[j % 2] = abs(term)
        if floor > _model_ceiling(exp, k):
            # the floor stays above the cancellation noise even where the
            # extended terms no longer decrease as a whole; the two ladders
            # may then decay at different rates, so each one's last term
            # stands in for its first omitted term
            err_low = max(last)

    def p_of_t(t: float) -> float:
        u = math.sqrt(t)
        return sum(exp[j] * u ** j for j in range(2 * k + 1)) * t ** (-k)

    def integrand_u(u: float) -> float:
        t = u * u
        return (inp.f(t) - p_of_t(t)) * 2.0 / u

    mid, err_mid = _quad_checked(
        integrand_u, math.sqrt(floor), 1.0, cfg, partial=low + pole_sum
    )

    C, c = inp.decay
    T = _tail_cutoff(C, c, cfg.tail_cutoff_tol)
    tail = 0.0
    err_tail = 0.0
    a = 1.0
    while a < T:
        b = min(2.0 * a, T)
        v, e = _quad_checked(lambda t: inp.f(t) / t, a, b, cfg, partial=low + mid + tail)
        tail += v
        err_tail += e
        a = b
    tail_cut = C * math.exp(-c * T) / (c * max(T, 1.0))

    # residual cancellation noise on [floor, 1]
    noise = 0.0
    if k >= 1:
        floor_eff = max(floor, 1e-8)
        for j in range(2 * k + 1):
            if exp[j] == 0.0:
                continue
            if j == 2 * k:
                noise += _EPS * abs(exp[j]) * math.log(1.0 / floor_eff)
            else:
                noise += (
                    _EPS
                    * abs(exp[j])
                    * floor_eff ** ((j - 2 * k) / 2.0)
                    / abs(j / 2.0 - k)
                )

    derivative0 = low + mid + tail + pole_sum - gamma_prime_1 * value0
    error = err_low + err_mid + err_tail + tail_cut + noise
    return MellinResult(value0, derivative0, error)


def _model_ceiling(exp: Sequence[float], k: int) -> float:
    """Largest t (capped at 0.05) where the extended terms still decrease."""
    t = 0.05
    while t > 1e-12:
        vals = [
            abs(exp[j]) * t ** ((j - 2 * k) / 2.0)
            for j in range(2 * k, len(exp))
            if exp[j] != 0.0
        ]
        if all(b <= a for a, b in zip(vals, vals[1:])):
            return t
        t /= 2.0
    return t


def _tail_cutoff(C: float, c: float, tol: float) -> float:
    if C == 0.0:
        return 1.0 + 1e-9
    T = 1.0
    for _ in range(4):
        T = max(1.0 + 1e-9, math.log(max(C / (c * tol * max(T, 1.0)), 1.1)) / c)
    return T


def riemann_zeta_check(cfg: QuadratureConfig | None = None) -> Tuple[float, float]:
    """Self-check: run the pipeline on the zeta kernel e^{-t}/(1 - e^{-t}).

    Returns (value at 0, derivative at 0); the exact targets are -1/2 and
    -log(2 pi)/2.
    """
    series = bose_factor(1.0, 4)  # 1/t + 1/2 + t/12 + 0 t^2 - t^3/720
    expansion = []
    for j in range(9):  # exponents -1, -1/2, ..., 3
        e2 = -2 + j
        coeff = series.coefficient(e2 / 2.0)
        if e2 == 0:
            coeff -= 1.0  # f = bose - 1
        expansion.append(float(coeff))

    def f(t: float) -> float:
        return math.exp(-t) / (-math.expm1(-t))

    C = 1.0 / (-math.expm1(-1.0))
    inp = MellinInput(f, 1, tuple(expansion), (C, 1.0), 0.0)
    res = mellin_at_zero(inp, cfg)
    return res.value0, res.derivative0
