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

Both integrals, over [sqrt(floor), 1] in u and over [1, T] in t, go through
one globally adaptive rule on QUADPACK's 21-point Gauss-Kronrod panels that
evaluates every panel of a bisection round in a single call of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ArityError, DomainError, QuadratureError
from .series import bose_factor

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061
#: Gamma'(1) = -gamma; kept named so the deliberate-mutation test can zero it.
GAMMA_PRIME_1 = -EULER_GAMMA

_EPS = 2.22e-16


#: The one quadrature tolerance: the adaptive rule's absolute and relative
#: stop, the noise floor's target and, through ``torsion``, the trust floor's.
DEFAULT_TOL = 1e-11
#: Bisection rounds of the adaptive rule, and panels per starting panel.
_MAX_ROUNDS = 200
#: Neglected tail mass beyond the cutoff T of the decay certificate.
_TAIL_CUTOFF_TOL = 1e-13


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class MellinInput:
    """Evaluator plus certificates.

    ``expansion[j]`` is the coefficient of t^{-k+j/2}; at least 2k+1 entries
    (through the t^0 term).  Entries beyond index 2k are optional extended
    terms; they model the segment (0, eval_floor] when the evaluator cannot be
    trusted there (truncated spectral sums), and sharpen the cancellation
    floor otherwise.  ``decay = (C, c)`` certifies |f(t)| <= C e^{-c t} for
    t >= 1.  ``f`` maps a 1-D float64 array of nodes t > 0 to the 1-D float64
    array of f(t); the quadrature calls it once per round of panels.
    """

    f: Callable[[np.ndarray], np.ndarray]
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
        expansion = tuple(float(x) for x in self.expansion)
        bad = [j for j, x in enumerate(expansion) if not math.isfinite(x)]
        if bad:
            raise DomainError(f"expansion[{bad[0]}] is not finite: {expansion[bad[0]]!r}")
        C, c = self.decay
        if not (math.isfinite(C) and math.isfinite(c)):
            raise DomainError(f"decay certificate (C, c) must be finite, got {self.decay!r}")
        if c <= 0 or C < 0:
            raise DomainError("decay certificate requires c > 0 and C >= 0")
        if not 0.0 <= self.eval_floor < 1.0:  # also rejects nan
            raise DomainError(f"eval_floor must lie in [0, 1), got {self.eval_floor!r}")
        object.__setattr__(self, "expansion", expansion)


class MellinResult(NamedTuple):
    value0: float
    derivative0: float
    error_estimate: float


#: QUADPACK's 21-point Gauss-Kronrod rule (qk21) on [-1, 1]: the Kronrod
#: abscissae from 1 down to 0 (the 10-point Gauss nodes sit at the odd
#: positions), the Kronrod weights, and the Gauss weights of those nodes.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980209175,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
#: The 21 nodes in ascending order, with their Kronrod and Gauss weights (the
#: Gauss weight is 0 at the 11 Kronrod-only nodes).
_NODES = np.r_[np.negative(_XGK[:-1]), _XGK[::-1]]
_KRONROD = np.r_[_WGK[:-1], _WGK[::-1]]
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[11:20:2] = _WG[::-1]
_RULES = np.stack([_KRONROD, _GAUSS], axis=1)
#: QUADPACK's d1mach(4) and d1mach(1)
_EPMACH, _UFLOW = np.finfo(float).eps, np.finfo(float).tiny


def _qk21(fn, panels: Sequence[Tuple[float, float]]):
    """Lists (value, error, floor, bisectable) of the 21-point rule on each
    panel (a, b), from one call of ``fn`` on all their nodes.  The error
    follows QUADPACK's qk21 and is at least the roundoff floor
    50 eps resabs; a panel whose error is its floor, or too narrow to halve,
    is not bisectable."""
    ch = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in panels])
    fv = fn((ch[:, :1] + ch[:, 1:] * _NODES).ravel()).reshape(-1, 21)
    rules = fv @ _RULES  # Kronrod and Gauss sums on [-1, 1]
    spread = np.abs(fv - 0.5 * rules[:, :1]) @ _KRONROD
    out = ([], [], [], [])
    for (a, b), (_, half), (kronrod, gauss), asc, absk in zip(
        panels, ch.tolist(), rules.tolist(), spread.tolist(), (np.abs(fv) @ _KRONROD).tolist()
    ):
        h = abs(half)
        err, resasc, resabs = abs(kronrod - gauss) * h, asc * h, absk * h
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        floor = 50.0 * _EPMACH * resabs if resabs > _UFLOW / (50.0 * _EPMACH) else 0.0
        out[0].append(kronrod * half)
        out[1].append(max(floor, err))
        out[2].append(floor)
        out[3].append(err > floor and b - a > 200.0 * _EPMACH * max(abs(a), abs(b)))
    return out


def _gauss_kronrod(fn, edges: Sequence[float], abs_tol: float, rel_tol: float, partial: float):
    """Globally adaptive integral of ``fn`` over [edges[0], edges[-1]].

    ``fn`` maps a 1-D float array of nodes to the array of its values.  The
    panels between consecutive ``edges`` start the panel list.  Each round
    bisects, in one batch, the fewest worst bisectable panels whose errors
    cover the excess over max(abs_tol, rel_tol |value|), and evaluates all
    their nodes in one call of ``fn``.  Halving keeps the sum of the panels'
    roundoff floors, so bisection stops once the error net of that sum is
    within the target or within the sum itself: what is left to remove is
    roundoff.  At most ``_MAX_ROUNDS`` rounds, and at most that many panels
    per starting panel.

    Returns (value, error), each the exact sum over the panels.  A result that
    misses the tolerance is kept when finite and within 1e5 times it
    (roundoff-limited); otherwise raises QuadratureError carrying
    ``partial + value``.
    """
    panels = list(zip(edges[:-1], edges[1:]))
    val, err, flo, live = _qk21(fn, panels)
    cap = _MAX_ROUNDS * len(panels)
    for _ in range(_MAX_ROUNDS):
        value, error = math.fsum(val), math.fsum(err)
        if not (math.isfinite(value) and math.isfinite(error)):
            break
        target = max(abs_tol, rel_tol * abs(value))
        excess = error - target
        if excess <= 0.0:
            return value, error
        floors = math.fsum(flo)
        if error - floors <= max(target, floors):
            break
        sel, covered = [], 0.0
        for i in sorted(range(len(panels)), key=err.__getitem__, reverse=True):
            if covered >= excess or len(panels) + len(sel) >= cap:
                break
            if live[i]:
                sel.append(i)
                covered += err[i]
        if not sel:
            break
        halves = []
        for i in sorted(sel, reverse=True):
            a, b = panels.pop(i)
            del val[i], err[i], flo[i], live[i]
            mid = 0.5 * (a + b)
            halves += [(a, mid), (mid, b)]
        panels += halves
        for old, new in zip((val, err, flo, live), _qk21(fn, halves)):
            old += new
    value, error = math.fsum(val), math.fsum(err)
    if not (math.isfinite(value) and error <= 1e5 * max(abs_tol, rel_tol * abs(value))):
        raise QuadratureError(
            f"quadrature on [{edges[0]:.3g}, {edges[-1]:.3g}] did not converge: "
            f"error estimate {error:.3g} over {len(panels)} panels",
            partial=partial + value,
        )
    return value, error


def mellin_at_zero(
    inp: MellinInput,
    tol: float = DEFAULT_TOL,
    gamma_prime_1: float = GAMMA_PRIME_1,
) -> MellinResult:
    """Value and derivative of M[f] at z = 0 with an error estimate.

    value0 is the certified f_0 verbatim.  derivative0 follows the four-term
    formula; the reported error bounds quadrature error, tail truncation, the
    first omitted floor-model term, and float cancellation in the subtracted
    integrand.  ``tol`` is the adaptive rule's absolute and relative stop.
    ``gamma_prime_1`` exists so diagnostic suites can mutate the
    Gamma'(1) constant; production callers leave the default.
    """
    _require_tol(tol)
    k = inp.k
    exp = inp.expansion
    value0 = exp[2 * k]

    pole_sum = sum(exp[j] / (j / 2.0 - k) for j in range(2 * k))

    has_extended = len(exp) > 2 * k + 1
    floor = inp.eval_floor
    if has_extended and k >= 1 and abs(exp[0]) > 0:
        # Float cancellation in f - P costs ~ eps |f_{-k}| t^{-k} dt/t near 0.
        # Raise the floor until the integrated noise is ~10 tol, but never
        # beyond where the extended terms still decrease (model validity).
        noise_floor = (_EPS * abs(exp[0]) / (10.0 * max(tol, 1e-13))) ** (1.0 / k)
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

    def integrand_u(u: np.ndarray) -> np.ndarray:
        t = u * u
        p = np.full_like(u, exp[2 * k])
        for j in range(2 * k - 1, -1, -1):  # Horner in u = sqrt(t)
            p *= u
            p += exp[j]
        return (inp.f(t) - p * t ** -k) * 2.0 / u

    mid, err_mid = _gauss_kronrod(
        integrand_u, (math.sqrt(floor), 1.0), tol, tol, partial=low + pole_sum
    )

    C, c = inp.decay
    T = _tail_cutoff(C, c, _TAIL_CUTOFF_TOL)
    edges = [1.0]
    while edges[-1] < T:
        edges.append(min(2.0 * edges[-1], T))
    tail, err_tail = _gauss_kronrod(
        lambda t: inp.f(t) / t, edges, tol, tol, partial=low + mid + pole_sum
    )
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


def riemann_zeta_check(tol: float = DEFAULT_TOL) -> Tuple[float, float]:
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

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(-t) / -np.expm1(-t)

    C = 1.0 / (-math.expm1(-1.0))
    inp = MellinInput(f, 1, tuple(expansion), (C, 1.0), 0.0)
    res = mellin_at_zero(inp, tol)
    return res.value0, res.derivative0
