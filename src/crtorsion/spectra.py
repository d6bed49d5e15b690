"""Spectral data for Fourier components of the Kohn Laplacian.

A ``SpectrumTable`` is a finite list of (degree, eigenvalue, multiplicity)
lines plus a tail policy describing everything beyond the listed lines: either
``finite`` (nothing omitted) or a quadratic growth law with certified bounds.

The built-in model is the unit circle bundle of the dual of the degree-1
positive line bundle over the projective line (the Hopf fibration of the
3-sphere).  Normalization convention, fixed once and used consistently by the
geometry side: the circle generator has unit length and the horizontal metric
is the Levi form itself, so the constant Levi eigenvalue is 1 and the total
volume is 4 pi^2.  In this convention the candidate closed forms are

    degree 0:  lambda_k = k (k + m + 1),  multiplicity m + 2k + 1,  k >= 0
    degree 1:  the nonzero degree-0 lines with identical multiplicities

with an (m+1)-dimensional kernel in degree 0.  The closed form is gated by an
independent Galerkin oracle (see ``crtorsion.oracle``) before acceptance tests
rely on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Tuple

import numpy as np

from .density import LeviSpectrum
from .errors import DomainError, EmptyDegreeError, ParseError, UnsupportedTailError
from .tails import QuadraticLaw, _require_positive, tail_bound, trust_floor

CP1_LEVI_EIGENVALUE = 1.0
CP1_VOLUME = 4.0 * math.pi ** 2

#: Super-trace terms with lam t >= 745 are dropped: e^{-745} is the smallest
#: subnormal float64 (5e-324), and e^{-x} rounds to exactly 0.0 past 745.14.
_UNDERFLOW = 745.0

#: Largest e^{-lam t} block the super-trace kernel builds: 2^18 float64 (2 MB).
_BLOCK = 1 << 18
#: Below 2^12 elements a block's fixed numpy call overhead outweighs the
#: zeros it would save, so nodes keep joining it past the factor-2 rule.
_MIN_BLOCK = 1 << 12


class TraceValue(NamedTuple):
    """A spectral sum together with the certified bound on the omitted tail."""

    value: float
    tail_bound: float


@dataclass(frozen=True)
class FiniteTail:
    """No spectrum beyond the listed lines."""

    kind: str = field(default="finite", init=False)


@dataclass(frozen=True)
class QuadraticTail:
    """Lines k >= k_next follow ``law`` in each degree of ``degrees``.

    ``covers_all_lines`` records that the *listed* lines of those degrees obey
    the same law from k = k_first on, which licenses closed-form expansion
    coefficients for the full trace.
    """

    k_next: int
    law: QuadraticLaw
    degrees: Tuple[int, ...]
    covers_all_lines: bool = False
    k_first: int = 1
    kind: str = field(default="quadratic", init=False)


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Spectrum lines plus a tail policy; build it through ``from_lines`` or
    ``from_law``.

    ``stored`` is one read-only numpy record array with fields ``q``, ``lam``
    and ``mult``, sorted by (q, lam) with duplicate (q, lam) keys merged.
    When ``implied`` is set (``from_law``), the tail law's lines
    k_first..k_next-1 in each of its degrees belong to the table as well, but
    are read from the law (``_law_block``) and never stored; otherwise that
    block is empty.  ``lines`` is the whole table either way.
    """

    stored: np.recarray
    n: int
    m: int = 0
    tail: FiniteTail | QuadraticTail = field(default_factory=FiniteTail)
    implied: bool = False

    @classmethod
    def from_lines(
        cls,
        lines: Iterable[Tuple[int, float, int]] | np.ndarray,
        n: int,
        m: int = 0,
        tail: FiniteTail | QuadraticTail | None = None,
    ) -> "SpectrumTable":
        """Validate, merge and sort (q, lam, mult) rows: triples or an (N, 3)
        array.  Every row is stored."""
        tail = tail if tail is not None else FiniteTail()
        return cls(_merged(*_validated(lines, n)), n, m, tail)

    @classmethod
    def from_law(
        cls,
        lines: Iterable[Tuple[int, float, int]] | np.ndarray,
        n: int,
        m: int,
        tail: QuadraticTail,
    ) -> "SpectrumTable":
        """The rows ``lines`` plus the lines k = k_first..k_next-1 of ``tail``'s
        law in each degree of ``tail.degrees``, which the law implies and the
        table does not store.  ``lines`` may hold no line of that block."""
        if not (isinstance(tail, QuadraticTail) and tail.covers_all_lines):
            raise DomainError("from_law needs a quadratic tail that covers the listed lines")
        if not all(0 <= q <= n for q in tail.degrees):
            raise DomainError(f"tail degrees {tail.degrees} outside [0, {n}]")
        law = tail.law
        if tail.k_next > tail.k_first:
            _require_positive(law, tail.k_first)
            # mult is linear in k: integer and >= 1 at both ends covers the block
            for k in (tail.k_first, tail.k_next - 1):
                if law.mult(k) < 1 or law.mult(k) != round(law.mult(k)):
                    raise DomainError(
                        f"law multiplicity {law.mult(k)} at k = {k} is not a positive integer"
                    )
        stored = _merged(*_validated(lines, n))
        covered = _law_covered(stored, tail)
        if covered.any():
            raise DomainError(
                f"line {tuple(stored[covered][0].tolist())} is implied by the tail law"
            )
        return cls(stored, n, m, tail, implied=True)

    # -- cached numeric views -------------------------------------------

    @cached_property
    def lines(self) -> np.recarray:
        """Every line, stored and implied, as one read-only record array sorted
        by (q, lam) with duplicate keys merged; built on first read."""
        if not self.implied:
            return self.stored
        lam, mult = self._law_block()
        degrees = np.asarray(self.tail.degrees, dtype=np.int64)
        return _merged(
            np.r_[self.stored.q, np.repeat(degrees, lam.size)],
            np.r_[self.stored.lam, np.tile(lam, degrees.size)],
            np.r_[self.stored.mult, np.tile(mult.astype(np.int64), degrees.size)],
        )

    def _law_block(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh (lam(k), mult(k)) arrays over k = k_first..k_next-1, shared by
        every tail degree; both empty unless the table is ``implied``.  Not
        cached: the views built from them are.  Exact for the integer
        circle-bundle law while k (k + m + 1) < 2^53."""
        if not self.implied:
            return np.empty(0), np.empty(0)
        k = np.arange(self.tail.k_first, self.tail.k_next, dtype=float)
        return self.tail.law.lam(k), self.tail.law.mult(k)

    @property
    def _block_degrees(self) -> Tuple[int, ...]:
        return self.tail.degrees if self.implied else ()

    @cached_property
    def _weights(self) -> np.ndarray:
        """(-1)^q q mult per stored line, its weight in STr[N e^{-t Box}]."""
        q = self.stored.q
        return (np.where(q % 2, -q, q) * self.stored.mult).astype(float)

    @cached_property
    def _supertrace(self):
        """(lams, weights, kernel) of STr[N e^{-t Box}]: the positive
        eigenvalues with nonzero weight, sorted ascending so the terms that
        survive at any t form a prefix, their weights, and the t-independent
        zero-mode part.  An implied line k enters once, with the weight
        sum_q (-1)^q q mult(k) of all its degrees."""
        lam, w = self.stored.lam, self._weights
        zero = lam == 0.0
        sel = ~zero & (w != 0.0)
        lam_b, mult_b = self._law_block()  # lam > 0 on the block (from_law)
        block_weight = float(sum(q if q % 2 == 0 else -q for q in self._block_degrees))
        if block_weight == 0.0:
            lam_b = mult_b = lam_b[:0]
        lams = np.concatenate((lam[sel], lam_b))
        weights = np.concatenate((w[sel], block_weight * mult_b))
        if (lams[1:] < lams[:-1]).any():
            order = np.argsort(lams, kind="stable")
            lams, weights = lams[order], weights[order]
        return lams, weights, float(np.sum(w[zero]))

    def _supertrace_value(self, t: np.ndarray) -> np.ndarray:
        """sum over the positive lines of (-1)^q q mult e^{-lam t}, for each
        node of the 1-D array ``t > 0`` (any order, repeats allowed).

        Costs O(lines with lam t < 745) per node, not O(lines): degree-0 lines
        carry weight zero, and beyond the cut e^{-lam t} is the smallest
        subnormal or exactly 0.0 in float64, so the dropped terms do not reach
        the value.  Each node keeps its own cut.  Nodes sorted by cut share
        one e^{-lam t} block, as wide as its largest cut, with every node whose
        cut is at least half that (or while the block stays under
        ``_MIN_BLOCK`` elements); blocks hold at most ``_BLOCK`` elements.  A
        node's terms past its cut are zero in the block, and each node's row
        is summed pairwise (``np.sum`` along the row).
        """
        lams, weights, _ = self._supertrace
        t = np.asarray(t, dtype=float)
        bound = _UNDERFLOW / t
        cut = np.searchsorted(lams, bound)  # lam < bound exactly on the prefix
        order = np.argsort(-cut, kind="stable")
        cuts, bound, negt = cut[order], bound[order], -t[order]
        sums = np.zeros(cut.size)
        i, n = 0, int(np.count_nonzero(cuts))
        buf = np.empty(min(_BLOCK, n * int(cuts[0]))) if n else None
        while i < n:
            top = int(cuts[i])
            j = int(np.searchsorted(-cuts, -((top + 1) // 2), side="right"))
            j = min(n, max(j, i + _MIN_BLOCK // top))
            width = min(top, _BLOCK)
            step = max(1, _BLOCK // width)
            for r in range(i, j, step):
                r2 = min(j, r + step)
                for c in range(0, top, width):
                    lam = lams[c : c + width]
                    block = buf[: (r2 - r) * lam.size].reshape(r2 - r, lam.size)
                    np.multiply.outer(negt[r:r2], lam, out=block)
                    keep = None
                    if cuts[r2 - 1] < c + lam.size:
                        # past its own cut a row's terms are 0: e^0 keeps exp
                        # off its slow underflow path, the mask drops them
                        keep = lam < bound[r:r2, None]
                        block *= keep
                    np.exp(block, out=block)
                    block *= weights[c : c + width]
                    if keep is not None:
                        block *= keep
                    sums[r:r2] += block.sum(axis=1)
            i = j
        out = np.empty(cut.size)
        out[order] = sums
        return out

    @cached_property
    def _outside_law(self):
        """(lams, weights), in table order, of the lines with nonzero weight
        that are not among the tail law's lines k_first..k_next-1: the stored
        lines that ``_law_covered`` does not match (implied lines are among
        the law's by construction)."""
        keep = self._weights != 0.0
        if isinstance(self.tail, QuadraticTail) and self.tail.covers_all_lines:
            keep &= ~_law_covered(self.stored, self.tail)
        return self.stored.lam[keep], self._weights[keep]

    @cached_property
    def _positive_stored(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lam, q mult) of the stored lines with lam > 0, in table order."""
        pos = self.stored.lam > 0.0
        return self.stored.lam[pos], (self.stored.q * self.stored.mult)[pos]

    @cached_property
    def min_nonzero_eigenvalue(self) -> float:
        """Smallest positive eigenvalue; O(stored lines), the implied block's
        minimum read from the law (``_law_min``)."""
        candidates = self._positive_stored[0].tolist()
        if self.implied and self.tail.k_next > self.tail.k_first:
            candidates.append(_law_min(self.tail))
        if not candidates:
            raise EmptyDegreeError("spectrum has no nonzero eigenvalues")
        return float(min(candidates))

    def supertrace_N_kernel(self) -> float:
        """STr[N] restricted to the zero modes (t-independent)."""
        return self._supertrace[2]


def _validated(lines, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, lam, mult) columns of (q, lam, mult) rows, each row checked."""
    rows = np.asarray(lines if isinstance(lines, np.ndarray) else list(lines), float)
    rows = rows.reshape(-1, 3)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise DomainError(f"non-finite entry in line {tuple(rows[bad][0].tolist())}")
    bad = (np.rint(rows[:, ::2]) != rows[:, ::2]).any(axis=1)
    if bad.any():
        raise DomainError(
            f"non-integer degree or multiplicity in line {tuple(rows[bad][0].tolist())}"
        )
    q, lam, mult = rows[:, 0].astype(np.int64), rows[:, 1], rows[:, 2].astype(np.int64)
    if ((q < 0) | (q > n)).any():
        raise DomainError(f"degree {q[(q < 0) | (q > n)][0]} outside [0, {n}]")
    if (lam < 0).any():
        raise DomainError(f"negative eigenvalue {lam[lam < 0][0]}")
    if (mult < 1).any():
        raise DomainError(f"multiplicity {mult[mult < 1][0]} < 1")
    return q, lam, mult


def _law_covered(rows: np.recarray, tail: QuadraticTail) -> np.ndarray:
    """Mask of the rows that are among the tail law's lines k_first..k_next-1
    in its degrees.  Matched by inverting the quadratic with a relative
    tolerance, so tables rebuilt through a rescaled law still match despite
    float rounding."""
    law, lam = tail.law, rows.lam
    disc = law.a1 * law.a1 + 4.0 * law.a2 * (lam - law.a0)
    k = np.rint((-law.a1 + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * law.a2))
    covered = np.isin(rows.q, tail.degrees) & (disc >= 0)
    covered &= (tail.k_first <= k) & (k < tail.k_next)
    covered &= np.abs(law.lam(k) - lam) <= 1e-9 * (1.0 + np.abs(lam))
    return covered


def _merged(q: np.ndarray, lam: np.ndarray, mult: np.ndarray) -> np.recarray:
    """The read-only record array of the lines sorted by (q, lam), with the
    multiplicities of equal (q, lam) keys added."""
    order = np.lexsort((lam, q))
    q, lam, mult = q[order], lam[order], mult[order]
    new_key = (np.diff(q, prepend=-1) != 0) | (np.diff(lam, prepend=-1.0) != 0)
    first = np.flatnonzero(new_key)
    merged = np.rec.fromarrays(
        (q[first], lam[first], np.add.reduceat(mult, first)), names=("q", "lam", "mult")
    )
    merged.flags.writeable = False
    return merged


def heat_supertrace_N(
    spec: SpectrumTable, t: float, nonzero_only: bool
) -> TraceValue:
    """sum over lines of (-1)^q q mult e^{-lam t}, with certified tail bound.

    ``nonzero_only`` drops the zero modes (the projector-complement trace).
    For a quadratic tail policy the omitted-tail bound is attached; the value
    itself contains only the table's lines (``SpectrumTable._supertrace_value``).
    """
    _require_finite_positive(t, "heat_supertrace_N")
    value = float(spec._supertrace_value(np.array([t]))[0])
    if not nonzero_only:
        value += spec.supertrace_N_kernel()
    return TraceValue(value, _supertrace_tail_bound(spec, t))


def trace_degree(
    spec: SpectrumTable, q: int, t: float, nonzero_only: bool = True
) -> TraceValue:
    """Plain degree-q heat trace with tail bound."""
    _require_finite_positive(t, "trace_degree")
    lines = spec.lines[(spec.lines.q == q) & ((spec.lines.lam > 0.0) | (not nonzero_only))]
    x = lines.lam * t
    value = float(np.sum(lines.mult * np.exp(-np.minimum(x, 745.0)) * (x < 745.0)))
    bound = 0.0
    if isinstance(spec.tail, QuadraticTail) and q in spec.tail.degrees:
        bound = tail_bound(spec.tail.law, spec.tail.k_next, t)
    return TraceValue(value, bound)


def _require_finite_positive(t: float, what: str) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"{what} requires 0 < t < inf, got t = {t!r}")


def _supertrace_tail_bound(spec: SpectrumTable, t: float, k_start: int | None = None) -> float:
    """Bound on the super-trace terms of the law lines k >= k_start (default
    k_next, the lines the table omits) in every tail degree."""
    if isinstance(spec.tail, FiniteTail):
        return 0.0
    if not isinstance(spec.tail, QuadraticTail):  # pragma: no cover
        raise UnsupportedTailError(f"unknown tail policy {spec.tail!r}")
    weight = sum(q for q in spec.tail.degrees if q >= 1)
    if weight == 0:
        return 0.0
    k_start = spec.tail.k_next if k_start is None else k_start
    return weight * tail_bound(spec.tail.law, k_start, t)


def supertrace_trust_floor(spec: SpectrumTable, tol: float) -> float:
    """Smallest t at which the truncated super trace is certified to ``tol``."""
    if isinstance(spec.tail, FiniteTail):
        return 0.0
    weight = max(1, sum(q for q in spec.tail.degrees if q >= 1))
    return trust_floor(spec.tail.law, spec.tail.k_next, tol / weight)


def spectral_gap(spec: SpectrumTable, q: int) -> float:
    """Smallest nonzero eigenvalue in degree q."""
    candidates = spec.lines.lam[(spec.lines.q == q) & (spec.lines.lam > 0)]
    if candidates.size == 0:
        raise EmptyDegreeError(f"no nonzero eigenvalue in degree {q}")
    return float(candidates.min())


def decay_certificate(spec: SpectrumTable, t_min: float = 1.0) -> Tuple[float, float]:
    """(C, c) with |STr[N e^{-t Box} perp]| <= C e^{-c t} for t >= t_min.

    Uses c = lambda_min / 2: each term e^{-lam t} <= e^{-lam_min t/2}
    e^{-lam t_min/2} for t >= t_min, so C = sum q mult e^{-lam t_min/2} plus
    bounds for what is not summed.  Only lines with lam t_min / 2 < 745 are
    summed, in table order, the implied lines degree by degree after the
    stored ones; a stored line past that cut adds q mult e^{-744}, and the law
    lines from the first one past it (``_law_cut``) on, implied or omitted,
    add the tail bound at t = t_min/2.  The cost is O(lines below the cut),
    not O(k_max).
    """
    lam_min = spec.min_nonzero_eigenvalue
    c = lam_min / 2.0
    lam_s, qm = spec._positive_stored
    x = -lam_s * t_min / 2.0
    keep = x > -_UNDERFLOW
    dropped = float(np.sum(qm[~keep]))
    k_start = None
    lam = mult = np.empty(0)
    if spec.implied:
        k_start = _law_cut(spec.tail, t_min / 2.0)
        k = np.arange(spec.tail.k_first, k_start, dtype=float)
        lam, mult = spec.tail.law.lam(k), spec.tail.law.mult(k)
    # zeros where q = 0: the layout, not only the values, fixes np.sum's
    # rounding, and a table that stores the law's lines gets the same layout
    nrows = int(np.count_nonzero(keep))
    terms = np.zeros(nrows + lam.size * len(spec._block_degrees))
    terms[:nrows] = qm[keep] * np.exp(x[keep])
    decay = np.negative(lam, out=lam)  # e^{-lam t_min / 2}, rounded as above
    decay *= t_min
    decay /= 2.0
    np.exp(decay, out=decay)
    for i, q in enumerate(spec._block_degrees):
        if q:
            start = nrows + i * lam.size
            np.multiply(q * mult, decay, out=terms[start : start + lam.size])
    C = float(np.sum(terms))
    C += math.exp(-744.0) * dropped
    C += _supertrace_tail_bound(spec, t_min / 2.0, k_start)
    return C, c


def _law_min(tail: QuadraticTail) -> float:
    """Smallest law eigenvalue over k = k_first..k_next-1 (a nonempty range):
    at an end of the range or at an integer next to the vertex."""
    law = tail.law
    vertex = -law.vertex_shift
    ks = {tail.k_first, tail.k_next - 1, math.floor(vertex), math.ceil(vertex)}
    return min(law.lam(float(k)) for k in ks if tail.k_first <= k < tail.k_next)


def _law_cut(tail: QuadraticTail, t: float) -> int:
    """First k in [k_first, k_next] from which on every law line has
    lam t >= 745, or k_next.  Not below floor(vertex) + 2, so that the lines
    from it on decrease and ``tail_bound`` applies."""
    law = tail.law
    k_lo = min(max(tail.k_first, math.floor(-law.vertex_shift) + 2), tail.k_next)
    disc = law.a1 * law.a1 - 4.0 * law.a2 * (law.a0 - _UNDERFLOW / t)
    root = (-law.a1 + math.sqrt(max(disc, 0.0))) / (2.0 * law.a2)
    k = min(max(k_lo, math.ceil(min(root, tail.k_next))), tail.k_next)

    def under(k: int) -> bool:  # same rounding as the summed terms
        return -law.lam(float(k)) * t <= -_UNDERFLOW

    while k > k_lo and under(k - 1):
        k -= 1
    while k < tail.k_next and not under(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# Built-in circle-bundle model
# ---------------------------------------------------------------------------


def cp1_spectrum(m: int, k_max: int) -> SpectrumTable:
    """Fourier-component Kohn Laplacian spectrum on the circle bundle model.

    Closed forms (validated by the Galerkin oracle): degree-0 eigenvalues
    k(k+m+1) with multiplicity m+2k+1 for k = 0..k_max (k = 0 is the
    (m+1)-dimensional kernel), degree-1 equal to the nonzero degree-0 lines.
    The omitted k > k_max lines are recorded as a quadratic tail law, and
    the lines k = 1..k_max are implied by the same law: only the kernel row
    is stored.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    law = QuadraticLaw(a2=1.0, a1=float(m + 1), a0=0.0, m1=2.0, m0=float(m + 1))
    tail = QuadraticTail(
        k_next=k_max + 1, law=law, degrees=(0, 1), covers_all_lines=True, k_first=1
    )
    return SpectrumTable.from_law([(0, 0.0, m + 1)], n=1, m=m, tail=tail)


@dataclass(frozen=True)
class GeometryModel:
    """Homogeneous geometry data feeding densities and the asymptotic RHS."""

    n: int
    levi: LeviSpectrum
    volume: float
    rank_e: int

    def __post_init__(self):
        if self.volume <= 0:
            raise DomainError("volume must be positive")
        if self.rank_e < 1:
            raise DomainError("rank_e must be >= 1")
        if self.levi.n != self.n:
            raise DomainError("levi.n must equal n")


def cp1_geometry(rank_e: int = 1) -> GeometryModel:
    """Geometry of the circle-bundle model in the package convention."""
    return GeometryModel(
        n=1,
        levi=LeviSpectrum(1, (CP1_LEVI_EIGENVALUE,)),
        volume=CP1_VOLUME,
        rank_e=rank_e,
    )


def load_geometry(path_or_stream) -> GeometryModel:
    """Read the geometry JSON format: n, eigenvalues, volume, rank_e."""
    try:
        if hasattr(path_or_stream, "read"):
            data = json.load(path_or_stream)
        else:
            with open(path_or_stream, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        n = int(data["n"])
        eigenvalues = tuple(float(a) for a in data["eigenvalues"])
        volume = float(data["volume"])
        rank_e = int(data["rank_e"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid geometry file: {exc}") from exc
    return GeometryModel(n, LeviSpectrum(n, eigenvalues), volume, rank_e)


def dump_geometry(model: GeometryModel) -> str:
    return json.dumps(
        {
            "n": model.n,
            "eigenvalues": [float(a) for a in model.levi.eigenvalues],
            "volume": model.volume,
            "rank_e": model.rank_e,
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def ingest_spectrum(source, n: int, m: int = 0) -> SpectrumTable:
    """Parse the CSV spectrum format: header ``q,lambda,mult``, UTF-8,
    ``#``-comments ignored; validates, merges duplicates, sorts.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                source.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason}"
            ) from exc
    elif isinstance(source, str):
        text = source
    else:
        raise DomainError(f"unsupported spectrum source {type(source)!r}")
    rows = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            cols = [c.strip().lower() for c in stripped.split(",")]
            if cols != ["q", "lambda", "mult"]:
                raise ParseError(lineno, f"expected header 'q,lambda,mult', got {stripped!r}")
            header_seen = True
            continue
        parts = [c.strip() for c in stripped.split(",")]
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 3 columns, got {len(parts)}")
        try:
            q = int(parts[0])
            lam = float(parts[1])
            mult = int(parts[2])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if not 0 <= q <= n:
            raise ParseError(lineno, f"degree {q} outside [0, {n}]")
        if not math.isfinite(lam):
            raise ParseError(lineno, f"non-finite eigenvalue {lam}")
        if lam < 0:
            raise ParseError(lineno, f"negative eigenvalue {lam}")
        if mult < 1:
            raise ParseError(lineno, f"multiplicity {mult} must be positive")
        rows.append((q, lam, mult))
    if not header_seen:
        raise ParseError(1, "missing header 'q,lambda,mult'")
    return SpectrumTable.from_lines(rows, n=n, m=m, tail=FiniteTail())
