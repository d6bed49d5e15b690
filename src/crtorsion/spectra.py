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
import numbers
from dataclasses import dataclass, field, replace
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

#: A node's sum stops at its first line with lam t >= lam_1 t + _REACH +
#: ln(sum |w| / |w_1|): the lines past it add at most e^{-45} < 2^-64 of the
#: first weighted line's term |w_1| e^{-lam_1 t}.
_REACH = 45.0

#: The super-trace kernel's one float64 buffer: 2^18 elements (2 MB).
_BLOCK = 1 << 18
#: Lines read at a time: a chunk's column indices, lam and weights fill 3/8
#: of the buffer at most, and the e^{-lam t} block takes the rest.
_CHUNK = _BLOCK // 8
#: 0, 1, 2, 4, ...: ``_pow2`` rounds a line count up to the least entry >= it.
_POW2 = np.r_[0, np.left_shift(1, np.arange(62))]
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

    @property
    def weight(self) -> int:
        """sum over ``degrees`` of (-1)^q q: the super-trace weight of one law
        line, counted once in each tail degree."""
        return sum(-q if q % 2 else q for q in self.degrees)


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Spectrum lines plus a tail policy; build it through ``from_lines`` or
    ``from_law``.

    ``stored`` is one read-only numpy structured array with fields ``q``,
    ``lam`` and ``mult`` (read by name, ``stored["lam"]``), sorted by
    (q, lam) with duplicate (q, lam) keys merged.
    When ``implied`` is set (``from_law``), the tail law's lines
    k_first..k_next-1 in each of its degrees belong to the table as well,
    but are generated from the law (``_LawRun``) and never listed.
    """

    stored: np.ndarray
    n: int
    tail: FiniteTail | QuadraticTail = field(default_factory=FiniteTail)
    implied: bool = False

    @classmethod
    def from_lines(
        cls,
        lines: Iterable[Tuple[int, float, int]] | np.ndarray,
        n: int,
        tail: FiniteTail | QuadraticTail | None = None,
    ) -> "SpectrumTable":
        """Validate, merge and sort (q, lam, mult) rows: triples, an (N, 3)
        array or a structured array with fields q, lam and mult (a table's
        ``lines``).  Every row is stored.  A tail law that covers the listed lines
        refuses a row it reproduces below k_first (``_require_anchored``)."""
        tail = tail if tail is not None else FiniteTail()
        stored = _merged(*_validated(lines, n))
        if isinstance(tail, QuadraticTail) and tail.covers_all_lines:
            _require_anchored(stored, tail)
        return cls(stored, n, tail)

    @classmethod
    def from_law(
        cls,
        lines: Iterable[Tuple[int, float, int]] | np.ndarray,
        n: int,
        tail: QuadraticTail,
    ) -> "SpectrumTable":
        """The rows ``lines`` plus the lines k = k_first..k_next-1 of ``tail``'s
        law in each degree of ``tail.degrees``, which the law implies and the
        table does not store.  ``lines`` may hold no line of that block, nor
        one the law reproduces below k_first."""
        if not (isinstance(tail, QuadraticTail) and tail.covers_all_lines):
            raise DomainError("from_law needs a quadratic tail that covers the listed lines")
        if not all(0 <= q <= n for q in tail.degrees):
            raise DomainError(f"tail degrees {tail.degrees} outside [0, {n}]")
        if tail.k_next < tail.k_first:
            raise DomainError(f"k_next = {tail.k_next} < k_first = {tail.k_first}")
        law = tail.law
        _require_positive(law, tail.k_first)
        if tail.k_next > tail.k_first:
            # mult is linear in k: >= 1 at both ends, an integer at k_first
            # and an integer step m1 cover the block
            for k in (tail.k_first, tail.k_next - 1):
                if law.mult(k) < 1 or law.mult(k) != round(law.mult(k)):
                    raise DomainError(
                        f"law multiplicity {law.mult(k)} at k = {k} is not a positive integer"
                    )
            if tail.k_next - tail.k_first > 1 and law.m1 != round(law.m1):
                raise DomainError(f"law multiplicity step m1 = {law.m1} is not an integer")
        stored = _merged(*_validated(lines, n))
        rows, k = _require_anchored(stored, tail)
        covered = (tail.k_first <= k) & (k < tail.k_next)
        if covered.any():
            raise DomainError(
                f"line {tuple(rows[covered][0].tolist())} is implied by the tail law"
            )
        return cls(stored, n, tail, implied=True)

    # -- numeric views --------------------------------------------------

    @property
    def lines(self) -> np.ndarray:
        """Every line, ``stored`` (a read-only structured array with fields
        q, lam and mult); DomainError for an ``implied`` table."""
        if self.implied:
            raise DomainError("a from_law table does not list its lines: read `stored` and `tail`")
        return self.stored

    @cached_property
    def _weights(self) -> np.ndarray:
        """(-1)^q q mult per stored line, its weight in STr[N e^{-t Box}]."""
        q = self.stored["q"]
        return (np.where(q % 2, -q, q) * self.stored["mult"]).astype(float)

    @cached_property
    def _supertrace(self) -> "_Supertrace":
        """The record of STr[N e^{-t Box}] (``_record``): weight (-1)^q q mult
        per stored line and ``tail.weight`` mult(k) per implied law line."""
        return self._record(self._weights, self.tail.weight if self.implied else 0)

    def _degree_trace(self, q: int) -> "_Supertrace":
        """The record of the plain degree-q trace (weight mult on its lines),
        built on each call; DomainError unless q is an integer in 0..n."""
        _require_int(q=q)
        if not 0 <= q <= self.n:
            raise DomainError(f"degree q={q} outside [0, {self.n}]")
        w = np.where(self.stored["q"] == q, self.stored["mult"], 0).astype(float)
        return self._record(w, int(self.implied and q in self.tail.degrees))

    def _record(self, w: np.ndarray, law_weight: int) -> "_Supertrace":
        """The ``_Supertrace`` of weight ``w`` on the stored lines and
        ``law_weight`` mult(k) on the implied ones: the stored positive lines
        of nonzero weight form one run, the law lines one or two
        (``_law_runs``), each line once and none stored.  Without weight on
        any stored line (a circle-bundle super trace) no mask is formed."""
        runs, kernel = [], 0.0
        if w.any():
            lam = self.stored["lam"]
            zero = lam == 0.0
            sel = ~zero & (w != 0.0)
            if sel.any():
                runs.append(_stored_run(lam[sel], w[sel]))
            kernel = float(np.sum(w[zero]))
        if law_weight:
            runs += _law_runs(self.tail, law_weight)
        if not runs:
            return _Supertrace((), kernel, 0.0, math.inf, 0.0)
        abs_weight = math.fsum(run.abs_weight for run in runs)
        lam_1, w_1 = min(run.first for run in runs)
        reach = _REACH + math.log(abs_weight / abs(w_1))
        return _Supertrace(tuple(runs), kernel, abs_weight, lam_1, reach)

    def _supertrace_value(self, t: np.ndarray) -> np.ndarray:
        """sum over the positive lines of (-1)^q q mult e^{-lam t}, for each
        node of the 1-D array ``t > 0``: ``_Supertrace.value``."""
        return self._supertrace.value(t)

    @cached_property
    def _outside_law(self):
        """(lams, weights), in table order, of the lines with nonzero weight
        that are not among the tail law's lines k_first..k_next-1: the stored
        lines that ``_law_index`` does not place in that block.  Implied
        lines are among the law's by construction, and ``from_law`` has
        refused every stored line that the law covers, so an implied table
        matches none."""
        keep = self._weights != 0.0
        tail = self.tail
        if isinstance(tail, QuadraticTail) and tail.covers_all_lines and not self.implied:
            k = _law_index(self.stored, tail)
            keep &= (k < tail.k_first) | (k >= tail.k_next)
        return self.stored["lam"][keep], self._weights[keep]

    def supertrace_N_kernel(self) -> float:
        """STr[N] restricted to the zero modes (t-independent)."""
        return self._supertrace.kernel


class _Supertrace(NamedTuple):
    """A weighted trace (``SpectrumTable._record``): the weighted positive
    lines as runs sorted by lam, the zero-mode part, sum |w| over the runs,
    the smallest weighted eigenvalue lam_1 and the kernel's reach
    45 + ln(sum |w| / |w_1|)."""

    runs: Tuple[object, ...]
    kernel: float
    abs_weight: float
    lam_1: float
    reach: float

    def value(self, t: np.ndarray) -> np.ndarray:
        """sum over the positive lines of w e^{-lam t}, for each node of the
        1-D array ``t > 0`` (any order, repeats allowed), bit for bit the
        same whichever nodes share the call.

        Each node stops, in each run, at its first line with
        lam t >= lam_1 t + 45 + ln(sum |w| / |w_1|), where (lam_1, w_1) is
        the first weighted line.  The line count is then rounded up to a
        power of two, and never goes past the underflow cut lam t < 745.
        The lines dropped by the first rule sum to at most
        e^{-45} |w_1| e^{-lam_1 t}, below 2^-64 of the first term and far
        under the row's own rounding; past the second, e^{-lam t} is the
        smallest subnormal or 0.0 in float64.

        Lines are read in chunks of ``_CHUNK``, generated from the law for
        law runs.  Within a chunk, nodes sorted by cut share one e^{-lam t}
        block, as wide as its largest cut, with every node whose cut is at
        least half that (or while the block stays under ``_MIN_BLOCK``
        elements); a node's terms past its cut are zero in the block.  Each
        row is summed (``np.sum`` along the row, pairwise) over a
        power-of-two width of at least 8, zero past the block's lines:
        numpy sums a row of 2^j >= 8 entries that are zero past 2^i >= 8
        exactly as it sums its first 2^i alone (under 8 entries it sums
        in sequence), so a node's sum does not follow the width of the
        block it shares.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.size)
        if self.runs and t.size:
            limits = np.divide.outer((self.reach, _UNDERFLOW), t).ravel()
            limits[: t.size] += self.lam_1
            # the smallest t reads the most lines
            top = self.lam_1 + self.reach / float(t.min())
            for run in self.runs:
                _add_run(run, -t, limits, int(_pow2(run.below(top))), out)
        return out


class _StoredRun(NamedTuple):
    """Weighted lines held as arrays, sorted by lam."""

    lam: np.ndarray
    w: np.ndarray

    @property
    def size(self) -> int:
        return self.lam.size

    @property
    def abs_weight(self) -> float:
        return float(np.sum(np.abs(self.w)))

    @property
    def first(self) -> Tuple[float, float]:
        return float(self.lam[0]), float(self.w[0])

    def below(self, bound: float) -> int:
        """The number of lines with lam < bound."""
        return int(np.searchsorted(self.lam, bound))

    def read(self, c0: int, c1: int, buf: np.ndarray, iota: np.ndarray):
        """(lam, w) of lines c0..c1-1: views, ``buf`` and ``iota`` unused."""
        return self.lam[c0:c1], self.w[c0:c1]


class _LawRun(NamedTuple):
    """The law lines k = start, start + step, ... (``size`` of them, step
    +1 or -1, lam increasing along the run), each with weight ``weight``
    mult(k).  Nothing is stored: ``read`` generates the lines."""

    law: QuadraticLaw
    start: int
    step: int
    size: int
    weight: float

    @property
    def abs_weight(self) -> float:
        """|weight| sum of mult(k) over the run, in closed form (mult >= 1)."""
        law, n = self.law, self.size
        k_sum = n * (2 * self.start + self.step * (n - 1)) / 2
        return abs(self.weight) * (law.m1 * k_sum + law.m0 * n)

    @property
    def first(self) -> Tuple[float, float]:
        k = float(self.start)
        return float(self.law.lam(k)), self.weight * float(self.law.mult(k))

    def below(self, bound: float) -> int:
        """At least the number of lines with lam < bound, at most two more:
        the root of lam(x) = bound on this run's side of the vertex."""
        law, s = self.law, self.step
        disc = law.a1 * law.a1 - 4.0 * law.a2 * (law.a0 - bound)
        if not disc > 0.0:
            return 0
        i = s * ((s * math.sqrt(disc) - law.a1) / (2.0 * law.a2) - self.start)
        if not i < self.size:  # also an infinite bound
            return self.size
        return min(self.size, max(0, math.floor(i) + 2))

    def read(self, c0: int, c1: int, buf: np.ndarray, iota: np.ndarray):
        """(lam, w) of lines c0..c1-1, written into ``buf[:2 (c1 - c0)]``
        with ``buf[2 (c1 - c0) : 3 (c1 - c0)]`` as scratch, each rounded as
        ``QuadraticLaw.lam`` and ``weight * QuadraticLaw.mult`` round it;
        ``iota`` holds 0, 1, 2, ... (float64, at least c1 - c0 of them)."""
        law, n, k0 = self.law, c1 - c0, self.start + self.step * c0
        lam, w, a1k = buf[:n], buf[n : 2 * n], buf[2 * n : 3 * n]
        # the indices k, exact in float64, become mult(k) in place
        k = np.add(k0, iota[:n], out=w) if self.step > 0 else np.subtract(k0, iota[:n], out=w)
        np.multiply(k, law.a2, out=lam)
        lam *= k
        lam += np.multiply(k, law.a1, out=a1k)
        lam += law.a0
        w *= law.m1
        w += law.m0
        w *= self.weight
        return lam, w


def _stored_run(lam: np.ndarray, w: np.ndarray) -> _StoredRun:
    """The lines (lam, w) sorted by lam."""
    if (lam[1:] < lam[:-1]).any():
        order = np.argsort(lam, kind="stable")
        lam, w = lam[order], w[order]
    return _StoredRun(lam, w)


def _law_runs(tail: QuadraticTail, weight: int) -> list:
    """The law lines k_first..k_next-1, each of weight ``weight`` mult(k), as
    runs of increasing lam: lam rises from k = floor(vertex + 1/2) on and
    falls before it, so a vertex inside the block splits the lines into a
    falling run read backwards and a rising run."""
    law, a, b = tail.law, tail.k_first, tail.k_next
    rise = min(max(math.floor(0.5 - law.vertex_shift), a), b)
    weight = float(weight)
    runs = []
    if rise > a:
        runs.append(_LawRun(law, rise - 1, -1, rise - a, weight))
    if b > rise:
        runs.append(_LawRun(law, rise, 1, b - rise, weight))
    return runs


def _pow2(c):
    """The least power of two >= c, for c >= 1, and 0 for c = 0, per entry."""
    return _POW2[np.searchsorted(_POW2, c)]


def _add_run(run, negt, limits, most: int, out: np.ndarray) -> None:
    """Add each node's sum over ``run`` to ``out``: the kernel of
    ``_Supertrace.value``, with ``negt = -t``, ``limits`` the reach bounds
    on lam, one per node, then the underflow bounds, and ``most`` at least
    the largest cut."""
    n = negt.size
    top = min(most, run.size)
    if not top:
        return
    width = min(top, _CHUNK)
    wide = max(8, 1 << (width - 1).bit_length())
    buf = np.empty(min(_BLOCK, 3 * width + n * wide))
    columns, chunk, region = buf[:width], buf[width:], buf[3 * width :]
    columns[:] = np.arange(width)
    # each node's counts below both bounds, added up chunk by chunk; a
    # count that reaches top stands for any count >= top, and the cut
    # min(2^ceil(log2 near), far) <= top comes out the same
    loaded = 0
    lam_c, w_c = run.read(0, width, chunk, columns)
    counts = np.searchsorted(lam_c, limits)
    for loaded in range(width, top, width):
        lam_c, w_c = run.read(loaded, min(loaded + width, top), chunk, columns)
        counts += np.searchsorted(lam_c, limits)
    cut = np.minimum(_pow2(counts[:n]), counts[n:])
    order = np.argsort(-cut, kind="stable")
    cuts, negt = cut[order], negt[order]
    neg = -cuts  # ascending, for searchsorted
    groups, i, live = [], 0, int(np.count_nonzero(cuts))
    while i < live:
        top = int(cuts[i])
        j = int(np.searchsorted(neg, -((top + 1) // 2), side="right"))
        j = min(live, max(j, i + _MIN_BLOCK // top))
        groups.append((i, j, top))
        i = j
    sums = np.zeros(n)
    for c in range(0, int(cuts[0]), width):
        if c != loaded:  # chunk c is not the one left in buf
            lam_c, w_c = run.read(c, min(c + width, int(cuts[0])), chunk, columns)
            loaded = c
        ends = np.subtract(cuts, c, dtype=float)
        live = int(np.searchsorted(neg, -c, side="left"))  # rows with cut > c
        for i, j, top in groups:
            if top <= c:
                break
            j = min(j, live)
            cw = min(top - c, width)
            pad = max(8, 1 << (cw - 1).bit_length())
            lam, w = lam_c[:cw], w_c[:cw]
            step = max(1, region.size // pad)
            for r in range(i, j, step):
                r2 = min(j, r + step)
                rows = region[: (r2 - r) * pad].reshape(r2 - r, pad)
                rows[:, cw:] = 0.0
                block = rows[:, :cw]
                np.multiply.outer(negt[r:r2], lam, out=block)
                keep = None
                if cuts[r2 - 1] < c + cw:
                    # past its own cut a row's terms are 0: e^0 keeps exp
                    # off its slow underflow path, the mask drops them
                    keep = columns[:cw] < ends[r:r2, None]
                    block *= keep
                np.exp(block, out=block)
                block *= w
                if keep is not None:
                    block *= keep
                sums[r:r2] += rows.sum(axis=1)
    out[order] += sums


def _rows(lines) -> np.ndarray:
    """The (N, 3) float array of (q, lam, mult) rows given as triples, an
    (N, 3) array or a 1-D structured array with fields q, lam and mult; an
    empty input is an empty table.  DomainError naming the shape of anything
    else."""
    names = lines.dtype.names if isinstance(lines, np.ndarray) else None
    if names is not None:
        if lines.ndim != 1 or not {"q", "lam", "mult"} <= set(names):
            raise DomainError(
                f"a structured spectrum array needs shape (N,) and fields q, lam "
                f"and mult, got shape {lines.shape} with fields {names}"
            )
        lines = np.column_stack([lines["q"], lines["lam"], lines["mult"]])
    try:
        rows = np.asarray(lines if isinstance(lines, np.ndarray) else list(lines), float)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"spectrum lines do not form an (N, 3) array of (q, lam, mult) numbers: {exc}"
        ) from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise DomainError(
            f"spectrum lines must form an (N, 3) array of (q, lam, mult) rows, "
            f"got shape {rows.shape}"
        )
    return rows


def _validated(lines, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, lam, mult) columns of the rows ``_rows`` reads, each row checked
    through the column minima and maxima (nan and inf carry through them);
    the first offending row is looked up only once a check fails."""
    rows = _rows(lines)
    ints = rows[:, ::2]
    if rows.size:
        lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
        if not all(map(math.isfinite, lo + hi)):
            bad = ~np.isfinite(rows).all(axis=1)
            raise DomainError(f"non-finite entry in line {tuple(rows[bad][0].tolist())}")
        if not (np.rint(ints) == ints).all():
            bad = (np.rint(ints) != ints).any(axis=1)
            raise DomainError(
                f"non-integer degree or multiplicity in line {tuple(rows[bad][0].tolist())}"
            )
        if lo[0] < 0 or hi[0] > n:
            q = rows[:, 0]
            raise DomainError(f"degree {int(q[(q < 0) | (q > n)][0])} outside [0, {n}]")
        if lo[1] < 0:
            raise DomainError(f"negative eigenvalue {rows[rows[:, 1] < 0, 1][0]}")
        if lo[2] < 1:
            raise DomainError(f"multiplicity {int(rows[rows[:, 2] < 1, 2][0])} < 1")
        if hi[2] >= 2.0**63:
            raise DomainError(f"multiplicity {hi[2]:.17g} does not fit a 64-bit integer")
    ints = ints.astype(np.int64)
    return ints[:, 0], rows[:, 1], ints[:, 1]


def _law_index(rows: np.ndarray, tail: QuadraticTail) -> np.ndarray:
    """Per row, the k >= 0 at which the tail law reproduces it in one of its
    degrees, or -1.  Matched by inverting the quadratic on the side of its
    larger root with a relative tolerance, so tables rebuilt through a
    rescaled law still match despite float rounding."""
    law, lam = tail.law, rows["lam"]
    disc = law.a1 * law.a1 + 4.0 * law.a2 * (lam - law.a0)
    k = np.rint((-law.a1 + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * law.a2))
    in_degrees = (rows["q"][:, None] == np.asarray(tail.degrees, dtype=np.int64)).any(axis=1)
    match = in_degrees & (disc >= 0) & (k >= 0)
    match &= np.abs(law.lam(k) - lam) <= 1e-9 * (1.0 + np.abs(lam))
    return np.where(match, k, -1.0)


def _require_anchored(stored: np.ndarray, tail: QuadraticTail):
    """The stored rows with lam > 0 and their ``_law_index``; only these can
    be law lines past k_first, where the law is positive.  DomainError for
    one that the law reproduces below k_first: the law's expansion
    coefficients would cancel against the stored rows.  Without such rows
    the law is not inverted."""
    rows = stored[stored["lam"] > 0.0]
    if not rows.size:
        return rows, np.empty(0)
    k = _law_index(rows, tail)
    below = (0 <= k) & (k < tail.k_first)
    if below.any():
        raise DomainError(
            f"line {tuple(rows[below][0].tolist())} is the tail law's line "
            f"k = {int(k[below][0])}, below k_first = {tail.k_first}: start the law "
            f"at k_first <= {int(k[below].min())}"
        )
    return rows, k


#: The fields of a table's structured array of lines.
_LINE = np.dtype([("q", np.int64), ("lam", np.float64), ("mult", np.int64)])


def _merged(q: np.ndarray, lam: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The read-only structured array (``_LINE``) of the lines sorted by
    (q, lam), with the multiplicities of equal (q, lam) keys added; a table
    of at most one line has nothing to sort or merge."""
    if q.size > 1:
        order = np.lexsort((lam, q))
        q, lam, mult = q[order], lam[order], mult[order]
        new_key = np.empty(q.size, dtype=bool)
        new_key[:1] = True
        new_key[1:] = (q[1:] != q[:-1]) | (lam[1:] != lam[:-1])
        first = new_key.nonzero()[0]
        q, lam, mult = q[first], lam[first], np.add.reduceat(mult, first)
    merged = np.empty(q.size, dtype=_LINE)
    merged["q"], merged["lam"], merged["mult"] = q, lam, mult
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
    values, bounds = trace_degree_nodes(spec, q, [t], nonzero_only)
    return TraceValue(float(values[0]), float(bounds[0]))


def trace_degree_nodes(
    spec: SpectrumTable, q: int, t: Iterable[float], nonzero_only: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """``trace_degree`` at every node of the 1-D array ``t``: (values, tail
    bounds), one of each per node, from the super trace's kernel run on the
    degree-q record (``SpectrumTable._degree_trace``)."""
    t = np.asarray(t, dtype=float)
    for s in t.tolist():
        _require_finite_positive(s, "trace_degree")
    record = spec._degree_trace(q)
    values = record.value(t)
    if not nonzero_only:
        values += record.kernel
    bounds = np.zeros(t.size)
    if isinstance(spec.tail, QuadraticTail) and q in spec.tail.degrees:
        bounds[:] = [tail_bound(spec.tail.law, spec.tail.k_next, s) for s in t.tolist()]
    return values, bounds


def _require_int(**values: int) -> None:
    """DomainError naming the first value that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {name}={value!r}")


def _require_finite_positive(t: float, what: str) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError(f"{what} requires 0 < t < inf, got t = {t!r}")


def _supertrace_tail_bound(spec: SpectrumTable, t: float) -> float:
    """Bound on the super-trace terms of the law lines k >= k_next, the lines
    the table omits, in every tail degree."""
    if isinstance(spec.tail, FiniteTail):
        return 0.0
    if not isinstance(spec.tail, QuadraticTail):  # pragma: no cover
        raise UnsupportedTailError(f"unknown tail policy {spec.tail!r}")
    weight = sum(spec.tail.degrees)
    if weight == 0:
        return 0.0
    return weight * tail_bound(spec.tail.law, spec.tail.k_next, t)


def supertrace_trust_floor(spec: SpectrumTable, tol: float) -> float:
    """Smallest t at which the truncated super trace is certified to ``tol``."""
    if isinstance(spec.tail, FiniteTail):
        return 0.0
    weight = max(1, sum(spec.tail.degrees))
    return trust_floor(spec.tail.law, spec.tail.k_next, tol / weight)


def spectral_gap(spec: SpectrumTable, q: int) -> float:
    """Smallest nonzero eigenvalue in degree q: the degree-q record's lam_1."""
    record = spec._degree_trace(q)
    if not record.runs:
        raise EmptyDegreeError(f"no nonzero eigenvalue in degree {q}")
    return record.lam_1


def decay_certificate(spec: SpectrumTable, t_min: float = 1.0) -> Tuple[float, float]:
    """(C, c) with |STr[N e^{-t Box} perp]| <= C e^{-c t} for t >= t_min.

    Read from the record ``SpectrumTable._supertrace``, with no line read:
    every weighted line has lam >= lam_1, so |sum w e^{-lam t}| <=
    sum |w| e^{-lam_1 t} for every t >= 0, and C = sum |w| with
    c = lam_1.  The law lines k >= k_next that the table omits have
    lam >= lam(k_next) on the law's rising side, where their tail bound
    is finite; c is lowered to lam(k_next) if that is smaller, so each
    omitted term obeys e^{-lam t} = e^{-c t} e^{-(lam - c) t} <=
    e^{-c t} e^{-(lam - c) t_min} for t >= t_min.  Their sum is
    therefore at most e^{-c t} times the tail bound at t_min of the law
    shifted down by c, which C adds.  A table with no weighted line gives
    (0, 1).
    """
    st = spec._supertrace
    if not st.runs:
        return 0.0, 1.0
    C, c = st.abs_weight, st.lam_1
    tail = spec.tail
    if isinstance(tail, QuadraticTail) and sum(tail.degrees):
        law = tail.law
        c = min(c, float(law.lam(tail.k_next)))
        C += sum(tail.degrees) * tail_bound(replace(law, a0=law.a0 - c), tail.k_next, t_min)
    return C, c


# ---------------------------------------------------------------------------
# Built-in circle-bundle model
# ---------------------------------------------------------------------------


def cp1_spectrum(m: int, k_max: int | None = None) -> SpectrumTable:
    """Fourier-component Kohn Laplacian spectrum on the circle bundle model.

    Closed forms (validated by the Galerkin oracle): degree-0 eigenvalues
    k(k+m+1) with multiplicity m+2k+1 for k = 0..k_max (k = 0 is the
    (m+1)-dimensional kernel), degree-1 equal to the nonzero degree-0 lines.
    The omitted k > k_max lines are recorded as a quadratic tail law, and
    the lines k = 1..k_max are implied by the same law: only the kernel row
    is stored.  ``k_max`` defaults to max(1024, 4 m): a longer table's trust
    floor lets the heat nodes reach where the rounding of the long spectral
    sum outweighs the quadrature noise (heat error at m = 1024: 1.0e-11 with
    4 m lines, 1.3e-8 with m^2).
    """
    _require_int(m=m)
    if m < 0:
        raise DomainError("m must be >= 0")
    k_max = max(1024, 4 * m) if k_max is None else k_max
    _require_int(k_max=k_max)
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    law = QuadraticLaw(a2=1.0, a1=float(m + 1), a0=0.0, m1=2.0, m0=float(m + 1))
    tail = QuadraticTail(
        k_next=k_max + 1, law=law, degrees=(0, 1), covers_all_lines=True, k_first=1
    )
    return SpectrumTable.from_law([(0, 0.0, m + 1)], n=1, tail=tail)


@dataclass(frozen=True)
class GeometryModel:
    """Homogeneous geometry data feeding densities and the asymptotic RHS."""

    n: int
    levi: LeviSpectrum
    volume: float
    rank_e: int

    def __post_init__(self):
        if not 0 < self.volume < math.inf:  # also rejects nan
            raise DomainError(f"volume must be positive and finite, got {self.volume!r}")
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


def ingest_spectrum(source, n: int) -> SpectrumTable:
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
    return SpectrumTable.from_lines(rows, n=n, tail=FiniteTail())
