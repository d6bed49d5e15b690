"""Spans and counters recorded around calls into crtorsion's layers.

The wrappers are installed from outside the package: every binding of a
wrapped function inside ``crtorsion.*`` (the home module and every module that
imported it by name) is replaced, so a call is traced whichever name the
caller looks up.  A function that cannot be found in its home module is
reported as missing instead of failing the run.

A span's self time is its duration minus the part covered by its child spans.
Nested calls of the same layer (say ``extract_bhat`` calling
``fit_half_powers``) are folded into the outermost span of that layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (layer metric, home module, function).  Several functions may share a
#: layer; density and strata are reached only through ``run_selfcheck``.
SPANS = (
    ("cli.main_s", "crtorsion.cli", "main"),
    ("cli.selfcheck_s", "crtorsion.cli", "run_selfcheck"),
    ("torsion.report_s", "crtorsion.torsion", "torsion_report"),
    ("torsion.heat_s", "crtorsion.torsion", "theta_prime_zero_result"),
    ("torsion.direct_s", "crtorsion.torsion", "theta_prime_zero_direct_result"),
    ("torsion.bhat_s", "crtorsion.torsion", "closed_form_bhat"),
    ("tails.zeta_log_tail_s", "crtorsion.tails", "zeta_log_tail"),
    ("tails.em_series_s", "crtorsion.tails", "em_heat_series"),
    ("mellin.s", "crtorsion.mellin", "mellin_at_zero"),
    ("spectra.supertrace_s", "crtorsion.spectra", "heat_supertrace_N"),
    ("spectra.build_s", "crtorsion.spectra", "cp1_spectrum"),
    ("series.fit_s", "crtorsion.torsion", "extract_bhat"),
    ("series.fit_s", "crtorsion.series", "fit_half_powers"),
    ("oracle.validate_s", "crtorsion.oracle", "validate_cp1"),
    ("oracle.eigenvalues_s", "crtorsion.oracle", "validate_eigenvalues"),
    ("oracle.kernel_dim_s", "crtorsion.oracle", "validate_kernel_dimension"),
    ("oracle.heat_coeff_s", "crtorsion.oracle", "validate_heat_coefficients"),
    ("density.s", "crtorsion.density", "supertrace_N_density"),
    ("density.s", "crtorsion.density", "rt_density_series"),
    ("density.s", "crtorsion.density", "hatA_coeffs"),
    ("density.s", "crtorsion.density", "subset_sum_identity_residual"),
    ("density.s", "crtorsion.density", "model_density_coeffs"),
    ("strata.s", "crtorsion.strata", "gaussian_stratum_expansion"),
    ("strata.s", "crtorsion.strata", "quadrature_reference"),
    ("strata.s", "crtorsion.strata", "stratum_suppression_envelope"),
)

#: Metrics also recorded per report weight m, suffixed ``.m<m>``.
PER_M = (
    "tails.zeta_log_tail_s",
    "tails.hurwitz_calls",
    "tails.dps_levels",
    "mellin.heat_s",
    "mellin.heat_evals",
    "mellin.tilde_s",
    "mellin.tilde_evals",
    "torsion.gap_over_err",
)

#: Bytes the supertrace kernel reads per listed line: the eigenvalue,
#: degree-weight and multiplicity float64 arrays.  Computed, not measured.
SUPERTRACE_BYTES_PER_LINE = 3 * 8


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.values = {}
        self.missing = []
        self._depth = Counter()
        self._stack = []  # [name, child_time] frames
        self._m = None
        self._errs = {}
        self._sigs = {}
        self._mellin_kind = None

    # -- recording -------------------------------------------------------

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        if self._m is not None and name in PER_M:
            self.counts[f"{name}.m{self._m}"] += n

    def add_time(self, name: str, dt: float) -> None:
        self.total[name] += dt
        if self._m is not None and name in PER_M:
            self.total[f"{name}.m{self._m}"] += dt

    def _wrap(self, name: str, fn, before=None, after=None):
        """Span around ``fn``; ``before(args, kwargs)`` returns a state that
        ``after(out, state, dt)`` receives, with ``out = None`` on a raise."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self._depth[name]:
                return fn(*args, **kwargs)
            state = self._hook(name, before, args, kwargs) if before else None
            frame = [name, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = perf_counter() - t0
                self._depth[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.add_time(name, dt)
                self.self_time[name] += dt - frame[1]
                if after:
                    self._hook(name, after, out, state, dt)

        return wrapper

    def _hook(self, name: str, hook, *args):
        """Run a metric hook; one that no longer fits the program (a renamed
        argument or result field) marks the layer missing, never fails it."""
        try:
            return hook(*args)
        except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
            note = f"{name} hook: {type(exc).__name__}: {exc}"
            if note not in self.missing:
                self.missing.append(note)
            return None

    # -- hooks for the metrics that read arguments or return values --------

    def _report_enter(self, args, kwargs):
        prev = self._m
        self._errs = {}
        self._m = None
        m = _argument(self._sigs["torsion_report"], args, kwargs, "m")
        if m is None:
            raise KeyError("torsion_report has no argument m")
        self._m = int(m)
        return prev

    def _report_exit(self, report, prev, _dt):
        m, self._m = self._m, prev
        err = self._errs.get("heat", 0.0) + self._errs.get("direct", 0.0)
        if report is not None and err > 0.0:
            ratio = abs(report.theta_prime_0 - report.theta_prime_0_direct) / err
            top = self.values.get("torsion.gap_over_err", 0.0)
            self.values["torsion.gap_over_err"] = max(top, ratio)
            self.values[f"torsion.gap_over_err.m{m}"] = ratio
            self.count("torsion.reports")

    def _mellin_enter(self, _args, _kwargs):
        if self.active("torsion.heat_s"):
            kind = "heat"
        elif self.active("torsion.report_s"):
            kind = "tilde"
        else:
            kind = "other"
        self.count("mellin.calls")
        self.count(f"mellin.{kind}_calls")
        self._mellin_kind = kind
        return kind

    def _mellin_exit(self, _out, kind, dt):
        self.add_time(f"mellin.{kind}_s", dt)

    def _supertrace_enter(self, args, kwargs):
        spec = _argument(self._sigs["heat_supertrace_N"], args, kwargs, "spec")
        lines = len(spec.lines)
        self.count("spectra.supertrace_calls")
        self.count("spectra.line_evals", lines)
        self.count("spectra.bytes_computed", SUPERTRACE_BYTES_PER_LINE * lines)
        if self.active("mellin.s"):
            self.count("mellin.evals")
            self.count(f"mellin.{self._mellin_kind}_evals")

    def _heat_exit(self, result, _state, _dt):
        if result is not None:
            self._errs["heat"] = float(result.error_estimate)

    def _direct_exit(self, result, _state, _dt):
        if result is not None:
            self._errs["direct"] = float(result[1])

    def _counter(self, name: str, inside: str | None, fn):
        """Count calls of ``fn`` (made inside span ``inside``, if given)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or self.active(inside):
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function found; record the ones that are not."""
        import mpmath

        hooks = {
            "torsion_report": (self._report_enter, self._report_exit),
            "mellin_at_zero": (self._mellin_enter, self._mellin_exit),
            "heat_supertrace_N": (self._supertrace_enter, None),
            "theta_prime_zero_result": (None, self._heat_exit),
            "theta_prime_zero_direct_result": (None, self._direct_exit),
        }
        for name, home, attr in SPANS:
            fn = getattr(sys.modules.get(home), attr, None)
            if not callable(fn):
                self.missing.append(f"{home}.{attr}")
                continue
            if attr in hooks:
                self._sigs[attr] = inspect.signature(fn)
            before, after = hooks.get(attr, (None, None))
            _rebind(fn, self._wrap(name, fn, before, after))
        blocks = getattr(
            sys.modules.get("crtorsion.oracle"), "galerkin_block_eigenvalues", None
        )
        if callable(blocks):
            _rebind(blocks, self._counter("oracle.blocks", None, blocks))
        else:
            self.missing.append("crtorsion.oracle.galerkin_block_eigenvalues")
        inside = "tails.zeta_log_tail_s"
        mpmath.zeta = self._counter("tails.hurwitz_calls", inside, mpmath.zeta)
        mpmath.workdps = self._counter("tails.dps_levels", inside, mpmath.workdps)

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "values": dict(self.values),
            "missing": list(self.missing),
        }


def _argument(sig, args, kwargs, name):
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _rebind(original, replacement) -> None:
    """Point every crtorsion binding of ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname != "crtorsion" and not modname.startswith("crtorsion."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
