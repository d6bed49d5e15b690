"""Command-line front end.

Subcommands: selfcheck, density, torsion, sweep, fit, stratum.  All output is
plot-ready CSV/JSON (no rendering); every report embeds the tool version, the
full configuration, and the tolerances used.  Exit codes are meaningful:
selfcheck exits 0 only if every invariant passes, sweep exits 0 only if the
residual trend criterion holds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .density import (
    LeviSpectrum,
    cr_density_norm,
    hatA_coeffs,
    model_density_coeffs,
    rt_density_series,
    scalar_density_norm,
    subset_sum_identity_residual,
    supertrace_N_density,
)
from .errors import CrTorsionError, DomainError, TwoPathMismatchError
from .mellin import GAMMA_PRIME_1, MellinInput, QuadratureConfig, mellin_at_zero, riemann_zeta_check
from .oracle import validate_eigenvalues, validate_kernel_dimension
from .series import HalfPowerSeries, bose_factor, fit_half_powers
from .spectra import (
    SpectrumTable,
    cp1_geometry,
    cp1_spectrum,
    ingest_spectrum,
    load_geometry,
)
from .strata import (
    StratumIntegrand,
    gaussian_stratum_expansion,
    quadrature_reference,
    stratum_suppression_envelope,
)
from .torsion import (
    asympt_sweep,
    closed_form_bhat,
    extract_bhat,
    reports_to_csv,
    reports_to_json,
    residual_trend_ok,
    theta_prime_zero_direct_result,
    theta_prime_zero_result,
    torsion_report,
)

ZETA_PRIME_0 = -0.5 * math.log(2.0 * math.pi)


def _resolve_geometry(spec: str):
    if spec == "cp1":
        return cp1_geometry()
    path = Path(spec)
    if not path.is_file():
        raise CrTorsionError(f"geometry file not found: {path}")
    return load_geometry(path)


def _kmax(args, m: int) -> int:
    """``--kmax`` as given (0 included), else the default max(1024, m^2)."""
    return args.kmax if args.kmax is not None else max(1024, m * m)


def _emit(args, json_text: str, csv_text: str) -> None:
    """Write the report in the chosen ``--format`` to ``--out`` or stdout."""
    text = json_text if args.format == "json" else csv_text
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _coefficients_csv(args, pairs, *comments: str) -> str:
    """``exponent,coefficient`` rows under the metadata comment line."""
    rows = ["# " + json.dumps(_metadata(args), default=str), *comments, "exponent,coefficient"]
    rows += [f"{e},{format(float(c), '.17g')}" for e, c in pairs]
    return "\n".join(rows) + "\n"


def _metadata(args, extra: dict | None = None) -> dict:
    meta = {
        "tool": "crtorsion",
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def run_selfcheck(seed: int, tol: float, gamma_prime_1: float = GAMMA_PRIME_1) -> tuple:
    """Run the cross-module invariant battery.

    Returns (exit_code, checks) where checks is a list of dicts with name,
    measured error, tolerance, and verdict.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    qcfg = QuadratureConfig(abs_tol=min(tol, 1e-9), rel_tol=min(tol, 1e-9))
    checks = []

    def record(name: str, err: float, bound: float, display: str | None = None):
        ok = bool(err <= bound)
        checks.append(
            {
                "name": name,
                "value": display if display is not None else f"{err:.3e}",
                "error": err,
                "tolerance": bound,
                "passed": ok,
            }
        )

    # series: bose * (1 - e^{-a t}) == 1
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.5, 3.0))
        order = 8
        bose = bose_factor(a, order)
        one_minus = HalfPowerSeries.constant(1.0, order) - HalfPowerSeries.exponential(-a, order)
        prod = bose * one_minus
        unit = HalfPowerSeries.constant(1.0, prod.trunc2 / 2.0)
        worst = max(worst, prod.max_abs_coeff_diff(unit))
    record("series_bose_inverse", worst, 1e-12)

    # series: fit recovers random half-power data
    worst = 0.0
    for _ in range(5):
        n_terms = int(rng.integers(2, 7))
        coeffs = rng.uniform(-3, 3, size=n_terms)
        base = -1
        series = HalfPowerSeries(2 * base, tuple(coeffs), 2 * base + n_terms)
        grid = np.geomspace(0.02, 0.4, 40)
        fit = fit_half_powers([(float(t), series(float(t))) for t in grid], base, n_terms)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        worst = max(worst, float(np.max(np.abs(np.array(fit.coeffs) - coeffs))) / scale)
    record("series_fit_roundtrip", worst, 1e-8)

    # density: super-trace identity and subset-sum identity
    worst = 0.0
    worst_subset = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        levi = LeviSpectrum(n, tuple(rng.uniform(0.5, 3.0, size=n)))
        lhs = supertrace_N_density(levi, 7)
        rhs = rt_density_series(levi, 7)
        scale = max(abs(float(c)) for c in rhs.coeffs)
        worst = max(worst, lhs.max_abs_coeff_diff(rhs) / scale)
        worst_subset = max(
            worst_subset, subset_sum_identity_residual(levi, float(rng.uniform(0.2, 1.5)))
        )
    record("supertrace_identity", worst, 1e-10)
    record("subset_sum_identity", worst_subset, 1e-10)

    # density: closed-form coefficients match the series
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        levi = LeviSpectrum(n, tuple(rng.uniform(0.5, 3.0, size=n)))
        a_m1, a_0 = hatA_coeffs(levi)
        series = rt_density_series(levi, 2)
        scale = max(abs(a_m1), abs(a_0), 1e-30)
        worst = max(
            worst,
            abs(series.coefficient(-1) - a_m1) / scale,
            abs(series.coefficient(0) - a_0) / scale,
        )
    record("hatA_vs_rt_series", worst, 1e-12)

    record(
        "normalization_ratio",
        abs(scalar_density_norm(3) / cr_density_norm(3) - 2.0 * math.pi),
        1e-12,
    )

    # mellin: Riemann zeta pipeline
    z0, zp0 = riemann_zeta_check()
    record("zeta0", abs(z0 + 0.5), 0.0, display=f"{z0:.12f}")
    record("zeta_prime0", abs(zp0 - ZETA_PRIME_0), 1e-8, display=f"{zp0:.9f}")

    # mellin: synthetic Gamma-quotient family
    worst = 0.0
    for _ in range(8):
        k = int(rng.integers(0, 3))
        c = rng.uniform(-2, 2, size=2 * k + 3)
        inp, analytic = _gamma_family_input(c, k)
        res = mellin_at_zero(inp)
        worst = max(worst, abs(res.derivative0 - analytic) / max(10.0 * res.error_estimate, 1e-300))
    record("mellin_gamma_family", worst, 1.0)

    # torsion: one-line zeta oracle and two-path consistency on finite spectra
    worst = 0.0
    for lam, mult in ((2.0, 1), (5.0, 3)):
        spec = SpectrumTable.from_lines([(1, lam, mult)], n=1)
        got = theta_prime_zero_result(
            spec, 1, closed_form_bhat(spec), qcfg, gamma_prime_1=gamma_prime_1
        ).derivative0
        worst = max(worst, abs(got - (-mult * math.log(lam))))
    record("one_line_zeta", worst, 1e-9)

    worst = 0.0
    for _ in range(5):
        spec = _random_finite_spectrum(rng, n=int(rng.integers(1, 3)))
        heat = theta_prime_zero_result(
            spec, spec.n, closed_form_bhat(spec), qcfg, gamma_prime_1=gamma_prime_1
        ).derivative0
        direct = theta_prime_zero_direct_result(spec)[0]
        worst = max(worst, abs(heat - direct))
    record("two_path_finite", worst, 1e-8)

    # torsion: scaling identity on the bundled model
    rep = torsion_report(cp1_spectrum(8, 1024), cp1_geometry(), 8, qcfg)
    record("scaling_identity_m8", rep.scaling_identity_gap, 1e-8)

    # circle-bundle oracle (kept small here; the full gate runs in acceptance)
    record("cp1_oracle_eigenvalues", validate_eigenvalues(1, num_eigs=6, basis_factor=3), 1e-6)
    dims_ok = all(validate_kernel_dimension(m) == m + 1 for m in range(0, 5))
    record("cp1_kernel_dims", 0.0 if dims_ok else 1.0, 0.5)

    # strata: closed form vs quadrature, parity of half powers
    worst = 0.0
    parity_ok = True
    for r in (1, 2, 3):
        poly = {}
        for _ in range(3):
            alpha = tuple(int(rng.integers(0, 3)) * 2 for _ in range(r))
            poly[alpha] = float(rng.uniform(-2, 2))
        integrand = StratumIntegrand(r, poly, float(rng.uniform(0.5, 2.0)))
        m = int(rng.integers(4, 40))
        # truncation must cover every generated monomial (largest exponent is
        # |alpha|/2 + r/2), else the quadrature reference sees dropped terms
        series = gaussian_stratum_expansion(integrand, m, r / 2.0 + 12)
        for t in (1e-3, 1e-2):
            ref = quadrature_reference(integrand, m, t)
            got = series(t)
            # individual monomial contributions may nearly cancel; scale by
            # their magnitudes, not the net value
            scale = sum(
                abs(float(c)) * t ** e
                for e, c in zip(series.exponents(), series.coeffs)
            )
            worst = max(worst, abs(got - ref) / max(scale, 1e-12))
        half_integer_slots = [
            c for e, c in zip(series.exponents(), series.coeffs) if e != int(e)
        ]
        has_half = any(abs(float(c)) > 0 for c in half_integer_slots)
        if r % 2 == 1 and series.coeffs and not has_half:
            parity_ok = False
        if r % 2 == 0 and has_half:
            parity_ok = False
    record("strata_quadrature", worst, 1e-8)
    record("strata_half_power_parity", 0.0 if parity_ok else 1.0, 0.5)

    env0 = stratum_suppression_envelope(16, 0.0, 2.0, 0.1, 2)
    env1 = stratum_suppression_envelope(16, 0.5, 2.0, 0.1, 2)
    env2 = stratum_suppression_envelope(16, 1.0, 2.0, 0.1, 2)
    env_ok = env0 == 2.0 * 16 ** 2 and env0 > env1 > env2
    record("suppression_envelope", 0.0 if env_ok else 1.0, 0.5)

    exit_code = 0 if all(c["passed"] for c in checks) else 1
    return exit_code, checks


def _gamma_family_input(c, k: int):
    """Synthetic input sum_j c_j t^{-k+j/2} e^{-t} with known transform.

    The transform is sum_j c_j Gamma(z - k + j/2) / Gamma(z); its derivative
    at 0 is Gamma(b) for exponent b not a nonpositive integer and
    (-1)^p H_p / p! for b = -p.
    """
    c = list(map(float, c))

    def f(t: np.ndarray) -> np.ndarray:
        u = np.sqrt(t)
        return sum(ci * u ** (j - 2 * k) for j, ci in enumerate(c)) * np.exp(-t)

    # certificate: coefficients of t^{-k+j/2} of f include the e^{-t} smearing
    j_top = len(c) + 6
    expansion = []
    for j in range(j_top):
        acc = 0.0
        for jp, cj in enumerate(c):
            if jp > j or (j - jp) % 2 == 1:
                continue
            p = (j - jp) // 2
            acc += cj * (-1.0) ** p / math.factorial(p)
        expansion.append(acc)
    analytic = 0.0
    for j, cj in enumerate(c):
        b = -k + j / 2.0
        if b == int(b) and b <= 0:
            p = int(-b)
            h = sum(1.0 / i for i in range(1, p + 1))
            analytic += cj * (-1.0) ** p / math.factorial(p) * h
        else:
            analytic += cj * math.gamma(b)
    C = sum(abs(ci) for ci in c) * 1.5
    return MellinInput(f, k, tuple(expansion), (C, 0.9), 0.0), analytic


def _random_finite_spectrum(rng, n: int) -> SpectrumTable:
    lines = []
    n_lines = int(rng.integers(3, 30))
    for _ in range(n_lines):
        q = int(rng.integers(0, n + 1))
        lam = float(rng.uniform(0.4, 30.0))
        mult = int(rng.integers(1, 5))
        lines.append((q, lam, mult))
    if rng.uniform() < 0.5:
        lines.append((0, 0.0, int(rng.integers(1, 4))))
    return SpectrumTable.from_lines(lines, n=n)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_selfcheck(args) -> int:
    gamma = 0.0 if args.mutate_gamma else GAMMA_PRIME_1
    code, checks = run_selfcheck(args.seed, args.tol, gamma_prime_1=gamma)
    lines = []
    for c in checks:
        verdict = "PASS" if c["passed"] else "FAIL"
        lines.append(f"{c['name']}: {c['value']} {verdict}")
    summary = "\n".join(lines)
    print(summary)
    print(f"selfcheck: {'ok' if code == 0 else 'FAILED'} ({len(checks)} checks)")
    if args.out:
        payload = {"metadata": _metadata(args), "checks": checks, "exit_code": code}
        Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return code


def _cmd_density(args) -> int:
    model = _resolve_geometry(args.geometry)
    order = args.order
    stn = supertrace_N_density(model.levi, order)
    a_m1, a_0 = hatA_coeffs(model.levi)
    wedge = model_density_coeffs(model.levi, model.rank_e, order)
    payload = {
        "metadata": _metadata(args),
        "hatA_minus1": a_m1,
        "hatA_0": a_0,
        "supertrace_series": _series_dict(stn),
        "wedge_subsets": {
            ",".join(map(str, sorted(s))) or "empty": _series_dict(wedge[s])
            for s in wedge.per_subset
        },
    }
    csv_text = _coefficients_csv(args, zip(stn.exponents(), stn.coeffs))
    _emit(args, json.dumps(payload, indent=2), csv_text)
    return 0


def _series_dict(series: HalfPowerSeries) -> dict:
    return {
        "base_order": series.base_order,
        "trunc_order": series.trunc_order,
        "coefficients": {
            str(e): float(c) for e, c in zip(series.exponents(), series.coeffs)
        },
    }


def _read_spectrum(name: str, n: int, m: int | None) -> SpectrumTable:
    path = Path(name)
    if not path.is_file():
        raise CrTorsionError(f"spectrum file not found: {path}")
    return ingest_spectrum(path.read_bytes(), n=n, m=m or 0)


def _cmd_torsion(args) -> int:
    model = _resolve_geometry(args.geometry)
    if args.spectrum:
        spec = _read_spectrum(args.spectrum, model.n, args.m)
    elif args.m is None:
        raise CrTorsionError("either --spectrum or --m is required")
    else:
        spec = cp1_spectrum(args.m, _kmax(args, args.m))
    cfg = QuadratureConfig(abs_tol=args.tol, rel_tol=args.tol)
    m = 1 if args.m is None else args.m
    report = torsion_report(spec, model, m, cfg)
    meta = _metadata(args, {"quadrature": asdict(cfg)})
    _emit(args, reports_to_json([report], meta), reports_to_csv([report], meta))
    return 0


def _cmd_sweep(args) -> int:
    model = _resolve_geometry(args.geometry)
    cfg = QuadratureConfig(abs_tol=args.tol, rel_tol=args.tol)

    def source(m: int) -> SpectrumTable:
        return cp1_spectrum(m, _kmax(args, m))

    reports = asympt_sweep(model, source, args.ms, cfg)
    meta = _metadata(args, {"quadrature": asdict(cfg)})
    _emit(args, reports_to_json(reports, meta), reports_to_csv(reports, meta))
    trend = residual_trend_ok(reports)
    resids = ", ".join(f"m={r.m}: {r.residual:+.6f}" for r in reports)
    print(f"residuals: {resids}")
    print(f"trend (|residual| strictly decreasing over last 3): {'ok' if trend else 'VIOLATED'}")
    return 0 if trend else 2


def _cmd_fit(args) -> int:
    if not (args.tmin > 0 and args.tmax > 0):
        raise DomainError(f"--tmin and --tmax must be positive: {args.tmin:g}, {args.tmax:g}")
    spec = _read_spectrum(args.spectrum, args.n, args.m)
    grid = np.geomspace(args.tmin, args.tmax, args.points)
    fit = extract_bhat(spec, args.n, args.terms, grid)
    payload = {
        "metadata": _metadata(args),
        "base_order": -args.n,
        "coefficients": list(fit.coeffs),
        "condition_number": fit.cond,
        "ill_conditioned": fit.ill_conditioned,
    }
    exponents = (-args.n + j / 2.0 for j in range(len(fit.coeffs)))
    csv_text = _coefficients_csv(
        args, zip(exponents, fit.coeffs), f"# condition_number: {fit.cond:.6e}"
    )
    _emit(args, json.dumps(payload, indent=2), csv_text)
    return 0


def _cmd_stratum(args) -> int:
    poly = dict(args.poly) if args.poly else {tuple([0] * args.r): 1.0}
    integrand = StratumIntegrand(args.r, poly, args.c)
    # truncation must reach past the highest supplied monomial so the
    # quadrature cross-check compares like with like
    depth = max(args.order, max(sum(a) for a in poly) / 2.0 + 1.0)
    series = gaussian_stratum_expansion(integrand, args.m, args.r / 2.0 + depth)
    refs = {}
    for t in (1e-3, 1e-2):
        refs[str(t)] = {
            "closed_form": series(t),
            "quadrature": quadrature_reference(integrand, args.m, t),
        }
    payload = {
        "metadata": _metadata(args),
        "series": _series_dict(series),
        "cross_check": refs,
        "envelope_at_crossover": stratum_suppression_envelope(
            args.m, math.sqrt(math.log(float(args.m)) / (0.5 * args.m)), 1.0, 0.5, 1
        ),
    }
    csv_text = _coefficients_csv(args, zip(series.exponents(), series.coeffs))
    _emit(args, json.dumps(payload, indent=2), csv_text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list:
    """``--ms``: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None


def _monomials(text: str) -> list:
    """``--poly``: a JSON object {"a1 ... ar": coeff}, as (multi-index,
    coefficient) pairs; a list keeps the report metadata plain JSON."""
    try:
        pairs = [(tuple(map(int, k.split())), float(v)) for k, v in json.loads(text).items()]
    except (AttributeError, TypeError, ValueError):
        pairs = []
    if not pairs:
        raise argparse.ArgumentTypeError(
            f'expected a nonempty JSON object of {{"a1 ... ar": coeff}} monomials: {text!r}'
        )
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtorsion",
        description="Zeta-regularized torsion of Kohn Laplacian Fourier components",
    )
    parser.add_argument("--version", action="version", version=f"crtorsion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output file path")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-11, help="quadrature tolerance")
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument(
        "--geometry", type=str, default="cp1", help="geometry JSON path or the builtin 'cp1'"
    )

    p = sub.add_parser(
        "selfcheck", parents=[out, tol], help="run the cross-module invariant battery"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument(
        "--mutate-gamma",
        action="store_true",
        help="deliberately zero the Gamma'(1) constant (mutation diagnostics; must fail)",
    )
    p.set_defaults(func=_cmd_selfcheck)

    p = sub.add_parser(
        "density", parents=[out, fmt, geometry], help="dump model density expansions"
    )
    p.add_argument("--order", type=float, default=4.0, help="truncation order")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("torsion", parents=[out, fmt, tol, geometry], help="single torsion report")
    p.add_argument("--spectrum", type=str, default=None, help="spectrum CSV path")
    p.add_argument("--m", type=int, default=None, help="Fourier weight")
    p.add_argument("--kmax", type=int, default=None, help="spectrum truncation")
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser(
        "sweep", parents=[out, fmt, tol, geometry], help="m-sweep with residual trend check"
    )
    p.add_argument(
        "--ms", type=_int_list, required=True, help="comma-separated weights, e.g. 8,16,32,64"
    )
    p.add_argument("--kmax", type=int, default=None, help="fixed truncation (default max(1024, m^2))")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", parents=[out, fmt], help="extract half-power expansion coefficients")
    p.add_argument("--spectrum", type=str, required=True)
    p.add_argument("--n", type=int, required=True, help="CR dimension parameter")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--terms", type=int, default=5)
    p.add_argument("--tmin", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=0.3)
    p.add_argument("--points", type=int, default=40)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "stratum", parents=[out, fmt], help="Gaussian stratum expansion and envelope"
    )
    p.add_argument("--r", type=int, required=True, help="stratum codimension")
    p.add_argument("--c", type=float, default=1.0, help="quadratic form scale")
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--order", type=float, default=4.0, help="extra orders beyond r/2")
    p.add_argument(
        "--poly",
        type=_monomials,
        default=None,
        help='JSON of {"a1 a2 ... ar": coeff} monomials, e.g. {"0": 1.0, "2": 0.5}',
    )
    p.set_defaults(func=_cmd_stratum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TwoPathMismatchError as exc:
        print(f"error: two-path consistency violated: {exc}", file=sys.stderr)
        return 3
    except CrTorsionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
