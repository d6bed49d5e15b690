"""One workload iteration in a fresh process, the way a crtorsion CLI call runs.

Usage (started by ``run.py``; prints one JSON object on stdout):

    python3 perfbench/worker.py --inputs <inputs.json> --src <src dir> [--trace]
    python3 perfbench/worker.py --setup-only --src <src dir>

``setup_s`` is the import time of crtorsion and its numeric stack.  ``solve_s``
runs from the first call into crtorsion to checked output.  Every checked
operation is counted; an exception fails every operation of the iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _import_program(src: Path):
    t0 = perf_counter()
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401

    import crtorsion
    import crtorsion.cli
    import crtorsion.oracle

    setup_s = perf_counter() - t0
    where = Path(crtorsion.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"crtorsion imported from {where}, not from {src}")
    return setup_s


class Checks:
    """Checked operations of one iteration."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.max_rel_err = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def rel_err(self, got: float, ref: float) -> None:
        err = abs(got - ref) / max(1.0, abs(ref))
        self.max_rel_err = max(self.max_rel_err, err)


def _cli(argv) -> int:
    """Run the CLI in-process, keeping its stdout off the worker's."""
    import crtorsion.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return crtorsion.cli.main(argv)


def _csv_rows(path: Path) -> list:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def hopf_sweep(inp: dict, work: Path, checks: Checks) -> None:
    ms = inp["ms"]
    out = work / "sweep.csv"
    code = _cli(["sweep", "--ms", ",".join(map(str, ms)), "--out", str(out)])
    rows = {int(r["m"]): r for r in _csv_rows(out)} if out.exists() else {}
    for m in ms:
        r = rows.get(m)
        ok = r is not None
        if ok:
            heat, direct = float(r["theta_prime_0"]), float(r["theta_prime_0_direct"])
            checks.rel_err(heat, direct)
            ok = abs(heat - direct) <= float(r["error_budget"])
        checks.check(f"report m={m} within its two-path budget", ok)
    checks.check("sweep exit code 0", code == 0)
    resid = {m: abs(float(r["residual"])) for m, r in rows.items()}
    # acceptance criterion 7, where the sweep covers its weights
    for a, b, factor in ((64, 128, 1.0), (32, 64, 1.0), (16, 128, 0.5)):
        if a in ms and b in ms:
            checks.check(
                f"|residual(m={b})| < {factor} |residual(m={a})|",
                b in resid and a in resid and resid[b] < factor * resid[a],
            )


def validate(inp: dict, work: Path, checks: Checks) -> None:
    import crtorsion.oracle

    rep = crtorsion.oracle.validate_cp1(**inp["oracle"])
    checks.rel_err(rep.eigenvalue_rel_error, 0.0)
    checks.check("validate_cp1 passed", rep.passed)
    out = work / "selfcheck.json"
    code = _cli(["selfcheck", "--seed", str(inp["seed"]), "--out", str(out)])
    if out.exists():
        for c in json.loads(out.read_text())["checks"]:
            checks.check(f"selfcheck {c['name']}", c["passed"])
    checks.check("selfcheck exit code 0", code == 0)


WORKLOADS = {"hopf-sweep": hopf_sweep, "validate": validate}


def expected_ops(inp: dict) -> int:
    """Checked operations known before the workload runs; a raise fails all."""
    name = inp["workload"]
    if name == "hopf-sweep":
        ms = inp["ms"]
        pairs = ((64, 128), (32, 64), (16, 128))
        return len(ms) + 1 + sum(a in ms and b in ms for a, b in pairs)
    return 2  # validate: the selfcheck lists its own checks only when it runs


def _blas_threads():
    """Thread count of the OpenBLAS that numpy (and so the oracle's eigh) uses."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import mpmath
    import mpmath.libmp
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--inputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    setup_s = _import_program(Path(args.src))
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["env"] = environment()
    else:
        inp = json.loads(Path(args.inputs).read_text())
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        checks = Checks()
        t0 = perf_counter()
        try:
            WORKLOADS[inp["workload"]](inp, Path(inp["work"]), checks)
        except Exception:  # the run's operations all count as failed
            traceback.print_exc()
            n = max(checks.attempted, expected_ops(inp), 1)
            checks.attempted, checks.failed = n, [f"raised: {sys.exc_info()[1]!r}"] * n
        result["solve_s"] = perf_counter() - t0
        result.update(
            attempted=checks.attempted,
            failed=checks.failed,
            max_rel_err=checks.max_rel_err,
            trace=tracer.snapshot() if tracer else None,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
