"""crtorsion benchmark: time to a verified theta'(0), end to end and per layer.

    python3 perfbench/run.py --workload hopf-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  Each workload iteration runs
in a fresh Python process, as a ``crtorsion`` CLI call does, and checks its
output.  Inputs come from ``--seed`` only.

``--trace 0`` repeats fresh-process iterations for ``--seconds`` and reports
the end-to-end metrics as medians.  ``--trace 1`` runs one untraced and two
traced iterations and reports the per-layer metrics; the counts of the two
traced iterations must repeat exactly.  ``--smoke`` shrinks every input so the
benchmark's own test stays quick.

Human-readable lines come first (environment, checks, breakdown); the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import PER_M, SPANS
from worker import expected_ops

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("hopf-sweep", "validate")
#: Import-only processes per untraced run, on top of one per iteration.
SETUP_SAMPLES = 2
#: The program runs single-threaded: on a small shared machine a second BLAS
#: thread made oracle timings spread by a third.  The record shows the count.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Dropped from the worker's environment: imports use bytecode caches (kept in
#: the checkout's __pycache__ directories), as an installed package does.
BYTECODE_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
#: Every run must end within 180 s; no iteration starts past this budget.
RUN_LIMIT_S = 170.0

#: Criterion 7 sweep and criterion 10 oracle settings, and their smoke sizes.
HOPF_MS = (8, 16, 32, 64, 128)
SMOKE_MS = (8, 16)
ORACLE = dict(
    m_eigs=(1, 5), m_kernel=tuple(range(9)), m_heat=64,
    num_eigs=10, basis_factor=4, eig_tol=1e-6, heat_tol=0.02,
)
SMOKE_ORACLE = dict(
    m_eigs=(1,), m_kernel=(0, 1, 2), m_heat=64,
    num_eigs=4, basis_factor=3, eig_tol=1e-6, heat_tol=0.02,
)

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics, not bounded: fail_frac is 0 on a
#: correct program and max_rel_err is a deterministic roundoff-sized error.
CHECK_METRICS = (("fail_frac", "ratio"), ("max_rel_err", "ratio"))


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in a fixed order."""
    names = []
    for layer in dict.fromkeys(name for name, _, _ in SPANS):
        names.append((layer, "s"))
        names.append(("cli.self_s" if layer == "cli.main_s" else f"{layer}.self", "s"))
    names += [(f"mellin.{kind}_s", "s") for kind in ("heat", "tilde", "other")]
    names += [
        (name, "count")
        for name in (
            "torsion.reports",
            "tails.zeta_log_tail_calls",
            "tails.hurwitz_calls",
            "tails.dps_levels",
            "mellin.calls",
            "mellin.heat_calls",
            "mellin.tilde_calls",
            "mellin.evals",
            "mellin.heat_evals",
            "mellin.tilde_evals",
            "spectra.supertrace_calls",
            "spectra.line_evals",
            "oracle.blocks",
        )
    ]
    names.append(("spectra.bytes_computed", "bytes"))
    names.append(("torsion.gap_over_err", "ratio"))
    units = dict(names)
    for base in PER_M:
        names += [(f"{base}.m{m}", units[base]) for m in HOPF_MS]
    names += [
        ("trace.untraced_solve_s", "s"),
        ("trace.traced_solve_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.missing", "count"),
        ("check.max_rel_err", "ratio"),
        ("check.fail_frac", "ratio"),
    ]
    return names


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool, work: Path) -> dict:
    inp = {"workload": workload, "work": str(work)}
    if workload == "hopf-sweep":
        # the sweep is the paper's fixed weight ladder: the seed changes nothing
        inp["ms"] = list(SMOKE_MS if smoke else HOPF_MS)
    else:
        inp.update(seed=seed, oracle=SMOKE_ORACLE if smoke else ORACLE)
    return inp


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, inputs_path: Path, deadline: float):
        self.inputs_path = inputs_path
        self.deadline = deadline

    def spawn(self, *flags: str) -> dict | None:
        """One fresh worker process; None if it fails or overruns the run."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), *flags]
        env = {k: v for k, v in os.environ.items() if k not in BYTECODE_ENV}
        env.update(PYTHONPATH=str(SRC), **WORKER_ENV)
        timeout = max(1.0, self.deadline - perf_counter())
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
            )
        except subprocess.TimeoutExpired:
            print(f"worker {' '.join(flags)} overran the run limit", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {' '.join(flags)} exited {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def iteration(self, trace: bool) -> dict:
        """One checked workload iteration.  A worker that crashes or overruns
        fails every operation; its wall time stands in for solve_s."""
        t0 = perf_counter()
        out = self.spawn("--inputs", str(self.inputs_path), *(["--trace"] if trace else []))
        if out is None:
            n = max(expected_ops(json.loads(self.inputs_path.read_text())), 1)
            out = {"solve_s": perf_counter() - t0, "attempted": n,
                   "failed": ["worker process failed"] * n, "trace": None}
        return out


def _median(values) -> float:
    """Median of the values measured; 0.0 when none were (the run is then
    already marked incorrect)."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(run: Run, seconds: float, smoke: bool) -> tuple:
    start = perf_counter()
    setups = []
    for _ in range(1 if smoke else SETUP_SAMPLES):
        out = run.spawn("--setup-only")
        if out is not None:
            setups.append(out["setup_s"])
    iters = []
    while not iters or (not smoke and perf_counter() - start < seconds):
        last = iters[-1]["solve_s"] if iters else 0.0
        if perf_counter() + last + 5.0 > run.deadline:
            break
        iters.append(run.iteration(trace=False))
    setups += [it.get("setup_s") for it in iters]
    solve = [it["solve_s"] for it in iters]
    metrics = {
        "solve_s": _median(solve),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(it.get("peak_rss_mb") for it in iters),
    }
    print(f"iterations: {len(iters)}; solve_s each: {', '.join(f'{x:.3f}' for x in solve)}")
    print(f"setup samples: {len(setups)}; setup_s each: "
          + ", ".join(f"{x:.3f}" for x in setups if x is not None))
    return metrics, iters, END_TO_END


def trace(run: Run) -> tuple:
    plain = run.iteration(trace=False)
    traced = [run.iteration(trace=True), run.iteration(trace=True)]
    iters = [plain] + traced
    snaps = [it["trace"] for it in traced]
    metrics = dict.fromkeys((name for name, _ in layer_metrics()), 0.0)
    repeat_ok = all(s is not None for s in snaps)
    if repeat_ok:
        a, b = snaps
        for key in ("counts", "calls", "values"):
            diff = sorted(k for k in a[key].keys() | b[key].keys() if a[key].get(k) != b[key].get(k))
            if diff:
                repeat_ok = False
                print(f"trace {key} differ between two traced runs: {diff}", file=sys.stderr)
        for name, unit in layer_metrics():
            if name.startswith(("trace.", "check.")):
                continue
            if name == "cli.self_s" or name.endswith(".self"):
                base = "cli.main_s" if name == "cli.self_s" else name[: -len(".self")]
                metrics[name] = statistics.median(s["self"].get(base, 0.0) for s in snaps)
            elif unit == "s":
                metrics[name] = statistics.median(s["total"].get(name, 0.0) for s in snaps)
            elif unit == "ratio":
                metrics[name] = a["values"].get(name, 0.0)
            else:
                metrics[name] = a["counts"].get(name, 0)
        metrics["tails.zeta_log_tail_calls"] = a["calls"].get("tails.zeta_log_tail_s", 0)
        metrics["trace.missing"] = len(a["missing"])
        if a["missing"]:
            print(f"missing layers (reported as 0): {', '.join(a['missing'])}")
    traced_solve = _median(it["solve_s"] for it in traced)
    metrics["trace.untraced_solve_s"] = plain["solve_s"]
    metrics["trace.traced_solve_s"] = traced_solve
    metrics["trace.overhead_s"] = traced_solve - plain["solve_s"]
    if repeat_ok:
        _print_breakdown(metrics, traced_solve)
    extra = {"attempted": 1, "failed": [] if repeat_ok else ["traced counts repeat exactly"]}
    return metrics, iters + [extra], layer_metrics()


def _print_breakdown(metrics: dict, solve: float) -> None:
    """Self time per layer and per module, as shares of the traced solve_s."""
    selfs = {
        "cli.main_s" if name == "cli.self_s" else name[: -len(".self")]: v
        for name, v in metrics.items()
        if name == "cli.self_s" or name.endswith(".self")
    }
    print(f"self time by layer (share of traced solve_s = {solve:.3f} s):")
    for layer, v in sorted(selfs.items(), key=lambda r: -r[1]):
        if v > 0:
            print(f"  {layer:<24} total {metrics[layer]:9.4f} s  self {v:9.4f} s  {100 * v / solve:5.1f}%")
    modules = {}
    for layer, v in selfs.items():
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + v
    print("self time by module: " + ", ".join(
        f"{m} {100 * v / solve:.1f}%" for m, v in sorted(modules.items(), key=lambda r: -r[1]) if v > 0
    ))
    counts = [(n, metrics[n]) for n, u in layer_metrics() if u in ("count", "bytes") and metrics[n]]
    print("counts: " + ", ".join(f"{n}={int(v)}" for n, v in counts))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs for a quick test")
    args = ap.parse_args()

    if not (SRC / "crtorsion" / "__init__.py").is_file():
        print(f"error: no crtorsion sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(make_inputs(args.workload, args.seed, args.smoke, work)))
        run = Run(inputs_path, deadline)
        warm = run.spawn("--setup-only")  # fills bytecode and file caches
        if warm is None:
            print("error: the program does not import", file=sys.stderr)
            return 2
        env = warm["env"]
        print(f"crtorsion benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
        print("env: " + json.dumps(env, sort_keys=True))
        baseline = HERE / "baseline.json"
        if baseline.is_file():
            base_backend = json.loads(baseline.read_text())["env"]["mpmath_backend"]
            if base_backend != env["mpmath_backend"]:
                print(f"NOTE: mpmath backend {env['mpmath_backend']!r} differs from "
                      f"the baseline's {base_backend!r}; times are not comparable")
        if args.trace:
            metrics, iters, units = trace(run)
        else:
            metrics, iters, units = measure(run, args.seconds, args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iters)
    failed = [f for it in iters for f in it["failed"]]
    max_rel = max(it.get("max_rel_err", 0.0) for it in iters)
    fail_frac = len(failed) / attempted
    for name in sorted(set(failed)):
        print(f"FAILED: {name}")
    if args.trace:
        metrics["check.max_rel_err"], metrics["check.fail_frac"] = max_rel, fail_frac
    else:
        checked = dict(metrics, fail_frac=fail_frac, max_rel_err=max_rel)
        for name, unit in units + CHECK_METRICS:
            print(f"  {name:<12} {checked[name]:<14.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
