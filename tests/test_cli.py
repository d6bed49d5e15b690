"""Command-line interface: exit-status semantics, determinism, file outputs,
and the deliberate Gamma'(1) mutation."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crtorsion.cli import main, run_selfcheck


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    # a source checkout runs the CLI without installing it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "crtorsion", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: crtorsion")


def test_cli_import_leaves_mpmath_unloaded():
    # the direct route runs on the standard library's decimal module
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, crtorsion.cli; print(sorted(m for m in sys.modules if m.startswith('mpmath')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_unloaded():
    # quadrature and the oracle's factorization run on numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, crtorsion.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSelfcheck:
    def test_passes_with_zeta_line(self, capsys):
        code, out, _ = run_cli(["selfcheck", "--seed", "0"], capsys)
        assert code == 0
        zeta_lines = [l for l in out.splitlines() if l.startswith("zeta_prime0")]
        assert len(zeta_lines) == 1
        assert "-0.918938" in zeta_lines[0]
        assert zeta_lines[0].endswith("PASS")

    def test_gamma_mutation_fails_two_path(self, capsys):
        code, out, _ = run_cli(["selfcheck", "--mutate-gamma"], capsys)
        assert code != 0
        failing = [l for l in out.splitlines() if l.endswith("FAIL")]
        assert any(l.startswith("two_path_finite") for l in failing)

    def test_seed_variation_keeps_verdicts(self):
        verdicts = []
        for seed in (1, 2, 3, 4, 5):
            code, checks = run_selfcheck(seed, 1e-11)
            verdicts.append((code, tuple(c["passed"] for c in checks)))
        assert all(v[0] == 0 for v in verdicts)
        assert len({v[1] for v in verdicts}) == 1

    @pytest.mark.parametrize("seed", (17, 31))
    def test_gamma_family_past_model_ceiling(self, seed):
        # these seeds draw Gamma-family inputs whose extended terms stop
        # decreasing below the cancellation-noise floor of the quadrature
        code, checks = run_selfcheck(seed, 1e-9)
        assert code == 0, [c["name"] for c in checks if not c["passed"]]

    def test_repeat_run_identical_report(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run_cli(["selfcheck", "--seed", "7", "--out", str(out1)], capsys)
        run_cli(["selfcheck", "--seed", "7", "--out", str(out2)], capsys)
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["metadata"]["config"].pop("out")
        b["metadata"]["config"].pop("out")
        assert a == b


class TestSweep:
    def test_csv_output_and_trend(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            [
                "sweep",
                "--ms",
                "8,16,32,64",
                "--kmax",
                "1024",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "trend" in stdout
        rows = [
            r
            for r in out.read_text().splitlines()
            if r and not r.startswith("#")
        ]
        parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
        assert len(parsed) == 4
        resids = [abs(float(r["residual"])) for r in parsed]
        assert resids == sorted(resids, reverse=True)
        # metadata embedded as comments: version + config + tolerance
        comments = [r for r in out.read_text().splitlines() if r.startswith("#")]
        joined = "\n".join(comments)
        assert "version" in joined and "tol" in joined

    def test_json_matches_csv_numbers(self, tmp_path, capsys):
        cargs = ["sweep", "--ms", "8,16", "--kmax", "512"]
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "r.json"
        run_cli(cargs + ["--out", str(out_csv)], capsys)
        run_cli(cargs + ["--format", "json", "--out", str(out_json)], capsys)
        rows = [
            r for r in out_csv.read_text().splitlines() if r and not r.startswith("#")
        ]
        parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
        data = json.loads(out_json.read_text())
        for crow, jrow in zip(parsed, data["reports"]):
            for key in ("theta_prime_0", "theta_prime_0_direct", "rhs", "residual", "error_budget"):
                assert float(crow[key]) == jrow[key]

    def test_missing_geometry_names_path(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--ms", "8,16", "--geometry", "/no/such/geom.json"], capsys
        )
        assert code != 0
        assert "/no/such/geom.json" in err


class TestTorsionCommand:
    def test_single_report_from_builtin(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run_cli(
            ["torsion", "--m", "8", "--kmax", "512", "--format", "json", "--out", str(out)],
            capsys,
        )
        assert code == 0
        data = json.loads(out.read_text())
        rep = data["reports"][0]
        assert rep["m"] == 8
        assert abs(rep["theta_prime_0"] - rep["theta_prime_0_direct"]) < 1e-6

    def test_spectrum_file_input(self, tmp_path, capsys):
        spath = tmp_path / "spec.csv"
        spath.write_text("q,lambda,mult\n1,2.0,1\n")
        out = tmp_path / "t.json"
        code, _, _ = run_cli(
            [
                "torsion",
                "--spectrum",
                str(spath),
                "--m",
                "1",
                "--format",
                "json",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["theta_prime_0"] == pytest.approx(-math.log(2.0), abs=1e-9)


    def test_table_too_short_for_weight(self, capsys):
        code, _, err = run_cli(["torsion", "--m", "32", "--kmax", "16"], capsys)
        assert code == 1
        assert "m = 32" in err and "m*floor" in err


@pytest.mark.parametrize(
    "cargs, message",
    [
        (["torsion", "--m", "0"], "m must be >= 1"),
        (["sweep", "--ms", "0,8"], "m must be >= 1"),
        (["torsion", "--m", "8", "--kmax", "0"], "k_max must be >= 1"),
        (["torsion", "--m", "8", "--kmax", "-5"], "k_max must be >= 1"),
        (["sweep", "--ms", "8,16", "--kmax", "0"], "k_max must be >= 1"),
        (["torsion", "--m", "8", "--tol", "nan"], "abs_tol must be positive and finite"),
        (["sweep", "--ms", "8,16", "--tol", "inf"], "abs_tol must be positive and finite"),
        (["selfcheck", "--tol", "nan"], "abs_tol must be positive and finite"),
    ],
    ids=[
        "torsion-m0", "sweep-m0", "torsion-kmax0", "torsion-kmax-neg", "sweep-kmax0",
        "torsion-tol-nan", "sweep-tol-inf", "selfcheck-tol-nan",
    ],
)
def test_zero_or_non_finite_value_is_named_error(cargs, message, capsys):
    # 0 is a value, not "use the default": --m 0 and --kmax 0 fail like any
    # other value out of range, and a nan tolerance fails before any report
    code, out, err = run_cli(cargs, capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert out == ""


@pytest.mark.parametrize(
    "cargs",
    [
        ["torsion", "--m", "4", "--spectrum"],
        ["fit", "--n", "1", "--spectrum"],
        ["sweep", "--ms", "8", "--geometry"],
    ],
    ids=["torsion", "fit", "geometry"],
)
def test_directory_in_place_of_file(cargs, tmp_path, capsys):
    code, _, err = run_cli(cargs + [str(tmp_path)], capsys)
    assert code == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize(
    "cargs, name, content, message",
    [
        (["torsion", "--m", "4", "--spectrum"], "s.csv", b"q,lambda,mult\n1,2.0,\xff\n",
         "row 2: not UTF-8"),
        (["sweep", "--ms", "8", "--geometry"], "g.json", b'{"n": 1,', "invalid geometry file"),
        (["fit", "--n", "1", "--tmin", "0", "--spectrum"], "s.csv", b"q,lambda,mult\n1,2.0,1\n",
         "--tmin and --tmax must be positive"),
    ],
    ids=["spectrum-not-utf8", "geometry-malformed-json", "fit-tmin-zero"],
)
def test_bad_input_is_named_error(cargs, name, content, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    code, _, err = run_cli(cargs + [str(path)], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "cargs",
    [
        ["sweep", "--ms", "8,abc"],
        ["stratum", "--r", "1", "--poly", "notjson"],
        ["stratum", "--r", "1", "--poly", "[1]"],
        ["stratum", "--r", "1", "--poly", '{"a": 1}'],
    ],
    ids=["ms", "poly-notjson", "poly-list", "poly-key"],
)
def test_bad_flag_value_is_usage_error(cargs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(cargs)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and cargs[-2] in err


class TestFitCommand:
    def test_non_finite_row_fails(self, tmp_path, capsys):
        spath = tmp_path / "s.csv"
        spath.write_text("q,lambda,mult\n1,0.5,2\n1,nan,2\n")
        code, _, err = run_cli(["fit", "--spectrum", str(spath), "--n", "1"], capsys)
        assert code == 1
        assert "row 3" in err and "nan" in err

    def test_fit_on_written_table(self, tmp_path, capsys):
        rows = ["q,lambda,mult"]
        for k in range(1, 40):
            lam = 0.15 * k
            rows.append(f"1,{lam},2")
        spath = tmp_path / "s.csv"
        spath.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        code, _, _ = run_cli(
            [
                "fit",
                "--spectrum",
                str(spath),
                "--n",
                "1",
                "--terms",
                "3",
                "--tmin",
                "0.05",
                "--tmax",
                "0.5",
                "--format",
                "json",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["coefficients"]) == 3
        assert data["condition_number"] > 1.0


class TestDensityCommand:
    def test_json_payload(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _, _ = run_cli(
            ["density", "--format", "json", "--out", str(out)], capsys
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["hatA_minus1"] == pytest.approx(-1.0 / (2 * math.pi))
        assert data["supertrace_series"]["base_order"] == -1.0


class TestStratumCommand:
    def test_closed_form_vs_quadrature_in_payload(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run_cli(
            ["stratum", "--r", "1", "--m", "9", "--format", "json", "--out", str(out)],
            capsys,
        )
        assert code == 0
        data = json.loads(out.read_text())
        for entry in data["cross_check"].values():
            assert entry["closed_form"] == pytest.approx(entry["quadrature"], rel=1e-8)


def _fit_table(tmp_path):
    rows = ["q,lambda,mult"] + [f"1,{0.15 * k},2" for k in range(1, 40)]
    spath = tmp_path / "s.csv"
    spath.write_text("\n".join(rows) + "\n")
    return ["fit", "--spectrum", str(spath), "--n", "1", "--terms", "3",
            "--tmin", "0.05", "--tmax", "0.5"]


def _series_coefficients(key):
    def pick(data):
        return {float(e): c for e, c in data[key]["coefficients"].items()}

    return pick


def _fit_coefficients(data):
    base = data["base_order"]
    return {base + j / 2.0: c for j, c in enumerate(data["coefficients"])}


@pytest.mark.parametrize(
    "make_args, coefficients",
    [
        (lambda tmp: ["density"], _series_coefficients("supertrace_series")),
        (_fit_table, _fit_coefficients),
        (lambda tmp: ["stratum", "--r", "1", "--m", "9"], _series_coefficients("series")),
    ],
    ids=["density", "fit", "stratum"],
)
def test_coefficient_csv_matches_json(make_args, coefficients, tmp_path, capsys):
    cargs = make_args(tmp_path)
    out_csv = tmp_path / "c.csv"
    out_json = tmp_path / "c.json"
    assert run_cli(cargs + ["--out", str(out_csv)], capsys)[0] == 0
    assert run_cli(cargs + ["--format", "json", "--out", str(out_json)], capsys)[0] == 0
    rows = [r for r in out_csv.read_text().splitlines() if r and not r.startswith("#")]
    parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
    assert parsed
    got = {float(r["exponent"]): float(r["coefficient"]) for r in parsed}
    assert got == coefficients(json.loads(out_json.read_text()))
