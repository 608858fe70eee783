"""End-to-end CLI checks against the shipped problem files.

Output is captured with redirect_stdout/redirect_stderr so the checks
are independent of the pytest capture mode.
"""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import peakcov
from peakcov import load_problem, verify_certificate
from peakcov.cli import main
from peakcov.problems import file_digest


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _report(*argv):
    code, out, err = _run(*argv)
    assert err == ""
    return code, json.loads(out)


def test_analyze_stable_problem(problems_dir):
    path = str(problems_dir / "stable_burst2.json")
    code, rep = _report("analyze", path)
    assert code == 0
    assert rep["verdict"] == "stable"
    assert rep["command"] == "analyze"
    assert rep["observability_index"] == 2
    assert rep["norm_minima"][0] == pytest.approx(1.22, abs=1e-9)
    assert rep["rho_norm_condition"] == pytest.approx(0.735231146395373,
                                                      abs=1e-12)
    assert rep["norm_condition_stable"] is True
    assert rep["gain_condition_stable"] is True
    assert (rep["rho_gain_condition"]
            <= rep["rho_gain_condition_seeded"] + 1e-12)
    assert rep["input"]["sha256"] == file_digest(path)
    assert rep["input"]["label"].startswith("upper-triangular")


def test_analyze_gain_but_not_norm(problems_dir):
    code, rep = _report("analyze", str(problems_dir / "identical_rows.json"))
    assert code == 0
    assert rep["norm_condition_stable"] is False
    assert rep["rho_norm_condition"] == pytest.approx(1.470462292790746,
                                                      abs=1e-12)
    assert rep["gain_condition_stable"] is True
    assert rep["verdict"] == "stable"


def test_analyze_unstable_problem(problems_dir):
    code, rep = _report("analyze", str(problems_dir / "resonant_rotation.json"),
                        "--no-refine")
    assert code == 1
    assert rep["verdict"] == "not-proven"
    # every gain set hits the same radius floor on this plant
    assert rep["rho_norm_condition"] == pytest.approx(2.5704900000000004,
                                                      abs=1e-12)
    assert rep["rho_gain_condition"] == pytest.approx(2.5704900000000004,
                                                      abs=1e-12)


def test_input_errors_exit_two(tmp_path, problems_dir):
    doc = json.loads((problems_dir / "stable_burst2.json").read_text())
    doc["Pi"][0] = [0.6, 0.5, 0.2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run("analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("peakcov: error:")
    assert "row 0 sums to" in err

    code, _, err = _run("analyze", str(tmp_path / "absent.json"))
    assert code == 2
    assert "absent.json" in err


def test_certificate_verifies_own_report(problems_dir):
    path = str(problems_dir / "identical_rows.json")
    code, rep = _report("certificate", path)
    assert code == 0
    assert rep["verdict"] == "stable"
    assert rep["margin"] == pytest.approx(1.0, abs=1e-9)
    assert rep["margin_reverified"] == rep["margin"]  # 17g round-trips
    # independent re-verification from the printed report alone
    sysm, loss, _ = load_problem(path)
    margin = verify_certificate(
        sysm, loss,
        [np.asarray(g) for g in rep["gains"]],
        [np.asarray(b) for b in rep["certificate_blocks"]],
    )
    assert margin > 0.5


def test_certificate_refuses_unstable(problems_dir):
    code, rep = _report("certificate",
                        str(problems_dir / "resonant_rotation.json"))
    assert code == 1
    assert rep["verdict"] == "not-proven"
    assert "certificate_blocks" not in rep
    assert "error" in rep


def test_simulate_csv_repeatable(tmp_path, problems_dir):
    path = str(problems_dir / "stable_burst2.json")
    outs = []
    for call in range(2):
        csv_path = tmp_path / f"call{call}.csv"
        code, rep = _report("simulate", path, "--runs", "40", "--horizon",
                            "300", "--seed", "7", "--csv", str(csv_path))
        assert code == 0
        assert rep["runs"] == 40 and rep["base_seed"] == 7
        assert "not decidable" in rep["note"]
        outs.append((csv_path.read_bytes(),
                     np.asarray(rep["means"], dtype=float).tobytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    lines = outs[0][0].decode().splitlines()
    assert lines[0] == "j,mean,stderr,count"
    first = next(csv.DictReader(io.StringIO("\n".join(lines))))
    assert first["j"] == "1"
    assert float(first["mean"]) == rep["means"][0]  # 17g column round-trips
    assert int(first["count"]) == 40


@pytest.mark.parametrize("argv", [
    ("simulate", "stable_burst2", "--runs", "0"),
    ("simulate", "stable_burst2", "--horizon", "-3"),
    ("analyze", "resonant_rotation", "--tol", "-5"),
    ("simulate", "stable_burst2", "--seed", "-1"),
    # run i is keyed seed + i, so run 1 would need the 129-bit key 2**128
    ("simulate", "stable_burst2", "--seed", str(2**128 - 1), "--runs", "2"),
], ids=["runs-0", "horizon-negative", "tol-negative", "seed-negative",
        "seed-key-overflow"])
def test_out_of_range_flags_exit_two(problems_dir, argv):
    cmd, problem, *flags = argv
    code, out, err = _run(cmd, str(problems_dir / f"{problem}.json"), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("peakcov: error:") and err.count("\n") == 1
    assert flags[0] in err


def test_simulate_shows_divergence(problems_dir):
    code, rep = _report("simulate", str(problems_dir /
                                        "resonant_rotation.json"),
                        "--runs", "300", "--horizon", "64", "--seed", "3")
    assert code == 0
    means = rep["means"]
    assert means[10] > 100 * means[1]
    assert rep["max_mean_peak_norm"] >= means[10]


def test_transform_moves_norm_condition_only(problems_dir):
    code, rep = _report(
        "transform", str(problems_dir / "stable_burst2.json"),
        "--S", str(problems_dir / "transform_S.json"))
    assert code == 0
    assert rep["rho_norm_condition"] == pytest.approx(0.735231146395373,
                                                      abs=1e-12)
    assert rep["rho_norm_condition_transformed"] == pytest.approx(
        1.5201931113443155, abs=1e-12)
    assert rep["norm_minima_transformed"][0] == pytest.approx(
        1.3632432432432444, abs=1e-9)
    assert rep["gain_condition_drift"] <= 1e-7
    assert rep["verdict"] == "stable"


def test_transform_identity_is_noop(tmp_path, problems_dir):
    s_path = tmp_path / "eye.json"
    s_path.write_text('{"S": [[1.0, 0.0], [0.0, 1.0]]}')
    code, rep = _report("transform", str(problems_dir / "stable_burst2.json"),
                        "--S", str(s_path))
    assert code == 0
    for key in ("norm_minima", "rho_norm_condition", "rho_gain_condition"):
        np.testing.assert_allclose(rep[key], rep[key + "_transformed"],
                                   rtol=1e-12)
    assert rep["gain_condition_drift"] <= 1e-12


def test_transform_singular_matrix(tmp_path, problems_dir):
    s_path = tmp_path / "sing.json"
    s_path.write_text('{"S": [[1.0, 1.0], [1.0, 1.0]]}')
    code, _, err = _run("transform", str(problems_dir / "stable_burst2.json"),
                        "--S", str(s_path))
    assert code == 2
    assert err.startswith("peakcov: error:") and err.count("\n") == 1
    assert "smallest singular value" in err


def test_compare_exit_codes(problems_dir):
    code, rep = _report("compare", str(problems_dir / "identical_rows.json"))
    assert code == 0
    assert "norm condition implies" in rep["note"]
    code, rep = _report("compare",
                        str(problems_dir / "resonant_rotation.json"),
                        "--no-refine")
    assert code == 1


def test_version_flag():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert out.getvalue().strip() == "peakcov 0.1.0"


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported do not count
    code = ("import sys, peakcov, peakcov.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(os.path.abspath(peakcov.__file__))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_package_line_ceiling_and_exports():
    # the package must not grow past 2026 lines (ROADMAP aim 2), and every
    # exported name must resolve
    src = os.path.dirname(os.path.abspath(peakcov.__file__))
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    assert lines <= 2026
    assert [n for n in peakcov.__all__ if not hasattr(peakcov, n)] == []
