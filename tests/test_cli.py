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
from peakcov import load_problem, strict_margin_floor, verify_certificate
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
    code, rep = _report("analyze", str(problems_dir / "resonant_rotation.json"))
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


def _problem_file(tmp_path, A, C, Pi):
    n, m = len(A), len(C)
    doc = {"A": A, "C": C, "Q": np.eye(n).tolist(), "R": np.eye(m).tolist(),
           "Sigma0": np.eye(n).tolist(), "Pi": Pi}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reverifies(path, rep):
    # verify_certificate on the printed bytes gives the report's
    # margin_reverified, above the strict floor
    sysm, loss, _ = load_problem(path)
    blocks = [np.asarray(b) for b in rep["certificate_blocks"]]
    margin = verify_certificate(sysm, loss,
                                [np.asarray(g) for g in rep["gains"]], blocks)
    assert margin == rep["margin_reverified"] > strict_margin_floor(blocks)


def _certificate_reverifies(path):
    code, rep = _report("certificate", path)
    assert code == 0 and rep["verdict"] == "stable"
    _reverifies(path, rep)
    return rep


# a seeded sweep plant (n=3, s=3, one output, entries rounded to two
# decimals) whose seed gains give rho 2.53
SWEEP = dict(
    A=[[0.61, 0.99, 0.55], [-0.27, -1.29, 0.36], [-0.9, -0.05, 1.42]],
    C=[[0.06, 0.07, 0.73]],
    Pi=[[0.62, 0.02, 0.27, 0.09], [0.77, 0.08, 0.01, 0.14],
        [0.78, 0.17, 0.03, 0.02], [0.62, 0.0, 0.19, 0.19]])
# the shear plant: ||H|| is about 1.8e6 at rho about 1e-4, so I - H has
# singular value ratio about 3e-13
SHEAR = dict(A=[[0.5, 3000.0], [0.0, 0.5]], C=[[1.0, 0.0]],
             Pi=[[0.6, 0.4], [0.8, 0.2]])


def test_search_proves_stable_sweep_plant(tmp_path):
    # the gain search must descend from the seed's 2.53 to below 1
    path = _problem_file(tmp_path, **SWEEP)
    code, rep = _report("analyze", path)
    assert rep["rho_gain_condition_seeded"] > 2.5
    assert rep["norm_condition_stable"] is False
    assert code == 0 and rep["rho_gain_condition"] < 1.0
    _certificate_reverifies(path)


@pytest.mark.filterwarnings("ignore::peakcov.ModelAssumptionWarning")
def test_certificate_of_ill_conditioned_stable_plant(tmp_path):
    # the solve of the ill-conditioned I - H must not refuse it as an
    # input error
    rep = _certificate_reverifies(_problem_file(tmp_path, **SHEAR))
    assert rep["rho_gain_condition"] < 1e-3


def test_certificate_refuses_unstable(problems_dir):
    code, rep = _report("certificate",
                        str(problems_dir / "resonant_rotation.json"))
    assert code == 1
    assert rep["verdict"] == "not-proven"
    assert "certificate_blocks" not in rep


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


@pytest.mark.parametrize("argv, flag", [
    (("simulate", "stable_burst2", "--runs", "0"), "--runs"),
    (("simulate", "stable_burst2", "--horizon", "-3"), "--horizon"),
    (("simulate", "stable_burst2", "--seed", "-1"), "--seed"),
    # run i is keyed seed + i, so run 1 would need the 129-bit key 2**128
    (("simulate", "stable_burst2", "--seed", str(2**128 - 1), "--runs", "2"),
     "--seed"),
    # the verdict takes no options; parser errors take main's one line too
    (("analyze", "resonant_rotation", "--tol", "1e-3"), "--tol"),
    (("analyze", "resonant_rotation", "--no-refine"), "--no-refine"),
    (("transform", "stable_burst2"), "--S"),
], ids=["runs-0", "horizon-negative", "seed-negative", "seed-key-overflow",
        "tol-removed", "no-refine-removed", "transform-without-S"])
def test_out_of_range_flags_exit_two(problems_dir, argv, flag):
    cmd, problem, *flags = argv
    code, out, err = _run(cmd, str(problems_dir / f"{problem}.json"), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("peakcov: error:") and err.count("\n") == 1
    assert flag in err


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


def test_numerical_failures_exit_one(monkeypatch, problems_dir):
    # an eigensolver failure inside the analysis is not an input error:
    # one error line naming it and exit 1, whether spectral_radius reports
    # it (eigvals, as NoConvergence) or the gain search meets it (eig)
    path = str(problems_dir / "stable_burst2.json")
    eigvals = np.linalg.eigvals

    def fails(*_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def fails_on_operator(a):  # the 2x2 plant and norm matrices pass
        return fails() if len(a) > 2 else eigvals(a)

    for solver, fake, raised in (("eigvals", fails_on_operator, "NoConvergence"),
                                 ("eig", fails, "LinAlgError")):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, solver, fake)
            code, out, err = _run("analyze", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"peakcov: error: numerical failure ({raised})")
        assert err.count("\n") == 1


# Reports from before the gain operator moved to symmetric blocks (s*n^2
# to s*n(n+1)/2 unknowns), per demo: exit code, seeded radius, refined
# radius and the certificate's re-verified margin (None: refused). The
# single-loss demos' refined radii sit at eigenvalue noise, where each
# search lands somewhere else, so their refined radius and margin are
# those of the Perron-Kalman search.
PRE_SYMMETRIC = {
    "identical_rows": (0, 0.6002362000000002, 0.04193434817538788,
                       0.9999999999999929),
    "resonant_rotation": (1, 2.5704900000000004, 2.5704900000000004, None),
    "single_loss": (0, 0.28321999999999975, 2.0808338484094035e-08,
                    0.9999999999999968),
    "single_loss_sticky": (0, 0.7080499999999998, 3.7067639730426354e-08,
                           0.9999999999999747),
    "stable_burst2": (0, 0.3001181000000001, 0.02096717408769394,
                      0.9999999999999974),
}
# The drift that move allows, absolute: seeded radii and margins move by
# rounding; refined radii near deadbeat by eigenvalue error, about
# sqrt(eps) (single_loss went 6.0e-9 -> 9.1e-9).
DRIFT = {"seeded": 1.2e-16, "margin": 9e-15, "refined": 4.6e-9}


@pytest.mark.parametrize("name", sorted(PRE_SYMMETRIC))
def test_reports_drift_within_stated_bounds(problems_dir, name):
    code, seeded, refined, margin = PRE_SYMMETRIC[name]
    path = str(problems_dir / f"{name}.json")
    verdict = "stable" if code == 0 else "not-proven"
    for cmd in ("analyze", "compare", "certificate"):
        got, rep = _report(cmd, path)
        assert (got, rep["verdict"]) == (code, verdict)
        assert abs(rep["rho_gain_condition_seeded"] - seeded) <= DRIFT["seeded"]
        assert abs(rep["rho_gain_condition"] - refined) <= DRIFT["refined"]
        if margin is None:
            assert "margin_reverified" not in rep
        else:
            assert abs(rep["margin_reverified"] - margin) <= DRIFT["margin"]
    got, rep = _report("transform", path, "--S",
                       str(problems_dir / "transform_S.json"))
    assert (got, rep["verdict"]) == (code, verdict)
    assert abs(rep["rho_gain_condition_seeded"] - seeded) <= DRIFT["seeded"]


# the keys transform adds to the one report
TRANSFORM_KEYS = {"S", "norm_minima_transformed", "rho_norm_condition_transformed",
                  "rho_gain_condition_transformed", "gain_condition_drift"}


@pytest.mark.filterwarnings("ignore::peakcov.ModelAssumptionWarning")
@pytest.mark.parametrize("name", sorted(PRE_SYMMETRIC) + ["shear", "sweep"])
def test_one_verdict_path(tmp_path, problems_dir, name):
    # analyze, compare, certificate and transform print one report and exit
    # alike; "stable" is a certificate that re-verifies from the printed
    # bytes. The 2-state plants take the demos' S, the 3-state sweep plant
    # a 3x3 one
    plants = {"shear": SHEAR, "sweep": SWEEP}
    path = (_problem_file(tmp_path, **plants[name]) if name in plants
            else str(problems_dir / f"{name}.json"))
    s_path = problems_dir / "transform_S.json"
    if name == "sweep":
        s_path = tmp_path / "S.json"
        s_path.write_text('{"S": [[1.0, 2.0, 0.0], [0.0, 1.0, -3.0], '
                          '[0.5, 0.0, 1.0]]}')
    runs = {cmd: _report(cmd, path)
            for cmd in ("analyze", "compare", "certificate")}
    runs["transform"] = _report("transform", path, "--S", str(s_path))
    assert {code for code, _ in runs.values()} == {
        1 if name == "resonant_rotation" else 0}
    for cmd, (_, rep) in runs.items():
        assert rep.pop("command") == cmd
    assert "norm condition implies" in runs["compare"][1].pop("note")
    transformed = runs["transform"][1]
    assert transformed.keys() >= TRANSFORM_KEYS
    assert (transformed["gain_condition_drift"] == abs(
        transformed["rho_gain_condition"]
        - transformed["rho_gain_condition_transformed"]))
    for key in TRANSFORM_KEYS:
        transformed.pop(key)
    code, rep = runs["analyze"]
    assert runs["compare"][1] == rep == runs["certificate"][1] == transformed
    if code == 1:
        assert rep["verdict"] == "not-proven"
        assert not {"certificate_blocks", "margin",
                    "margin_reverified"} & rep.keys()
        return
    assert rep["verdict"] == "stable"
    _reverifies(path, rep)


def test_compare_exit_codes(problems_dir):
    code, rep = _report("compare", str(problems_dir / "identical_rows.json"))
    assert code == 0
    assert "norm condition implies" in rep["note"]
    code, rep = _report("compare",
                        str(problems_dir / "resonant_rotation.json"))
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
    # the package must not grow past 1615 lines (ROADMAP aim 2), and every
    # exported name must resolve
    src = os.path.dirname(os.path.abspath(peakcov.__file__))
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    assert lines <= 1615
    assert [n for n in peakcov.__all__ if not hasattr(peakcov, n)] == []
