"""Problem-file parsing, report serialization, digesting."""

import hashlib
import json

import numpy as np
import pytest

from peakcov import load_matrix_file, load_problem
from peakcov.errors import ProblemFormatError
from peakcov.problems import _float_17g, dumps_report, file_digest

GOOD = {
    "A": [[1.3, 0.3], [0.0, 1.2]],
    "C": [[1.0, 1.0]],
    "Q": [[1.0, 0.0], [0.0, 1.0]],
    "R": [[1.0]],
    "Sigma0": [[1.0, 0.0], [0.0, 1.0]],
    "Pi": [[0.6, 0.2, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]],
}


# JSON tokens that parse but are no finite double: NaN and Infinity,
# 1e400 (read as inf) and integers past the double range
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400",
              str(10**400), str(-10**400))


def _write(tmp_path, doc, name="prob.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


def test_load_round_trip(tmp_path):
    path = _write(tmp_path, dict(GOOD, label="demo plant"))
    sysm, loss, label = load_problem(path)
    np.testing.assert_array_equal(sysm.A, GOOD["A"])
    np.testing.assert_array_equal(sysm.C, GOOD["C"])
    np.testing.assert_array_equal(sysm.Sigma0, np.eye(2))
    np.testing.assert_array_equal(loss.Pi, GOOD["Pi"])
    assert label == "demo plant"


def test_label_defaults_to_path(tmp_path):
    path = _write(tmp_path, GOOD)
    assert load_problem(path)[2] == path


def test_shipped_problem_loads(problems_dir, plant):
    sysm, loss, label = load_problem(str(problems_dir / "stable_burst2.json"))
    np.testing.assert_array_equal(sysm.A, plant.A)
    assert loss.s == 2
    assert "bursts up to 2" in label


def test_missing_fields_listed(tmp_path):
    doc = {k: v for k, v in GOOD.items() if k not in ("Q", "Pi")}
    with pytest.raises(ProblemFormatError, match="missing fields: Q, Pi"):
        load_problem(_write(tmp_path, doc))


def test_entry_not_a_number(tmp_path):
    doc = dict(GOOD, A=[[1.3, "x"], [0.0, 1.2]])
    with pytest.raises(ProblemFormatError,
                       match=r"field 'A' entry \[0\]\[1\] is not a number"):
        load_problem(_write(tmp_path, doc))
    # JSON booleans are not numbers here either
    doc = dict(GOOD, R=[[True]])
    with pytest.raises(ProblemFormatError, match=r"entry \[0\]\[0\]"):
        load_problem(_write(tmp_path, doc))
    # nor are entries past the double range, in the plant or the chain
    for field in ("A", "Pi"):
        rows = [list(row) for row in GOOD[field]]
        rows[0][1] = "@"
        text = json.dumps(dict(GOOD, **{field: rows}))
        for token in NON_FINITE:
            with pytest.raises(ProblemFormatError, match=(
                    rf"field '{field}' entry \[0\]\[1\] is not a finite number")):
                load_problem(_write(tmp_path, text.replace('"@"', token)))


def test_ragged_and_empty_rows(tmp_path):
    doc = dict(GOOD, Q=[[1.0, 0.0], [0.0]])
    with pytest.raises(ProblemFormatError, match="field 'Q' row 1 is ragged"):
        load_problem(_write(tmp_path, doc))
    doc = dict(GOOD, C=[])
    with pytest.raises(ProblemFormatError, match="non-empty nested array"):
        load_problem(_write(tmp_path, doc))


def test_top_level_and_json_errors(tmp_path):
    with pytest.raises(ProblemFormatError, match="top level"):
        load_problem(_write(tmp_path, "[1, 2, 3]"))
    with pytest.raises(ProblemFormatError, match="not valid JSON"):
        load_problem(_write(tmp_path, "{not json"))
    with pytest.raises(FileNotFoundError):
        load_problem(str(tmp_path / "absent.json"))


def test_label_must_be_string(tmp_path):
    with pytest.raises(ProblemFormatError, match="'label' must be a string"):
        load_problem(_write(tmp_path, dict(GOOD, label=7)))


def test_bad_chain_named(tmp_path):
    pi = [[0.6, 0.5, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]]
    with pytest.raises(ProblemFormatError, match="field 'Pi'.*sums to"):
        load_problem(_write(tmp_path, dict(GOOD, Pi=pi)))


def test_bad_system_named(tmp_path):
    # C width disagrees with the state dimension
    with pytest.raises(ProblemFormatError, match="system matrices"):
        load_problem(_write(tmp_path, dict(GOOD, C=[[1.0]])))


def test_load_matrix_file_forms(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("[[1, 5], [0, 1]]")
    np.testing.assert_array_equal(load_matrix_file(str(p)),
                                  [[1.0, 5.0], [0.0, 1.0]])
    p.write_text('{"S": [[2, 0], [0, 2]]}')
    np.testing.assert_array_equal(load_matrix_file(str(p)), 2 * np.eye(2))
    p.write_text('{"T": [[3]]}')
    np.testing.assert_array_equal(load_matrix_file(str(p), field="T"), [[3.0]])
    with pytest.raises(ProblemFormatError, match="missing field 'S'"):
        load_matrix_file(str(p))
    p.write_text("[1, 2, 3]")  # flat list reads as a single row
    assert load_matrix_file(str(p)).shape == (1, 3)
    for token in NON_FINITE:
        p.write_text(f'{{"S": [[1, 0], [0, {token}]]}}')
        with pytest.raises(ProblemFormatError, match=(
                r"field 'S' entry \[1\]\[1\] is not a finite number")):
            load_matrix_file(str(p))


def test_file_digest(tmp_path):
    p = tmp_path / "empty"
    p.write_bytes(b"")
    # sha256 of the empty string
    assert file_digest(str(p)) == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    q = tmp_path / "doc"
    q.write_bytes(b'{"A": [[1.0]]}')
    assert file_digest(str(q)) == hashlib.sha256(b'{"A": [[1.0]]}').hexdigest()
    assert file_digest(str(q)) != file_digest(str(p))


def test_to_jsonable_conversions():
    # dumps_report itself converts arrays, tuples and numpy scalars
    txt = dumps_report({
        "m": np.arange(4.0).reshape(2, 2),
        "t": (np.int64(3), np.float64(2.5), np.bool_(True)),
        "bad": [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
    })
    out = json.loads(txt)
    assert out["m"] == [[0.0, 1.0], [2.0, 3.0]]
    assert out["t"] == [3, 2.5, True]
    assert isinstance(out["t"][0], int) and isinstance(out["t"][2], bool)
    assert out["bad"] == [None, None, None, None]
    assert '"t": [\n    3,\n    2.5,\n    true\n  ]' in txt


def test_float_formatting_17_digits():
    assert _float_17g(1 / 3) == "0.33333333333333331"
    assert _float_17g(4.0) == "4.0"
    assert _float_17g(-0.5) == "-0.5"
    assert _float_17g(1e22) == "1e+22"
    assert float(_float_17g(0.1)) == 0.1


def test_float_round_trip_battery():
    rng = np.random.default_rng(71)
    vals = rng.uniform(-1, 1, 300) * 10.0 ** rng.integers(-250, 250, 300)
    for f in map(float, vals):
        assert float(_float_17g(f)) == f


def test_dumps_report_shapes():
    txt = dumps_report({
        "count": 3,
        "rho": 1 / 3,
        "flag": True,
        "missing": float("nan"),
        "gain": np.array([[-0.8], [-0.6]]),
    })
    doc = json.loads(txt)
    assert doc["count"] == 3 and '"count": 3,' in txt  # int stays int
    assert doc["rho"] == 1 / 3  # exact round trip
    assert "0.33333333333333331" in txt
    assert doc["missing"] is None
    assert doc["gain"] == [[-0.8], [-0.6]]
