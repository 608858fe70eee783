"""Problem-file ingestion and report serialization.

Problem files are JSON objects with row-major nested arrays under the
keys A, C, Q, R, Sigma0 (the plant) and Pi (the loss chain), plus an
optional string label. Reports are JSON with every float printed at 17
significant digits, enough to reconstruct the exact double on re-parse;
shortest-repr output would also round-trip but can drop below the digit
count the reports promise.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .errors import PeakcovError, ProblemFormatError
from .markov import LossModel
from .system import SystemModel

__all__ = [
    "load_problem",
    "load_matrix_file",
    "dumps_report",
    "file_digest",
]

_MATRIX_KEYS = ("A", "C", "Q", "R", "Sigma0", "Pi")


def _as_array(obj, field: str, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError(
            f"{where}: field '{field}' must be a non-empty nested array"
        )
    rows = obj if isinstance(obj[0], list) else [obj]
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ProblemFormatError(
                f"{where}: field '{field}' row {i} is ragged or not an array"
            )
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ProblemFormatError(
                    f"{where}: field '{field}' entry [{i}][{j}] is not a number"
                )
            # JSON admits NaN, Infinity, 1e400 (read as inf) and integers
            # past the double range, which float() refuses; NaN fails the
            # comparison too
            if not (abs(v) <= sys.float_info.max):
                raise ProblemFormatError(f"{where}: field '{field}' entry "
                                         f"[{i}][{j}] is not a finite number")
            out[i, j] = float(v)
    return out


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"{path}: not valid JSON: {e}") from e


def load_problem(path: str) -> tuple[SystemModel, LossModel, str]:
    """Parse a problem file into validated model objects.

    Raises ProblemFormatError naming the offending field; the returned
    label defaults to the file path.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be a JSON object")
    missing = [k for k in _MATRIX_KEYS if k not in doc]
    if missing:
        raise ProblemFormatError(f"{path}: missing fields: {', '.join(missing)}")
    mats = {k: _as_array(doc[k], k, path) for k in _MATRIX_KEYS}
    label = doc.get("label", path)
    if not isinstance(label, str):
        raise ProblemFormatError(f"{path}: field 'label' must be a string")
    try:
        sysm = SystemModel(
            A=mats["A"], C=mats["C"], Q=mats["Q"], R=mats["R"],
            Sigma0=mats["Sigma0"],
        )
    except (PeakcovError, ValueError) as e:
        raise ProblemFormatError(f"{path}: system matrices: {e}") from e
    try:
        loss = LossModel(Pi=mats["Pi"])
    except (PeakcovError, ValueError) as e:
        raise ProblemFormatError(f"{path}: field 'Pi': {e}") from e
    return sysm, loss, label


def load_matrix_file(path: str, field: str = "S") -> np.ndarray:
    """Read a single matrix: either a bare nested array or {field: array}."""
    doc = _read_json(path)
    if isinstance(doc, dict):
        if field not in doc:
            raise ProblemFormatError(f"{path}: missing field '{field}'")
        doc = doc[field]
    return _as_array(doc, field, path)


def _float_17g(f: float) -> str:
    s = format(f, ".17g")
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def _emit(x, indent: str = "") -> str:
    # json.dumps(indent=2) layout, with floats at 17 significant digits;
    # arrays and tuples print as lists, numpy scalars as Python values
    # and non-finite floats as null (JSON has no NaN/Inf)
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    inner = indent + "  "
    if isinstance(x, dict) and x:
        items = (f"{inner}{json.dumps(k)}: {_emit(v, inner)}"
                 for k, v in x.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(x, (list, tuple)) and x:
        items = (inner + _emit(v, inner) for v in x)
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    if isinstance(x, float):
        return _float_17g(x) if np.isfinite(x) else "null"
    return json.dumps(x)


def dumps_report(report: dict) -> str:
    return _emit(report)
