"""The LTI plant, its standing assumptions and its observability index.

A SystemModel carries (A, C, Q, R, Sigma0) for

    x[k+1] = A x[k] + w[k],   Cov(w) = Q
    y[k]   = C x[k] + v[k],   Cov(v) = R

with x[0] ~ (0, Sigma0). validate() checks the standing assumptions
(observability of (A, C), controllability of (A, Q^{1/2}), R positive
definite) and computes the observability index: the smallest i for which
the stacked map [C; CA; ...; C A^{i-1}] (_obs_stack) has full column
rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CovarianceNotPSD,
    QNotPSD,
    RNotPositiveDefinite,
    Uncontrollable,
    Unobservable,
)

__all__ = [
    "SystemModel",
    "ValidationReport",
    "ModelAssumptionWarning",
    "validate",
    "observability_index",
]


class ModelAssumptionWarning(UserWarning):
    """Soft assumption violations (e.g. stable modes in A)."""


def _sym_check(m: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    if np.linalg.norm(m - m.T) > tol * (1.0 + np.linalg.norm(m)):
        raise ValueError(f"{name} must be symmetric")
    return (m + m.T) / 2.0


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Immutable plant data. Construction checks shapes and finiteness;
    the statistical assumptions are checked by validate()."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        A = linalg._as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        C = linalg._as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        m = C.shape[0]
        Q = _sym_check(linalg._as_matrix(self.Q, "Q"), "Q")
        if Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
        R = _sym_check(linalg._as_matrix(self.R, "R"), "R")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {R.shape}")
        S0 = _sym_check(linalg._as_matrix(self.Sigma0, "Sigma0"), "Sigma0")
        if S0.shape != (n, n):
            raise ValueError(f"Sigma0 must be {n}x{n}, got {S0.shape}")
        for name, val in (("A", A), ("C", C), ("Q", Q), ("R", R), ("Sigma0", S0)):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]


@dataclass
class ValidationReport:
    checks: dict = field(default_factory=dict)
    observability_index: int | None = None
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _rank(m: np.ndarray) -> int:
    return linalg.sv_rank(np.linalg.svd(m, compute_uv=False), m.shape)


def _obs_stack(A: np.ndarray, C: np.ndarray, i: int) -> np.ndarray:
    """The depth-i stacked observation map [C; CA; ...; C A^{i-1}]."""
    rows = [C]
    for _ in range(i - 1):
        rows.append(rows[-1] @ A)
    return np.vstack(rows)


def observability_index(sys: SystemModel) -> int:
    """Smallest i <= n with rank [C; CA; ...; CA^{i-1}] = n."""
    for i in range(1, sys.n + 1):
        if _rank(_obs_stack(sys.A, sys.C, i)) == sys.n:
            return i
    raise Unobservable(
        f"stacked observation map has rank {_rank(_obs_stack(sys.A, sys.C, sys.n))} < {sys.n}"
    )


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    # principal symmetric square root; negative dust clamped at zero
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def validate(sys: SystemModel) -> ValidationReport:
    """Check the standing assumptions; raise on hard violations.

    Hard: Q PSD, R PD, Sigma0 PSD, (A, C) observable, (A, Q^{1/2})
    controllable. Soft (warning only): all |eig(A)| >= 1.
    """
    rep = ValidationReport()

    wq = np.linalg.eigvalsh(sys.Q)
    rep.checks["Q_psd"] = bool(wq[0] >= -1e-10 * (1.0 + abs(wq[-1])))
    if not rep.checks["Q_psd"]:
        raise QNotPSD(f"Q has eigenvalue {wq[0]:.3e} < 0")

    wr = np.linalg.eigvalsh(sys.R)
    rep.checks["R_pd"] = bool(wr[0] > 0.0)
    if not rep.checks["R_pd"]:
        raise RNotPositiveDefinite(f"R has eigenvalue {wr[0]:.3e} <= 0")

    ws = np.linalg.eigvalsh(sys.Sigma0)
    rep.checks["Sigma0_psd"] = bool(ws[0] >= -1e-10 * (1.0 + abs(ws[-1])))
    if not rep.checks["Sigma0_psd"]:
        raise CovarianceNotPSD(f"Sigma0 has eigenvalue {ws[0]:.3e} < 0")

    rep.observability_index = observability_index(sys)  # raises Unobservable
    rep.checks["observable"] = True

    qr = _psd_sqrt(sys.Q)
    ctrl = np.hstack(
        [np.linalg.matrix_power(sys.A, k) @ qr for k in range(sys.n)]
    )
    rep.checks["controllable"] = bool(_rank(ctrl) == sys.n)
    if not rep.checks["controllable"]:
        raise Uncontrollable(
            f"controllability stack of (A, Q^(1/2)) has rank {_rank(ctrl)} < {sys.n}"
        )

    eigs = np.abs(np.linalg.eigvals(sys.A))
    rep.checks["eig_magnitudes_ge_1"] = bool(np.all(eigs >= 1.0 - 1e-12))
    if not rep.checks["eig_magnitudes_ge_1"]:
        msg = (
            "A has eigenvalue magnitudes below 1 "
            f"(min {eigs.min():.6g}); stability verdicts remain sufficient"
        )
        rep.warnings.append(msg)
        warnings.warn(msg, ModelAssumptionWarning, stacklevel=2)

    return rep
