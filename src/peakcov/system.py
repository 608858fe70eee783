"""The LTI plant and its stacked multi-step observation model.

A SystemModel carries (A, C, Q, R, Sigma0) for

    x[k+1] = A x[k] + w[k],   Cov(w) = Q
    y[k]   = C x[k] + v[k],   Cov(v) = R

with x[0] ~ (0, Sigma0). validate() checks the standing assumptions
(observability of (A, C), controllability of (A, Q^{1/2}), R positive
definite) and computes the observability index: the smallest i for which
the stacked map [C; CA; ...; C A^{i-1}] has full column rank.

stacked(sys, i) assembles the i-step batch model

    Y = obs_map x[k] + noise_to_output W + V,
    x[k+i] = A^i x[k] + noise_to_state W,

where W stacks i process-noise vectors and V stacks i measurement
noises; joint_cov is the covariance of (W, noise_to_output W + V).
These blocks parametrize the fixed-gain covariance update in riccati.
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
    "StackedModel",
    "ValidationReport",
    "ModelAssumptionWarning",
    "validate",
    "observability_index",
    "stacked",
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


@dataclass(frozen=True, eq=False)
class StackedModel:
    """Multi-step batch-model blocks for a given depth i."""

    depth: int
    obs_map: np.ndarray          # (i*m) x n, rows C A^t
    noise_to_state: np.ndarray   # n x (i*n), [A^{i-1}, ..., A, I]
    noise_to_output: np.ndarray  # (i*m) x (i*n), lower block triangular
    process_cov: np.ndarray      # (i*n) square, block-diag Q
    measurement_cov: np.ndarray  # (i*m) square, block-diag R
    joint_cov: np.ndarray        # (i*n + i*m) square, PSD


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
    w, v = linalg.sym_eig(m)
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


def stacked(sys: SystemModel, i: int) -> StackedModel:
    """Assemble the depth-i batch-model blocks (1 <= i <= n)."""
    if not 1 <= i <= sys.n:
        raise ValueError(f"depth must be in 1..{sys.n}, got {i}")
    n, m = sys.n, sys.m
    A, C = sys.A, sys.C

    obs = _obs_stack(A, C, i)

    powers = [np.eye(n)]
    for _ in range(i - 1):
        powers.append(powers[-1] @ A)
    # noise_to_state: [A^{i-1}, ..., A, I]
    n2s = np.hstack(powers[::-1])

    # noise_to_output block (r, c) = C A^{r-1-c} for c < r, else 0
    n2o = np.zeros((i * m, i * n))
    for r in range(i):
        for c in range(r):
            n2o[r * m:(r + 1) * m, c * n:(c + 1) * n] = C @ powers[r - 1 - c]

    pq = np.kron(np.eye(i), sys.Q)
    pr = np.kron(np.eye(i), sys.R)
    cross = pq @ n2o.T
    joint = np.block([[pq, cross], [cross.T, n2o @ pq @ n2o.T + pr]])
    joint = (joint + joint.T) / 2.0

    return StackedModel(
        depth=i,
        obs_map=obs,
        noise_to_state=n2s,
        noise_to_output=n2o,
        process_cov=pq,
        measurement_cov=pr,
        joint_cov=joint,
    )
