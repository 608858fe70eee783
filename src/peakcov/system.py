"""The LTI plant, its standing assumptions and its observability index.

A SystemModel carries (A, C, Q, R, Sigma0) for

    x[k+1] = A x[k] + w[k],   Cov(w) = Q
    y[k]   = C x[k] + v[k],   Cov(v) = R

with x[0] ~ (0, Sigma0). Construction refuses inadmissible covariances
(Q or Sigma0 not PSD, R not positive definite), so a model that exists
is admissible. validate() checks the standing assumptions on the pair
(observability of (A, C), controllability of (A, Q^{1/2})).
observability_index is the smallest i for which the stacked map
[C; CA; ...; C A^{i-1}] (_obs_stack) has full column rank.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    "ModelAssumptionWarning",
    "validate",
    "observability_index",
]


class ModelAssumptionWarning(UserWarning):
    """Soft assumption violations (e.g. stable modes in A)."""


def _covariance(m, name: str, size: int, error: type,
                definite: bool = False) -> np.ndarray:
    """m as a size x size covariance: the shape, then symmetry within
    1e-10 relative, then lambda_min >= -1e-10 (1 + |lambda_max|), or
    lambda_min > 0 when definite; `error` is raised on the last check.
    Returns the symmetrized copy."""
    a = linalg._as_matrix(m, name)
    if a.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got {a.shape}")
    if np.linalg.norm(a - a.T) > 1e-10 * (1.0 + np.linalg.norm(a)):
        raise ValueError(f"{name} must be symmetric")
    a = (a + a.T) / 2.0
    w = np.linalg.eigvalsh(a)
    if definite and not w[0] > 0.0:
        raise error(f"{name} has eigenvalue {w[0]:.3e} <= 0")
    if not definite and w[0] < -1e-10 * (1.0 + abs(w[-1])):
        raise error(f"{name} has eigenvalue {w[0]:.3e} < 0")
    return a


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Immutable plant data. Construction checks shapes, finiteness and
    the covariances (Q, Sigma0 PSD; R positive definite); validate()
    checks observability and controllability."""

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
        Q = _covariance(self.Q, "Q", n, QNotPSD)
        R = _covariance(self.R, "R", C.shape[0], RNotPositiveDefinite,
                        definite=True)
        S0 = _covariance(self.Sigma0, "Sigma0", n, CovarianceNotPSD)
        for name, val in (("A", A), ("C", C), ("Q", Q), ("R", R), ("Sigma0", S0)):
            object.__setattr__(self, name, val)
            val.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]


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


def validate(sys: SystemModel) -> None:
    """Check the standing assumptions on the pair; raise on violations.

    Hard: (A, C) observable, (A, Q^{1/2}) controllable. Soft (warning
    only): all |eig(A)| >= 1. The covariances were checked when sys was
    built.
    """
    observability_index(sys)  # raises Unobservable
    qr = _psd_sqrt(sys.Q)
    ctrl = np.hstack(
        [np.linalg.matrix_power(sys.A, k) @ qr for k in range(sys.n)]
    )
    if _rank(ctrl) != sys.n:
        raise Uncontrollable(
            f"controllability stack of (A, Q^(1/2)) has rank {_rank(ctrl)} < {sys.n}"
        )
    eigs = np.abs(np.linalg.eigvals(sys.A))
    if not np.all(eigs >= 1.0 - 1e-12):
        warnings.warn(
            "A has eigenvalue magnitudes below 1 "
            f"(min {eigs.min():.6g}); stability verdicts remain sufficient",
            ModelAssumptionWarning, stacklevel=2)
