"""Covariance updates of the loss-gated Kalman filter.

time_update is the open-loop propagation A X A' + Q (applied when the
measurement packet is lost); measurement_update is the Riccati step that
also absorbs one received measurement. fixed_gain_update evaluates the
depth-i update for an arbitrary fixed gain; its minimum over gains is the
i-fold measurement_update, attained at the optimal gain (the basis of the
stability analysis).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoConvergence
from .system import SystemModel, stacked

__all__ = [
    "check_cov",
    "time_update",
    "measurement_update",
    "optimal_gain",
    "iterate",
    "fixed_gain_update",
    "dare_fixed_point",
]


def check_cov(X, name: str = "covariance") -> np.ndarray:
    """Validate a covariance argument: symmetric within 1e-10 relative,
    eigenvalues >= -1e-9*(1+||X||). Negative dust is clamped to zero and
    a symmetric copy is returned."""
    a = linalg._as_matrix(X, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    scale = 1.0 + np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-10 * scale:
        raise ValueError(f"{name} asymmetry exceeds 1e-10 relative")
    a = (a + a.T) / 2.0
    w, v = np.linalg.eigh(a)
    if w[0] < -1e-9 * scale:
        raise ValueError(f"{name} has eigenvalue {w[0]:.3e}, not PSD")
    if w[0] < 0.0:
        a = (v * np.clip(w, 0.0, None)) @ v.T
        a = (a + a.T) / 2.0
    return a


def time_update(sys: SystemModel, X) -> np.ndarray:
    """Open-loop covariance propagation A X A' + Q, re-symmetrized; a
    (..., n, n) stack maps matrix by matrix, bit for bit."""
    X = np.asarray(X, dtype=float)
    out = sys.A @ X @ sys.A.T + sys.Q
    return (out + out.swapaxes(-1, -2)) / 2.0


def optimal_gain(sys: SystemModel, X) -> np.ndarray:
    """Gain -A X C' (C X C' + R)^{-1} minimizing the updated covariance."""
    X = np.asarray(X, dtype=float)
    S = sys.C @ X @ sys.C.T + sys.R
    W = sys.A @ X @ sys.C.T
    Kt = np.linalg.solve(S.swapaxes(-1, -2), W.swapaxes(-1, -2))
    return -Kt.swapaxes(-1, -2)


def measurement_update(sys: SystemModel, X) -> np.ndarray:
    """Riccati update absorbing one measurement.

    Computed in Joseph form, (A+KC) X (A+KC)' + K R K' + Q at the optimal
    gain K: algebraically equal to A X A' + Q - A X C'(C X C'+R)^{-1}C X A'
    but a sum of PSD terms, so roundoff cannot push the result indefinite
    (the difference form loses definiteness on long update streams).
    Like time_update, it maps a (..., n, n) stack matrix by matrix.
    """
    X = np.asarray(X, dtype=float)
    K = optimal_gain(sys, X)
    F = sys.A + K @ sys.C
    Ft, Kt = F.swapaxes(-1, -2), K.swapaxes(-1, -2)
    out = F @ X @ Ft + K @ sys.R @ Kt + sys.Q
    return (out + out.swapaxes(-1, -2)) / 2.0


def iterate(op: Callable, sys: SystemModel, X, k: int) -> np.ndarray:
    """k-fold composition of a covariance update; k = 0 is the identity."""
    if k < 0:
        raise ValueError("iteration count must be >= 0")
    out = np.asarray(X, dtype=float)
    for _ in range(k):
        out = op(sys, out)
    return out


def fixed_gain_update(sys: SystemModel, i: int, gain, X) -> np.ndarray:
    """Depth-i covariance update with an arbitrary fixed gain.

    Returns (A^i + gain @ obs_map) X (.)' + G J G' where G = [noise_to_state,
    gain] and J is the stacked joint noise covariance. For every gain this
    dominates the i-fold measurement_update (in the PSD order), with
    equality at the optimal gain; gain must be n x (i*m).
    """
    if i < 1:
        raise ValueError("depth must be >= 1")
    K = linalg._as_matrix(gain, "gain")
    X = np.asarray(X, dtype=float)
    st = stacked(sys, i)
    if K.shape != (sys.n, i * sys.m):
        raise DimensionMismatch(
            f"gain must be {sys.n}x{i * sys.m} at depth {i}, got {K.shape}"
        )
    if X.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"X must be {sys.n}x{sys.n}, got {X.shape}")
    F = np.linalg.matrix_power(sys.A, i) + K @ st.obs_map
    G = np.hstack([st.noise_to_state, K])
    out = F @ X @ F.T + G @ st.joint_cov @ G.T
    return (out + out.T) / 2.0


def dare_fixed_point(
    sys: SystemModel, rel_tol: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Fixed point P* of measurement_update, by iteration from Q.

    Stops when the relative change drops below rel_tol; raises
    NoConvergence if the budget is exhausted or the residual
    ||update(P*) - P*|| exceeds 1e-10*(1+||P*||).
    """
    P = sys.Q.copy()
    for _ in range(max_iter):
        P, prev = measurement_update(sys, P), P
        if np.linalg.norm(P - prev) <= rel_tol * (1.0 + np.linalg.norm(P)):
            break
    else:
        raise NoConvergence(f"no fixed point within {max_iter} iterations")
    resid = np.linalg.norm(measurement_update(sys, P) - P)
    if resid > 1e-10 * (1.0 + np.linalg.norm(P)):
        raise NoConvergence(f"fixed-point residual {resid:.3e} too large")
    return P
