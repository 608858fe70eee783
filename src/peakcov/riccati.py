"""Covariance updates of the loss-gated Kalman filter.

time_update is the open-loop propagation A X A' + Q (applied when the
measurement packet is lost); measurement_update is the Riccati step that
also absorbs one received measurement. fixed_gain_update evaluates the
depth-i update for an arbitrary fixed gain, its noise term summed path by
path from the gain blocks; its minimum over gains is the i-fold
measurement_update, attained at the optimal gain (the basis of the
stability analysis).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .system import SystemModel, _obs_stack

__all__ = [
    "check_cov",
    "time_update",
    "measurement_update",
    "optimal_gain",
    "fixed_gain_update",
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


def fixed_gain_update(sys: SystemModel, i: int, gain, X) -> np.ndarray:
    """Depth-i covariance update with an arbitrary fixed gain.

    gain = [K_0, ..., K_{i-1}] is n x (i*m), K_t acting on the t-th of i
    outputs. Returns F X F' + sum_u (G_u Q G_u' + K_u R K_u') with
    F = A^i + gain @ [C; CA; ...; C A^{i-1}] and
    G_u = A^{i-1-u} + sum_{t>u} K_t C A^{t-1-u}, the path of process noise
    w_u into the error. For every gain this dominates the i-fold
    measurement_update (in the PSD order), with equality at the optimal
    gain.
    """
    if i < 1:
        raise ValueError("depth must be >= 1")
    K = linalg._as_matrix(gain, "gain")
    X = np.asarray(X, dtype=float)
    n, m = sys.n, sys.m
    if K.shape != (n, i * m):
        raise DimensionMismatch(
            f"gain must be {n}x{i * m} at depth {i}, got {K.shape}"
        )
    if X.shape != (n, n):
        raise DimensionMismatch(f"X must be {n}x{n}, got {X.shape}")
    Ap = [np.eye(n)]
    for _ in range(i):
        Ap.append(Ap[-1] @ sys.A)
    Kt = [K[:, t * m:(t + 1) * m] for t in range(i)]
    F = Ap[i] + K @ _obs_stack(sys.A, sys.C, i)
    out = F @ X @ F.T
    for u in range(i):
        G = Ap[i - 1 - u].copy()
        for t in range(u + 1, i):
            G += Kt[t] @ sys.C @ Ap[t - 1 - u]
        out += G @ sys.Q @ G.T + Kt[u] @ sys.R @ Kt[u].T
    return (out + out.T) / 2.0
