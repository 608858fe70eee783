"""Covariance updates of the loss-gated Kalman filter.

gain_update is one filter step, in Joseph form, at a given gain K. At
the optimal_gain it is measurement_update, which absorbs a received
measurement; at gain 0 it equals time_update, the open-loop step
A X A' + Q of a lost packet, bit for bit. Every other gain gives a
larger covariance, which lets the stability analysis bound the filter
by fixed gains. Each function maps a (..., n, n) stack matrix by matrix,
bit for bit. Q, R and Sigma0 were checked when the plant was built, so
no update re-checks them.
"""

from __future__ import annotations

import numpy as np

from .system import SystemModel

__all__ = ["time_update", "measurement_update", "optimal_gain"]


def time_update(sys: SystemModel, X) -> np.ndarray:
    """Open-loop covariance propagation A X A' + Q, re-symmetrized."""
    X = np.asarray(X, dtype=float)
    out = sys.A @ X @ sys.A.T + sys.Q
    return (out + out.swapaxes(-1, -2)) / 2.0


def optimal_gain(sys: SystemModel, X) -> np.ndarray:
    """Gain -A X C' S^{-1}, S = C X C' + R, minimizing the update. K' is
    found by Gauss-Jordan elimination on [S' | -A X C'] across the stack:
    no pivoting, as S is positive definite, and each pivot applied as a
    reciprocal, as LAPACK's getrs does for one output."""
    X = np.asarray(X, dtype=float)
    S = sys.C @ X @ sys.C.T + sys.R
    W = sys.A @ X @ sys.C.T
    M = np.concatenate((S, -W), axis=-2).swapaxes(-1, -2)
    for i in range(sys.m):
        M[..., i, :] *= 1.0 / M[..., i, i, None]
        for j in set(range(sys.m)) - {i}:
            M[..., j, :] -= M[..., j, i, None] * M[..., i, :]
    return M[..., sys.m:].swapaxes(-1, -2)


def gain_update(sys: SystemModel, X, K) -> np.ndarray:
    """Filter step at gain K in Joseph form, (A+KC) X (A+KC)' + K R K' + Q.

    At the optimal gain this equals A X A' + Q - A X C' S^{-1} C X A', but
    as a sum of PSD terms roundoff cannot push it indefinite (the
    difference form loses definiteness on long update streams).
    """
    X = np.asarray(X, dtype=float)
    F, Kt = sys.A + K @ sys.C, K.swapaxes(-1, -2)
    Ft = np.ascontiguousarray(F.swapaxes(-1, -2))  # stacks multiply faster
    out = F @ X @ Ft + K @ sys.R @ Kt + sys.Q
    return (out + out.swapaxes(-1, -2)) / 2.0


def measurement_update(sys: SystemModel, X) -> np.ndarray:
    """The Riccati update: gain_update at the optimal_gain."""
    return gain_update(sys, X, optimal_gain(sys, X))
