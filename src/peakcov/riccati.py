"""Covariance updates of the loss-gated Kalman filter.

time_update is the open-loop propagation A X A' + Q (applied when the
measurement packet is lost); measurement_update is the Riccati step that
also absorbs one received measurement, at the optimal_gain. Every other
gain gives a larger covariance, which is what lets the stability analysis
bound the filter by fixed gains. Q, R and Sigma0 were checked when the
plant was built, so no update re-checks them.
"""

from __future__ import annotations

import numpy as np

from .system import SystemModel

__all__ = [
    "time_update",
    "measurement_update",
    "optimal_gain",
]


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
