"""Dense real linear-algebra kernel.

Spectral radii of nonsymmetric matrices, spectral norms and SVD ranks.
Everything is a pure function of ndarrays; all routines reject NaN/Inf
input. numpy is the only dependency.

Eigenvalues of nonsymmetric matrices come from LAPACK's Hessenberg
reduction + implicitly shifted QR (real Schur form). Dense only: sizes
here are s*n(n+1)/2 at desk scale.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

__all__ = [
    "spectral_radius",
    "spectral_norm_sq",
    "sym_spectral_norm",
]


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def spectral_radius(m) -> float:
    """Largest |eigenvalue| of a square real matrix.

    Uses the QR eigensolver (Hessenberg + implicitly shifted QR); for
    matrices at this library's scale the achieved eigenvalue error is
    machine precision. Raises NoConvergence if the QR iteration fails
    to deflate.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(w))) if w.size else 0.0


def spectral_norm_sq(m) -> float:
    """Squared L2-induced norm: lambda_max(m.T m) = sigma_max(m)^2."""
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0] ** 2)


def sym_spectral_norm(m):
    """L2 norm of a symmetric matrix: max |eigenvalue| via eigvalsh.

    Cheaper than the SVD route; used on covariance blocks in hot loops.
    A (..., n, n) stack gives an array of norms, each equal bit for bit
    to the norm of its matrix alone.
    """
    w = np.linalg.eigvalsh(np.asarray(m, dtype=float))
    top = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return float(top) if top.ndim == 0 else top


def sv_rank(sv: np.ndarray, shape) -> int:
    """Numerical rank of a matrix of the given shape from its descending
    singular values: the number above max(rows, cols) * machine epsilon
    * sigma_max (0 for an empty or zero matrix)."""
    rtol = max(shape) * np.finfo(float).eps
    return int(np.sum(sv > rtol * sv[0])) if sv.size and sv[0] > 0 else 0
