"""Peak-covariance stability tests, gains, and certificates.

Two sufficient conditions are implemented for the loss-gated filter:

* gain_condition_matrix builds the linear operator whose spectral radius
  below 1 certifies peak-covariance stability for a given gain set; it
  propagates expected covariance blocks indexed by the burst length,
  with Kronecker-vectorized burst dynamics. Those blocks are symmetric,
  so it acts on their upper triangles: side s*n(n+1)/2, not s*n^2, with
  the same spectral radius (see _operator). _operator forms the plant
  and chain constants once and returns the map from gains to this matrix,
  so search_gains evaluates only the gain part.
* norm_condition_matrix builds the coarser s x s matrix of norm bounds
  (d_l times transition masses, scaled by ||A^j||^2); its radius below 1
  is the coordinate-dependent condition it is compared against.

min_norm_gain gives the closed-form gain minimizing ||A^l + K C_stack||
(split along the row space / null space of the stacked observation map),
which seeds search_gains. Certificates are the coupled-inequality
witnesses X_1..X_s: built from a Neumann-series solve when rho < 1 and
checked by direct evaluation of the coupled sums, a route that shares
no code with _operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotStable
from .markov import LossModel, submatrices
from .system import SystemModel, _obs_stack, observability_index

__all__ = [
    "STABILITY_TOL",
    "StabilityMatrix",
    "Certificate",
    "ComparisonReport",
    "is_stable",
    "min_norm_gain",
    "closed_form_gains",
    "gain_condition_matrix",
    "norm_condition_matrix",
    "build_certificate",
    "verify_certificate",
    "strict_margin_floor",
    "search_gains",
    "similarity_transform",
    "compare_conditions",
]

# verdicts use rho < 1 - STABILITY_TOL to avoid boundary flapping
STABILITY_TOL = 1e-9


def is_stable(rho: float, tol: float = STABILITY_TOL) -> bool:
    return rho < 1.0 - tol


@dataclass(frozen=True, eq=False)
class StabilityMatrix:
    matrix: np.ndarray
    rho: float


@dataclass(frozen=True, eq=False)
class Certificate:
    """Coupled-inequality witnesses X_1..X_s and the verified margin
    min_j lambda_min(X_j - LHS_j)."""

    blocks: list
    margin: float


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    d: list
    rho_norm: float
    norm_stable: bool
    rho_seeded: float
    rho_refined: float
    gain_stable: bool
    gains: list
    tol: float


def _gain_depths(sys: SystemModel) -> int:
    """Number of gain blocks: max(Io - 1, 1)."""
    return max(observability_index(sys) - 1, 1)


def check_gains(sys: SystemModel, gains) -> list[np.ndarray]:
    depths = _gain_depths(sys)
    gl = [linalg._as_matrix(K, f"gain[{i}]") for i, K in enumerate(gains)]
    if len(gl) != depths:
        raise DimensionMismatch(
            f"gain set must have {depths} blocks for this system, got {len(gl)}"
        )
    for l, K in enumerate(gl, start=1):
        if K.shape != (sys.n, l * sys.m):
            raise DimensionMismatch(
                f"gain block {l} must be {sys.n}x{l * sys.m}, got {K.shape}"
            )
    return gl


def min_norm_gain(sys: SystemModel, depth: int) -> tuple[float, np.ndarray]:
    """Closed-form minimum of ||A^depth + K @ obs_map||^2 over gains K.

    The problem decouples along the orthogonal splitting of state space
    into the row space and null space of the stacked observation map:
    the gain can cancel the row-space block exactly and cannot touch the
    null-space block, so the minimum is ||A^depth @ N||^2 with N an
    orthonormal null-space basis, attained at K = -A^depth V (obs V)^+
    with V spanning the row space. Zero for depth >= the observability
    index (trivial null space).
    """
    if not 1 <= depth <= sys.n:
        raise ValueError(f"depth must be in 1..{sys.n}, got {depth}")
    obs = _obs_stack(sys.A, sys.C, depth)
    Ad = np.linalg.matrix_power(sys.A, depth)
    _, sv, vt = np.linalg.svd(obs)
    rank = linalg.sv_rank(sv, obs.shape)
    null = vt[rank:].T
    d = linalg.spectral_norm_sq(Ad @ null) if null.shape[1] else 0.0
    rowspace = vt[:rank].T
    K = -Ad @ rowspace @ np.linalg.pinv(obs @ rowspace)
    return d, K


def closed_form_gains(sys: SystemModel) -> tuple[list[float], list[np.ndarray]]:
    """min_norm_gain for every depth 1..max(Io-1, 1)."""
    d, K = [], []
    for l in range(1, _gain_depths(sys) + 1):
        dl, Kl = min_norm_gain(sys, l)
        d.append(dl)
        K.append(Kl)
    return d, K


def _operator(sys: SystemModel, loss: LossModel, depths: int):
    """Map from a list of `depths` gain blocks to the gain-condition
    matrix on symmetric blocks, of side s*n(n+1)/2. With
    F_l = A^l + K_l O_l it is diag((A kron A)^j, j=1..s) applied to
    [P_blk.T kron (F_1 kron F_1) + Q_blk.T kron Ksum], Ksum summing
    p00^(l-2) F_l kron F_l over depths 2..Io-1 (zero when Io <= 2, making
    the result independent of Q_blk), each n^2-square factor K acting on
    the upper triangles (a, b) = triu_indices(n) of symmetric blocks as
    K[r][:, r] + K[r][:, c2] (a != b), r = a*n + b, c2 = b*n + a. This is
    exact: the operator maps PSD tuples to PSD tuples, so its spectral
    radius is attained on PSD blocks (Krein-Rutman) and antisymmetric
    blocks do not exceed it (Russo-Dye; Costa, Fragoso & Marques 2005).
    What the gains do not touch is formed once.
    """
    a, b = np.triu_indices(sys.n)
    r, c2, N = a * sys.n + b, b * sys.n + a, a.size

    def sym(K):  # K on all n x n blocks -> K on the symmetric ones
        return K[r][:, r] + K[r][:, c2] * (a != b)

    Al = [np.linalg.matrix_power(sys.A, l) for l in range(1, depths + 1)]
    obs = [_obs_stack(sys.A, sys.C, l) for l in range(1, depths + 1)]
    Pb, Qb = submatrices(loss)
    weights = [loss.Pi[0, 0] ** (l - 2) for l in range(2, depths + 1)]
    AA = sym(np.kron(sys.A, sys.A))
    powers = [np.eye(N)]
    for _ in range(loss.s):
        powers.append(powers[-1] @ AA)

    def matrix(gains) -> np.ndarray:
        F = [al + K @ o for al, K, o in zip(Al, gains, obs)]
        Ks = np.zeros((N, N))
        for w, f in zip(weights, F[1:]):
            Ks += w * sym(np.kron(f, f))
        M = np.kron(Pb.T, sym(np.kron(F[0], F[0]))) + np.kron(Qb.T, Ks)
        for j, blk in enumerate(powers[1:]):  # in place: no second square
            M[j * N:(j + 1) * N] = blk @ M[j * N:(j + 1) * N]
        return M

    return matrix


def gain_condition_matrix(sys: SystemModel, loss: LossModel, gains) -> StabilityMatrix:
    """The stability operator of a gain set on symmetric blocks (side
    s*n(n+1)/2, see _operator) and its spectral radius."""
    gl = check_gains(sys, gains)
    H = _operator(sys, loss, len(gl))(gl)
    return StabilityMatrix(matrix=H, rho=linalg.spectral_radius(H))


def norm_condition_matrix(sys: SystemModel, loss: LossModel, d) -> StabilityMatrix:
    """Assemble the s x s norm-bound condition matrix.

    [d_1 * P_blk + (sum over depths 2..Io-1 of p00^(l-1) d_l) * Q_blk]
    right-scaled by diag(||A^j||^2, j=1..s). Note the p00 exponent here
    is l-1, one higher than in gain_condition_matrix; both follow their
    defining displays.
    """
    d = [float(x) for x in d]
    if len(d) < _gain_depths(sys):
        raise DimensionMismatch(
            f"need {_gain_depths(sys)} norm minima, got {len(d)}"
        )
    Pb, Qb = submatrices(loss)
    p00 = loss.Pi[0, 0]
    core = d[0] * Pb
    for l in range(2, len(d) + 1):
        core = core + p00 ** (l - 1) * d[l - 1] * Qb
    powers = []
    Aj = np.eye(sys.n)
    for _ in range(loss.s):
        Aj = Aj @ sys.A
        powers.append(linalg.spectral_norm_sq(Aj))
    Phi = core @ np.diag(powers)
    return StabilityMatrix(matrix=Phi, rho=linalg.spectral_radius(Phi))


def verify_certificate(sys: SystemModel, loss: LossModel, gains, blocks) -> float:
    """Margin of the coupled inequalities: min over j of
    lambda_min(X_j - LHS_j), positive iff the certificate is valid.

    LHS_j sums, over the previous burst length i, the one-idle-step path
    (through the depth-l factors, weighted Pi[i,0] p00^(l-2) Pi[0,j]) and
    the direct path (depth-1 factor, weighted Pi[i,j]), conjugated by
    A^j. Evaluated directly from the definition, with its own burst
    factors F_l = A^l + K_l O_l; shares no code with _operator.
    """
    gl = check_gains(sys, gains)
    n, s = sys.n, loss.s
    X = [np.asarray(b, dtype=float) for b in blocks]
    if len(X) != s:
        raise DimensionMismatch(f"need {s} certificate blocks, got {len(X)}")
    for b in X:
        if b.shape != (n, n):
            raise DimensionMismatch(f"certificate blocks must be {n}x{n}")
    F = [np.linalg.matrix_power(sys.A, l) + K @ _obs_stack(sys.A, sys.C, l)
         for l, K in enumerate(gl, start=1)]
    P = loss.Pi
    p00 = P[0, 0]
    margin = np.inf
    Aj = np.eye(n)
    for j in range(1, s + 1):
        Aj = Aj @ sys.A
        lhs = np.zeros((n, n))
        for i in range(1, s + 1):
            direct = F[0] @ X[i - 1] @ F[0].T
            lhs += P[i, j] * direct
            via_idle = np.zeros((n, n))
            for l in range(2, len(F) + 1):
                via_idle += p00 ** (l - 2) * (F[l - 1] @ X[i - 1] @ F[l - 1].T)
            lhs += P[i, 0] * P[0, j] * via_idle
        lhs = Aj @ lhs @ Aj.T
        diff = X[j - 1] - (lhs + lhs.T) / 2.0
        w = np.linalg.eigvalsh((diff + diff.T) / 2.0)
        margin = min(margin, float(w[0]))
    return margin


def strict_margin_floor(blocks, tol: float = STABILITY_TOL) -> float:
    """Strictness threshold tol*(1 + max block norm) for margin tests."""
    top = max(linalg.sym_spectral_norm(b) for b in blocks)
    return tol * (1.0 + top)


def build_certificate(
    sys: SystemModel, loss: LossModel, gains, tol: float = STABILITY_TOL
) -> Certificate:
    """Construct coupled-inequality witnesses from a stable gain set.

    With rho < 1, the operator series sum_k H^k applied to identity
    blocks converges; the witnesses' upper triangles, stacked, solve
    (I - H) y = (I, ..., I), and the exactly symmetric blocks filled from
    them satisfy X_j - LHS_j = I, so the verified margin is about 1.
    Raises NotStable when rho >= 1 - tol.
    """
    sm = gain_condition_matrix(sys, loss, gains)
    if not is_stable(sm.rho, tol):
        raise NotStable(f"spectral radius {sm.rho!r} is not below 1 - {tol:g}")
    a, b = np.triu_indices(sys.n)
    eye = np.tile((a == b).astype(float), loss.s)
    y = linalg.solve(np.eye(eye.size) - sm.matrix, eye)
    X = np.empty((loss.s, sys.n, sys.n))
    X[:, a, b] = X[:, b, a] = y.reshape(loss.s, -1)
    blocks = list(X)
    margin = verify_certificate(sys, loss, gains, blocks)
    return Certificate(blocks=blocks, margin=margin)


def _pack(gains: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([K.reshape(-1) for K in gains])


def _unpack(x: np.ndarray, shapes) -> list[np.ndarray]:
    ends = np.cumsum([r * c for r, c in shapes])[:-1]
    return [p.reshape(shp) for p, shp in zip(np.split(x, ends), shapes)]


class _Exhausted(Exception):
    """_nelder_mead's evaluation budget ran out."""


def _nelder_mead(f, x0: np.ndarray, maxfev: int, tol: float):
    """Nelder-Mead simplex search (Nelder & Mead, 1965) from x0; returns
    the best vertex and the least value.

    A step-for-step port of SciPy's unbounded, non-adaptive
    minimize(method="Nelder-Mead"), equal to it bit for bit: start steps
    of 1.05x (0.00025 at 0), coefficients 1, 2, 1/2, 1/2, a stop once the
    vertex and value spreads are both <= tol, or at the first evaluation
    past maxfev, even partway through a shrink.
    """
    calls = 0

    def fun(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return f(x)

    N = x0.size
    sim = np.tile(x0, (N + 1, 1))
    sim[1:][np.diag_indices(N)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = fun(sim[k])
    except _Exhausted:
        pass
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= tol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= tol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # contract outside when xr beats the worst vertex, else inside
                outside = fxr < fsim[-1]
                if outside:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = fun(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])
        except _Exhausted:
            pass
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0], np.min(fsim)


def _search(sys: SystemModel, loss: LossModel, refine: bool,
            budget: int = 500, xtol: float = 1e-10):
    """search_gains, also returning the norm minima and the seeded
    radius it computed on the way: (d, rho_seed, gains, rho)."""
    d, seed = closed_form_gains(sys)
    H = _operator(sys, loss, len(seed))
    gains = seed
    rho = rho_seed = linalg.spectral_radius(H(seed))
    if refine:
        shapes = [K.shape for K in seed]
        x, fun = _nelder_mead(lambda x: linalg.spectral_radius(H(_unpack(x, shapes))),
                              _pack(seed), budget, xtol)
        if np.isfinite(fun) and fun < rho_seed:
            gains, rho = _unpack(x, shapes), float(fun)
    return d, rho_seed, gains, rho


def search_gains(
    sys: SystemModel,
    loss: LossModel,
    refine: bool = True,
    budget: int = 500,
    xtol: float = 1e-10,
) -> tuple[list[np.ndarray], float]:
    """Find a gain set with small spectral radius.

    Seeds at the closed-form minimum-norm gains; optionally refines by
    Nelder-Mead over all gain entries (objective: the spectral radius, at
    most `budget` evaluations, vertex and value tolerance `xtol`). The
    optimizer is _nelder_mead, a numpy port that reproduces SciPy's
    Nelder-Mead bit for bit. The seed is kept whenever refinement fails to
    improve, so the result never exceeds the seeded radius.
    """
    return _search(sys, loss, refine, budget, xtol)[2:]


def similarity_transform(
    sys: SystemModel, gains, S
) -> tuple[SystemModel, list[np.ndarray]]:
    """Change state coordinates by a nonsingular S.

    Returns the transformed model (S^-1 A S, C S, S^-1 Q S^-T, R,
    S^-1 Sigma0 S^-T) and the gain set with every block premultiplied by
    S^-1. The gain-condition spectrum is invariant under this map; the
    norm condition is not. Raises Singular for singular S.
    """
    Sm = linalg._as_matrix(S, "S")
    if Sm.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"S must be {sys.n}x{sys.n}, got {Sm.shape}")
    Si = linalg.solve(Sm, np.eye(sys.n))
    A2 = Si @ sys.A @ Sm
    C2 = sys.C @ Sm
    Q2 = Si @ sys.Q @ Si.T
    S02 = Si @ sys.Sigma0 @ Si.T
    sys2 = SystemModel(A=A2, C=C2, Q=(Q2 + Q2.T) / 2.0, R=sys.R.copy(),
                       Sigma0=(S02 + S02.T) / 2.0)
    gains2 = [Si @ linalg._as_matrix(K, "gain") for K in gains]
    return sys2, gains2


def compare_conditions(
    sys: SystemModel, loss: LossModel, refine: bool = True, tol: float = STABILITY_TOL
) -> ComparisonReport:
    """Evaluate both conditions on one instance.

    The norm condition uses the optimal d_l; the gain condition reports
    the closed-form-seeded radius and the refined radius. A (norm-stable,
    gain-unstable) outcome cannot occur: norm stability implies stability
    of the gain condition at the same seed gains.
    """
    d, rho_seed, gains, rho_ref = _search(sys, loss, refine)
    rho_norm = norm_condition_matrix(sys, loss, d).rho
    return ComparisonReport(
        d=d, rho_norm=rho_norm, norm_stable=is_stable(rho_norm, tol),
        rho_seeded=rho_seed, rho_refined=rho_ref,
        gain_stable=is_stable(rho_ref, tol), gains=gains, tol=tol)
