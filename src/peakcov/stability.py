"""Peak-covariance stability tests, gains, and certificates.

Two sufficient conditions are implemented for the loss-gated filter:

* gain_condition_matrix builds the linear operator whose spectral radius
  below 1 certifies peak-covariance stability for a given gain set; it
  propagates expected covariance blocks indexed by the burst length,
  with Kronecker-vectorized burst dynamics, on the blocks' upper
  triangles (see _operator).
* norm_condition_matrix builds the coarser s x s matrix of norm bounds
  (d_l times transition masses, scaled by ||A^j||^2); its radius below 1
  is the coordinate-dependent condition it is compared against.

min_norm_gain gives the closed-form gain minimizing ||A^l + K C_stack||
(split along the row space / null space of the stacked observation map),
which seeds search_gains' Perron-Kalman descent (see _search).
Certificates are the coupled-inequality witnesses X_1..X_s: the
operator's Neumann series on identity blocks, solved directly when
rho < 1, and checked by direct evaluation of the coupled sums, a route
that shares no code with _operator. Every verdict has one threshold,
STABILITY_TOL: is_stable for radii, strict_margin_floor for margins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotStable, Singular
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

# verdicts use rho < 1 - STABILITY_TOL, and margins above
# strict_margin_floor, to avoid boundary flapping
STABILITY_TOL = 1e-9


def is_stable(rho: float) -> bool:
    return rho < 1.0 - STABILITY_TOL


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
    """Two maps on a list of `depths` gain blocks: to the gain-condition
    matrix on symmetric blocks, of side s*n(n+1)/2, and from such a
    matrix M and its radius rho to the Perron-Kalman target gains at M's
    Perron pair, the SVD null pair of M - rho*I (see _search). With
    F_l = A^l + K_l O_l the matrix is diag((A kron A)^j, j=1..s) applied to
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
    n, s = sys.n, loss.s
    a, b = np.triu_indices(n)
    r, c2, N = a * n + b, b * n + a, a.size

    def sym(K):  # K on all n x n blocks -> K on the symmetric ones
        return K[r][:, r] + K[r][:, c2] * (a != b)

    Al = [np.linalg.matrix_power(sys.A, l) for l in range(1, depths + 1)]
    obs = [_obs_stack(sys.A, sys.C, l) for l in range(1, depths + 1)]
    Aj = np.array([np.linalg.matrix_power(sys.A, j) for j in range(1, s + 1)])
    Pb, Qb = submatrices(loss)
    weights = [loss.Pi[0, 0] ** (l - 2) for l in range(2, depths + 1)]
    AA = sym(np.kron(sys.A, sys.A))
    powers = [np.eye(N)]
    for _ in range(s):
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

    def target(M, rho) -> list[np.ndarray]:
        u, _, vt = np.linalg.svd(M - rho * np.eye(len(M)))
        X, Y = np.empty((2, s, n, n))  # the Perron pair as symmetric blocks
        X[:, a, b] = X[:, b, a] = vt[-1].reshape(s, N)
        Y[:, a, b] = Y[:, b, a] = u[:, -1].reshape(s, N)
        Y *= np.where(np.eye(n), 1.0, 0.5)  # duals of triu
        Xbar = np.einsum("i,ikl->kl", loss.Pi[1:, 0], X)
        gains = [-al @ Xbar @ o.T @ np.linalg.pinv(o @ Xbar @ o.T)
                 for al, o in zip(Al[1:], obs[1:])]
        Mj = Aj.transpose(0, 2, 1) @ Y @ Aj
        Ni = obs[0] @ X @ obs[0].T
        L = np.einsum("ij,jab,idc->adbc", Pb, Mj, Ni).reshape(n * sys.m, -1)
        rhs = np.einsum("ij,jab,ibc->ac", Pb, Mj, sys.A @ X @ obs[0].T)
        K1 = np.linalg.lstsq(L, -rhs.reshape(-1), rcond=None)[0]  # Y_j may be singular
        return [K1.reshape(n, sys.m)] + gains

    return matrix, target


def gain_condition_matrix(sys: SystemModel, loss: LossModel, gains) -> StabilityMatrix:
    """The stability operator of a gain set on symmetric blocks (side
    s*n(n+1)/2, see _operator) and its spectral radius."""
    gl = check_gains(sys, gains)
    H = _operator(sys, loss, len(gl))[0](gl)
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


def strict_margin_floor(blocks) -> float:
    """Strictness threshold STABILITY_TOL*(1 + max block norm) for margin
    tests."""
    top = max(linalg.sym_spectral_norm(b) for b in blocks)
    return STABILITY_TOL * (1.0 + top)


def build_certificate(sys: SystemModel, loss: LossModel, gains) -> Certificate:
    """Construct coupled-inequality witnesses from a stable gain set.

    With rho < 1, the operator series sum_k H^k applied to identity
    blocks converges; the witnesses' upper triangles, stacked, solve
    (I - H) y = (I, ..., I), and the exactly symmetric blocks filled from
    them satisfy X_j - LHS_j = I, so the verified margin is about 1.
    I - H may be ill-conditioned while rho < 1 (large gains), so the
    solve refuses nothing: the verified margin decides. Raises NotStable
    unless is_stable(rho).
    """
    sm = gain_condition_matrix(sys, loss, gains)
    if not is_stable(sm.rho):
        raise NotStable(
            f"spectral radius {sm.rho!r} is not below 1 - {STABILITY_TOL:g}")
    a, b = np.triu_indices(sys.n)
    eye = np.tile((a == b).astype(float), loss.s)
    y = np.linalg.solve(np.eye(eye.size) - sm.matrix, eye)
    X = np.empty((loss.s, sys.n, sys.n))
    X[:, a, b] = X[:, b, a] = y.reshape(loss.s, -1)
    blocks = list(X)
    margin = verify_certificate(sys, loss, gains, blocks)
    return Certificate(blocks=blocks, margin=margin)


# Perron-Kalman search limits: steps taken, and the shortest step
# fraction the halving line search tries
MAX_STEPS = 30
MIN_STEP = 1e-3


def _search(sys: SystemModel, loss: LossModel, refine: bool):
    """search_gains, also returning the norm minima and the seeded
    radius it computed on the way: (d, rho_seed, gains, rho).

    Each step takes the Perron pair of H: right blocks X and left blocks
    Y, both PSD. H maps PSD blocks to PSD blocks, so rho is an eigenvalue
    (Krein-Rutman) and the pair is the null pair of H - rho*I, read off
    one SVD. Its signs and scales do not matter: the target gains K'
    minimize <Y, H_K'(X)>, a convex quadratic bilinear in (Y, X) and
    separable by depth, whose minimizer is unchanged when X or Y is
    scaled by any nonzero number. For l >= 2 it is the Kalman gain
    K_l = -A^l Xbar O_l' (O_l Xbar O_l')^+, Xbar = sum_i Pi[i,0] X_i, and
    for depth 1 the n*m linear system
    sum_ij Pi[i,j] M_j K N_i = -sum_ij Pi[i,j] M_j A X_i O_1' with
    M_j = A^j' Y_j A^j, N_i = O_1 X_i O_1'. H_K'(X) <= rho X would give
    rho(H_K') <= rho: policy iteration on the second-moment operator of a
    Markov jump linear system (Costa, Fragoso & Marques 2005), the
    spectral-radius analogue of Kleinman's Riccati iteration. Steps
    K + t(K' - K), t = 1, 1/2, ... down to MIN_STEP, keep the first strict
    decrease of rho; the search stops when none decreases it, or after
    MAX_STEPS steps.
    """
    d, seed = closed_form_gains(sys)
    matrix, target = _operator(sys, loss, len(seed))
    gains, M = seed, matrix(seed)
    rho = rho_seed = linalg.spectral_radius(M)
    for _ in range(MAX_STEPS if refine else 0):
        goal, t = target(M, rho), 1.0
        while t >= MIN_STEP:
            trial = [K + t * (G - K) for K, G in zip(gains, goal)]
            Mt = matrix(trial)
            rt = linalg.spectral_radius(Mt)
            if rt < rho:
                break
            t /= 2
        else:
            break
        gains, M, rho = trial, Mt, rt
    return d, rho_seed, gains, rho


def search_gains(sys: SystemModel, loss: LossModel,
                 refine: bool = True) -> tuple[list[np.ndarray], float]:
    """Find a gain set with small spectral radius.

    Seeds at the closed-form minimum-norm gains; optionally refines them
    by Perron-Kalman descent (see _search), which accepts only steps that
    lower the radius, so the result never exceeds the seeded radius.
    """
    return _search(sys, loss, refine)[2:]


def similarity_transform(
    sys: SystemModel, gains, S
) -> tuple[SystemModel, list[np.ndarray]]:
    """Change state coordinates by a nonsingular S.

    Returns the transformed model (S^-1 A S, C S, S^-1 Q S^-T, R,
    S^-1 Sigma0 S^-T) and the gain set with every block premultiplied by
    S^-1. The gain-condition spectrum is invariant under this map; the
    norm condition is not. Raises Singular when the smallest singular
    value of S is at most 1e-12 times the largest, or when S^-1 is so
    large that the transformed model overflows.
    """
    Sm = linalg._as_matrix(S, "S")
    if Sm.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"S must be {sys.n}x{sys.n}, got {Sm.shape}")
    sv = np.linalg.svd(Sm, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise Singular(f"smallest singular value {sv[-1]:.3e} is at most "
                       f"1e-12 times the largest ({sv[0]:.3e})")
    # a tiny S overflows S^-1 and the model, which SystemModel refuses
    with np.errstate(over="ignore", invalid="ignore"):
        Si = np.linalg.solve(Sm, np.eye(sys.n))
        A2 = Si @ sys.A @ Sm
        C2 = sys.C @ Sm
        Q2 = Si @ sys.Q @ Si.T
        S02 = Si @ sys.Sigma0 @ Si.T
    try:
        sys2 = SystemModel(A=A2, C=C2, Q=(Q2 + Q2.T) / 2.0, R=sys.R.copy(),
                           Sigma0=(S02 + S02.T) / 2.0)
    except ValueError as e:
        raise Singular(f"S (smallest singular value {sv[-1]:.3e}) gives a "
                       f"transformed model that is not finite: {e}") from e
    gains2 = [Si @ linalg._as_matrix(K, "gain") for K in gains]
    return sys2, gains2


def compare_conditions(sys: SystemModel, loss: LossModel) -> ComparisonReport:
    """Evaluate both conditions on one instance.

    The norm condition uses the optimal d_l; the gain condition reports
    the closed-form-seeded radius and the refined radius, whose gains it
    returns. A (norm-stable, gain-unstable) outcome cannot occur: norm
    stability implies stability of the gain condition at the same seed
    gains, and refinement only lowers the radius.
    """
    d, rho_seed, gains, rho_ref = _search(sys, loss, refine=True)
    rho_norm = norm_condition_matrix(sys, loss, d).rho
    return ComparisonReport(
        d=d, rho_norm=rho_norm, norm_stable=is_stable(rho_norm),
        rho_seeded=rho_seed, rho_refined=rho_ref,
        gain_stable=is_stable(rho_ref), gains=gains)
