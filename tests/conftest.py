"""Shared fixtures: the worked plants and loss chains used across the suite.

The 2x2 upper-triangular plant with summed-output sensing is the main
workhorse (observability index 2). The rotation plant is the diverging
demo: losses always strike the same phase, so one coordinate is never
seen. The 3x3 Jordan plant has observability index 3 and exercises the
depth-2 gain blocks and idle-step weights.

`receptions` composes the reception update measurement_update k times.
`fixed_gain_update` is the depth-i update under an arbitrary fixed gain,
the upper bound the gain condition rests on: it dominates `receptions`
for every gain, with equality at the optimal one.
`dense_operator` and `sym_restriction` are the oracle for the package's
gain operator: the full s*n^2 Kronecker assembly on all n x n blocks,
and its restriction to symmetric blocks in upper-triangle coordinates.
"""

from pathlib import Path

import numpy as np
import pytest

from peakcov import (DimensionMismatch, LossModel, SystemModel, Unobservable,
                     measurement_update, observability_index)
from peakcov.linalg import _as_matrix
from peakcov.system import _obs_stack

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "demos" / "problems"


@pytest.fixture(scope="session")
def plant() -> SystemModel:
    return SystemModel(
        A=[[1.3, 0.3], [0.0, 1.2]],
        C=[[1.0, 1.0]],
        Q=np.eye(2),
        R=[[1.0]],
        Sigma0=np.eye(2),
    )


@pytest.fixture(scope="session")
def chain_burst2() -> LossModel:
    # bursts up to 2, idle state sticky enough to matter
    return LossModel(Pi=[[0.6, 0.2, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]])


@pytest.fixture(scope="session")
def chain_iid() -> LossModel:
    # identical rows: gap lengths are i.i.d. under the stationary law
    return LossModel(Pi=[[0.6, 0.2, 0.2]] * 3)


@pytest.fixture(scope="session")
def chain_s1() -> LossModel:
    return LossModel(Pi=[[0.6, 0.4], [0.8, 0.2]])


@pytest.fixture(scope="session")
def chain_s1_sticky() -> LossModel:
    # chain_s1 with the loss state made sticky (0.2 -> 0.5)
    return LossModel(Pi=[[0.6, 0.4], [0.5, 0.5]])


@pytest.fixture(scope="session")
def rotation_plant() -> SystemModel:
    return SystemModel(
        A=[[0.0, -1.3], [1.3, 0.0]],
        C=[[1.0, 0.0]],
        Q=np.eye(2),
        R=[[1.0]],
        Sigma0=np.eye(2),
    )


@pytest.fixture(scope="session")
def rotation_chain() -> LossModel:
    return LossModel(Pi=[[0.1, 0.9], [0.1, 0.9]])


@pytest.fixture(scope="session")
def jordan_plant() -> SystemModel:
    return SystemModel(
        A=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        C=[[1.0, 0.0, 0.0]],
        Q=np.eye(3),
        R=[[1.0]],
        Sigma0=np.eye(3),
    )


@pytest.fixture(scope="session")
def receptions():
    """k reception updates in a row, g^k(X) with g = measurement_update;
    k = 0 is the identity. Iterated from Q, this is the Riccati fixed
    point the tests compare against."""

    def run(sysm, X, k):
        X = np.asarray(X, dtype=float)
        for _ in range(k):
            X = measurement_update(sysm, X)
        return X

    return run


@pytest.fixture(scope="session")
def fixed_gain_update():
    """Depth-i covariance update with an arbitrary fixed gain.

    gain = [K_0, ..., K_{i-1}] is n x (i*m), K_t acting on the t-th of i
    outputs. Returns F X F' + sum_u (G_u Q G_u' + K_u R K_u') with
    F = A^i + gain @ [C; CA; ...; C A^{i-1}] and
    G_u = A^{i-1-u} + sum_{t>u} K_t C A^{t-1-u}, the path of process noise
    w_u into the error. For every gain this dominates the i-fold
    measurement_update (in the PSD order), with equality at the optimal
    gain.
    """

    def update(sysm, i, gain, X):
        if i < 1:
            raise ValueError("depth must be >= 1")
        K = _as_matrix(gain, "gain")
        X = np.asarray(X, dtype=float)
        n, m = sysm.n, sysm.m
        if K.shape != (n, i * m):
            raise DimensionMismatch(
                f"gain must be {n}x{i * m} at depth {i}, got {K.shape}")
        if X.shape != (n, n):
            raise DimensionMismatch(f"X must be {n}x{n}, got {X.shape}")
        Ap = [np.eye(n)]
        for _ in range(i):
            Ap.append(Ap[-1] @ sysm.A)
        Kt = [K[:, t * m:(t + 1) * m] for t in range(i)]
        F = Ap[i] + K @ _obs_stack(sysm.A, sysm.C, i)
        out = F @ X @ F.T
        for u in range(i):
            G = Ap[i - 1 - u].copy()
            for t in range(u + 1, i):
                G += Kt[t] @ sysm.C @ Ap[t - 1 - u]
            out += G @ sysm.Q @ G.T + Kt[u] @ sysm.R @ Kt[u].T
        return (out + out.T) / 2.0

    return update


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return PROBLEMS_DIR


@pytest.fixture(scope="session")
def random_problem():
    """Builder of seeded random problems: an n-state, m-output plant and a
    loss chain with bursts up to s, or None when (A, C) is unobservable.
    Every row of the chain is mixed with weight `idle` into state 0 (a
    loss-free gap), so a large `idle` makes the gain condition stable."""

    def build(rng, n, m, s, scale=1.0, idle=0.0):
        B, D, E = (rng.standard_normal((k, k)) for k in (n, m, n))
        sysm = SystemModel(A=scale * rng.standard_normal((n, n)) / np.sqrt(n),
                           C=rng.standard_normal((m, n)),
                           Q=B @ B.T + 0.1 * np.eye(n),
                           R=D @ D.T + 0.1 * np.eye(m), Sigma0=E @ E.T)
        try:
            observability_index(sysm)
        except Unobservable:
            return None
        Pi = (1 - idle) * rng.dirichlet(np.ones(s + 1), size=s + 1)
        Pi[:, 0] += idle
        return sysm, LossModel(Pi=Pi)

    return build


@pytest.fixture(scope="session")
def dense_operator():
    """Builder of the gain operator on all n x n blocks, side s*n^2, from
    its block formula: row block j, column block i is
    (A^j kron A^j)(Pi[i,j] F_1 kron F_1
                   + Pi[i,0] Pi[0,j] sum_l p00^(l-2) F_l kron F_l),
    with F_l = A^l + K_l O_l, acting on row-major vectorized blocks."""

    def build(sysm, loss, gains):
        A, P, n, s = sysm.A, loss.Pi, sysm.n, loss.s
        F = [np.linalg.matrix_power(A, l) + np.asarray(K) @ _obs_stack(A, sysm.C, l)
             for l, K in enumerate(gains, start=1)]
        idle = sum(P[0, 0] ** (l - 2) * np.kron(F[l - 1], F[l - 1])
                   for l in range(2, len(F) + 1))
        N = n * n
        H = np.zeros((s * N, s * N))
        for j in range(1, s + 1):
            Aj = np.linalg.matrix_power(A, j)
            for i in range(1, s + 1):
                H[(j - 1) * N:j * N, (i - 1) * N:i * N] = np.kron(Aj, Aj) @ (
                    P[i, j] * np.kron(F[0], F[0]) + P[i, 0] * P[0, j] * idle)
        return H

    return build


@pytest.fixture(scope="session")
def sym_restriction():
    """Restriction of an operator on s-tuples of n x n blocks (row-major,
    side s*n^2) that keeps blocks symmetric to the upper-triangle entries
    of each block: S H E, where E embeds the upper triangle (a, b) of a
    symmetric block at rows a*n+b and b*n+a, and S reads rows a*n+b."""

    def restrict(H, n):
        a, b = np.triu_indices(n)
        k = np.arange(a.size)
        E = np.zeros((n * n, a.size))
        E[a * n + b, k] = E[b * n + a, k] = 1.0
        S = np.zeros((a.size, n * n))
        S[k, a * n + b] = 1.0
        s = H.shape[0] // (n * n)
        return np.kron(np.eye(s), S) @ H @ np.kron(np.eye(s), E)

    return restrict


@pytest.fixture(scope="session")
def reference_gaps():
    """The gap chain of one seed, sampled apart from the package: uniform
    k of the seed's Philox stream picks gap k by searchsorted on the CDF
    of the previous gap's row (the stationary CDF for the first gap). The
    next state from every state is tabulated up front, so a million gaps
    take one Python loop."""

    def sample(loss, count, seed):
        u = np.random.Generator(np.random.Philox(key=int(seed))).random(count)
        cdfs = np.vstack([np.cumsum(loss.Pi, axis=1), np.cumsum(loss.pi_stat)])
        nxt = np.stack([np.searchsorted(c, u, side="right") for c in cdfs], 1)
        nxt = np.minimum(nxt, loss.s).tolist()
        out, state = [], loss.s + 1  # row s+1: the stationary CDF
        for row in nxt:
            state = row[state]
            out.append(state)
        return np.array(out, dtype=np.int64)

    return sample
