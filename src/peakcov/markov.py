"""Bounded Markovian packet-loss process.

The number of consecutive losses between receptions is a Markov chain on
{0, ..., s}: gap value j means j losses followed by one reception, so no
loss burst ever exceeds s. The chain has transition matrix Pi (row i to
column j) and starts from its stationary law.

A "sojourn path" ((a_1, b_1), ..., (a_l, b_l)) describes the arrival
stream seen burst-by-burst: a_j spans the successes leading into burst j
(a_j >= 1) and b_j in {1, ..., s} is that burst's length. sojourn_pmf
gives the exact joint probability of such a prefix.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotErgodic

__all__ = [
    "LossModel",
    "stationary",
    "submatrices",
    "sojourn_pmf",
    "truncation_span",
    "sample_gaps",
    "gaps_to_arrivals",
    "arrivals_to_gaps",
    "PeriodicChainWarning",
]


class PeriodicChainWarning(UserWarning):
    """The chain may be periodic (some (s+1)^2-step transition is zero)."""


def stationary(Pi) -> np.ndarray:
    """Unique probability vector fixed by a row-stochastic matrix.

    Raises NotErgodic when the eigenvalue-1 eigenspace of Pi.T is not
    one-dimensional.
    """
    P = linalg._as_matrix(Pi, "Pi")
    w, v = np.linalg.eig(P.T)
    ones = np.abs(w - 1.0) < 1e-9
    if int(ones.sum()) != 1:
        raise NotErgodic(
            f"eigenvalue-1 multiplicity is {int(ones.sum())}, expected 1"
        )
    vec = np.real(v[:, ones][:, 0])
    vec = np.clip(vec, 0.0, None) if vec.sum() >= 0 else np.clip(-vec, 0.0, None)
    total = vec.sum()
    if total <= 0:
        raise NotErgodic("stationary eigenvector is not sign-definite")
    pi = vec / total
    if np.linalg.norm(pi @ P - pi) > 1e-10:
        raise NotErgodic("stationary residual exceeds 1e-10")
    return pi


@dataclass(frozen=True, eq=False)
class LossModel:
    """Validated loss chain: transition matrix over {0, ..., s} plus its
    stationary distribution. s = (matrix dimension) - 1."""

    Pi: np.ndarray

    def __post_init__(self):
        P = linalg._as_matrix(self.Pi, "Pi")
        if P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ValueError(f"Pi must be square with dimension >= 2, got {P.shape}")
        if np.any(P < -1e-15):
            i, j = np.unravel_index(np.argmin(P), P.shape)
            raise ValueError(f"Pi[{i},{j}] = {P[i, j]:.3e} is negative")
        rows = P.sum(axis=1)
        bad = np.argmax(np.abs(rows - 1.0))
        if abs(rows[bad] - 1.0) > 1e-12:
            raise ValueError(
                f"Pi row {bad} sums to {float(rows[bad]):.16g}, expected 1 "
                "(rows must be stochastic)"
            )
        pi = stationary(P)  # raises NotErgodic when not unique
        if np.any(np.linalg.matrix_power(P, P.shape[0] ** 2) == 0.0):
            warnings.warn(
                "some multi-step transition probabilities are exactly zero; "
                "the chain may be periodic",
                PeriodicChainWarning,
                stacklevel=2,
            )
        P.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "Pi", P)
        object.__setattr__(self, "pi_stat", pi)

    @property
    def s(self) -> int:
        """Maximum number of consecutive losses."""
        return self.Pi.shape[0] - 1


def submatrices(model: LossModel) -> tuple[np.ndarray, np.ndarray]:
    """Burst-indexed blocks of the transition matrix.

    First: Pi with row 0 and column 0 deleted (burst-to-burst moves that
    skip the idle state). Second: the rank-one outer product with (i, j)
    entry Pi[i,0] * Pi[0,j] (burst-to-burst moves through one idle step).
    Both are s x s, indexed by burst lengths 1..s.
    """
    P = model.Pi
    return P[1:, 1:].copy(), np.outer(P[1:, 0], P[0, 1:])


def sojourn_pmf(model: LossModel, path) -> float:
    """Exact probability of a sojourn-path prefix.

    path is a sequence of (a, b) pairs, a >= 1 and 1 <= b <= s. The
    first pair uses the stationary initial law:

        P(a_1, b_1) = pi_stat[b_1]                      if a_1 = 1
                      pi_stat[0] p00^(a_1-2) Pi[0,b_1]  if a_1 >= 2

    and each later pair multiplies by the transition mass from the
    previous burst state, Pi[b_l, b_next] when a_next = 1, else
    Pi[b_l, 0] p00^(a_next-2) Pi[0, b_next].
    """
    pairs = [(int(a), int(b)) for a, b in path]
    if not pairs:
        raise ValueError("path must contain at least one (a, b) pair")
    P = model.Pi
    s = model.s
    for a, b in pairs:
        if a < 1:
            raise ValueError(f"success-run length a = {a} must be >= 1")
        if not 1 <= b <= s:
            raise ValueError(f"burst length b = {b} outside 1..{s}")
    p00 = P[0, 0]
    prob, row = 1.0, model.pi_stat  # the first pair leaves the stationary law
    for a, b in pairs:
        prob *= row[b] if a == 1 else row[0] * p00 ** (a - 2) * P[0, b]
        row = P[b]
    return float(prob)


def truncation_span(model: LossModel, eps: float = 1e-12, cap: int = 10_000) -> int:
    """Smallest a_max with residual mass pi_stat[0] * p00^(a_max-1) < eps,
    capped. Enumerations over a_1 <= a_max neglect exactly that tail."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    pi0 = float(model.pi_stat[0])
    p00 = float(model.Pi[0, 0])
    a = 1
    while pi0 * p00 ** (a - 1) >= eps and a < cap:
        a += 1
    return a


def _draw(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw from each row of `cdf` at uniforms `u`: the count
    of entries <= u, i.e. searchsorted(side="right"), clipped to the last
    state against cumulative rounding at 1.0."""
    return np.minimum((cdf <= u[..., None]).sum(-1), cdf.shape[-1] - 1)


def _cdf_rows(model: LossModel) -> np.ndarray:
    # row s+1, the stationary CDF, is the "state" the first gap comes from
    return np.vstack([np.cumsum(model.Pi, axis=1), np.cumsum(model.pi_stat)])


def sample_gaps(model: LossModel, count: int, seed: int) -> np.ndarray:
    """Sample a gap chain of the given length, deterministically per seed.

    First gap from the stationary law, then row-wise transitions. The
    generator is counter-based (Philox), so distinct seeds give
    independent streams without shared state.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    u = np.random.Generator(np.random.Philox(key=int(seed))).random(count)
    nxt = _draw(_cdf_rows(model), u[:, None])  # next state from each state
    out = np.empty(count, dtype=np.int64)
    state = model.s + 1
    for k in range(count):
        state = out[k] = nxt[k, state]
    return out


_DRAW_BLOCK = 64  # uniforms drawn per stream at a time; results ignore it


def _sample_arrivals(model: LossModel, horizon: int, seeds) -> np.ndarray:
    """(horizon, runs) arrival bits; column r is gaps_to_arrivals(
    sample_gaps(model, horizon, seeds[r]))[:horizon]. The chains step
    together, each on its own stream, until all cover the horizon."""
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    cdf, cols = _cdf_rows(model), np.arange(len(gens))
    # chains past the horizon park at it, receiving in the s+1 spare rows
    arr = np.zeros((horizon + model.s + 1, len(gens)), dtype=bool)
    start = np.zeros(len(gens), dtype=np.int64)  # first slot of next gap
    state = np.full(len(gens), model.s + 1)
    u = np.empty((len(gens), _DRAW_BLOCK))
    for step in itertools.count():
        if start.min() >= horizon:
            return arr[:horizon]
        if step % u.shape[1] == 0:
            for g, row in zip(gens, u):
                g.random(out=row)
        state = _draw(cdf[state], u[:, step % u.shape[1]])
        arr[start + state, cols] = True
        start = np.minimum(start + state + 1, horizon)


def gaps_to_arrivals(gaps) -> np.ndarray:
    """Expand gap values into the 0/1 arrival stream: gap j emits j
    zeros (losses) followed by a single one (the reception)."""
    g = np.asarray(gaps, dtype=np.int64)
    if g.ndim != 1:
        raise ValueError("gaps must be 1-dimensional")
    if g.size == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(g < 0):
        raise ValueError("gap values must be nonnegative")
    ends = np.cumsum(g + 1)
    out = np.zeros(int(ends[-1]), dtype=np.int64)
    out[ends - 1] = 1
    return out


def arrivals_to_gaps(arrivals) -> np.ndarray:
    """Recover the gap sequence from a 0/1 stream. Trailing losses after
    the final reception belong to no completed gap and are dropped."""
    a = np.asarray(arrivals, dtype=np.int64)
    if a.ndim != 1:
        raise ValueError("arrivals must be 1-dimensional")
    if np.any((a != 0) & (a != 1)):
        raise ValueError("arrival stream must be 0/1 valued")
    ones = np.flatnonzero(a == 1)
    return np.diff(ones, prepend=-1) - 1
