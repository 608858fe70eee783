"""Bounded Markovian packet-loss process.

The number of consecutive losses between receptions is a Markov chain on
{0, ..., s}: gap value j means j losses followed by one reception, so no
loss burst ever exceeds s. The chain has transition matrix Pi (row i to
column j) and starts from its stationary law.

A "sojourn path" ((a_1, b_1), ..., (a_l, b_l)) describes the arrival
stream seen burst-by-burst: a_j spans the successes leading into burst j
(a_j >= 1) and b_j in {1, ..., s} is that burst's length. sojourn_pmf
gives the exact joint probability of such a prefix. _sample_arrivals
draws the simulator's arrival streams, each from its own Philox key.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotErgodic

__all__ = ["LossModel", "stationary", "submatrices", "sojourn_pmf",
           "PeriodicChainWarning"]


class PeriodicChainWarning(UserWarning):
    """The chain may be periodic (some (s+1)^2-step transition within its
    closed class is zero)."""


def stationary(Pi) -> np.ndarray:
    """Unique probability vector fixed by a row-stochastic matrix.

    Raises NotErgodic unless the transition graph has exactly one closed
    communicating class, i.e. some state is reachable from every state.
    The law comes from the off-diagonal entries alone by GTH elimination
    (Grassmann, Taksar & Heyman, 1985): no subtraction, so a chain whose
    states are nearly absorbing keeps full relative accuracy.
    """
    P = linalg._as_matrix(Pi, "Pi")
    n = P.shape[0]
    reach = (P > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # transitive closure by squaring
        reach = reach @ reach
    roots = np.flatnonzero(reach.all(axis=0))
    if roots.size == 0:
        raise NotErgodic("the chain has more than one closed class")
    # put a state of the closed class first: every censored chain reaches it
    order = np.r_[roots[0], np.delete(np.arange(n), roots[0])]
    A = P[np.ix_(order, order)]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    pi = np.empty(n)
    pi[order] = x / x.sum()
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
        # the closed class: GTH gives every transient state an exact 0
        closed = np.ix_(pi > 0, pi > 0)
        if np.any(np.linalg.matrix_power(P, P.shape[0] ** 2)[closed] == 0.0):
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


_DRAW_BLOCK = 64  # uniforms drawn per stream at a time; results ignore it


def _sample_arrivals(model: LossModel, horizon: int, seeds) -> np.ndarray:
    """(horizon, runs) arrival bits, one column per seed.

    Column r steps the gap chain on stream k = seeds[r]: uniform i picks
    gap i by inverse CDF, the first from the stationary law and each
    later one from the row of the gap before, and gap value g writes g
    losses then one reception. Uniform i is (w >> 11) * 2**-53 for w word
    i mod 4 of Philox4x64-10 at counter i//4 + 1, key (k mod 2**64,
    k >> 64): the stream of Generator(Philox(key=k)).random(). It depends
    on (k, i) alone, so one Philox re-keyed per block of draws serves
    every column, and a column extends, never reshuffles, as the horizon
    grows.
    """
    keys = [[int(k) % 2**64, int(k) >> 64] for k in seeds]
    bits = np.random.Philox(0)  # its key and counter are set per block
    philox, gen = bits.state, np.random.Generator(bits)
    # row s+1, the stationary CDF, is the "state" the first gap comes from
    cdf = np.vstack([np.cumsum(model.Pi, axis=1), np.cumsum(model.pi_stat)])
    cols = np.arange(len(keys))
    # chains past the horizon park at it, receiving in the s+1 spare rows
    arr = np.zeros((horizon + model.s + 1, len(keys)), dtype=bool)
    start = np.zeros(len(keys), dtype=np.int64)  # first slot of next gap
    state = np.full(len(keys), model.s + 1)
    u = np.empty((len(keys), min(_DRAW_BLOCK, horizon)))
    for step in itertools.count():
        if start.min() >= horizon:
            return arr[:horizon]
        if step % u.shape[1] == 0:  # uniforms step, step+1, ... per key
            for key, row in zip(keys, u):
                philox["state"] = {"counter": [step // 4, 0, 0, 0], "key": key}
                bits.state = philox
                if step % 4:
                    bits.random_raw(step % 4)
                gen.random(out=row)
        # count of CDF entries <= u, clipped against rounding at 1.0
        state = np.minimum((cdf[state] <= u[:, step % u.shape[1], None])
                           .sum(1), model.s)
        arr[start + state, cols] = True
        start = np.minimum(start + state + 1, horizon)
