"""Monte Carlo simulation of the loss-gated filter and exact
enumeration of the first post-burst covariance.

mc_estimate draws one arrival stream per run from the loss model, starts
each one-step prediction covariance at Sigma0, and advances all runs
together by one Joseph step per slot: at the optimal gain on arrival
slots, at gain 0 (the open-loop map) on loss slots. Post-burst instants
are receptions whose preceding slot was a loss; the covariance entering
such an instant is a local maximum of the stream (it only shrinks on
receptions), and its norm sequence is the quantity whose boundedness is
being tested. The norms go into one (peak index, run) table, so each
index's statistics read one row of it in run order.

enumerate_first_peak integrates the first post-burst covariance exactly
over all arrival prefixes (leading run of zero-gaps, then the first
burst), giving an oracle the Monte Carlo estimate is checked against.
growth_trend fits a log-linear trend to the across-run mean of the peak
norms with a bootstrap-over-runs standard error; per-run statistics miss
mean growth carried by rare excursions, the across-run mean does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .markov import LossModel, _sample_arrivals
from .riccati import gain_update, measurement_update, optimal_gain, time_update
from .system import SystemModel

__all__ = [
    "McEstimate",
    "FirstPeakEnumeration",
    "TrendStat",
    "mc_estimate",
    "enumerate_first_peak",
    "growth_trend",
]

# enumerate_first_peak stops its geometric sum over leading receptions
# once the remaining mass is below _TRUNC_EPS, or after _MAX_LEAD terms
_TRUNC_EPS = 1e-12
_MAX_LEAD = 100000


@dataclass(frozen=True, eq=False)
class McEstimate:
    runs: int
    horizon: int
    base_seed: int
    means: np.ndarray    # mean of j-th peak norm over runs reaching it
    stderrs: np.ndarray  # sample standard error (ddof=1), nan when count < 2
    counts: np.ndarray   # number of runs with at least j+1 peaks
    peak_norms_by_run: list


@dataclass(frozen=True, eq=False)
class FirstPeakEnumeration:
    mean_matrix: np.ndarray
    mean_norm: float     # expectation of the norm, not norm of the mean
    covered_mass: float
    tail_mass: float
    max_span: int        # largest leading-reception count enumerated


@dataclass(frozen=True, eq=False)
class TrendStat:
    slope: float
    stderr: float
    z: float
    n_indices: int
    n_runs: int


def mc_estimate(
    sys: SystemModel,
    loss: LossModel,
    runs: int,
    horizon: int,
    base_seed: int,
) -> McEstimate:
    """Per-index statistics of post-burst norms over `runs` streams.

    Run i uses the Philox stream base_seed + i, so ensembles are
    bit-identical whatever the batch: run i's peak norms equal those of
    mc_estimate(..., runs=1, base_seed=base_seed + i), and each index's
    mean and stderr reduce the same values in run order.
    """
    if runs < 1 or horizon < 1:
        raise ValueError("runs and horizon must be >= 1")
    arr = _sample_arrivals(loss, horizon, range(base_seed, base_seed + runs))
    # receptions after a loss; a reception in the first slot has no
    # preceding slot and is never post-burst
    post = np.vstack([np.zeros_like(arr[:1]), arr[1:] & ~arr[:-1]])
    peaks = np.empty((post.sum(axis=0).max(), runs))  # peak j of run r
    count = np.zeros(runs, dtype=np.int64)
    P = np.repeat(sys.Sigma0[None], runs, axis=0)
    for bits, after_loss in zip(arr, post):
        hit = np.flatnonzero(after_loss)
        if hit.size:
            peaks[count[hit], hit] = linalg.sym_spectral_norm(P[hit])
            count[hit] += 1
        K = np.where(bits[:, None, None], optimal_gain(sys, P), 0.0)
        P = gain_update(sys, P, K)
    rows = [peaks[j, count > j] for j in range(len(peaks))]  # in run order
    return McEstimate(
        runs=runs,
        horizon=horizon,
        base_seed=base_seed,
        means=np.array([r.mean() for r in rows]),
        stderrs=np.array([r.std(ddof=1) / np.sqrt(r.size) if r.size > 1
                          else np.nan for r in rows]),
        counts=np.array([r.size for r in rows], dtype=np.int64),
        peak_norms_by_run=[peaks[:c, r] for r, c in enumerate(count)],
    )


def enumerate_first_peak(sys: SystemModel, loss: LossModel) -> FirstPeakEnumeration:
    """Exact expectation of the first post-burst covariance.

    Conditions on the arrival prefix: a-1 immediate receptions (each a
    zero gap) followed by the first burst of length b in 1..s. The
    leading-reception count a has a geometric tail in Pi[0,0]; it is
    truncated once the remaining mass drops below _TRUNC_EPS. Burst
    lengths need no truncation, the gap chain bounds them by s.

    Returns both the mean matrix and the mean of the norm; stability is
    about the latter, and the two differ (norm is convex).
    """
    mean_mat = np.zeros_like(sys.Sigma0)
    mean_norm = covered = 0.0
    # a = 1: the first gap is the burst, with weight pi_stat[b]; lead is
    # the mass of prefixes with at least a leading receptions
    a, lead = 1, float(loss.pi_stat[0])
    G, weights = sys.Sigma0, loss.pi_stat[1:]
    while True:
        X = G
        for w in weights.tolist():  # burst lengths b = 1..s
            X = time_update(sys, X)
            if w != 0.0:
                mean_mat = mean_mat + w * X
                mean_norm += w * linalg.sym_spectral_norm(X)
                covered += w
        if lead < _TRUNC_EPS or a >= _MAX_LEAD:
            break
        a += 1
        G = measurement_update(sys, G)
        weights = lead * loss.Pi[0, 1:]
        lead *= float(loss.Pi[0, 0])
    return FirstPeakEnumeration(
        mean_matrix=mean_mat,
        mean_norm=mean_norm,
        covered_mass=covered,
        tail_mass=lead,
        max_span=a,
    )


def growth_trend(
    peak_lists,
    burn: int,
    max_index: int | None = None,
    boots: int = 2000,
    seed: int = 0,
) -> TrendStat:
    """Trend of the across-run mean peak norm on a log scale.

    Fits log(mean_r peak[r, j]) against j by least squares over indices
    burn..J-1, where J is capped by max_index and by the shortest run;
    burn has no default, as the ramp up from Sigma0 reads as growth.
    The abscissae j are fixed, so the slope is the linear functional
    log(m) @ c with c = (j - mean j) / sum (j - mean j)^2, formed once.
    The slope's standard error comes from a bootstrap over runs (one
    draw of run indices per resample), which is robust to the serial
    correlation along j that a residual-based error estimate ignores.
    z = slope / stderr; large positive z is evidence the mean grows
    without bound.
    """
    per_run = [np.asarray(p, dtype=float) for p in peak_lists]
    if not per_run:
        raise ValueError("need at least one run")
    depth = min(p.size for p in per_run)
    if max_index is not None:
        depth = min(depth, max_index)
    if depth - burn < 3:
        raise ValueError("need at least 3 usable peak indices after burn-in")
    Y = np.stack([p[burn:depth] for p in per_run])  # runs x indices
    j = np.arange(burn, depth, dtype=float)
    c = (j - j.mean()) / ((j - j.mean()) ** 2).sum()
    slope = float(np.log(Y.mean(axis=0)) @ c)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = Y.shape[0]
    bs = np.array([np.log(Y[rng.integers(0, n, size=n)].mean(axis=0)) @ c
                   for _ in range(boots)])
    stderr = float(bs.std(ddof=1))
    z = slope / stderr if stderr > 0 else np.inf * np.sign(slope)
    return TrendStat(
        slope=slope,
        stderr=stderr,
        z=float(z),
        n_indices=int(depth - burn),
        n_runs=n,
    )
