"""Monte Carlo simulation of the loss-gated filter and exact
enumeration of the first post-burst covariance.

mc_estimate draws one arrival stream per run from the loss model,
starts each one-step prediction covariance at Sigma0, and advances all
runs together with the reception map on arrival slots and the
open-loop map on loss slots. Post-burst instants are receptions whose
preceding slot was a loss; the covariance entering such an instant is
a local maximum of the stream (it only shrinks on receptions), and its
norm sequence is the quantity whose boundedness is being tested.

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
from .riccati import measurement_update, time_update
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
    burn: int


def _post_bursts(sys: SystemModel, arr: np.ndarray):
    """Propagate one covariance per column of the slot-major arrival bits
    `arr` as one (runs, n, n) stack from Sigma0: each slot computes both
    updates and keeps the one each run's bit selects. Yields (runs, P) at
    each slot with post-burst receptions: the runs receiving there after
    a loss and their covariances entering the slot. A reception in the
    first slot is never post-burst (there is no preceding slot)."""
    P = np.repeat(sys.Sigma0[None], arr.shape[1], axis=0)
    for k, bits in enumerate(arr):
        Pn = measurement_update(sys, P)
        hit = np.flatnonzero(bits & ~arr[k - 1]) if k else []
        if len(hit):
            yield hit, P[hit]
        P = np.where(bits[:, None, None], Pn, time_update(sys, P))


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
    per_run = (arr[1:] & ~arr[:-1]).sum(axis=0)
    ends = np.cumsum(per_run)
    flat = np.empty(int(ends[-1]))
    fill = ends - per_run  # next free slot of each run in `flat`
    for hit, P in _post_bursts(sys, arr):
        flat[fill[hit]] = linalg.sym_spectral_norm(P)
        fill[hit] += 1
    # peak index of each norm; a stable sort keeps run order within one
    idx = np.arange(flat.size) - np.repeat(ends - per_run, per_run)
    counts = np.bincount(idx).astype(np.int64)
    ordered = flat[np.argsort(idx, kind="stable")]
    groups = np.split(ordered, np.cumsum(counts)[:-1]) if flat.size else []
    means = np.array([g.mean() for g in groups])
    stderrs = np.array([g.std(ddof=1) / np.sqrt(g.size) if g.size > 1
                        else np.nan for g in groups])
    return McEstimate(
        runs=runs,
        horizon=horizon,
        base_seed=base_seed,
        means=means,
        stderrs=stderrs,
        counts=counts,
        peak_norms_by_run=np.split(flat, ends[:-1]),
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
    s = loss.s
    pi = loss.pi_stat
    P0 = loss.Pi[0, :]
    p00 = float(P0[0])

    mean_mat = np.zeros_like(sys.Sigma0)
    mean_norm = 0.0
    covered = 0.0

    def add_bursts(base: np.ndarray, weight_of_b) -> None:
        nonlocal mean_mat, mean_norm, covered
        X = base
        for b in range(1, s + 1):
            X = time_update(sys, X)
            w = weight_of_b(b)
            if w == 0.0:
                continue
            mean_mat = mean_mat + w * X
            mean_norm += w * linalg.sym_spectral_norm(X)
            covered += w

    # first gap itself is the burst
    add_bursts(sys.Sigma0, lambda b: float(pi[b]))

    a = 1
    lead_mass = float(pi[0])  # mass of prefixes with >= a-1 leading zero gaps
    if lead_mass > 0.0:
        gX = sys.Sigma0
        while lead_mass >= _TRUNC_EPS and a < _MAX_LEAD:
            a += 1
            gX = measurement_update(sys, gX)
            w_lead = lead_mass
            add_bursts(gX, lambda b: w_lead * float(P0[b]))
            lead_mass *= p00
    tail = lead_mass
    return FirstPeakEnumeration(
        mean_matrix=mean_mat,
        mean_norm=mean_norm,
        covered_mass=covered,
        tail_mass=tail,
        max_span=a,
    )


def growth_trend(
    peak_lists,
    burn: int = 0,
    max_index: int | None = None,
    boots: int = 2000,
    seed: int = 0,
) -> TrendStat:
    """Trend of the across-run mean peak norm on a log scale.

    Fits log(mean_r peak[r, j]) against j by least squares over indices
    burn..J-1, where J is capped by max_index and by the shortest run.
    The slope's standard error comes from a bootstrap over runs, which
    is robust to the serial correlation along j that a residual-based
    error estimate ignores. z = slope / stderr; large positive z is
    evidence the mean grows without bound.
    """
    per_run = [np.asarray(p, dtype=float) for p in peak_lists]
    if not per_run:
        raise ValueError("need at least one run")
    depth = min(p.size for p in per_run)
    if max_index is not None:
        depth = min(depth, max_index)
    if depth - burn < 3:
        raise ValueError("need at least 3 usable peak indices after burn-in")
    Y = np.stack([p[:depth] for p in per_run])  # runs x indices
    j = np.arange(burn, depth, dtype=float)

    def slope_of(sample: np.ndarray) -> float:
        m = sample.mean(axis=0)[burn:depth]
        return float(np.polyfit(j, np.log(m), 1)[0])

    slope = slope_of(Y)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = Y.shape[0]
    bs = np.empty(boots)
    for t in range(boots):
        bs[t] = slope_of(Y[rng.integers(0, n, size=n)])
    stderr = float(bs.std(ddof=1))
    z = slope / stderr if stderr > 0 else np.inf * np.sign(slope)
    return TrendStat(
        slope=slope,
        stderr=stderr,
        z=float(z),
        n_indices=int(depth - burn),
        n_runs=n,
        burn=burn,
    )
