"""Monte Carlo runs, the exact first-peak enumeration, trend statistics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peakcov import (
    CovarianceNotPSD,
    LossModel,
    SystemModel,
    enumerate_first_peak,
    growth_trend,
    load_problem,
    mc_estimate,
    measurement_update,
    time_update,
)
from peakcov import markov
from peakcov.linalg import sym_spectral_norm

DEMOS = ["identical_rows", "resonant_rotation", "single_loss",
         "single_loss_sticky", "stable_burst2"]


def _expand(gaps):
    # gap j -> j losses (0) then one reception (1)
    return np.concatenate([[0] * int(g) + [1] for g in gaps]).astype(bool)


def _reference_run(sys, loss, horizon, seed, reference_gaps):
    """One run, slot by slot on 2-d covariances: (arrivals, peak norms)."""
    arr = _expand(reference_gaps(loss, horizon, seed))[:horizon]
    P = sys.Sigma0.copy()
    peaks = []
    for k in range(horizon):
        if arr[k]:
            if k >= 1 and not arr[k - 1]:
                peaks.append(sym_spectral_norm(P))
            P = measurement_update(sys, P)
        else:
            P = time_update(sys, P)
    return arr, np.asarray(peaks, dtype=float)


def _assert_matches_reference(sys, loss, runs, horizon, base_seed,
                              reference_gaps):
    """The sampler's arrival bits and mc_estimate equal the per-run loop
    bit for bit, with statistics aggregated index by index in run order."""
    seeds = range(base_seed, base_seed + runs)
    bits = markov._sample_arrivals(loss, horizon, seeds)
    est = mc_estimate(sys, loss, runs=runs, horizon=horizon,
                      base_seed=base_seed)
    ref = [_reference_run(sys, loss, horizon, seed, reference_gaps)
           for seed in seeds]
    assert bits.shape == (horizon, runs)
    assert len(est.peak_norms_by_run) == runs
    for col, got, (arr, peaks) in zip(bits.T, est.peak_norms_by_run, ref):
        assert col.tobytes() == arr.tobytes()
        assert got.tobytes() == peaks.tobytes()
        # one peak per loss -> reception transition
        assert got.size == np.count_nonzero(arr[1:] & ~arr[:-1])
    depth = max(r[1].size for r in ref)
    means = np.full(depth, np.nan)
    stderrs = np.full(depth, np.nan)
    counts = np.zeros(depth, dtype=np.int64)
    for j in range(depth):
        vals = np.array([r[1][j] for r in ref if r[1].size > j])
        counts[j] = vals.size
        means[j] = vals.mean()
        if vals.size > 1:
            stderrs[j] = vals.std(ddof=1) / np.sqrt(vals.size)
    assert est.means.tobytes() == means.tobytes()
    assert est.stderrs.tobytes() == stderrs.tobytes()
    assert est.counts.tobytes() == counts.tobytes()


def _peaks(sys, loss, horizon, seed):
    # the peak norms of one run
    return mc_estimate(sys, loss, runs=1, horizon=horizon,
                       base_seed=seed).peak_norms_by_run[0]


def _find_seed(loss, gaps):
    # smallest seed whose arrival stream starts with the given gaps
    prefix = _expand(gaps)
    bits = markov._sample_arrivals(loss, prefix.size, range(2000))
    hits = np.flatnonzero((bits == prefix[:, None]).all(axis=0))
    assert hits.size, f"no seed found for gap prefix {gaps}"
    return int(hits[0])


def test_run_matches_arrival_stream(plant, chain_burst2):
    peaks = _peaks(plant, chain_burst2, 400, 5)
    arr = markov._sample_arrivals(chain_burst2, 400, [5])[:, 0]
    # one peak per reception after a loss, none at the first slot
    assert peaks.size == np.count_nonzero(arr[1:] & ~arr[:-1])
    assert np.all(np.isfinite(peaks)) and np.all(peaks > 0)
    # the burst preceding each peak never exceeds s
    for t in np.flatnonzero(arr[1:] & ~arr[:-1]):
        k = t  # last loss slot, 0-based
        burst = 0
        while k >= 0 and not arr[k]:
            burst += 1
            k -= 1
        assert 1 <= burst <= chain_burst2.s


def test_run_first_peak_conventions(plant, chain_burst2):
    s0 = plant.Sigma0

    # chain opens with a single loss: peak is the open-loop map once
    seed = _find_seed(chain_burst2, [1])
    assert _peaks(plant, chain_burst2, 8, seed)[0] == pytest.approx(
        sym_spectral_norm(time_update(plant, s0)), abs=1e-12)

    # double loss first: two open-loop maps
    seed = _find_seed(chain_burst2, [2])
    assert _peaks(plant, chain_burst2, 8, seed)[0] == pytest.approx(
        sym_spectral_norm(time_update(plant, time_update(plant, s0))),
        abs=1e-12)

    # reception, loss, reception: one filtered step feeds the open loop
    seed = _find_seed(chain_burst2, [0, 1])
    peak = time_update(plant, measurement_update(plant, s0))
    assert _peaks(plant, chain_burst2, 8, seed)[0] == pytest.approx(
        sym_spectral_norm(peak), abs=1e-12)


def test_run_determinism_and_validation(plant, chain_burst2):
    a = _peaks(plant, chain_burst2, 300, 12)
    b = _peaks(plant, chain_burst2, 300, 12)
    assert a.size and a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        mc_estimate(plant, chain_burst2, runs=1, horizon=0, base_seed=1)


def test_mc_single_run_reduction(plant, chain_burst2, reference_gaps):
    est = mc_estimate(plant, chain_burst2, runs=1, horizon=200, base_seed=9)
    _, peaks = _reference_run(plant, chain_burst2, 200, 9, reference_gaps)
    np.testing.assert_array_equal(est.means, peaks)
    assert np.all(est.counts == 1)
    assert np.all(np.isnan(est.stderrs))


@pytest.mark.parametrize("name", DEMOS)
def test_mc_matches_reference_on_demos(problems_dir, name, reference_gaps):
    sysm, loss, _ = load_problem(str(problems_dir / f"{name}.json"))
    _assert_matches_reference(sysm, loss, runs=12, horizon=150, base_seed=4,
                              reference_gaps=reference_gaps)


@pytest.mark.parametrize("runs", [1, 7, 40])
@pytest.mark.parametrize("horizon", [1, 2, 300])
def test_mc_matches_reference_sizes(plant, chain_burst2, runs, horizon,
                                    reference_gaps):
    _assert_matches_reference(plant, chain_burst2, runs, horizon,
                              1000 * runs + horizon, reference_gaps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       m=st.integers(1, 2), s=st.integers(1, 3), runs=st.integers(1, 6),
       horizon=st.integers(1, 40), base_seed=st.integers(0, 2**40))
def test_mc_matches_reference_random_plants(random_problem, reference_gaps,
                                            seed, n, m, s, runs, horizon,
                                            base_seed):
    problem = random_problem(np.random.default_rng(seed), n, m, s)
    assume(problem is not None)
    sysm, loss = problem
    # the sampler alone, over more slots than the simulated horizon
    bits = markov._sample_arrivals(loss, 50, [base_seed])[:, 0]
    ref = _expand(reference_gaps(loss, 50, base_seed))[:50]
    assert bits.tobytes() == ref.tobytes()
    _assert_matches_reference(sysm, loss, runs, horizon, base_seed,
                              reference_gaps)


@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 129])
def test_sampler_matches_reference_on_wide_keys(chain_burst2, chain_s1,
                                                reference_gaps, horizon):
    # keys across the 2**64 boundary and the largest key: the high word of
    # the 128-bit Philox key is exercised; horizons straddle _DRAW_BLOCK
    seeds = [2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, 2**128 - 1]
    for loss in (chain_burst2, chain_s1):
        bits = markov._sample_arrivals(loss, horizon, seeds)
        for col, seed in zip(bits.T, seeds):
            ref = _expand(reference_gaps(loss, horizon, seed))[:horizon]
            assert col.tobytes() == ref.tobytes(), seed


def test_mc_invariant_under_draw_block(plant, chain_burst2, monkeypatch):
    kw = dict(runs=12, horizon=250, base_seed=321)
    outs = []
    for width in (1, 7, markov._DRAW_BLOCK):
        monkeypatch.setattr(markov, "_DRAW_BLOCK", width)
        est = mc_estimate(plant, chain_burst2, **kw)
        outs.append([est.means.tobytes(), est.stderrs.tobytes(),
                     est.counts.tobytes()]
                    + [p.tobytes() for p in est.peak_norms_by_run])
    assert outs[0] == outs[1] == outs[2]
    with pytest.raises(ValueError):
        mc_estimate(plant, chain_burst2, runs=0, horizon=10, base_seed=0)
    with pytest.raises(ValueError):
        mc_estimate(plant, chain_burst2, runs=2, horizon=0, base_seed=0)


def test_mc_stderr_clt_scaling(plant, chain_burst2):
    small = mc_estimate(plant, chain_burst2, runs=400, horizon=60,
                        base_seed=100)
    big = mc_estimate(plant, chain_burst2, runs=800, horizon=60,
                      base_seed=100)
    ratio = small.stderrs[0] / big.stderrs[0]
    assert np.sqrt(2) * 0.8 <= ratio <= np.sqrt(2) * 1.2


def test_mc_matches_enumeration(plant, chain_burst2):
    enu = enumerate_first_peak(plant, chain_burst2)
    est = mc_estimate(plant, chain_burst2, runs=1500, horizon=96,
                      base_seed=555)
    assert abs(est.means[0] - enu.mean_norm) <= 4 * est.stderrs[0]


def test_enumeration_mass_accounting(plant, chain_burst2):
    enu = enumerate_first_peak(plant, chain_burst2)
    assert abs(enu.covered_mass + enu.tail_mass - 1.0) <= 1e-12
    assert enu.tail_mass < 1e-12
    assert enu.max_span >= 40  # geometric tail in 0.6 takes ~55 terms
    # the norm mean exceeds the norm of the mean matrix (convexity)
    assert enu.mean_norm >= sym_spectral_norm(enu.mean_matrix) - 1e-12


def test_enumeration_two_term_degenerate_chain(plant):
    # idle state never repeats: only "burst first" and "one reception
    # then burst" prefixes carry mass
    lm = LossModel(Pi=[[0.0, 1.0], [0.8, 0.2]])
    np.testing.assert_allclose(lm.pi_stat, [4 / 9, 5 / 9], atol=1e-12)
    enu = enumerate_first_peak(plant, lm)
    s0 = plant.Sigma0
    expect = (5 / 9) * time_update(plant, s0) + (4 / 9) * time_update(
        plant, measurement_update(plant, s0))
    np.testing.assert_allclose(enu.mean_matrix, expect, atol=1e-12)
    assert enu.covered_mass == pytest.approx(1.0, abs=1e-15)
    assert enu.tail_mass == 0.0
    assert enu.max_span == 2


def test_enumeration_validation(plant):
    # a non-PSD prior covariance Sigma0 cannot be built, so neither the
    # enumeration nor the simulator can be handed one
    with pytest.raises(CovarianceNotPSD):
        SystemModel(A=plant.A, C=plant.C, Q=plant.Q, R=plant.R,
                    Sigma0=[[1.0, 0.0], [0.0, -1.0]])


def test_burst_length_histogram(chain_burst2, reference_gaps):
    gaps = reference_gaps(chain_burst2, 300_000, seed=78)
    bursts = gaps[gaps >= 1]
    assert bursts.size >= 90_000
    cond = chain_burst2.pi_stat[1:] / chain_burst2.pi_stat[1:].sum()
    for b in (1, 2):
        p = cond[b - 1]
        emp = np.mean(bursts == b)
        sig = np.sqrt(p * (1 - p) / bursts.size)
        assert abs(emp - p) <= 4 * sig


def test_growth_trend_detects_planted_slope():
    rng = np.random.default_rng(61)
    j = np.arange(40)
    runs = [np.exp(0.3 * j) * rng.uniform(0.8, 1.25, size=40)
            for _ in range(12)]
    tr = growth_trend(runs, burn=2, boots=400, seed=1)
    assert tr.slope == pytest.approx(0.3, abs=0.05)
    assert tr.z > 3.0
    assert tr.n_indices == 38
    assert tr.n_runs == 12


def test_growth_trend_matches_polyfit(plant, chain_burst2, rotation_plant,
                                     rotation_chain):
    # The slope and the bootstrap stderr equal a per-sample np.polyfit
    # with the same run draws, to rounding. The tolerance is relative to
    # max|log m| / span(j), the largest slope the data can carry, so that
    # near-zero slopes (the stable ensemble's) are covered too.
    tol = 1e-12
    rng = np.random.default_rng(61)
    j = np.arange(40)
    planted = [np.exp(0.3 * j) * rng.uniform(0.8, 1.25, size=40)
               for _ in range(12)]
    # criterion 10's two ensembles, with its burn-in and index cap
    stable = mc_estimate(plant, chain_burst2, runs=24, horizon=10_000,
                         base_seed=40_000).peak_norms_by_run
    divergent = mc_estimate(rotation_plant, rotation_chain, runs=48,
                            horizon=64, base_seed=90_000).peak_norms_by_run
    for runs, burn, max_index in ((planted, 2, None), (stable, 50, None),
                                  (divergent, 2, 22)):
        tr = growth_trend(runs, burn=burn, max_index=max_index, boots=50,
                          seed=3)
        depth = burn + tr.n_indices
        Y = np.stack([r[:depth] for r in runs])
        idx = np.arange(burn, depth)

        def fit(sample):
            return np.polyfit(idx, np.log(sample.mean(axis=0)[burn:]), 1)[0]

        draws = np.random.Generator(np.random.Philox(key=3))
        boot = [fit(Y[draws.integers(0, len(Y), size=len(Y))])
                for _ in range(50)]
        scale = np.abs(np.log(Y.mean(axis=0)[burn:])).max() / (depth - 1 - burn)
        assert abs(tr.slope - fit(Y)) <= tol * scale
        assert abs(tr.stderr - np.std(boot, ddof=1)) <= tol * scale


def test_growth_trend_requires_burn():
    # burn=0 would fit the ramp up from Sigma0 as growth, so there is no
    # default
    with pytest.raises(TypeError, match="burn"):
        growth_trend([np.ones(10)])


def test_growth_trend_validation():
    with pytest.raises(ValueError):
        growth_trend([], burn=0)
    with pytest.raises(ValueError):
        growth_trend([np.ones(10)], burn=8)
    with pytest.raises(ValueError):
        growth_trend([np.ones(10), np.ones(4)], max_index=5, burn=3)
