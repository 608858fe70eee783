"""Loss-chain model: stationary law, burst blocks, sojourn pmf, sampling."""

import numpy as np
import pytest

from peakcov import (
    LossModel,
    NotErgodic,
    PeriodicChainWarning,
    enumerate_first_peak,
    sojourn_pmf,
    stationary,
    submatrices,
)
from peakcov.markov import _sample_arrivals


def test_stationary_values(chain_burst2, chain_iid, chain_s1):
    np.testing.assert_allclose(chain_burst2.pi_stat, [2 / 3, 1 / 6, 1 / 6],
                               atol=1e-12)
    np.testing.assert_allclose(chain_iid.pi_stat, [0.6, 0.2, 0.2], atol=1e-12)
    np.testing.assert_allclose(chain_s1.pi_stat, [2 / 3, 1 / 3], atol=1e-12)
    for lm in (chain_burst2, chain_iid, chain_s1):
        np.testing.assert_allclose(lm.pi_stat @ lm.Pi, lm.pi_stat, atol=1e-12)
    # nearly absorbing states: 1 - e rounds, the off-diagonal e does not
    for e in (1e-10, 1e-14):
        sticky = LossModel(Pi=[[1 - e, e], [e, 1 - e]])
        np.testing.assert_allclose(sticky.pi_stat, [0.5, 0.5], rtol=0, atol=1e-12)
    # a transient state gets no mass; it need not come last
    np.testing.assert_array_equal(
        stationary([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]),
        [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(
        stationary([[0.4, 0.3, 0.3], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
        [0.0, 0.5, 0.5])


def test_stationary_not_ergodic():
    with pytest.raises(NotErgodic):
        stationary(np.eye(2))
    with pytest.raises(NotErgodic):
        LossModel(Pi=np.eye(3))
    # two closed classes, {0, 1} and {2}
    with pytest.raises(NotErgodic):
        stationary([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])


def test_loss_model_validation():
    with pytest.raises(ValueError, match="sums to"):
        LossModel(Pi=[[0.5, 0.4], [0.8, 0.2]])
    with pytest.raises(ValueError, match="negative"):
        LossModel(Pi=[[1.1, -0.1], [0.8, 0.2]])
    with pytest.raises(ValueError):
        LossModel(Pi=[[0.6, 0.2, 0.2], [0.8, 0.1, 0.1]])
    with pytest.raises(ValueError):
        LossModel(Pi=[[1.0]])


def test_s_and_immutability(chain_burst2, chain_s1):
    assert chain_burst2.s == 2
    assert chain_s1.s == 1
    with pytest.raises(ValueError):
        chain_burst2.Pi[0, 0] = 0.0


def test_periodic_chain_warns():
    with pytest.warns(PeriodicChainWarning):
        LossModel(Pi=[[0.0, 1.0], [1.0, 0.0]])


def test_submatrices_values(chain_burst2, chain_s1):
    P, Qm = submatrices(chain_burst2)
    np.testing.assert_allclose(P, np.full((2, 2), 0.1), atol=1e-15)
    np.testing.assert_allclose(Qm, np.full((2, 2), 0.16), atol=1e-15)
    P1, Q1 = submatrices(chain_s1)
    np.testing.assert_allclose(P1, [[0.2]], atol=1e-15)
    np.testing.assert_allclose(Q1, [[0.32]], atol=1e-15)


def test_submatrices_rank_one_and_row_decomposition():
    rng = np.random.default_rng(31)
    for _ in range(10):
        M = rng.uniform(0.05, 1.0, (4, 4))
        M /= M.sum(axis=1, keepdims=True)
        lm = LossModel(Pi=M)
        P, Qm = submatrices(lm)
        assert np.linalg.matrix_rank(Qm) <= 1
        for i in range(1, 4):
            assert P[i - 1].sum() + lm.Pi[i, 0] == pytest.approx(1.0, abs=1e-12)


def test_sojourn_pmf_first_pair(chain_burst2):
    assert sojourn_pmf(chain_burst2, [(1, 1)]) == pytest.approx(1 / 6, abs=1e-12)
    # one reception, then a single loss: pi0 * pi_{01}
    assert sojourn_pmf(chain_burst2, [(2, 1)]) == pytest.approx(2 / 15, abs=1e-12)
    assert sojourn_pmf(chain_burst2, [(3, 2)]) == pytest.approx(
        (2 / 3) * 0.6 * 0.2, abs=1e-12
    )


def test_sojourn_pmf_validation(chain_burst2):
    with pytest.raises(ValueError):
        sojourn_pmf(chain_burst2, [])
    with pytest.raises(ValueError):
        sojourn_pmf(chain_burst2, [(0, 1)])
    with pytest.raises(ValueError):
        sojourn_pmf(chain_burst2, [(1, 3)])


def test_sojourn_pmf_mass_accounting(chain_burst2, chain_s1):
    for lm in (chain_burst2, chain_s1):
        a_max = 200
        total = sum(
            sojourn_pmf(lm, [(a, b)])
            for a in range(1, a_max + 1)
            for b in range(1, lm.s + 1)
        )
        tail = lm.pi_stat[0] * lm.Pi[0, 0] ** (a_max - 1)
        assert abs(total - (1.0 - tail)) <= 1e-12


def test_sojourn_pmf_depth_two_recursion(chain_burst2):
    # summing the second pair over a truncated family recovers the first
    # pair's mass times the covered transition mass from state b1
    lm = chain_burst2
    a_max = 120
    for first in [(1, 1), (2, 2), (4, 1)]:
        base = sojourn_pmf(lm, [first])
        total = sum(
            sojourn_pmf(lm, [first, (a, b)])
            for a in range(1, a_max + 1)
            for b in range(1, lm.s + 1)
        )
        covered = 1.0 - lm.Pi[first[1], 0] * lm.Pi[0, 0] ** (a_max - 1)
        assert abs(total - base * covered) <= 1e-12


def test_truncation_span(plant, chain_burst2):
    # the first-peak enumeration stops at the smallest a_1 whose residual
    # mass pi_stat[0] * p00^(a_1 - 1) of longer leading runs is below eps
    p0, p00 = chain_burst2.pi_stat[0], chain_burst2.Pi[0, 0]
    enu = enumerate_first_peak(plant, chain_burst2, trunc_eps=1e-12)
    a = enu.max_span
    assert enu.tail_mass == pytest.approx(p0 * p00 ** (a - 1), rel=1e-12)
    assert enu.tail_mass < 1e-12 <= enu.tail_mass / p00
    with pytest.raises(ValueError):
        enumerate_first_peak(plant, chain_burst2, trunc_eps=0.0)


def test_sample_gaps_determinism(chain_burst2):
    a = _sample_arrivals(chain_burst2, 500, [42])
    np.testing.assert_array_equal(a, _sample_arrivals(chain_burst2, 500, [42]))
    assert not np.array_equal(a, _sample_arrivals(chain_burst2, 500, [43]))
    # a seed's column does not depend on the other seeds in the batch
    batch = _sample_arrivals(chain_burst2, 500, [7, 42, 43])
    np.testing.assert_array_equal(batch[:, 1:2], a)
    # no loss run is longer than s
    for col in batch.T:
        runs = np.diff(np.flatnonzero(np.r_[True, col, True])) - 1
        assert runs.max() <= chain_burst2.s


def test_sample_gaps_prefix_stability(chain_burst2):
    # drawing a longer stream with the same seed extends, not reshuffles
    short = _sample_arrivals(chain_burst2, 10, [9, 10])
    long = _sample_arrivals(chain_burst2, 50, [9, 10])
    np.testing.assert_array_equal(long[:10], short)


def test_chain_state_frequencies_match_stationary(chain_burst2, reference_gaps):
    # one long chain of the reference sampler, which equals the package's
    # bit for bit (tests/test_sim.py)
    g = reference_gaps(chain_burst2, 1_000_000, seed=77)
    freq = np.bincount(g, minlength=3) / g.size
    sig = np.sqrt(chain_burst2.pi_stat * (1 - chain_burst2.pi_stat) / g.size)
    assert np.all(np.abs(freq - chain_burst2.pi_stat) <= 3 * sig)


def test_empirical_first_sojourn_pair_matches_pmf(chain_burst2):
    # 1e5 independent streams; classify the first (successes, burst) pair
    # from the leading arrival bits and compare each cell to the exact pmf
    lm = chain_burst2
    n_streams = 100_000
    arr = _sample_arrivals(lm, 9, range(1_000_000, 1_000_000 + n_streams))
    lost = (~arr).any(axis=0)  # streams without a loss are in no cell
    lead = np.argmax(~arr, axis=0)  # a - 1 receptions before the burst
    after = arr & (np.arange(9)[:, None] > lead)
    burst = np.argmax(after, axis=0) - lead  # losses up to the next reception
    for a in range(1, 7):
        for b in (1, 2):
            p = sojourn_pmf(lm, [(a, b)])
            hits = np.count_nonzero(lost & (lead == a - 1) & (burst == b))
            emp = hits / n_streams
            sig = np.sqrt(p * (1 - p) / n_streams)
            assert abs(emp - p) <= 4 * sig, (a, b, emp, p)


@pytest.mark.filterwarnings("ignore::peakcov.PeriodicChainWarning")
def test_gaps_to_arrivals_examples():
    # gap j writes j losses and then one reception
    cases = [([[1.0, 0.0], [1.0, 0.0]], [1, 1, 1, 1, 1, 1]),
             ([[0.0, 1.0], [0.0, 1.0]], [0, 1, 0, 1, 0, 1]),
             ([[0.0, 0.0, 1.0]] * 3, [0, 0, 1, 0, 0, 1])]
    for Pi, expect in cases:
        arr = _sample_arrivals(LossModel(Pi=Pi), 6, range(5))
        assert (arr.T == np.array(expect, dtype=bool)).all()
    # the cycle of gaps 0 -> 2 -> 1 -> 0, entered at a random gap
    lm = LossModel(Pi=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cycle = {0: [1, 0, 0, 1, 0, 1], 1: [0, 1, 1, 0, 0, 1], 2: [0, 0, 1, 0, 1, 1]}
    arr = _sample_arrivals(lm, 12, range(30))
    for col in arr.T:
        first = int(np.argmax(col))  # the first gap
        assert col.tolist() == (cycle[first] * 3)[:12]
    assert len({int(np.argmax(col)) for col in arr.T}) == 3
