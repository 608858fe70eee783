"""Acceptance checks, one per shipped claim, each printing a verdict line.

Every test times itself against the stated runtime budget and prints

    criterion  N PASS (T s): <measured quantities>

on success; a failing criterion shows up as an ordinary pytest failure.
Numbers quoted in assertions were derived independently of the library
(hand-built operators, closed-form sums) and then frozen.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from peakcov import (
    LossModel,
    SystemModel,
    build_certificate,
    closed_form_gains,
    enumerate_first_peak,
    gain_condition_matrix,
    growth_trend,
    mc_estimate,
    measurement_update,
    norm_condition_matrix,
    optimal_gain,
    similarity_transform,
    sojourn_pmf,
    strict_margin_floor,
    verify_certificate,
)
from peakcov.linalg import spectral_radius, sym_spectral_norm


def _verdict(n: int, budget: float, t0: float, msg: str) -> None:
    took = time.perf_counter() - t0
    assert took < budget, f"criterion {n}: {took:.2f}s over the {budget:g}s budget"
    print(f"criterion {n:2d} PASS ({took:.2f}s): {msg}")


@pytest.fixture(scope="module")
def sweep():
    """120 random second-order instances with minimum-norm gains.

    Plants are scaled to spectral radius in (1, 2) and kept only when
    two stacked output rows already identify the state; chain sizes
    cycle through s = 1, 2, 3.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_260_815)
    records = []
    while len(records) < 120:
        A = rng.uniform(-2, 2, (2, 2))
        rho_a = spectral_radius(A)
        if rho_a < 1e-6:
            continue
        A = A * rng.uniform(1.0, 2.0) / rho_a
        C = rng.uniform(-2, 2, (1, 2))
        if np.linalg.matrix_rank(np.vstack([C, C @ A])) < 2:
            continue
        s = [1, 2, 3][len(records) % 3]
        Pi = rng.uniform(0.05, 1.0, (s + 1, s + 1))
        Pi /= Pi.sum(axis=1, keepdims=True)
        sysm = SystemModel(A=A, C=C, Q=np.eye(2), R=[[1.0]], Sigma0=np.eye(2))
        loss = LossModel(Pi=Pi)
        d, gains = closed_form_gains(sysm)
        records.append(SimpleNamespace(
            sysm=sysm,
            loss=loss,
            gains=gains,
            rho_phi=norm_condition_matrix(sysm, loss, d).rho,
            rho_h=gain_condition_matrix(sysm, loss, gains).rho,
        ))
    return SimpleNamespace(records=records,
                           elapsed=time.perf_counter() - t0)


def test_criterion_01_reference_instance(plant, chain_burst2):
    t0 = time.perf_counter()
    d, _ = closed_form_gains(plant)
    rho = norm_condition_matrix(plant, chain_burst2, d).rho
    assert d[0] == pytest.approx(1.2200, abs=1e-4)
    assert rho == pytest.approx(0.7352, abs=1e-3)
    assert rho < 1
    _verdict(1, 1.0, t0, f"d1={d[0]:.4f}, rho(Phi)={rho:.4f}")


def test_criterion_02_coordinate_change(plant, chain_burst2):
    t0 = time.perf_counter()
    d, gains = closed_form_gains(plant)
    sys2, gains2 = similarity_transform(plant, gains, [[1, 5], [0, 1]])
    d2, _ = closed_form_gains(sys2)
    rho2 = norm_condition_matrix(sys2, chain_burst2, d2).rho
    assert d2[0] == pytest.approx(1.3632, abs=1e-4)
    assert rho2 == pytest.approx(1.5202, abs=1e-3)
    assert rho2 > 1  # same plant, the norm condition now fails
    rho_h = gain_condition_matrix(plant, chain_burst2, gains).rho
    rho_h2 = gain_condition_matrix(sys2, chain_burst2, gains2).rho
    drift = abs(rho_h - rho_h2)
    assert drift <= 1e-7
    _verdict(2, 1.0, t0,
             f"d1~={d2[0]:.4f}, rho(Phi~)={rho2:.4f}, drift={drift:.2e}")


def test_criterion_03_norm_fails_gain_succeeds(plant, chain_iid):
    t0 = time.perf_counter()
    d, gains = closed_form_gains(plant)
    rho_phi = norm_condition_matrix(plant, chain_iid, d).rho
    assert rho_phi == pytest.approx(1.4704, abs=1e-3)
    assert rho_phi > 1
    rho_h = gain_condition_matrix(plant, chain_iid, gains).rho
    assert rho_h < 1
    # published witness pair for this instance, quoted to 4 decimals
    k_pub = [np.array([[-0.8079], [-0.5914]])]
    x_pub = np.array([[0.1081, 0.0243], [0.0243, 0.1042]])
    margin = verify_certificate(plant, chain_iid, k_pub, [x_pub, x_pub])
    assert margin == pytest.approx(0.0253495915093435, abs=1e-12)
    assert margin > 0
    _verdict(3, 1.0, t0,
             f"rho(Phi)={rho_phi:.4f}, rho(H)={rho_h:.4f}, "
             f"witness margin={margin:.4f}")


def test_criterion_04_single_loss_chains(plant, chain_s1, chain_s1_sticky):
    t0 = time.perf_counter()
    d, gains = closed_form_gains(plant)
    rho = norm_condition_matrix(plant, chain_s1, d).rho
    assert rho == pytest.approx(0.49, abs=1e-2)
    # stickier loss state: norm condition flips, gain condition holds
    rho_sticky = norm_condition_matrix(plant, chain_s1_sticky, d).rho
    assert rho_sticky > 1
    rho_h = gain_condition_matrix(plant, chain_s1_sticky, gains).rho
    assert rho_h < 1
    _verdict(4, 1.0, t0,
             f"rho(Phi)={rho:.4f}, sticky rho(Phi)={rho_sticky:.4f} "
             f"vs rho(H)={rho_h:.4f}")


def test_criterion_05_no_false_positives(sweep):
    t0 = time.perf_counter() - sweep.elapsed  # charge the sweep here
    total = len(sweep.records)
    phi_ok = sum(r.rho_phi < 1 for r in sweep.records)
    h_ok = sum(r.rho_h < 1 for r in sweep.records)
    violations = sum(r.rho_phi < 1 and r.rho_h >= 1 for r in sweep.records)
    assert total == 120
    assert violations == 0
    assert phi_ok >= 10  # enough norm-stable cases for the claim to bite
    assert h_ok >= 30
    _verdict(5, 30.0, t0,
             f"{total} instances, {phi_ok} norm-stable, "
             f"{h_ok} gain-stable, {violations} violations")


def test_criterion_06_certificate_round_trip(sweep):
    t0 = time.perf_counter()
    built = 0
    worst = np.inf
    for rec in sweep.records:
        if rec.rho_h >= 1:
            continue
        cert = build_certificate(rec.sysm, rec.loss, rec.gains)
        floor = strict_margin_floor(cert.blocks)
        assert cert.margin > floor
        worst = min(worst, cert.margin)
        tampered = [b.copy() for b in cert.blocks]
        tampered[0] = -tampered[0]
        assert verify_certificate(rec.sysm, rec.loss, rec.gains,
                                  tampered) < 0
        built += 1
    assert built >= 30
    _verdict(6, 30.0, t0,
             f"{built} certificates verified, worst margin {worst:.12f}, "
             f"all tampered copies rejected")


def test_criterion_07_gain_update_dominates(plant, receptions,
                                            fixed_gain_update):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = rng.uniform(-1, 1, (2, 2))
        X = b @ b.T
        i = int(rng.integers(1, 3))
        K = rng.uniform(-2, 2, (2, i))
        diff = fixed_gain_update(plant, i, K, X) - receptions(plant, X, i)
        lam = np.linalg.eigvalsh((diff + diff.T) / 2)[0]
        assert lam >= -1e-8 * (1 + sym_spectral_norm(X))
    # the optimal one-step gain attains the optimum exactly
    X = np.array([[2.0, 0.5], [0.5, 1.0]])
    at_opt = fixed_gain_update(plant, 1, optimal_gain(plant, X), X)
    target = measurement_update(plant, X)
    gap = np.linalg.norm(at_opt - target)
    assert gap <= 1e-9 * (1 + np.linalg.norm(target))
    _verdict(7, 10.0, t0, f"200 draws dominated, optimum gap {gap:.2e}")


def test_criterion_08_reception_map_saturates(plant, receptions):
    """The thrice-iterated reception map g = measurement_update has a
    ceiling that does not depend on the start: ||g^3(c I)|| <= L for
    every c, and large starts saturate within a factor 2 of L.

    g^3(c I) is the covariance of x3 given y0, y1, y2 when x0 has prior
    covariance c I. As c grows the prior information on x0 falls to zero,
    so g^3(c I) rises (Riccati monotonicity, in the PSD order) to the
    flat-prior covariance. That limit is derived without the library:
    with unknowns theta = (x0, w0, w1, w2),

        y_k = C A^k x0 + sum_{j<k} C A^(k-1-j) w_j + v_k     (k = 0, 1, 2)
        x3  = T theta,   T = [A^3, A^2, A, I]

    theta has information Lambda = H' R^-1 H + diag(0, Q^-1, Q^-1, Q^-1),
    H the stacked output rows above, and cov(x3 | y) = T Lambda^-1 T'.
    Its norm, L = 147.874507884225537, was evaluated in 50-digit
    arithmetic and frozen. From c = 1 the map approaches L from below and
    is still a factor ~27 under it after three compositions, so the
    factor 2 binds the large starts c = 1e3, 1e6 only (within 8% today).
    The c = 1 value 5.50471880319237 is pinned; it agrees with the
    50-digit evaluation of the difference-form map.
    """
    t0 = time.perf_counter()
    A, C, Q, R = plant.A, plant.C, plant.Q, plant.R
    n, m = A.shape[0], C.shape[0]
    pw = [np.linalg.matrix_power(A, k) for k in range(4)]
    H = np.zeros((3 * m, 4 * n))
    for k in range(3):
        H[k * m:(k + 1) * m, :n] = C @ pw[k]
        for j in range(k):
            H[k * m:(k + 1) * m, (j + 1) * n:(j + 2) * n] = C @ pw[k - 1 - j]
    Lam = H.T @ np.kron(np.eye(3), np.linalg.inv(R)) @ H
    Lam[n:, n:] += np.kron(np.eye(3), np.linalg.inv(Q))
    T = np.hstack([pw[3], pw[2], pw[1], pw[0]])
    L = 147.874507884225537
    assert abs(np.linalg.norm(T @ np.linalg.solve(Lam, T.T), 2) - L) <= 1e-12 * L

    # Joseph-form roundoff grows with the start: 8e-11 relative at c = 1e6
    # and 1.8e-8 at c = 1e9, hence starts of at most 1e6 and this slack
    slack = 1e-9 * L
    starts = (1.0, 1e3, 1e6)
    mats = [receptions(plant, c * np.eye(2), 3) for c in starts]
    vals = [sym_spectral_norm(X) for X in mats]
    assert max(vals) <= L + slack, (
        f"||g^3(cI)|| = {vals} for c in {starts} exceeds the ceiling L = {L}")
    assert all(v > L / 2.0 for v in vals[1:]), (
        f"large starts {vals[1:]} not within a factor 2 of L = {L}")
    for lo, hi in zip(mats, mats[1:]):
        assert np.linalg.eigvalsh(hi - lo)[0] >= -slack
    assert abs(vals[0] - 5.50471880319237) <= 1e-12 * 5.50471880319237
    _verdict(8, 1.0, t0,
             f"||g^3(cI)|| = {', '.join(f'{v:.6f}' for v in vals)} "
             f"<= L = {L:.6f} for c = 1, 1e3, 1e6")


def test_criterion_09_simulator_matches_enumeration(plant, chain_burst2):
    t0 = time.perf_counter()
    enu = enumerate_first_peak(plant, chain_burst2)
    assert abs(enu.covered_mass + enu.tail_mass - 1.0) <= 1e-12
    # sojourn pmf accounts for all prefix mass up to the truncation point
    pi0 = float(chain_burst2.pi_stat[0])
    p00 = float(chain_burst2.Pi[0, 0])
    total = sum(
        sojourn_pmf(chain_burst2, [(a, b)])
        for a in range(1, 201) for b in (1, 2))
    assert abs(total - (1.0 - pi0 * p00 ** 199)) <= 1e-12
    est = mc_estimate(plant, chain_burst2, runs=10_000, horizon=96,
                      base_seed=20_260_815)
    z = (est.means[0] - enu.mean_norm) / est.stderrs[0]
    assert abs(z) <= 4.0
    _verdict(9, 60.0, t0,
             f"MC {est.means[0]:.4f} vs exact {enu.mean_norm:.4f} "
             f"(z={z:+.2f}, {est.counts[0]} runs)")


def test_criterion_10_growth_trend_discriminates(
        plant, chain_burst2, rotation_plant, rotation_chain):
    t0 = time.perf_counter()
    est = mc_estimate(plant, chain_burst2, runs=24, horizon=10_000,
                      base_seed=40_000)
    # burn past the Sigma0 transient so the plateau drives the fit
    stable = growth_trend(est.peak_norms_by_run, burn=50, boots=300, seed=0)
    assert stable.z < 3.0

    # A scalar plant cannot serve as the divergent demo: one reception
    # caps its covariance at a^2 r / c^2 + q however large it grew, so
    # every scalar instance is peak-stable. The demo is the planar
    # rotation with single-coordinate sensing, where each loss lands the
    # previously unobserved coordinate back in the blind spot.
    est_u = mc_estimate(rotation_plant, rotation_chain, runs=48, horizon=64,
                        base_seed=90_000)
    unstable = growth_trend(est_u.peak_norms_by_run, burn=2, max_index=22,
                            boots=300, seed=0)
    assert unstable.z > 3.0
    assert unstable.slope > 0
    _verdict(10, 60.0, t0,
             f"stable z={stable.z:+.2f} over {stable.n_indices} indices; "
             f"divergent demo z={unstable.z:+.2f}, "
             f"slope {unstable.slope:.3f}/peak")
