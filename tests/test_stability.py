"""Stability conditions, gains, certificates, similarity behavior.

Frozen reference values for the workhorse plant (A = [[1.3, 0.3], [0, 1.2]],
C = [1, 1]) were computed once from the defining formulas with independent
scratch code and are pinned here at 1e-9:

    chain           rho(norm cond)        rho(gain cond at K*)
    burst2          0.735231146395373     0.3001181000000001
    iid rows        1.470462292790746     0.6002362000000002
    s=1             0.4899814226784845    0.28321999999999975
    s=1 sticky      1.2249535566962113    0.7080499999999998
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from peakcov import (
    DimensionMismatch,
    LossModel,
    NotStable,
    Singular,
    SystemModel,
    build_certificate,
    closed_form_gains,
    compare_conditions,
    gain_condition_matrix,
    is_stable,
    load_problem,
    min_norm_gain,
    norm_condition_matrix,
    search_gains,
    similarity_transform,
    spectral_norm_sq,
    spectral_radius,
    strict_margin_floor,
    submatrices,
    verify_certificate,
)
from peakcov import stability, system
from peakcov.stability import check_gains

RHO_NORM = {
    "burst2": 0.735231146395373,
    "iid": 1.470462292790746,
    "s1": 0.4899814226784845,
    "s1_sticky": 1.2249535566962113,
}
RHO_GAIN = {
    "burst2": 0.3001181000000001,
    "iid": 0.6002362000000002,
    "s1": 0.28321999999999975,
    "s1_sticky": 0.7080499999999998,
}

WITNESS_GAIN = [np.array([[-0.8079], [-0.5914]])]
WITNESS_BLOCK = np.array([[0.1081, 0.0243], [0.0243, 0.1042]])


def test_min_norm_gain_workhorse(plant):
    d1, k1 = min_norm_gain(plant, 1)
    assert d1 == pytest.approx(1.2200, abs=1e-4)
    assert d1 == pytest.approx(1.22, abs=1e-12)
    np.testing.assert_allclose(k1, [[-0.8], [-0.6]], atol=1e-12)
    # depth 2 reaches the observability index: the residual vanishes
    d2, k2 = min_norm_gain(plant, 2)
    assert d2 == 0.0
    from peakcov.system import stacked
    f2 = np.linalg.matrix_power(plant.A, 2) + k2 @ stacked(plant, 2).obs_map
    assert np.linalg.norm(f2) <= 1e-12
    with pytest.raises(ValueError):
        min_norm_gain(plant, 0)


def test_min_norm_gain_transformed_plant():
    t = SystemModel(A=[[1.3, 0.8], [0.0, 1.2]], C=[[1.0, 6.0]], Q=np.eye(2),
                    R=[[1.0]], Sigma0=np.eye(2))
    d1, _ = min_norm_gain(t, 1)
    assert d1 == pytest.approx(1.3632, abs=1e-4)
    assert d1 == pytest.approx(1.3632432432432444, abs=1e-9)


def test_min_norm_gain_jordan(jordan_plant):
    d, k = closed_form_gains(jordan_plant)
    assert len(d) == len(k) == 2
    assert d[0] == pytest.approx(3.0, abs=1e-12)
    assert d[1] == pytest.approx(6.0, abs=1e-12)
    np.testing.assert_allclose(k[1], [[1.0, -2.0], [1.0, -1.0], [0.0, 0.0]],
                               atol=1e-9)
    from peakcov.system import stacked
    f2 = np.linalg.matrix_power(jordan_plant.A, 2) + k[1] @ stacked(
        jordan_plant, 2).obs_map
    assert spectral_norm_sq(f2) == pytest.approx(6.0, abs=1e-9)


def test_closed_form_gains_one_step_observable():
    sysm = SystemModel(A=[[1.3, 0.3], [0.0, 1.2]], C=np.eye(2), Q=np.eye(2),
                       R=np.eye(2), Sigma0=np.eye(2))
    d, k = closed_form_gains(sysm)
    assert d == [0.0]
    np.testing.assert_allclose(k[0], -sysm.A, atol=1e-12)
    lm = LossModel(Pi=[[0.6, 0.4], [0.8, 0.2]])
    sm = gain_condition_matrix(sysm, lm, k)
    assert sm.rho <= 1e-12  # burst factor cancels exactly


def test_gain_condition_values(plant, chain_burst2, chain_iid, chain_s1,
                               chain_s1_sticky):
    _, gains = closed_form_gains(plant)
    chains = {
        "burst2": chain_burst2, "iid": chain_iid,
        "s1": chain_s1, "s1_sticky": chain_s1_sticky,
    }
    for name, lm in chains.items():
        sm = gain_condition_matrix(plant, lm, gains)
        assert sm.matrix.shape == (lm.s * 3, lm.s * 3)
        assert sm.rho == pytest.approx(RHO_GAIN[name], abs=1e-9), name
        assert is_stable(sm.rho)


def test_gain_condition_reference_gain(plant, chain_iid):
    sm = gain_condition_matrix(plant, chain_iid, WITNESS_GAIN)
    assert sm.rho == pytest.approx(0.6056530157320862, abs=1e-9)
    assert is_stable(sm.rho)


def test_gain_condition_matches_direct_assembly(plant, chain_burst2,
                                                sym_restriction):
    # independent route: with observability index 2 there are no idle-step
    # factors, so the operator is diag((A x A)^j) (P' x F x F), here
    # restricted to symmetric blocks
    _, gains = closed_form_gains(plant)
    f = plant.A + gains[0] @ plant.C
    pb, _ = submatrices(chain_burst2)
    aa = np.kron(plant.A, plant.A)
    m = np.kron(pb.T, np.kron(f, f))
    direct = np.zeros((8, 8))
    direct[:4] = aa @ m[:4]
    direct[4:] = aa @ aa @ m[4:]
    got = gain_condition_matrix(plant, chain_burst2, gains).matrix
    np.testing.assert_allclose(got, sym_restriction(direct, 2), atol=1e-13)


def test_gain_condition_ignores_idle_block_at_index_two(plant):
    # same burst-to-burst block, different idle row: the operator may not
    # change when the observability index is 2
    lm1 = LossModel(Pi=[[0.6, 0.2, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]])
    lm2 = LossModel(Pi=[[0.5, 0.3, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]])
    np.testing.assert_allclose(submatrices(lm1)[0], submatrices(lm2)[0])
    assert not np.allclose(submatrices(lm1)[1], submatrices(lm2)[1])
    _, gains = closed_form_gains(plant)
    h1 = gain_condition_matrix(plant, lm1, gains).matrix
    h2 = gain_condition_matrix(plant, lm2, gains).matrix
    np.testing.assert_array_equal(h1, h2)


def test_gain_condition_jordan_direct_assembly(jordan_plant, chain_burst2,
                                              sym_restriction):
    from peakcov.system import stacked
    d, gains = closed_form_gains(jordan_plant)
    A = jordan_plant.A
    f1 = A + gains[0] @ jordan_plant.C
    f2 = np.linalg.matrix_power(A, 2) + gains[1] @ stacked(jordan_plant, 2).obs_map
    pb, qb = submatrices(chain_burst2)
    p00 = chain_burst2.Pi[0, 0]
    hb = np.kron(f1, f1)
    ks = p00 ** 0 * np.kron(f2, f2)  # single idle-path depth, weight 1
    m = np.kron(pb.T, hb) + np.kron(qb.T, ks)
    aa = np.kron(A, A)
    direct = np.vstack([aa @ m[:9], aa @ aa @ m[9:]])
    got = gain_condition_matrix(jordan_plant, chain_burst2, gains)
    assert got.matrix.shape == (12, 12)
    np.testing.assert_allclose(got.matrix, sym_restriction(direct, 3), atol=1e-12)


def test_norm_condition_values(plant, chain_burst2, chain_iid, chain_s1,
                               chain_s1_sticky):
    d, _ = closed_form_gains(plant)
    chains = {
        "burst2": chain_burst2, "iid": chain_iid,
        "s1": chain_s1, "s1_sticky": chain_s1_sticky,
    }
    for name, lm in chains.items():
        sm = norm_condition_matrix(plant, lm, d)
        assert sm.matrix.shape == (lm.s, lm.s)
        assert sm.rho == pytest.approx(RHO_NORM[name], abs=1e-9), name
    assert is_stable(RHO_NORM["burst2"]) and is_stable(RHO_NORM["s1"])
    assert not is_stable(RHO_NORM["iid"]) and not is_stable(RHO_NORM["s1_sticky"])


def test_norm_condition_jordan_direct_assembly(jordan_plant, chain_burst2):
    # the idle-path weight here is p00^(l-1), one power higher than in the
    # gain condition; both follow their defining displays
    d, _ = closed_form_gains(jordan_plant)
    pb, qb = submatrices(chain_burst2)
    p00 = chain_burst2.Pi[0, 0]
    core = d[0] * pb + p00 ** 1 * d[1] * qb
    A = jordan_plant.A
    direct = core @ np.diag([spectral_norm_sq(A), spectral_norm_sq(A @ A)])
    got = norm_condition_matrix(jordan_plant, chain_burst2, d)
    np.testing.assert_allclose(got.matrix, direct, atol=1e-12)


def test_norm_condition_validation(jordan_plant, chain_burst2):
    with pytest.raises(DimensionMismatch):
        norm_condition_matrix(jordan_plant, chain_burst2, [3.0])


def test_check_gains_validation(plant, jordan_plant):
    with pytest.raises(DimensionMismatch):
        check_gains(plant, [])
    with pytest.raises(DimensionMismatch):
        check_gains(plant, [np.zeros((2, 2))])
    with pytest.raises(DimensionMismatch):
        check_gains(jordan_plant, [np.zeros((3, 1))])


def test_certificate_construction(plant, chain_burst2, chain_iid):
    _, gains = closed_form_gains(plant)
    for lm in (chain_burst2, chain_iid):
        cert = build_certificate(plant, lm, gains)
        assert len(cert.blocks) == lm.s
        # construction leaves an exact identity slack in each inequality
        assert cert.margin == pytest.approx(1.0, abs=1e-9)
        assert cert.margin > strict_margin_floor(cert.blocks)
        for b in cert.blocks:
            assert np.linalg.eigvalsh(b)[0] >= 1.0 - 1e-8
        # verification route agrees with the construction
        again = verify_certificate(plant, lm, gains, cert.blocks)
        assert again == cert.margin


def test_certificate_not_stable_raises(rotation_plant, rotation_chain):
    _, gains = closed_form_gains(rotation_plant)
    assert gain_condition_matrix(rotation_plant, rotation_chain, gains).rho > 1
    with pytest.raises(NotStable):
        build_certificate(rotation_plant, rotation_chain, gains)


def test_certificate_reference_witnesses(plant, chain_iid):
    margin = verify_certificate(plant, chain_iid, WITNESS_GAIN,
                                [WITNESS_BLOCK, WITNESS_BLOCK])
    assert margin == pytest.approx(0.0253495915093435, abs=1e-12)
    assert margin > strict_margin_floor([WITNESS_BLOCK, WITNESS_BLOCK])


def test_certificate_tamper_detection(plant, chain_burst2, chain_iid):
    _, gains = closed_form_gains(plant)
    for lm in (chain_burst2, chain_iid):
        cert = build_certificate(plant, lm, gains)
        tampered = [b.copy() for b in cert.blocks]
        tampered[0] = -tampered[0]
        assert verify_certificate(plant, lm, gains, tampered) < 0.0


def test_certificate_margin_homogeneity(plant, chain_iid):
    base = verify_certificate(plant, chain_iid, WITNESS_GAIN,
                              [WITNESS_BLOCK, WITNESS_BLOCK])
    for c in (0.5, 7.0):
        scaled = verify_certificate(plant, chain_iid, WITNESS_GAIN,
                                    [c * WITNESS_BLOCK, c * WITNESS_BLOCK])
        assert scaled == pytest.approx(c * base, rel=1e-9)


def test_certificate_zero_blocks(plant, chain_iid):
    z = np.zeros((2, 2))
    assert verify_certificate(plant, chain_iid, WITNESS_GAIN, [z, z]) == 0.0


def test_certificate_validation(plant, chain_burst2):
    _, gains = closed_form_gains(plant)
    with pytest.raises(DimensionMismatch):
        verify_certificate(plant, chain_burst2, gains, [np.eye(2)])
    with pytest.raises(DimensionMismatch):
        verify_certificate(plant, chain_burst2, gains, [np.eye(3), np.eye(3)])


def test_verify_certificate_shares_no_code_with_operator(monkeypatch,
                                                          jordan_plant,
                                                          chain_burst2):
    _, gains = closed_form_gains(jordan_plant)
    cert = build_certificate(jordan_plant, chain_burst2, gains)

    def broken(*args):
        raise AssertionError("the certificate check assembled the operator")

    monkeypatch.setattr(stability, "_operator", broken)
    assert verify_certificate(jordan_plant, chain_burst2, gains,
                              cert.blocks) == cert.margin


def test_search_gains_forms_plant_constants_once(monkeypatch, jordan_plant,
                                                 chain_burst2):
    # the steps read no plant constants: a search cut after one step and
    # one run to its end run observability_index equally often
    counts = {"index": 0, "rho": 0}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(stability, "observability_index",
                        counted("index", system.observability_index))
    monkeypatch.setattr(stability.linalg, "spectral_radius",
                        counted("rho", stability.linalg.spectral_radius))
    seen = []
    for steps in (1, stability.MAX_STEPS):
        monkeypatch.setattr(stability, "MAX_STEPS", steps)
        counts.update(index=0, rho=0)
        _, rho = search_gains(jordan_plant, chain_burst2)
        seen.append(dict(counts, value=rho))
    assert seen[0]["rho"] < seen[1]["rho"]  # more than one step was taken
    assert seen[0]["value"] > seen[1]["value"]
    assert seen[0]["index"] == seen[1]["index"] > 0


def test_compare_conditions_seeds_once(monkeypatch, problems_dir):
    # the seed gains, their operator and the seeded eigensolve are formed
    # once per compare_conditions, with or without refinement
    sysm, loss, _ = load_problem(str(problems_dir / "stable_burst2.json"))
    counts = {}

    def count(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((stability, "closed_form_gains"),
                        (stability, "_operator"),
                        (stability.linalg, "spectral_radius")):
        count(owner, name)

    def calls(run):
        counts.update(closed_form_gains=0, _operator=0, spectral_radius=0)
        run()
        return dict(counts)

    searched = calls(lambda: search_gains(sysm, loss))["spectral_radius"]
    # one radius for the norm condition, one for the seed
    assert calls(lambda: compare_conditions(sysm, loss, refine=False)) == {
        "closed_form_gains": 1, "_operator": 1, "spectral_radius": 2}
    assert calls(lambda: compare_conditions(sysm, loss)) == {
        "closed_form_gains": 1, "_operator": 1, "spectral_radius": searched + 1}


def test_search_gains_never_worse_than_seed(plant, chain_burst2, chain_iid,
                                            chain_s1_sticky):
    for lm in (chain_burst2, chain_iid, chain_s1_sticky):
        seed_gains, rho_seed = search_gains(plant, lm, refine=False)
        gains, rho = search_gains(plant, lm, refine=True)
        assert rho <= rho_seed + 1e-12
        assert is_stable(rho)
    _, k_expected = closed_form_gains(plant)
    np.testing.assert_array_equal(seed_gains[0], k_expected[0])


def test_similarity_identity(plant):
    _, gains = closed_form_gains(plant)
    sys2, gains2 = similarity_transform(plant, gains, np.eye(2))
    np.testing.assert_array_equal(sys2.A, plant.A)
    np.testing.assert_array_equal(sys2.C, plant.C)
    np.testing.assert_array_equal(sys2.Q, plant.Q)
    np.testing.assert_array_equal(sys2.R, plant.R)
    np.testing.assert_array_equal(sys2.Sigma0, plant.Sigma0)
    np.testing.assert_array_equal(gains2[0], gains[0])


def test_similarity_worked_example(plant):
    _, gains = closed_form_gains(plant)
    S = np.array([[1.0, 5.0], [0.0, 1.0]])
    sys2, gains2 = similarity_transform(plant, gains, S)
    np.testing.assert_allclose(sys2.A, [[1.3, 0.8], [0.0, 1.2]], atol=1e-12)
    np.testing.assert_allclose(sys2.C, [[1.0, 6.0]], atol=1e-12)
    np.testing.assert_allclose(sys2.Q, [[26.0, -5.0], [-5.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(gains2[0], np.linalg.inv(S) @ gains[0],
                               atol=1e-12)


def _multiset_distance(w0, w1):
    # symmetric Hausdorff distance; robust to ordering ties in eigvals
    d01 = np.abs(w0[:, None] - w1[None, :])
    return max(d01.min(axis=1).max(), d01.min(axis=0).max())


def test_similarity_preserves_gain_spectrum(plant, chain_burst2):
    _, gains = closed_form_gains(plant)
    h0 = gain_condition_matrix(plant, chain_burst2, gains).matrix
    w0 = np.linalg.eigvals(h0)
    rng = np.random.default_rng(51)
    kept = 0
    while kept < 8:
        S = rng.standard_normal((2, 2))
        if np.linalg.cond(S) > 1e3:
            continue
        kept += 1
        sys2, gains2 = similarity_transform(plant, gains, S)
        h1 = gain_condition_matrix(sys2, chain_burst2, gains2).matrix
        w1 = np.linalg.eigvals(h1)
        assert _multiset_distance(w0, w1) <= 1e-7


# rho(H) drifts under a change of coordinates only by rounding; the worst
# relative drift seen over 3000 random plants with cond(S) <= 20 is 6.1e-10
SIMILARITY_RTOL = 1e-7


def _random_plant_and_chain(random_problem, seed, n, m, s, scale, idle):
    problem = random_problem(np.random.default_rng(seed), n, m, s, scale, idle)
    assume(problem is not None)
    return problem


PLANT_ARGS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
                  m=st.integers(1, 2), s=st.integers(1, 3),
                  scale=st.sampled_from([0.5, 1.0, 1.5]),
                  idle=st.sampled_from([0.0, 0.5, 0.8, 0.95]))


@settings(max_examples=60, deadline=None)
@given(cond=st.floats(1.0, 20.0), **PLANT_ARGS)
def test_similarity_preserves_gain_rho_random_plants(random_problem, cond, seed,
                                                     n, m, s, scale, idle):
    sysm, loss = _random_plant_and_chain(random_problem, seed, n, m, s,
                                         scale, idle)
    # S = U diag(1..cond) V with U, V orthogonal, so cond(S) = cond
    rng = np.random.default_rng(seed + 1)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    S = (U * np.geomspace(1.0, cond, n)) @ V
    _, gains = closed_form_gains(sysm)
    rho = gain_condition_matrix(sysm, loss, gains).rho
    sys2, gains2 = similarity_transform(sysm, gains, S)
    rho2 = gain_condition_matrix(sys2, loss, gains2).rho
    assert abs(rho - rho2) <= SIMILARITY_RTOL * (1 + rho)


def _perturbed_seed_gains(sysm, seed, kick):
    _, gains = closed_form_gains(sysm)
    rng = np.random.default_rng(seed + 2)
    return [K + kick * rng.standard_normal(K.shape) for K in gains]


# the gain operator on symmetric blocks against the full s*n^2 assembly,
# relative to 1 + rho: over 23,000 random plants with perturbed gains
# (6322 with observability index >= 3, 3095 unstable) all but two gaps
# are below 1e-11; those two, up to 5.0e-10, have ill-conditioned top
# eigenvalues, where the old s*n^2 assembly is up to 2.9e-10 off too
SYMMETRIC_RHO_RTOL = 1e-9


@settings(max_examples=60, deadline=None)
@given(kick=st.sampled_from([0.0, 0.05, 0.5]), **PLANT_ARGS)
def test_symmetric_operator_rho_matches_dense_random_plants(
        random_problem, dense_operator, kick, seed, n, m, s, scale, idle):
    sysm, loss = _random_plant_and_chain(random_problem, seed, n, m, s,
                                         scale, idle)
    gains = _perturbed_seed_gains(sysm, seed, kick)
    rho = gain_condition_matrix(sysm, loss, gains).rho
    full = spectral_radius(dense_operator(sysm, loss, gains))
    assert abs(rho - full) <= SYMMETRIC_RHO_RTOL * (1 + rho)


@settings(max_examples=60, deadline=None)
@given(kick=st.sampled_from([0.0, 0.05, 0.5]), **PLANT_ARGS)
def test_certificate_symmetric_and_verified_random_plants(
        random_problem, kick, seed, n, m, s, scale, idle):
    sysm, loss = _random_plant_and_chain(random_problem, seed, n, m, s,
                                         scale, idle)
    gains = _perturbed_seed_gains(sysm, seed, kick)
    if not is_stable(gain_condition_matrix(sysm, loss, gains).rho):
        with pytest.raises(NotStable):
            build_certificate(sysm, loss, gains)
        return
    cert = build_certificate(sysm, loss, gains)
    assert all(np.array_equal(B, B.T) for B in cert.blocks)
    assert cert.margin > strict_margin_floor(cert.blocks)


@settings(max_examples=60, deadline=None)
@given(**PLANT_ARGS)
def test_norm_stable_implies_gain_stable_random_plants(random_problem, seed, n,
                                                       m, s, scale, idle):
    # no counterexample in 3000 random plants, 2321 of them norm-stable
    # and 450 of those with observability index >= 3
    sysm, loss = _random_plant_and_chain(random_problem, seed, n, m, s,
                                         scale, idle)
    rep = compare_conditions(sysm, loss, refine=False)
    assert rep.gain_stable or not rep.norm_stable, (rep.rho_norm,
                                                    rep.rho_seeded)


@settings(max_examples=60, deadline=None)
@given(**PLANT_ARGS)
def test_search_gains_descends_from_seed_random_plants(random_problem, seed, n,
                                                       m, s, scale, idle):
    # the returned radius is that of the returned gains, never above the
    # seeded one, and a second search returns the same bytes
    sysm, loss = _random_plant_and_chain(random_problem, seed, n, m, s,
                                         scale, idle)
    _, rho_seed = search_gains(sysm, loss, refine=False)
    gains, rho = search_gains(sysm, loss)
    assert rho <= rho_seed
    assert rho == gain_condition_matrix(sysm, loss, gains).rho
    again, rho2 = search_gains(sysm, loss)
    assert np.float64(rho2).tobytes() == np.float64(rho).tobytes()
    assert [K.tobytes() for K in again] == [K.tobytes() for K in gains]


def test_similarity_moves_norm_condition(plant, chain_burst2):
    d, gains = closed_form_gains(plant)
    S = np.array([[1.0, 5.0], [0.0, 1.0]])
    sys2, _ = similarity_transform(plant, gains, S)
    d2, _ = closed_form_gains(sys2)
    rho1 = norm_condition_matrix(plant, chain_burst2, d).rho
    rho2 = norm_condition_matrix(sys2, chain_burst2, d2).rho
    assert rho1 == pytest.approx(RHO_NORM["burst2"], abs=1e-9)
    assert rho2 == pytest.approx(1.5201931113443155, abs=1e-9)
    assert is_stable(rho1) and not is_stable(rho2)


def test_similarity_singular_raises(plant):
    _, gains = closed_form_gains(plant)
    with pytest.raises(Singular):
        similarity_transform(plant, gains, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        similarity_transform(plant, gains, np.eye(3))


def test_compare_conditions_outcomes(plant, chain_burst2, chain_iid,
                                     chain_s1_sticky):
    both = compare_conditions(plant, chain_burst2, refine=False)
    assert both.norm_stable and both.gain_stable
    assert both.rho_norm == pytest.approx(RHO_NORM["burst2"], abs=1e-9)
    assert both.rho_seeded == both.rho_refined

    gap = compare_conditions(plant, chain_iid, refine=False)
    assert not gap.norm_stable and gap.gain_stable

    sticky = compare_conditions(plant, chain_s1_sticky, refine=False)
    assert not sticky.norm_stable and sticky.gain_stable
    assert sticky.rho_norm == pytest.approx(RHO_NORM["s1_sticky"], abs=1e-9)
    assert sticky.rho_refined == pytest.approx(RHO_GAIN["s1_sticky"], abs=1e-9)


def test_is_stable_boundary():
    assert is_stable(0.0)
    assert is_stable(1.0 - 2e-9)
    assert not is_stable(1.0 - 5e-10)
    assert not is_stable(1.0)
    assert is_stable(0.9, tol=1e-2)
