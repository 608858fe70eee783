"""Covariance maps: open-loop and reception updates, fixed-gain form,
their iterates, and the Riccati fixed point."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peakcov import (
    DimensionMismatch,
    SystemModel,
    measurement_update,
    optimal_gain,
    time_update,
)
from peakcov.linalg import sym_spectral_norm
from peakcov.riccati import gain_update


# reception updates from Q to the Riccati fixed point P*: the error
# contracts like rho(A + K* C)^2, at most 0.77 a step on these plants,
# so 1000 steps leave rounding only
FIXED_POINT_STEPS = 1000

# optimal_gain eliminates without pivoting where LAPACK pivots: the two
# gains may differ by this many units of cond(S) * max|K|, S = C X C' + R
GAIN_TOL = 1e-15


def _rand_psd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T)


@pytest.fixture(scope="module")
def three_output_plant():
    # m = 3: optimal_gain's elimination runs over three pivots
    return SystemModel(
        A=[[1.1, 0.4, 0.0, 0.2], [0.0, 0.9, 0.5, 0.0],
           [0.3, 0.0, 1.2, 0.1], [0.0, 0.2, 0.0, 1.05]],
        C=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.5, 0.5, 0.0, 1.0]],
        Q=np.eye(4),
        R=[[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]],
        Sigma0=np.eye(4),
    )


def test_time_update_examples(plant):
    np.testing.assert_array_equal(time_update(plant, np.zeros((2, 2))), plant.Q)
    np.testing.assert_allclose(
        time_update(plant, np.eye(2)),
        [[2.78, 0.36], [0.36, 2.44]], atol=1e-14,
    )


def test_time_update_monotone(plant):
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = _rand_psd(rng, 2)
        y = x + _rand_psd(rng, 2)
        diff = time_update(plant, y) - time_update(plant, x)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-12


def test_measurement_update_examples(plant):
    np.testing.assert_array_equal(
        measurement_update(plant, np.zeros((2, 2))), plant.Q
    )
    # at X = I the correction is (ACt)(ACt)'/3 with ACt = (1.6, 1.2)'
    expect = np.array([[2.78, 0.36], [0.36, 2.44]]) - np.array(
        [[2.56, 1.92], [1.92, 1.44]]
    ) / 3.0
    np.testing.assert_allclose(measurement_update(plant, np.eye(2)), expect,
                               atol=1e-12)


@pytest.mark.parametrize("fixture", ["plant", "jordan_plant",
                                     "three_output_plant"])
def test_stacked_updates_match_per_matrix_calls(request, fixture):
    sysm = request.getfixturevalue(fixture)
    rng = np.random.default_rng(44)
    stack = np.stack([_rand_psd(rng, sysm.n, scale=10.0 ** e)
                      for e in range(-3, 4)])
    for update in (time_update, measurement_update):
        one_by_one = np.stack([update(sysm, x) for x in stack])
        assert update(sysm, stack).tobytes() == one_by_one.tobytes()
    norms = [sym_spectral_norm(x) for x in stack]
    assert sym_spectral_norm(stack).tolist() == norms


def _zero_gain_matches_time_update(sysm, X):
    zero = np.zeros(X.shape[:-2] + (sysm.n, sysm.m))
    got = gain_update(sysm, X, zero)
    assert got.tobytes() == time_update(sysm, X).tobytes()


@pytest.mark.parametrize("fixture", ["plant", "jordan_plant",
                                     "three_output_plant"])
def test_gain_update_at_zero_is_time_update(request, fixture):
    # the identity mc_estimate's one update per slot rests on
    sysm = request.getfixturevalue(fixture)
    rng = np.random.default_rng(46)
    stack = np.stack([_rand_psd(rng, sysm.n, scale=10.0 ** e)
                      for e in range(-3, 4)])
    _zero_gain_matches_time_update(sysm, stack)
    for x in stack:
        _zero_gain_matches_time_update(sysm, x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       m=st.integers(1, 4), runs=st.integers(1, 5))
def test_gain_update_at_zero_is_time_update_random(random_problem, seed, n,
                                                   m, runs):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, m, 2)
    assume(problem is not None)
    sysm = problem[0]
    _zero_gain_matches_time_update(sysm, np.stack(
        [_rand_psd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
         for _ in range(runs)]))


def test_gain_update_matches_fixed_gain_fixture(plant, three_output_plant,
                                                fixed_gain_update):
    rng = np.random.default_rng(47)
    for sysm in (plant, three_output_plant):
        for _ in range(20):
            x = _rand_psd(rng, sysm.n)
            k = rng.uniform(-2, 2, (sysm.n, sysm.m))
            ref = fixed_gain_update(sysm, 1, k, x)
            np.testing.assert_allclose(gain_update(sysm, x, k), ref,
                                       rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_optimal_gain_matches_solve(random_problem, m):
    # against LAPACK's pivoted solve of S' K' = -(A X C')'
    rng = np.random.default_rng(48 + m)
    for n in range(1, 7):
        problem = random_problem(rng, n, m, 2)
        if problem is None:
            continue
        sysm = problem[0]
        for _ in range(10):
            x = _rand_psd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
            S = sysm.C @ x @ sysm.C.T + sysm.R
            ref = -np.linalg.solve(S.T, (sysm.A @ x @ sysm.C.T).T).T
            err = np.abs(optimal_gain(sysm, x) - ref).max()
            assert err <= GAIN_TOL * np.linalg.cond(S) * np.abs(ref).max()


def test_measurement_below_time_update(plant):
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = _rand_psd(rng, 2)
        diff = time_update(plant, x) - measurement_update(plant, x)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-10 * (1 + np.linalg.norm(x))


def test_fixed_gain_meets_update_at_optimum(plant, fixed_gain_update):
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = _rand_psd(rng, 2)
        k = optimal_gain(plant, x)
        lhs = fixed_gain_update(plant, 1, k, x)
        rhs = measurement_update(plant, x)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))


def test_fixed_gain_dominates_update(plant, receptions, fixed_gain_update):
    rng = np.random.default_rng(44)
    for _ in range(30):
        x = _rand_psd(rng, 2)
        i = int(rng.integers(1, 3))
        k = rng.uniform(-2, 2, (2, i))
        diff = fixed_gain_update(plant, i, k, x) - receptions(plant, x, i)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-8 * (1 + np.linalg.norm(x))


def test_fixed_gain_zero_case(plant, fixed_gain_update):
    np.testing.assert_array_equal(
        fixed_gain_update(plant, 1, np.zeros((2, 1)), np.zeros((2, 2))),
        plant.Q,
    )


def test_fixed_gain_validation(plant, fixed_gain_update):
    x = np.eye(2)
    with pytest.raises(DimensionMismatch):
        fixed_gain_update(plant, 2, np.zeros((2, 1)), x)
    with pytest.raises(DimensionMismatch):
        fixed_gain_update(plant, 1, np.zeros((2, 1)), np.eye(3))
    with pytest.raises(ValueError):
        fixed_gain_update(plant, 0, np.zeros((2, 1)), x)


def test_two_step_fixed_gain_minimum_is_double_update(plant, receptions,
                                                     fixed_gain_update):
    # minimizing the trace of the depth-2 fixed-gain update over the
    # free 2x2 gain must land on the twice-applied reception update
    x = np.eye(2)
    target = float(np.trace(receptions(plant, x, 2)))

    def objective(k):
        return float(np.trace(fixed_gain_update(plant, 2, k.reshape(2, 2),
                                                 x)))

    res = scipy.optimize.minimize(
        objective, np.zeros(4), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 20_000,
                 "maxfev": 20_000})
    assert res.fun == pytest.approx(target, abs=1e-8)
    assert res.fun >= target - 1e-10  # never undershoots the true minimum


def test_dare_scalar_closed_form(receptions):
    # p = a^2 p + q - a^2 p^2 / (p + r) has the positive root
    # ((a^2 - 1) r + q + sqrt(((a^2 - 1) r + q)^2 + 4 q r)) / 2 at a=1.3
    sysm = SystemModel(A=[[1.3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Sigma0=[[1.0]])
    p = receptions(sysm, sysm.Q, FIXED_POINT_STEPS)[0, 0]
    assert p == pytest.approx((1.69 + np.sqrt(6.8561)) / 2, abs=1e-10)


def test_dare_residual(plant, receptions):
    p = receptions(plant, plant.Q, FIXED_POINT_STEPS)
    resid = np.linalg.norm(measurement_update(plant, p) - p)
    assert resid <= 1e-10 * (1 + np.linalg.norm(p))


def test_all_reception_stream_converges_to_fixed_point(plant, receptions):
    p_star = receptions(plant, plant.Q, FIXED_POINT_STEPS)
    p = receptions(plant, plant.Sigma0, 200)
    assert np.linalg.norm(p - p_star) <= 1e-8 * (1 + np.linalg.norm(p_star))


def test_update_iterates_forget_initial_condition(plant, receptions):
    p_star = receptions(plant, plant.Q, FIXED_POINT_STEPS)
    rng = np.random.default_rng(45)
    for _ in range(10):
        x = _rand_psd(rng, 2, scale=rng.uniform(0.1, 50.0))
        p = receptions(plant, x, 500)
        assert np.linalg.norm(p - p_star) <= 1e-8 * (1 + np.linalg.norm(p_star))


def test_update_saturates_for_large_starts(plant, receptions):
    # three reception updates cap any large start at the same ceiling;
    # small starts approach that plateau from below and are not on it
    # yet, so scale-independence is asserted over the large branch only
    norms = [
        np.linalg.norm(receptions(plant, c * np.eye(2), 3))
        for c in (1e3, 1e6, 1e9)
    ]
    assert max(norms) / min(norms) < 1.2
    assert max(norms) < 200.0
    small = np.linalg.norm(receptions(plant, np.eye(2), 3))
    assert small < min(norms)
