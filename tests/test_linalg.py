"""Linear-algebra kernel: identities, frozen values, error paths."""

import numpy as np
import pytest
import scipy.linalg

from peakcov import (
    Singular,
    closed_form_gains,
    gain_condition_matrix,
    solve,
    spectral_norm_sq,
    spectral_radius,
)

# lambda_max of A'A for A = [[1.3, 0.3], [0, 1.2]], from the 2x2
# characteristic polynomial: trace 3.22, det 2.4336
NORM_SQ_A = (3.22 + np.sqrt(3.22**2 - 4 * 2.4336)) / 2
# same oracle for the transformed A~ = [[1.3, 0.8], [0, 1.2]]
NORM_SQ_AT = (3.77 + np.sqrt(3.77**2 - 4 * 2.4336)) / 2


def test_spectral_radius_examples(plant, chain_burst2):
    assert spectral_radius(np.diag([1.3, 1.2])) == pytest.approx(1.3, abs=1e-12)
    assert spectral_radius([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)
    # norm-bound condition matrix of the workhorse instance: rank-one core
    # 1.22 * [[0.1, 0.1], [0.1, 0.1]] scaled by the squared power norms
    a = np.array([[1.3, 0.3], [0.0, 1.2]])
    phi = 1.22 * np.full((2, 2), 0.1) @ np.diag(
        [NORM_SQ_A, spectral_norm_sq(a @ a)]
    )
    assert spectral_radius(phi) == pytest.approx(0.7352, abs=1e-3)


def test_spectral_radius_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius([[np.nan, 0.0], [0.0, 1.0]])


def test_spectral_radius_similarity_invariance():
    rng = np.random.default_rng(14)
    kept = 0
    while kept < 15:
        m = rng.standard_normal((4, 4))
        t = rng.standard_normal((4, 4))
        if np.linalg.cond(t) > 1e3:
            continue
        kept += 1
        r1 = spectral_radius(m)
        r2 = spectral_radius(np.linalg.solve(t, m @ t))
        assert abs(r1 - r2) <= 1e-8 * (1 + r1)


def test_spectral_norm_sq_values():
    assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    a = np.array([[1.3, 0.3], [0.0, 1.2]])
    assert spectral_norm_sq(a) == pytest.approx(2.00812, abs=1e-4)
    assert spectral_norm_sq(a) == pytest.approx(NORM_SQ_A, abs=1e-12)
    at = np.array([[1.3, 0.8], [0.0, 1.2]])
    assert spectral_norm_sq(at) == pytest.approx(2.9431, abs=1e-3)
    assert spectral_norm_sq(at) == pytest.approx(NORM_SQ_AT, abs=1e-12)


def test_spectral_norm_sq_matches_radius_of_gram():
    rng = np.random.default_rng(15)
    for _ in range(20):
        m = rng.standard_normal((3, 3))
        s2 = spectral_norm_sq(m)
        assert abs(s2 - spectral_radius(m.T @ m)) <= 1e-10 * (1 + s2)


def test_solve_identity_and_residual():
    b = np.array([3.0, -1.0])
    np.testing.assert_array_equal(solve(np.eye(2), b), b)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal((5, 2))
    x = solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))


def test_solve_matches_neumann_series(plant, chain_burst2):
    # the certificate construction inverts I - H; when rho(H) < 1 the
    # geometric series for the inverse gives an independent answer
    from peakcov import closed_form_gains

    _, gains = closed_form_gains(plant)
    H = gain_condition_matrix(plant, chain_burst2, gains).matrix
    assert spectral_radius(H) < 1
    b = np.tile(np.eye(2)[np.triu_indices(2)], 2)  # I, I upper triangles
    x_direct = solve(np.eye(6) - H, b)
    x_series = np.zeros(6)
    term = b.copy()
    for _ in range(400):
        x_series += term
        term = H @ term
    assert np.linalg.norm(x_direct - x_series) <= 1e-10 * (1 + np.linalg.norm(x_direct))


def test_solve_singular_raises():
    with pytest.raises(Singular):
        solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])


def test_solve_singular_boundary():
    # singular value ratios 2.5e-15 and 2.5e-7 sit on either side of the
    # 1e-12 rule, as they did of the old LU pivot floor
    with pytest.raises(Singular):
        solve([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1.0, 0.0])
    x = solve([[1.0, 1.0], [1.0, 1.0 + 1e-6]], [1.0, 0.0])
    np.testing.assert_allclose(x, [1e6 + 1.0, -1e6], rtol=1e-9)


@pytest.mark.parametrize("n,s", [(2, 1), (3, 2), (4, 3), (6, 4), (8, 4)])
def test_solve_matches_lu_solve_on_certificate_systems(random_problem, n, s):
    # the one stated tolerance for the rounding of np.linalg.solve against
    # scipy's LU on the systems build_certificate solves
    rng = np.random.default_rng(100 * n + s)
    found = 0
    while found < 4:
        problem = random_problem(rng, n, 1, s, scale=1.3, idle=0.5)
        if problem is None:
            continue
        sysm, loss = problem
        H = gain_condition_matrix(sysm, loss, closed_form_gains(sysm)[1])
        if H.rho >= 0.99:
            continue
        rhs = np.tile(np.eye(n)[np.triu_indices(n)], s)
        lhs = np.eye(rhs.size) - H.matrix
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(lhs), rhs)
        assert np.linalg.norm(solve(lhs, rhs) - ref) <= 1e-12 * np.linalg.norm(ref)
        found += 1
