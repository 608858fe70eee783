"""Linear-algebra kernel: identities, frozen values, error paths."""

import numpy as np
import pytest
import scipy.linalg

from peakcov import (
    NotSymmetric,
    Singular,
    closed_form_gains,
    gain_condition_matrix,
    kron,
    null_space_basis,
    solve,
    spectral_norm_sq,
    spectral_radius,
    sym_eig,
    unvec,
    vec,
)
from peakcov.system import stacked

# lambda_max of A'A for A = [[1.3, 0.3], [0, 1.2]], from the 2x2
# characteristic polynomial: trace 3.22, det 2.4336
NORM_SQ_A = (3.22 + np.sqrt(3.22**2 - 4 * 2.4336)) / 2
# same oracle for the transformed A~ = [[1.3, 0.8], [0, 1.2]]
NORM_SQ_AT = (3.77 + np.sqrt(3.77**2 - 4 * 2.4336)) / 2


def test_kron_identity_blocks():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.array([[1.0, 4.0], [0.0, -2.0]])
    out = kron(a, b)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out[2:, :2], a[1, 0] * b)


def test_kron_mixed_product_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_vec_column_stacking():
    np.testing.assert_array_equal(
        vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0]
    )
    np.testing.assert_array_equal(vec(np.zeros((2, 2))), np.zeros(4))


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(12)
    for rows, cols in [(2, 2), (3, 1), (2, 5)]:
        m = rng.standard_normal((rows, cols))
        np.testing.assert_array_equal(unvec(vec(m), rows, cols), m)
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 2)


def test_vec_three_factor_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        np.testing.assert_allclose(
            vec(a @ b @ c), kron(c.T, a) @ vec(b), atol=1e-12
        )


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
        spectral_radius(np.eye(2), tol=-1.0)
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


def test_sym_eig_basics():
    w, v = sym_eig(np.diag([5.0, 2.0]))
    np.testing.assert_allclose(w, [2.0, 5.0], atol=1e-14)
    a = np.array([[1.3, 0.3], [0.0, 1.2]])
    w, _ = sym_eig(a.T @ a)
    assert w[-1] == pytest.approx(NORM_SQ_A, abs=1e-12)
    w, v = sym_eig(np.zeros((3, 3)))
    np.testing.assert_array_equal(w, np.zeros(3))
    with pytest.raises(NotSymmetric):
        sym_eig([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(16)
    for _ in range(10):
        b = rng.standard_normal((4, 4))
        m = b + b.T
        w, v = sym_eig(m)
        assert list(w) == sorted(w)
        err = np.linalg.norm(m - (v * w) @ v.T)
        assert err <= 1e-10 * (1 + np.linalg.norm(m))


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
    b = vec(np.eye(2) + 0.0)
    b = np.concatenate([b, b])
    x_direct = solve(np.eye(8) - H, b)
    x_series = np.zeros(8)
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
        lhs = np.eye(s * n * n) - H.matrix
        rhs = np.concatenate([vec(np.eye(n))] * s)
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(lhs), rhs)
        assert np.linalg.norm(solve(lhs, rhs) - ref) <= 1e-12 * np.linalg.norm(ref)
        found += 1


def test_null_space_basis_cases(plant):
    n = null_space_basis([[1.0, 1.0]])
    assert n.shape == (2, 1)
    np.testing.assert_allclose(np.abs(n[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)
    # depth-2 stacked observation map has full column rank: empty basis
    obs2 = stacked(plant, 2).obs_map
    assert null_space_basis(obs2).shape == (2, 0)
    np.testing.assert_allclose(null_space_basis(np.zeros((2, 2))), np.eye(2))


def test_null_space_residual_bound():
    rng = np.random.default_rng(18)
    for cols in (2, 3, 5):
        # rank-1 wide matrix: null space has cols-1 dimensions
        m = np.outer(rng.standard_normal(3), rng.standard_normal(cols))
        n = null_space_basis(m)
        assert n.shape == (cols, cols - 1)
        smax = np.linalg.svd(m, compute_uv=False)[0]
        rank_tol = max(m.shape) * np.finfo(float).eps
        assert np.linalg.norm(m @ n) <= rank_tol * smax * np.sqrt(n.shape[1])
        np.testing.assert_allclose(n.T @ n, np.eye(cols - 1), atol=1e-12)
