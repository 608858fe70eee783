"""Plant admissibility and validation, observability index, the stacked
observation map."""

import re

import numpy as np
import pytest

from peakcov import (
    CovarianceNotPSD,
    ModelAssumptionWarning,
    QNotPSD,
    RNotPositiveDefinite,
    SystemModel,
    Uncontrollable,
    Unobservable,
    observability_index,
    validate,
)
from peakcov.system import _obs_stack


def _sys(A, C, Q=None, R=None, Sigma0=None):
    n = np.asarray(A).shape[0]
    m = np.asarray(C).reshape(-1, n).shape[0]
    return SystemModel(
        A=A, C=C,
        Q=np.eye(n) if Q is None else Q,
        R=np.eye(m) if R is None else R,
        Sigma0=np.eye(n) if Sigma0 is None else Sigma0,
    )


def test_validate_workhorse_passes(plant, recwarn):
    assert validate(plant) is None
    assert not recwarn.list  # no stable mode to warn about
    assert observability_index(plant) == 2


def test_validate_unobservable():
    # diagonal modes, sensor reads only the first: second state never seen
    with pytest.raises(Unobservable):
        validate(_sys([[1.3, 0.0], [0.0, 1.2]], [[1.0, 0.0]]))


# a plant with an inadmissible covariance cannot be built: SystemModel
# refuses it, so no library function meets it


def test_validate_r_not_positive_definite():
    with pytest.raises(RNotPositiveDefinite,
                       match=r"^R has eigenvalue 0\.000e\+00 <= 0$"):
        _sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]], R=[[0.0]])


def test_validate_q_not_psd():
    with pytest.raises(QNotPSD, match=r"^Q has eigenvalue -1\.000e\+00 < 0$"):
        _sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]],
             Q=[[-1.0, 0.0], [0.0, 1.0]])


def test_validate_sigma0_not_psd():
    for Sigma0, lam in (
        ([[-0.5, 0.0], [0.0, 1.0]], "-5.000e-01"),
        # 2.5x past the -1e-10 (1 + |lambda_max|) tolerance: refused,
        # not clamped, so neither mc_estimate nor enumerate_first_peak
        # can start from it
        ([[1.0, 0.0], [0.0, -5e-10]], "-5.000e-10"),
    ):
        with pytest.raises(CovarianceNotPSD,
                           match=f"^Sigma0 has eigenvalue {re.escape(lam)} < 0$"):
            _sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]], Sigma0=Sigma0)


def test_validate_uncontrollable():
    # zero process noise: nothing excites the state
    with pytest.raises(Uncontrollable):
        validate(_sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]],
                      Q=np.zeros((2, 2))))


def test_validate_warns_on_stable_mode():
    sysm = _sys([[1.3, 0.0], [0.0, 0.5]], [[1.0, 1.0]])
    with pytest.warns(ModelAssumptionWarning, match="min 0.5"):
        validate(sysm)


def test_construction_shape_errors():
    with pytest.raises(ValueError):
        SystemModel(A=[[1.0, 0.0]], C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                    Sigma0=np.eye(2))
    with pytest.raises(ValueError, match="Q must be symmetric"):
        _sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]], Q=[[0.0, 1.0], [0.0, 0.0]])
    # the shape is checked before the symmetry
    with pytest.raises(ValueError, match=r"^Q must be 2x2, got \(2, 3\)$"):
        _sys([[1.3, 0.3], [0.0, 1.2]], [[1.0, 1.0]], Q=np.ones((2, 3)))


def test_fields_are_read_only(plant):
    with pytest.raises(ValueError):
        plant.A[0, 0] = 0.0


def test_observability_index_values(plant, jordan_plant):
    assert observability_index(plant) == 2
    assert observability_index(jordan_plant) == 3
    assert observability_index(_sys([[1.3, 0.3], [0.0, 1.2]], np.eye(2))) == 1
    # transformed pair keeps the index
    assert observability_index(_sys([[1.3, 0.8], [0.0, 1.2]], [[1.0, 6.0]])) == 2


def test_observability_index_similarity_invariant(plant, jordan_plant):
    rng = np.random.default_rng(21)
    for sysm in (plant, jordan_plant):
        n = sysm.n
        kept = 0
        while kept < 8:
            S = rng.standard_normal((n, n))
            if np.linalg.cond(S) > 1e3:
                continue
            kept += 1
            Si = np.linalg.inv(S)
            t = _sys(Si @ sysm.A @ S, sysm.C @ S)
            assert observability_index(t) == observability_index(sysm)


def test_stacked_rank_saturates_at_index(plant, jordan_plant):
    for sysm in (plant, jordan_plant):
        io = observability_index(sysm)
        ranks = [np.linalg.matrix_rank(_obs_stack(sysm.A, sysm.C, i))
                 for i in range(1, sysm.n + 1)]
        assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))
        assert ranks[io - 1] == sysm.n
        if io > 1:
            assert ranks[io - 2] < sysm.n


def test_joint_cov_psd_random_systems(fixed_gain_update):
    # at X = 0 the fixed-gain update is the joint covariance of the i
    # process and measurement noises seen through the gain: PSD for any K
    rng = np.random.default_rng(22)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        C = rng.standard_normal((2, 3))
        B = rng.standard_normal((3, 3))
        sysm = SystemModel(A=A, C=C, Q=B @ B.T, R=np.eye(2), Sigma0=np.eye(3))
        for i in (1, 2, 3):
            K = rng.uniform(-2, 2, (3, 2 * i))
            w = np.linalg.eigvalsh(fixed_gain_update(sysm, i, K, np.zeros((3, 3))))
            assert w[0] >= -1e-10 * (1 + w[-1])
