"""Shared fixtures: the worked plants and loss chains used across the suite.

The 2x2 upper-triangular plant with summed-output sensing is the main
workhorse (observability index 2). The rotation plant is the diverging
demo: losses always strike the same phase, so one coordinate is never
seen. The 3x3 Jordan plant has observability index 3 and exercises the
depth-2 gain blocks and idle-step weights.
"""

from pathlib import Path

import numpy as np
import pytest

from peakcov import LossModel, SystemModel, Unobservable, observability_index

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "demos" / "problems"


@pytest.fixture(scope="session")
def plant() -> SystemModel:
    return SystemModel(
        A=[[1.3, 0.3], [0.0, 1.2]],
        C=[[1.0, 1.0]],
        Q=np.eye(2),
        R=[[1.0]],
        Sigma0=np.eye(2),
    )


@pytest.fixture(scope="session")
def chain_burst2() -> LossModel:
    # bursts up to 2, idle state sticky enough to matter
    return LossModel(Pi=[[0.6, 0.2, 0.2], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]])


@pytest.fixture(scope="session")
def chain_iid() -> LossModel:
    # identical rows: gap lengths are i.i.d. under the stationary law
    return LossModel(Pi=[[0.6, 0.2, 0.2]] * 3)


@pytest.fixture(scope="session")
def chain_s1() -> LossModel:
    return LossModel(Pi=[[0.6, 0.4], [0.8, 0.2]])


@pytest.fixture(scope="session")
def chain_s1_sticky() -> LossModel:
    # chain_s1 with the loss state made sticky (0.2 -> 0.5)
    return LossModel(Pi=[[0.6, 0.4], [0.5, 0.5]])


@pytest.fixture(scope="session")
def rotation_plant() -> SystemModel:
    return SystemModel(
        A=[[0.0, -1.3], [1.3, 0.0]],
        C=[[1.0, 0.0]],
        Q=np.eye(2),
        R=[[1.0]],
        Sigma0=np.eye(2),
    )


@pytest.fixture(scope="session")
def rotation_chain() -> LossModel:
    return LossModel(Pi=[[0.1, 0.9], [0.1, 0.9]])


@pytest.fixture(scope="session")
def jordan_plant() -> SystemModel:
    return SystemModel(
        A=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
        C=[[1.0, 0.0, 0.0]],
        Q=np.eye(3),
        R=[[1.0]],
        Sigma0=np.eye(3),
    )


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return PROBLEMS_DIR


@pytest.fixture(scope="session")
def random_problem():
    """Builder of seeded random problems: an n-state, m-output plant and a
    loss chain with bursts up to s, or None when (A, C) is unobservable.
    Every row of the chain is mixed with weight `idle` into state 0 (a
    loss-free gap), so a large `idle` makes the gain condition stable."""

    def build(rng, n, m, s, scale=1.0, idle=0.0):
        B, D, E = (rng.standard_normal((k, k)) for k in (n, m, n))
        sysm = SystemModel(A=scale * rng.standard_normal((n, n)) / np.sqrt(n),
                           C=rng.standard_normal((m, n)),
                           Q=B @ B.T + 0.1 * np.eye(n),
                           R=D @ D.T + 0.1 * np.eye(m), Sigma0=E @ E.T)
        try:
            observability_index(sysm)
        except Unobservable:
            return None
        Pi = (1 - idle) * rng.dirichlet(np.ones(s + 1), size=s + 1)
        Pi[:, 0] += idle
        return sysm, LossModel(Pi=Pi)

    return build
