import pytest
from hypothesis import settings

from kunigraph import (
    HierarchySpec,
    PrimeField,
    bipartite_adjacency,
    hierarchy_adjacency,
    hierarchy_state_from_codes,
    state_from_code,
)
from kunigraph.codes import mds_code

# fixed examples and no deadline: the suite gives the same verdict on every run,
# however loaded the host is
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

PAPER_A_2x4 = [[1, 1, 1, 1], [1, 2, 3, 4]]


@pytest.fixture(scope="session")
def f5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def f7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def code62(f5):
    return mds_code(f5, 6, 2)


@pytest.fixture(scope="session")
def adj60(code62):
    return bipartite_adjacency(code62)


@pytest.fixture(scope="session")
def phi60(code62):
    return state_from_code(code62)


@pytest.fixture(scope="session")
def phi62(f5, code62):
    return hierarchy_state_from_codes(code62, mds_code(f5, 2, 1))


@pytest.fixture(scope="session")
def phi63(f5, code62):
    return hierarchy_state_from_codes(code62, mds_code(f5, 3, 1))


@pytest.fixture(scope="session")
def adj62(f5):
    return hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1))))


@pytest.fixture(scope="session")
def adj63(f5):
    return hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (3, 1))))


@pytest.fixture(scope="session")
def code52(f5):
    return mds_code(f5, 5, 2)


@pytest.fixture(scope="session")
def phi50(code52):
    return state_from_code(code52)


@pytest.fixture(scope="session")
def phi52(f5, code52):
    return hierarchy_state_from_codes(code52, mds_code(f5, 2, 1))
