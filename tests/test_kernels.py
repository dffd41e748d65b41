import numpy as np

from kunigraph import _kernels
from kunigraph.codes import mds_code
from kunigraph.field import PrimeField
from kunigraph.graph import HierarchySpec, bipartite_adjacency, hierarchy_adjacency


def corpus():
    f5 = PrimeField(5)
    f3 = PrimeField(3)
    return [
        (bipartite_adjacency(mds_code(f5, 6, 2)).gamma.entries, 5),
        (bipartite_adjacency(mds_code(f5, 5, 2)).gamma.entries, 5),
        (hierarchy_adjacency(HierarchySpec(f5, ((6, 2), (2, 1)))).gamma.entries, 5),
        (bipartite_adjacency(mds_code(f3, 4, 2)).gamma.entries, 3),
        (np.zeros((4, 4), dtype=np.int64), 5),
    ]


def test_numpy_chunk_size_does_not_change_results():
    for gamma, q in corpus():
        small = _kernels.min_support_sweep(gamma, q, chunk=7)
        large = _kernels.min_support_sweep(gamma, q, chunk=1 << 16)
        assert small == large


def test_default_backend_is_numpy():
    assert _kernels.DEFAULT_BACKEND == "numpy"


def test_witness_index_is_the_first_minimum():
    # the bell graph: every nonzero w touches both qudits, so the first
    # nonzero index (w = (0, 1)) is the witness
    gamma = np.array([[0, 4], [4, 0]], dtype=np.int64)
    assert _kernels.min_support_sweep(gamma, 5) == (2, 1)
