"""k-uniform and AME qudit graph states from MDS codes over prime fields."""

from .analysis import (
    ame_support_check,
    rank_spectrum,
    rank_spectrum_check,
    rank_split_check,
)
from .codes import (
    LinearCode,
    dual_code,
    enumerate_codewords,
    mds_a_matrix,
    mds_code,
    min_distance,
    singleton_array,
    singleton_gamma,
)
from .dense import (
    StateVector,
    apply_O,
    apply_fourier,
    apply_x,
    apply_z,
    code_to_graph_fourier_positions,
    graph_state,
    hierarchy_state_from_codes,
    rank_of_reduction,
    reduced_density,
    state_from_code,
    support_count,
    to_graph_form,
    uniformity_by_oracle,
)
from .errors import ResourceLimitError
from .field import PrimeField
from .graph import (
    Adjacency,
    HierarchySpec,
    bipartite_adjacency,
    export_dot,
    general_adjacency,
    hierarchy_adjacency,
    level_codes,
    nested_adjacencies,
    random_b_matrix,
)
from .matrix import MatrixGF
from .stabilizer import (
    graph_generators,
    minimum_support,
    support_weight,
    uniformity_index,
    verify_general_uniformity,
)

__version__ = "0.1.0"

__all__ = [
    "Adjacency",
    "HierarchySpec",
    "LinearCode",
    "MatrixGF",
    "PrimeField",
    "ResourceLimitError",
    "StateVector",
    "ame_support_check",
    "apply_O",
    "apply_fourier",
    "apply_x",
    "apply_z",
    "bipartite_adjacency",
    "code_to_graph_fourier_positions",
    "dual_code",
    "enumerate_codewords",
    "export_dot",
    "general_adjacency",
    "graph_generators",
    "graph_state",
    "hierarchy_adjacency",
    "hierarchy_state_from_codes",
    "level_codes",
    "mds_a_matrix",
    "mds_code",
    "min_distance",
    "minimum_support",
    "nested_adjacencies",
    "rank_of_reduction",
    "rank_spectrum",
    "rank_spectrum_check",
    "rank_split_check",
    "random_b_matrix",
    "reduced_density",
    "singleton_array",
    "singleton_gamma",
    "state_from_code",
    "support_count",
    "support_weight",
    "to_graph_form",
    "uniformity_by_oracle",
    "uniformity_index",
    "verify_general_uniformity",
]
