"""tnrank: tensor network ranks of dense tensors on arbitrary graphs."""

from .scalars import EXACT, FLOAT, GaussianRational, ModeMismatchError
from .tensor import (
    Tensor,
    add,
    basis_vector,
    exact_tensor,
    flatten,
    is_zero,
    matrix_rank,
    mlmul,
    outer,
    scale,
    tensors_equal,
    zeros,
)
from .graph import (
    GraphError,
    NetworkGraph,
    all_trees,
    classify,
    complete_graph,
    cycle_graph,
    edge_split,
    incident_weight_product,
    is_tree,
    normalize,
    path_graph,
    random_tree,
    star_graph,
)
from .network import (
    CPDecomposition,
    MergeRecord,
    ProblemSpec,
    TNState,
    contract_network,
    criticality,
    random_state,
    reduce_degree_one,
    remove_unit_edges,
    universal_embed,
)
from .tree_rank import (
    is_nondegenerate,
    multilinear_rank,
    rank_bound_check,
    tree_membership,
    ttns_decompose,
    ttns_rank,
)

__version__ = "0.1.0"
