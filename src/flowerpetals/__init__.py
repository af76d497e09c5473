"""Higher-order spectral graph learning on clique complexes.

Builds flower-petals adjacency/Laplacian operators from per-order
incidence structure, trains HiGCN-style learnable polynomial filters with
exact hand-derived gradients, runs WL/HWL/SHWL refinement, and provides
degree-preserving triangle-density rewiring, all on numpy.
"""

from .complexes import (
    CoauthorshipComplex,
    DataError,
    Graph,
    IncidenceMatrix,
    SimplicialComplex,
    clique_lift,
    incidence_matrix,
    load_coauthorship,
    load_graph,
    load_graph_dataset,
)
from .isomorphism import distinguish, refine
from .linalg import ConvergenceError, SparseMatrix, dense_sym_eig, spmm_dense, spmv
from .model import (
    AdamState,
    ForwardTape,
    HigcnParams,
    adam_step,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    strength,
)
from .nullmodel import (
    RewireLog,
    SaturationError,
    relative_density,
    rewire_add_triangle,
    rewire_to_target,
)
from .operators import (
    FpOperator,
    PropagatedFeatures,
    WalkState,
    build_fp_adjacency,
    build_fp_laplacian,
    propagate_features,
    spectral_filter_oracle,
    two_step_walk,
    walk_operator,
)
from .tasks import (
    ConstantSignalError,
    MetricsReport,
    SplitSpec,
    TrainConfig,
    graph_classify,
    impute_signals,
    kendall_tau,
    make_splits,
    petal_features,
    petal_operators,
    train_node_classification,
)

__version__ = "0.1.0"
