"""Wasserstein distances between k-step distributions of paired lazy walks.

The package computes exact optimal-transport distances on finite connected
simple graphs, classifies the limiting behavior of the distance sequence
W_k between two lazy random walks, certifies results with primal plans and
1-Lipschitz dual potentials, and validates the closed-form predictions
exhaustively on small graphs.
"""

from .analysis import (
    Category,
    ClassificationReport,
    RateEstimate,
    RhoBounds,
    SpectralData,
    classify,
    detect_gluvab,
    divergence_sum,
    fit_rate,
    one_step_constancy_check,
    predict_constancy,
    rate_fit_window,
    rho_bounds,
    spectral_data,
    spectrum,
    wk_series,
)
from .errors import (
    BetaOneError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptyVertexSetError,
    EventuallyConstantError,
    GraphFormatError,
    InvalidDistributionError,
    InvalidVertexError,
    LazinessOrderError,
    LazinessOutOfRangeError,
    LimitExceededError,
    NoLaterNeighborError,
    NotBipartiteError,
    NotLipschitzError,
    SelfLoopError,
    TooFewPointsError,
    TooLargeError,
    UnbalancedMassError,
    WalkdistError,
    WrongCategoryError,
)
from .graphs import (
    BipartiteStructure,
    Graph,
    Metric,
    ROrdering,
    SpanningTree,
    all_pairs_distances,
    bipartite_decompose,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    graph_to_text,
    load_graph_file,
    parse_graph_text,
    path_graph,
    r_monotone_ordering,
    spanning_tree,
    star_graph,
)
from .transport import (
    DualPotential,
    TransportPlan,
    TransportResult,
    cost_of_plan,
    distribution_from_csv,
    dual_value,
    plan_to_csv,
    potential_to_csv,
    wasserstein,
    wasserstein_between,
    wasserstein_oracle,
)
from .tree_transport import (
    AlgorithmTrace,
    InequalityReport,
    Violation,
    check_inequalities,
    epsilon_bound,
    half_l1,
    run_tree_transport,
    trace_to_jsonable,
)
from .walks import (
    Distribution,
    Guvab,
    TransitionMatrix,
    TwoStateDist,
    k_step,
    limit_xi,
    load_guvab_config,
    pair_states,
    point_mass,
    probability_distribution,
    signed_distribution,
    stationary_pi,
    tau_distributions,
    transition_matrix,
    two_state_closed_form,
    walk_parity_limits,
    xi_k,
    zero_distribution,
)

__version__ = "0.1.0"
