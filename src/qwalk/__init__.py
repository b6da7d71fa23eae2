"""Continuous-time quantum walk analysis on graphs: transition operators,
perfect state transfer detection, and the exact-arithmetic necessary
conditions behind it."""

from .graphs import (
    Graph,
    Graph6Error,
    cartesian_product,
    complete,
    cycle,
    delete_vertex,
    encode_graph6,
    hypercube,
    parse_graph6,
    path,
    petersen,
    star,
)
from .spectral import (
    ExactPoly,
    GapReport,
    SpectralDecomposition,
    char_poly_exact,
    decompose,
    deleted_char_polys,
    eigenvalue_gap,
    eigenvalue_support,
    trace_identity_check,
    transition_matrix,
)
from .partitions import (
    Partition,
    check_delta_equality,
    coarsest_equitable_refinement,
    delta_u,
    is_equitable,
    normalized_char_matrix,
    stabilizer_orbits_bruteforce,
)
from .walkalg import (
    InternalCheckError,
    cospectral_via_charpoly,
    cospectral_via_gram,
    is_controllable,
    rank_exact,
    support_size_crosscheck,
    transfer_similarity,
    walk_matrix,
    walk_rank,
)
from .analysis import (
    PstEvent,
    SupportClass,
    TransferReport,
    analyze_pair,
    check_periodicity,
    classify_support,
    fidelity,
    finiteness_bound,
    necessary_conditions,
    rho_squared_integer,
    search_pst,
    verify_pst_event,
)

__version__ = "0.1.0"
