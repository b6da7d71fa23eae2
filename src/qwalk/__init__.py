"""Continuous-time quantum walk analysis on graphs: transition operators,
perfect state transfer detection, and the exact-arithmetic necessary
conditions behind it.  Every per-graph fact is a view of one ``GraphData``."""

from .graphs import (
    Graph,
    Graph6Error,
    cartesian_product,
    complete,
    cycle,
    encode_graph6,
    hypercube,
    parse_graph6,
    path,
    petersen,
    star,
)
from .spectral import (
    GapReport,
    SpectralDecomposition,
    decompose,
    transition_matrix,
)
from .partitions import Partition, coarsest_equitable_refinement
from .walkalg import InternalCheckError, cospectral_via_gram
from .analysis import (
    AnalysisConfig,
    GraphData,
    PstEvent,
    SupportClass,
    TransferReport,
    classify_support,
    fidelity,
    rho_squared_integer,
    search_pst,
    verify_pst_event,
)

__all__ = [
    "Graph", "Graph6Error", "cartesian_product", "complete", "cycle", "encode_graph6",
    "hypercube", "parse_graph6", "path", "petersen", "star",
    "GapReport", "SpectralDecomposition", "decompose", "transition_matrix",
    "Partition", "coarsest_equitable_refinement",
    "InternalCheckError", "cospectral_via_gram",
    "AnalysisConfig", "GraphData", "PstEvent", "SupportClass", "TransferReport",
    "classify_support", "fidelity", "rho_squared_integer", "search_pst", "verify_pst_event",
]

__version__ = "0.1.0"
