"""Synthetic hypergraphs with planted communities: generator, metrics, CLI."""
from .config import (
    GeneratorParams,
    WeightMatrix,
    build_weight_matrix,
    default_params,
    modularity_weights,
    validate,
)
from .errors import (
    HgbenchError,
    InfeasibleError,
    InvalidParameters,
    UndefinedInputError,
    UnrepairableError,
)
from .generation import generate
from .metrics import (
    StatsReport,
    TwoSection,
    ccdf_report,
    census,
    graph_modularity,
    hypergraph_modularity,
    two_section,
    type_histogram,
)
from .structures import (
    CommunityAssignment,
    DegreeProfiles,
    GenerationResult,
    Hypergraph,
)

__version__ = "0.4.0"

__all__ = [
    "GeneratorParams",
    "WeightMatrix",
    "build_weight_matrix",
    "default_params",
    "modularity_weights",
    "validate",
    "generate",
    "Hypergraph",
    "CommunityAssignment",
    "DegreeProfiles",
    "GenerationResult",
    "TwoSection",
    "StatsReport",
    "two_section",
    "graph_modularity",
    "hypergraph_modularity",
    "type_histogram",
    "census",
    "ccdf_report",
    "HgbenchError",
    "InfeasibleError",
    "InvalidParameters",
    "UndefinedInputError",
    "UnrepairableError",
    "__version__",
]
