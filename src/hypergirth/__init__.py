"""High-girth uniform hypergraphs: construction, transforms, exact girth,
and exact-arithmetic certification of the parameter sequences and
edge-count lower bounds behind them."""

from .arith import PowerExpr, is_prime
from .certificate import Certificate, certificate, parse_certificate, reverify_certificate
from .core import BipartiteGraph, Hypergraph, StructureReport, incidence_graph, validate
from .errors import (
    Error,
    FormatError,
    PreconditionError,
    ResourceBudgetError,
    ValidationError,
    VerificationError,
)
from .formats import (
    load,
    parse_bipartite,
    parse_hypergraph,
    serialize_bipartite,
    serialize_hypergraph,
)
from .geometry import (
    GreedyReport,
    greedy_high_girth_bipartite,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from .girth import (
    BergeCycle,
    BipartiteCycle,
    GirthReport,
    girth_bipartite,
    girth_hypergraph,
    girth_oracle,
)
from .pipeline import PipelineReport, Recipe, parse_recipe, pad_vertices, run_pipeline
from .planner import (
    BelowSeedError,
    PlanResult,
    TheoremBound,
    plan,
    theorem_bound,
)
from .transforms import (
    EmptySplitWarning,
    SubstitutionPlan,
    build_recursive,
    loose_path,
    neighborhood_hypergraph,
    split_edges,
    substitute_edges,
)

__version__ = "0.1.0"

__all__ = [
    "BelowSeedError",
    "BergeCycle",
    "BipartiteCycle",
    "BipartiteGraph",
    "Certificate",
    "EmptySplitWarning",
    "Error",
    "FormatError",
    "GirthReport",
    "GreedyReport",
    "Hypergraph",
    "PipelineReport",
    "PlanResult",
    "PowerExpr",
    "PreconditionError",
    "Recipe",
    "ResourceBudgetError",
    "StructureReport",
    "SubstitutionPlan",
    "TheoremBound",
    "ValidationError",
    "VerificationError",
    "build_recursive",
    "certificate",
    "girth_bipartite",
    "girth_hypergraph",
    "girth_oracle",
    "greedy_high_girth_bipartite",
    "incidence_graph",
    "is_prime",
    "load",
    "loose_path",
    "neighborhood_hypergraph",
    "pad_vertices",
    "parse_bipartite",
    "parse_certificate",
    "parse_hypergraph",
    "parse_recipe",
    "plan",
    "projective_plane",
    "reverify_certificate",
    "run_pipeline",
    "serialize_bipartite",
    "serialize_hypergraph",
    "split_cayley_hexagon",
    "split_edges",
    "substitute_edges",
    "symplectic_quadrangle",
    "theorem_bound",
    "validate",
]
