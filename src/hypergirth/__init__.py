"""High-girth uniform hypergraphs: construction, transforms, exact girth,
and exact-arithmetic certification of the parameter sequences and
edge-count lower bounds behind them."""

from types import ModuleType as _Module

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
    build_recursive,
    loose_path,
    neighborhood_hypergraph,
    split_edges,
    substitute_edges,
)

__version__ = "0.1.0"

# Every name imported above from the package's modules is public; the
# submodules that the import system binds here (arith, core, ...) are not.
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module))
