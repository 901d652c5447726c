"""Girth-preserving hypergraph operators.

Two facts drive everything here:

* the girth of a bipartite graph with pairwise distinct right-vertex
  neighborhoods is exactly twice the girth of the hypergraph whose edges
  are those neighborhoods (:func:`neighborhood_hypergraph`);
* replacing every edge of a host hypergraph by vertex-disjoint copies of
  a template placed inside that edge never creates a cycle shorter than
  min(girth(host), girth(template)) (:func:`substitute_edges`).

The first fact also carries a verified girth: when the bipartite graph
already holds its girth report, the neighbourhood hypergraph is given that
report halved, its witness mapped onto the edges and re-checked, instead of
sweeping its incidence graph again.  Under the precondition (distinct
nonempty neighbourhoods) that incidence graph is the bipartite graph
without its isolated right vertices, relabelled, so the carried girth is
exact.  A graph whose report was never computed costs nothing here: the
output then computes its own on first use.

Copy placement is deterministic: copy j of the template maps template
vertex t to the (j * |V_template| + t)-th smallest vertex of the host
edge, so identical inputs always produce bit-identical outputs.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left

from .arith import Number, int_args, mul, short_decimal
from .core import BipartiteGraph, Hypergraph, check_vertex_budget
from .errors import PreconditionError, VerificationError
from .girth import BergeCycle, GirthReport


class EmptySplitWarning(UserWarning):
    """Splitting left no edges (every host edge was smaller than r)."""


def _collect(num_vertices: int, pairs: list[tuple[tuple[int, ...], int]], clash: str) -> Hypergraph:
    """The hypergraph of the (edge, source) ``pairs``, edges sorted.  An edge
    produced twice raises PreconditionError(clash.format(first source,
    second source, edge)) at its first repeat; only then are pairs walked."""
    edges = dict(pairs)
    if len(edges) < len(pairs):
        first: dict[tuple[int, ...], int] = {}
        for edge, source in pairs:
            if edge in first:
                raise PreconditionError(clash.format(first[edge], source, edge))
            first[edge] = source
    return Hypergraph(num_vertices, tuple(sorted(edges)))


def neighborhood_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """Hypergraph on the left class whose edges are the distinct nonempty
    right-vertex neighborhoods.

    Empty neighborhoods are dropped; two right vertices with the same
    nonempty neighborhood violate the precondition and raise, naming both.
    A report ``g`` already holds is carried over by :func:`_halved`.
    """
    pairs = [(nbhd, v) for v, nbhd in enumerate(g.right_neighbors) if nbhd]
    h = _collect(g.n_left, pairs, "right vertices {} and {} have the same neighborhood {}")
    if "girth_report" in vars(g):
        vars(h)["girth_report"] = _halved(g, h)
    return h


def _halved(g: BipartiteGraph, h: Hypergraph) -> GirthReport:
    """The girth report of ``h``, the neighborhood hypergraph of ``g``, from
    ``g``'s: half its girth, or none on a forest.  The witness keeps its
    left nodes as the vertices and takes each right node to the index of its
    neighborhood among the sorted edges, found by bisection and compared; a
    mismatch, or a cycle that fails BergeCycle.check or is not half the girth
    long, raises VerificationError."""
    report = g.girth_report
    if report.witness is None:
        return GirthReport(None)
    sides, ids = zip(*report.witness.nodes)
    if sides != ("l", "r") * (len(ids) // 2):
        raise VerificationError("internal error: the bipartite witness does not alternate from a left node")
    nbhds = [g.right_neighbors[v] for v in ids[1::2]]
    edges = tuple(bisect_left(h.edges, nbhd) for nbhd in nbhds)
    if [h.edges[e:e + 1] for e in edges] != [(nbhd,) for nbhd in nbhds]:
        raise VerificationError("internal error: a right node of the bipartite witness maps to no edge")
    witness = BergeCycle(ids[0::2], edges)
    witness.check(h)
    if 2 * len(witness) != report.girth:
        raise VerificationError("internal error: the carried witness is not half the girth long")
    return GirthReport(report.girth // 2, witness)


def substitute_edges(host: Hypergraph, template: Hypergraph, copies_per_edge: int) -> Hypergraph:
    """Replace every host edge with vertex-disjoint template copies, after
    refusing a copy count that is not a positive int or that a host edge
    lacks the vertices for.

    The output keeps the host vertex set.  Producing the same edge twice
    (possible only when two host edges overlap in >= 2 vertices, i.e. host
    girth 2) is a hard error rather than a silent merge.
    """
    int_args(None, copies_per_edge=copies_per_edge)
    if copies_per_edge < 1:
        raise PreconditionError(f"copies_per_edge must be >= 1, got {short_decimal(copies_per_edge)}")
    t_nv, t_edges = template.num_vertices, template.edges
    need = copies_per_edge * t_nv
    for idx, edge in enumerate(host.edges):
        if len(edge) < need:
            raise PreconditionError(
                f"host edge {idx} has {len(edge)} vertices but "
                f"{short_decimal(copies_per_edge)} template copies need {short_decimal(need)}"
            )
    # each template edge's positions in a host edge, copy by copy; the check
    # above bounds the copy count unless one side has no edges
    copies = range(copies_per_edge if t_edges and host.edges else 0)
    places = [[j * t_nv + t for t in t_edge] for j in copies for t_edge in t_edges]
    pairs = [(tuple([edge[i] for i in place]), idx) for idx, edge in enumerate(host.edges) for place in places]
    clash = "host edges {} and {} both produce edge {}; substitution requires host girth >= 3"
    return _collect(host.num_vertices, pairs, clash)


def split_edges(h: Hypergraph, r: int) -> Hypergraph:
    """Cut every edge into floor(|edge| / r) disjoint r-element edges.

    Edges smaller than r contribute nothing (silent skip by design); the
    output is r-uniform whenever any edge survives, and an all-skipped
    result is flagged with EmptySplitWarning.  Girth never decreases.
    """
    int_args(None, r=r)
    if r < 2:
        raise PreconditionError(f"split size must be >= 2, got {short_decimal(r)}")
    pairs = [(edge[j : j + r], idx) for idx, edge in enumerate(h.edges) for j in range(0, len(edge) - r + 1, r)]
    if h.num_edges > 0 and not pairs:
        warnings.warn(f"every edge is smaller than r={short_decimal(r)}; output has no edges", EmptySplitWarning)
    clash = "host edges {} and {} both produce edge {}; splitting requires host girth >= 3"
    return _collect(h.num_vertices, pairs, clash)


def build_recursive(bases: list[BipartiteGraph], copy_counts: list[int]) -> Hypergraph:
    """Nested edge substitution over a tower of bipartite base graphs.

    Stage 1 takes the neighborhood hypergraph of bases[0]; stage i >= 2
    substitutes the previous result, copy_counts[i-2] times per edge, into
    the neighborhood hypergraph of bases[i-1].  The final girth is at
    least the minimum over stages of the halved base girths.  With (v_i,
    b_i) the sizes of the stages' neighborhood hypergraphs, the result has
    v_n vertices and b_1 * copy_counts[0] * b_2 * ... * b_n edges, as
    :func:`tower_counts` states.
    """
    if not bases:
        raise PreconditionError("at least one base graph is required")
    if len(copy_counts) != len(bases) - 1:
        raise PreconditionError(
            f"{len(bases)} bases need {len(bases) - 1} copy counts, got {len(copy_counts)}"
        )
    current = neighborhood_hypergraph(bases[0])
    for stage, (base, k) in enumerate(zip(bases[1:], copy_counts), start=2):
        host = neighborhood_hypergraph(base)
        try:
            current = substitute_edges(host, current, k)
        except PreconditionError as exc:
            raise PreconditionError(f"stage {stage}: {exc}") from None
    return current


def tower_counts(stages: list[tuple[Number, Number]], copies: list[Number], split: Number) -> tuple[Number, ...]:
    """(v_n, b_1 * copies * b_2 * ... * copies * b_n, split times that): the
    vertices, edges and final edges of the :func:`build_recursive` tower on
    stages of (v_i, b_i) with copies[i-2] copies per edge at stage i, each
    edge then cut into ``split`` by :func:`split_edges`; on ints or EXACT
    Decimals, each product by arith.mul."""
    edges = stages[0][1]
    for (_, b), k in zip(stages[1:], copies, strict=True):
        edges = mul(mul(k, edges), b)
    return stages[-1][0], edges, mul(split, edges)


def loose_path(num_edges: int, r: int = 3) -> Hypergraph:
    """Acyclic chain of r-element edges, consecutive edges sharing one
    vertex; the classic girth-infinite substitution template."""
    int_args(None, num_edges=num_edges, r=r)
    if num_edges < 1 or r < 2:
        raise PreconditionError("loose_path needs num_edges >= 1 and r >= 2")
    step = r - 1
    check_vertex_budget(num_edges * step + 1, "loose path")
    edges = [tuple(range(i * step, i * step + r)) for i in range(num_edges)]
    return Hypergraph(num_edges * step + 1, tuple(edges))
