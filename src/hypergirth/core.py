"""Hypergraph and bipartite-graph value types plus basic structure analysis.

A hypergraph is a vertex count together with a duplicate-free set of
nonempty vertex-id edges.  A cycle of length k >= 2 is a pair of sequences
of k distinct vertices v_0..v_{k-1} and k distinct edges e_0..e_{k-1} with
{v_i, v_{i+1 mod k}} contained in e_i; girth is the minimum cycle length.

Both value types are immutable, store their content in canonical order
(edges and incidences sorted lexicographically, every id an int) and are
safe to share between threads.  Neither may have more than VERTEX_BUDGET
vertices.  Each value derives its adjacency (neighbour lists, vertex
edges, degrees) once, on first use, and the other modules read those:
only this module and ``formats`` read a value's raw incidences.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from . import girth
from .arith import record, short_decimal, short_value, show as _show
from .errors import ResourceBudgetError, ValidationError

# Most vertices a Hypergraph or BipartiteGraph may have, with no override;
# it admits the largest greedy grid, 1 x geometry.GREEDY_PAIR_BUDGET.
VERTEX_BUDGET = 5_000_000


def budget_int(token: str) -> int | None:
    """The canonical decimal ``token`` as an int if it is at most
    VERTEX_BUDGET, else None.  A token with more digits than VERTEX_BUDGET
    is never converted: int() takes time quadratic in its length."""
    if len(token) > len(str(VERTEX_BUDGET)):
        return None
    value = int(token)
    return value if value <= VERTEX_BUDGET else None


def check_vertex_budget(count: int | str, what: str) -> None:
    """Refuse ``what`` with ``count`` vertices before anything that grows
    with the count is allocated.  A canonical decimal ``count`` is read by
    budget_int, so a long one is refused unconverted."""
    if budget_int(count) is None if isinstance(count, str) else count > VERTEX_BUDGET:
        raise ResourceBudgetError(f"{what} has {short_decimal(count)} vertices, budget is {VERTEX_BUDGET}")


def _id_error(what: str, items: Iterable[tuple]) -> ValidationError:
    """The refusal of the first edge or incidence of ``items`` with an id
    that is not an int.  A bool or float compares as a number but does not
    serialize as one; a str does not even compare with an int."""
    idx, ids = next((i, ids) for i, ids in enumerate(items) if any(type(x) is not int for x in ids))
    bad = next(x for x in ids if type(x) is not int)
    return ValidationError(f"{what} {idx} {_show(ids)}: id {_show(bad, repr)} is not an int", idx)


def _pair_error(items: Iterable, exc: Exception) -> Exception:
    """The refusal of the first incidence of ``items`` that does not unpack
    into two ids, or ``exc`` if every one does: then ``exc`` came from
    elsewhere."""
    for idx, pair in enumerate(items):
        try:
            _, _ = pair
        except (TypeError, ValueError):
            return ValidationError(f"incidence {idx} {_show(pair)}: not a pair", idx)
    return exc


@record
class Hypergraph:
    """Immutable hypergraph in canonical form.

    ``edges`` must be a lexicographically strictly increasing tuple of
    strictly increasing vertex-id tuples; use :meth:`from_edges` to build
    one from unordered data.
    """

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.num_vertices) is not int or self.num_vertices < 0:
            raise ValidationError(f"num_vertices must be a nonnegative integer, got {_show(self.num_vertices, repr)}")
        check_vertex_budget(self.num_vertices, "hypergraph")
        prev: tuple[int, ...] = ()
        for idx, edge in enumerate(self.edges):
            if type(edge) is not tuple:
                raise ValidationError(f"edge {idx} {_show(edge)}: not a tuple", idx)
            if not edge:
                raise ValidationError(f"edge {idx} is empty", idx)
            a = edge[0]
            if type(a) is not int:
                raise _id_error("edge", self.edges)
            for b in edge[1:]:
                if type(b) is not int:
                    raise _id_error("edge", self.edges)
                if a >= b:
                    raise ValidationError(f"edge {idx} {_show(edge)}: vertex ids not strictly increasing", idx)
                a = b
            if edge[0] < 0 or edge[-1] >= self.num_vertices:
                raise ValidationError(f"edge {idx} {_show(edge)}: vertex ids out of [0, {self.num_vertices})", idx)
            if prev >= edge:
                kind = "duplicate edge" if prev == edge else "edge order not lexicographic"
                raise ValidationError(f"edge {idx} {_show(edge)}: {kind}", idx)
            prev = edge

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Canonicalize arbitrary edge iterables (sort within edges, sort the
        edge list) and reject a repeated vertex."""
        raws = [tuple(edge) for edge in edges]
        canon: list[tuple[int, ...]] = []
        try:
            for raw in raws:
                tup = tuple(sorted(raw))
                if len(set(tup)) != len(tup):
                    raise ValidationError(f"edge {_show(raw)} repeats a vertex")
                canon.append(tup)
            canon.sort()
        except TypeError:  # ids that do not compare, such as a str among ints
            raise _id_error("edge", raws) from None
        return cls(num_vertices, tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence_count(self) -> int:
        return sum(len(e) for e in self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.vertex_edges))

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the sorted indices of the edges containing it."""
        inc: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for j, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(j)
        return tuple(tuple(js) for js in inc)

    @cached_property
    def girth_report(self) -> girth.GirthReport:
        """The exact girth and its witness, computed on first use."""
        return girth.girth_hypergraph(self)


@record
class BipartiteGraph:
    """Immutable bipartite graph with classes of size ``n_left``/``n_right``
    and a duplicate-free, lexicographically sorted incidence tuple."""

    n_left: int
    n_right: int
    incidences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for size in (self.n_left, self.n_right):
            if type(size) is not int or size < 0:
                raise ValidationError(f"class sizes must be nonnegative integers, got {_show(size, repr)}")
        prev = (-1, -1)
        try:
            for idx, pair in enumerate(self.incidences):
                if type(pair) is not tuple:
                    raise ValidationError(f"incidence {idx} {_show(pair)}: not a tuple", idx)
                u, v = pair
                if type(u) is not int or type(v) is not int:
                    raise _id_error("incidence", self.incidences)
                if not 0 <= u < self.n_left:
                    raise ValidationError(
                        f"incidence {idx} {_show(pair)}: left id {short_value(u)} "
                        f"out of [0, {short_value(self.n_left)})",
                        idx,
                    )
                if not 0 <= v < self.n_right:
                    raise ValidationError(
                        f"incidence {idx} {_show(pair)}: right id {short_value(v)} "
                        f"out of [0, {short_value(self.n_right)})",
                        idx,
                    )
                if prev >= pair:
                    kind = "duplicate incidence" if prev == pair else "incidence order not lexicographic"
                    raise ValidationError(f"incidence {idx} {_show(pair)}: {kind}", idx)
                prev = pair
        except ValueError as exc:  # a tuple that does not unpack into two ids
            raise _pair_error(self.incidences, exc) from None
        # After the incidences, so a file's bad line is named before its class sizes are refused.
        check_vertex_budget(self.n_left + self.n_right, "bipartite graph")

    @classmethod
    def from_incidences(
        cls, n_left: int, n_right: int, incidences: Iterable[tuple[int, int]]
    ) -> "BipartiteGraph":
        items = list(incidences)  # read twice when an incidence is not a pair
        try:
            pairs = [(u, v) for u, v in items]
        except (TypeError, ValueError) as exc:
            raise _pair_error(items, exc) from None
        try:
            canon = sorted(set(pairs))
        except TypeError:  # ids that do not compare, such as a str among ints
            raise _id_error("incidence", pairs) from None
        return cls(n_left, n_right, tuple(canon))

    @property
    def num_incidences(self) -> int:
        return len(self.incidences)

    @cached_property
    def left_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n_left)]
        for u, v in self.incidences:
            adj[u].append(v)
        return tuple(map(tuple, adj))

    @cached_property
    def right_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n_right)]
        for u, v in self.incidences:
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def left_degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.left_neighbors)

    @cached_property
    def right_degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.right_neighbors)

    @cached_property
    def girth_report(self) -> girth.GirthReport:
        """The exact girth and its witness, computed on first use."""
        return girth.girth_bipartite(self)


@record
class StructureReport:
    """Uniformity/regularity/isolation summary of a hypergraph.

    ``uniformity`` is r when every edge has exactly r vertices, else None;
    ``uniformity_vacuous`` flags the no-edges case, where uniformity is
    reported absent by convention.  ``regularity`` is d when every vertex
    has degree d (0 for vertexless or edgeless structures), else None.
    """

    uniformity: int | None
    uniformity_vacuous: bool
    regularity: int | None
    isolated: int


def validate(h: Hypergraph) -> StructureReport:
    """Analyze uniformity, regularity and isolated-vertex count of ``h``."""
    if h.num_edges == 0:
        uniformity = None
        vacuous = True
    else:
        sizes = set(len(e) for e in h.edges)
        uniformity = sizes.pop() if len(sizes) == 1 else None
        vacuous = False
    degs = set(h.degrees)
    if h.num_vertices == 0:
        regularity: int | None = 0
    else:
        regularity = degs.pop() if len(degs) == 1 else None
    isolated = sum(1 for d in h.degrees if d == 0)
    return StructureReport(uniformity, vacuous, regularity, isolated)


def incidence_graph(h: Hypergraph) -> BipartiteGraph:
    """Bipartite incidence graph: left class = vertices of ``h``, right
    class = edges of ``h`` in canonical order, adjacency = containment."""
    pairs = tuple((u, j) for u, js in enumerate(h.vertex_edges) for j in js)
    return BipartiteGraph(h.num_vertices, h.num_edges, pairs)
