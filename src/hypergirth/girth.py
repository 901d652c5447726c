"""Exact girth computation with verifiable witnesses.

Three routes are provided:

* :func:`girth_bipartite`: breadth-first shortest-cycle search from every
  vertex with cross-edge detection; exact on any bipartite graph.  The
  BFS from root r only visits vertices above r.  This keeps the result
  exact: let r* be the smallest vertex of some shortest cycle C; all of C
  lies at or above r*, so the BFS from r* still finds C, and any cycle a
  restricted BFS finds is a cycle of the whole graph, so the minimum over
  all roots is still the girth.
* :func:`girth_hypergraph`: halves the girth of the incidence graph.
  Right-vertex neighborhoods of an incidence graph are pairwise distinct
  because duplicate edges are forbidden, so cycles of length 2k in the
  incidence graph correspond exactly to hypergraph cycles of length k.
* :func:`girth_oracle`: exhaustive depth-first enumeration of hypergraph
  cycles straight from the definition, bounded by an incidence budget and
  used to validate the fast routes.  Each cycle is searched from its
  smallest vertex v0, so the search only enters vertices above v0.  It
  prunes a branch only when the branch cannot close a cycle shorter than
  the best so far, so the pruned search improves the best cycle in the
  same steps as the unpruned one and reports the same witness.  The
  bounds: no cycle is longer than the number of vertices in two or more
  edges.  A path of p edges ending at w closes into a cycle of at least
  p + d(w) edges, where d(w) is the edge distance from v0 to w through
  vertices above v0.  Every vertex of a cycle of length L through v0 lies
  within L // 2 of v0, so d is computed only to half the length sought
  and farther vertices are cut.  Closing is tested before the path grows,
  by membership of v0 in the edge: that cycle is shorter than any through
  a longer path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .core import BipartiteGraph, Hypergraph
from .errors import PreconditionError, ResourceBudgetError, VerificationError

# Most incidences girth_oracle searches, with no override.
ORACLE_INCIDENCE_BUDGET = 2000


@dataclass(frozen=True)
class BipartiteCycle:
    """Cycle in a bipartite graph as an alternating ("l", i)/("r", j) tuple."""

    nodes: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def check(self, g: BipartiteGraph) -> None:
        """Re-validate against ``g``; raises VerificationError if invalid."""
        n = len(self.nodes)
        if n < 4 or n % 2 != 0:
            raise VerificationError(f"bipartite cycle length {n} is not an even number >= 4")
        if len(set(self.nodes)) != n:
            raise VerificationError("bipartite cycle repeats a vertex")
        incident = set(g.incidences)
        for k, (side, idx) in enumerate(self.nodes):
            nside, nidx = self.nodes[(k + 1) % n]
            if side == nside:
                raise VerificationError("bipartite cycle does not alternate sides")
            pair = (idx, nidx) if side == "l" else (nidx, idx)
            if pair not in incident:
                raise VerificationError(f"cycle step {k}: {pair} is not an incidence")


@dataclass(frozen=True)
class BergeCycle:
    """Hypergraph cycle: distinct vertices v_0..v_{k-1} and distinct edge
    indices e_0..e_{k-1} with {v_i, v_{i+1 mod k}} contained in edge e_i."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def check(self, h: Hypergraph) -> None:
        """Re-validate against ``h``; raises VerificationError if invalid."""
        k = len(self.vertices)
        if k < 2 or len(self.edge_indices) != k:
            raise VerificationError(f"cycle needs k >= 2 vertices and as many edges, got {k}")
        if len(set(self.vertices)) != k:
            raise VerificationError("cycle repeats a vertex")
        if len(set(self.edge_indices)) != k:
            raise VerificationError("cycle repeats an edge")
        for i in range(k):
            if not (0 <= self.edge_indices[i] < h.num_edges):
                raise VerificationError(f"edge index {self.edge_indices[i]} out of range")
            edge = set(h.edges[self.edge_indices[i]])
            if self.vertices[i] not in edge or self.vertices[(i + 1) % k] not in edge:
                raise VerificationError(
                    f"cycle step {i}: edge {self.edge_indices[i]} does not contain "
                    f"both {self.vertices[i]} and {self.vertices[(i + 1) % k]}"
                )


@dataclass(frozen=True)
class GirthReport:
    """Result of a girth computation.

    ``girth`` is the exact girth, or None when no cycle exists
    (``searched_to`` is None: the structure is acyclic, girth infinite)
    or none was found up to a search bound (``searched_to`` = that bound).
    """

    girth: int | None
    witness: BipartiteCycle | BergeCycle | None = None
    searched_to: int | None = None

    @property
    def is_infinite(self) -> bool:
        return self.girth is None and self.searched_to is None

    def girth_str(self) -> str:
        if self.girth is not None:
            return str(self.girth)
        if self.searched_to is not None:
            return f">{self.searched_to}"
        return "inf"


def _shortest_cycle(adj: list[list[int]]) -> list[int] | None:
    """A shortest cycle of the bipartite graph with adjacency lists ``adj``,
    as its vertex sequence, or None on a forest.

    The BFS from root ``r`` only enters vertices above ``r`` (see the
    module docstring) and keeps ``dist``/``parent`` in flat lists, reset
    through the queue of touched vertices.  Scanning a vertex at depth d
    can only close a walk of length 2d + 2: a same-depth edge would make
    an odd cycle, and an edge to depth d - 1 was already seen from its
    other end.  So each BFS stops at the first depth d with
    2d + 2 >= the best length so far.
    """
    n = len(adj)
    dist = [-1] * n
    parent = [-1] * n
    best = n + 1  # longer than any cycle
    cycle: list[int] | None = None
    for root in range(n):
        if len(adj[root]) < 2:
            continue
        dist[root] = 0
        queue = [root]
        head = 0
        cross: tuple[int, int] | None = None
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if 2 * du + 2 >= best:
                break
            pu = parent[u]
            for w in adj[u]:
                if w < root:
                    continue
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif w != pu and du + dw + 1 < best:
                    best = du + dw + 1
                    cross = (u, w)
        if cross is not None:
            # root..u, across to w, then w's tree path back to root's child
            up = _tree_path(parent, cross[0], root)
            down = _tree_path(parent, cross[1], root)
            cycle = up[::-1] + down[:-1]
            if len(cycle) != best:
                raise VerificationError("internal error: reconstructed cycle has wrong length")
        for x in queue:
            dist[x] = -1
        if best == 4:
            break
    return cycle


def _tree_path(parent: list[int], x: int, root: int) -> list[int]:
    """Tree path x .. root through ``parent``."""
    path = [x]
    while x != root:
        x = parent[x]
        path.append(x)
    return path


def girth_bipartite(g: BipartiteGraph) -> GirthReport:
    """Exact girth of a bipartite graph with a witness shortest cycle
    (always even), or infinite on a forest."""
    n = g.n_left + g.n_right
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.incidences:
        adj[u].append(g.n_left + v)
        adj[g.n_left + v].append(u)
    cycle = _shortest_cycle(adj)
    if cycle is None:
        return GirthReport(None)
    nodes = tuple(("l", x) if x < g.n_left else ("r", x - g.n_left) for x in cycle)
    witness = BipartiteCycle(nodes)
    witness.check(g)
    return GirthReport(len(cycle), witness)


def girth_hypergraph(h: Hypergraph) -> GirthReport:
    """Exact hypergraph girth via the incidence graph (half its girth).

    Incidence-graph node i is vertex i and node num_vertices + j is edge j,
    with neighbours in the order :func:`core.incidence_graph` would give them.
    """
    n = h.num_vertices
    adj = [[n + j for j in js] for js in h.vertex_edges]
    adj += [list(edge) for edge in h.edges]
    cycle = _shortest_cycle(adj)
    if cycle is None:
        return GirthReport(None)
    if len(cycle) % 2 != 0:
        raise VerificationError("internal error: odd cycle in an incidence graph")
    if cycle[0] >= n:
        cycle = cycle[1:] + cycle[:1]
    witness = BergeCycle(tuple(cycle[0::2]), tuple(x - n for x in cycle[1::2]))
    witness.check(h)
    return GirthReport(len(cycle) // 2, witness)


def girth_oracle(h: Hypergraph, max_len: int) -> GirthReport:
    """Brute-force girth by exhaustive cycle enumeration up to ``max_len``.

    Searches depth-first for vertex/edge sequences matching the cycle
    definition directly, each from its smallest vertex v0 (see the module
    docstring for the pruning).  Returns the minimum cycle length found,
    or a report with ``searched_to = max_len`` when no cycle that short
    exists.  Refuses instances above ORACLE_INCIDENCE_BUDGET incidences
    rather than risk an unbounded search.
    """
    if max_len < 2:
        raise PreconditionError(f"max_len must be >= 2, got {max_len}")
    if h.incidence_count > ORACLE_INCIDENCE_BUDGET:
        raise ResourceBudgetError(
            f"oracle refused: {h.incidence_count} incidences exceed budget {ORACLE_INCIDENCE_BUDGET}"
        )
    vertex_edges = h.vertex_edges
    edges = h.edges
    edge_sets = [frozenset(edge) for edge in edges]
    # each cycle vertex lies in two of the cycle's edges, so no cycle is longer
    limit = min(max_len, sum(1 for es in vertex_edges if len(es) >= 2))
    best_witness: BergeCycle | None = None

    def dist_from(v0: int) -> list[int]:
        """Edge-BFS distances from v0 through vertices above v0, to depth
        limit // 2; every vertex farther away reads limit + 1."""
        back = [limit + 1] * h.num_vertices
        back[v0] = 0
        edge_seen = bytearray(len(edges))
        frontier = [v0]
        for depth in range(1, limit // 2 + 1):
            reached = []
            for x in frontier:
                for e_idx in vertex_edges[x]:
                    if not edge_seen[e_idx]:
                        edge_seen[e_idx] = 1
                        for y in edges[e_idx]:
                            if y > v0 and back[y] > depth:
                                back[y] = depth
                                reached.append(y)
            if not reached:
                break
            frontier = reached
        return back

    def extend(v_cur: int) -> None:
        # limit is the longest cycle still worth finding; it falls with each find
        nonlocal limit, best_witness
        for e_idx in vertex_edges[v_cur]:
            if e_idx in used_e:
                continue
            path_e.append(e_idx)
            if 1 < len(path_v) <= limit and v0 in edge_sets[e_idx]:
                limit = len(path_v) - 1
                best_witness = BergeCycle(tuple(path_v), tuple(path_e))
            if len(path_v) < limit:
                used_e.add(e_idx)
                for w in edges[e_idx]:
                    if len(path_e) + back[w] <= limit and w not in on_path:
                        path_v.append(w)
                        on_path.add(w)
                        extend(w)
                        on_path.discard(w)
                        path_v.pop()
                used_e.discard(e_idx)
            path_e.pop()

    # the DFS recurses once per path vertex, and a path has at most limit vertices
    old_recursion_limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(old_recursion_limit, limit + 200))
        for v0 in range(h.num_vertices):
            if limit < 2:
                break
            if len(vertex_edges[v0]) < 2:
                continue
            back = dist_from(v0)
            path_v = [v0]
            path_e: list[int] = []
            on_path = {v0}
            used_e: set[int] = set()
            extend(v0)
    finally:
        sys.setrecursionlimit(old_recursion_limit)

    if best_witness is None:
        return GirthReport(None, searched_to=max_len)
    best_witness.check(h)
    return GirthReport(len(best_witness), best_witness)
