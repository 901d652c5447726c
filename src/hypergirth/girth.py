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
  cycles straight from the definition; slow, bounded by an incidence
  budget, and used to validate the fast routes.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass

from .core import BipartiteGraph, Hypergraph
from .errors import PreconditionError, ResourceBudgetError, VerificationError

DEFAULT_ORACLE_INCIDENCE_BUDGET = 2000
DEFAULT_ORACLE_MAX_LEN = 16
ORACLE_BUDGET_ENV = "HYPERGIRTH_ORACLE_BUDGET"


def oracle_incidence_budget() -> int:
    """Oracle incidence budget, overridable via HYPERGIRTH_ORACLE_BUDGET."""
    raw = os.environ.get(ORACLE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ORACLE_INCIDENCE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise PreconditionError(f"{ORACLE_BUDGET_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        raise PreconditionError(f"{ORACLE_BUDGET_ENV} must be positive, got {value}")
    return value


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


def girth_oracle(
    h: Hypergraph,
    max_len: int = DEFAULT_ORACLE_MAX_LEN,
    incidence_budget: int | None = None,
) -> GirthReport:
    """Brute-force girth by exhaustive cycle enumeration up to ``max_len``.

    Searches depth-first for vertex/edge sequences matching the cycle
    definition directly, trying lengths 2..max_len.  Returns the minimum
    cycle length found, or a report with ``searched_to = max_len`` when no
    cycle that short exists.  Refuses instances above the incidence budget
    rather than risk an unbounded search.
    """
    if max_len < 2:
        raise PreconditionError(f"max_len must be >= 2, got {max_len}")
    budget = incidence_budget if incidence_budget is not None else oracle_incidence_budget()
    if h.incidence_count > budget:
        raise ResourceBudgetError(
            f"oracle refused: {h.incidence_count} incidences exceed budget {budget}"
        )
    # the DFS recurses once per path vertex
    if sys.getrecursionlimit() < max_len + 200:
        sys.setrecursionlimit(max_len + 200)

    vertex_edges = h.vertex_edges

    # Skeleton adjacency (u ~ w iff some edge contains both) for the
    # return-distance lower bound used to prune dead branches.
    skeleton: list[set[int]] = [set() for _ in range(h.num_vertices)]
    for edge in h.edges:
        for a in edge:
            skeleton[a].update(edge)
    for v in range(h.num_vertices):
        skeleton[v].discard(v)

    best: int | None = None
    best_witness: BergeCycle | None = None

    def dist_from(v0: int, limit: int) -> list[int]:
        inf = limit + 1
        dist = [inf] * h.num_vertices
        dist[v0] = 0
        queue = deque([v0])
        while queue:
            x = queue.popleft()
            if dist[x] >= limit:
                continue
            for y in skeleton[x]:
                if dist[y] > dist[x] + 1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    for v0 in range(h.num_vertices):
        if len(vertex_edges[v0]) < 2:
            continue
        limit = max_len if best is None else best - 1
        if limit < 2:
            break
        back = dist_from(v0, limit)
        path_v = [v0]
        path_e: list[int] = []
        on_path = {v0}
        used_e: set[int] = set()

        def extend(v_cur: int) -> None:
            nonlocal best, best_witness
            limit_now = max_len if best is None else best - 1
            steps = len(path_e)
            if steps + back[v_cur] > limit_now and steps > 0:
                return
            for e_idx in vertex_edges[v_cur]:
                if e_idx in used_e:
                    continue
                used_e.add(e_idx)
                path_e.append(e_idx)
                for w in h.edges[e_idx]:
                    if w == v_cur:
                        continue
                    if w == v0 and len(path_v) >= 2:
                        length = len(path_v)
                        if best is None or length < best:
                            best = length
                            best_witness = BergeCycle(tuple(path_v), tuple(path_e))
                    elif w > v0 and w not in on_path and len(path_v) < (max_len if best is None else best - 1):
                        path_v.append(w)
                        on_path.add(w)
                        extend(w)
                        on_path.discard(w)
                        path_v.pop()
                path_e.pop()
                used_e.discard(e_idx)

        extend(v0)
        if best == 2:
            break

    if best is None:
        return GirthReport(None, searched_to=max_len)
    assert best_witness is not None
    best_witness.check(h)
    return GirthReport(best, best_witness)
