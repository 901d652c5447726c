"""Exact girth computation with verifiable witnesses.

Three routes are provided:

* :func:`girth_bipartite`: exact on any bipartite graph, by a
  bit-parallel level sweep and one or two breadth-first searches.
  Vertices of degree < 2 lie on no cycle and are peeled off first, so a
  forest peels to nothing and is answered without a sweep.  The sweep
  takes the left vertices of the remaining 2-core as roots, SWEEP_CHUNK
  at a time, and keeps one int per vertex: the set of chunk roots at
  distance exactly d from it.  Level d ORs the neighbours' sets into the
  vertices of one side, alternating with the parity of d.  A root that
  reaches v through two neighbours, and was not at distance d - 2, closes
  a cycle of length 2d.  Before the sweep, a BFS from the first root r0
  through the vertices above r0 closes a walk of length L at its first
  cross edge, and the sweep runs only the levels d < L/2.  The first
  level with a hit gives the girth g, and its smallest hit root r*; a BFS
  from r* through the vertices above r* then rebuilds the witness from
  its first cross edge.  With no hit, g = L and r0's walk is the witness.
  Why this is exact:

  - Left roots suffice.  A cycle alternates sides and the left side is
    numbered first, so the smallest vertex of any cycle is a left vertex.
  - Overwriting a set in place is exact.  At level d, v has a neighbour at
    distance d - 1 from each root it hears of, and the graph is bipartite,
    so v is at distance d - 2 or d from that root.  The roots at distance
    d - 2 are exactly v's old set, which is masked out as it is replaced.
  - The hit roots at level g/2 are exactly the left vertices on a shortest
    cycle.  Two shortest paths of length d from a root to v close a walk
    of length 2d that contains a cycle, so no level below g/2 hits, and a
    hit at g/2 is a cycle of length g through its root.  Conversely a
    shortest cycle is isometric, so the vertex opposite a root on it hears
    of that root from both its cycle neighbours at level g/2.  Chunks run
    in root order, so a later chunk only looks below the level found.
  - r0's walk bounds the girth, as in Itai and Rodeh, "Finding a minimum
    circuit in a graph", SIAM J. Comput. 7 (1978).  The left vertices
    below r0 are peeled and every right vertex is numbered above every
    left one, so the 2-core lies above r0, and the BFS meets a cycle of
    r0's core component: it has a cross edge.  The walk is the two tree
    paths from r0 to the ends of that edge, so it contains a cycle, and
    g <= L.  If a level below L/2 hits, g < L is found as above.  If none
    hits, g >= L, so g = L.  Then the two tree paths share no first step,
    since the cycle inside the walk would be shorter than L, so the walk
    is a cycle through r0.  So r0, the smallest left vertex of the core,
    is r*, and its BFS is the one already run.

  So r* is the smallest vertex of a shortest cycle, and every vertex of
  that cycle lies above r*.  A BFS meets its cross edges in order of
  length, so the first cross edge of the BFS from r* closes a cycle of
  length g: the one a BFS from every root r through the vertices above r
  reports, which took the first root that reaches g.  Memory beyond the
  adjacency lists is one list of n ints of at most SWEEP_CHUNK bits.
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
  by a flag on each edge through v0: that cycle is shorter than any
  through a longer path.  A path of k vertices closes only while
  1 < k <= limit, the longest cycle still sought; a find at k lowers the
  limit to k - 1, so no later edge of the same step closes again, and an
  edge grows the path only while k < limit.  The path's vertices and edges
  are flagged in two bytearrays allocated once per call.  The path is a
  stack of generators, one per vertex, each yielding the vertices to enter
  next, so a path of any length needs no Python stack depth.

  A start vertex v0 is not searched at all when its ball is a tree: the
  incidence graph through v0 and the vertices above it, out to radius
  limit.  A cycle of length L <= limit whose smallest vertex is v0 is a
  2L-cycle of that graph through v0, and every node of it lies within
  distance L of v0, so a tree ball holds no cycle the search could find.
  The BFS that computes d decides this as it goes.  The incidence graph is
  bipartite, so its ball is a tree exactly when every node in it but v0
  has exactly one neighbour a level closer to v0.  BFS level j holds the
  edges at radius 2j - 1 and the vertices at radius 2j, up to level
  limit // 2.  A vertex reached a second time, through a second edge of
  its level or as a member of an edge out of another vertex of the level
  before, breaks the rule.  For odd limit the edges at radius limit are in
  the ball too.  Each last-level vertex has seen only its parent edge, so
  one more pass counts the seen edges of the last-level vertices against
  their number, marking each edge as it goes; a surplus is an edge that
  joins two of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .arith import int_args, record, show
from .errors import ResourceBudgetError, VerificationError

if TYPE_CHECKING:
    from .core import BipartiteGraph, Hypergraph

# Most incidences girth_oracle searches, with no override.
ORACLE_INCIDENCE_BUDGET = 2000
# Roots per pass of the girth sweep: the bits of each vertex's reach set.
SWEEP_CHUNK = 4096


def _is_index(x: object, bound: int) -> bool:
    """Whether a witness's ``x`` is an int id in [0, bound); a bool, float
    or string is not, though some compare or hash like one."""
    return type(x) is int and 0 <= x < bound


@record
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
        for k, (side, idx) in enumerate(self.nodes):
            nside, nidx = self.nodes[(k + 1) % n]
            if side == nside:
                raise VerificationError("bipartite cycle does not alternate sides")
            u, v = pair = (idx, nidx) if side == "l" else (nidx, idx)
            if not (_is_index(u, g.n_left) and _is_index(v, g.n_right) and v in g.left_neighbors[u]):
                raise VerificationError(f"cycle step {k}: {show(pair)} is not an incidence")


@record
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
            e, a, b = self.edge_indices[i], self.vertices[i], self.vertices[(i + 1) % k]
            if not _is_index(e, h.num_edges):
                raise VerificationError(f"edge index {show(e)} out of range")
            edge = set(h.edges[e])
            # every vertex is the a of its own step, so each is checked to be an int
            if not (type(a) is int and a in edge and b in edge):
                raise VerificationError(f"cycle step {i}: edge {e} does not contain both {show(a)} and {show(b)}")


@record
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


def _shortest_cycle(adj: Sequence[Sequence[int]], n_left: int) -> list[int] | None:
    """A shortest cycle of the bipartite graph with adjacency lists ``adj``,
    whose vertices below ``n_left`` form one side, as its vertex sequence,
    or None on a forest.

    After the 2-core is peeled, ``reach[v]`` holds after level d the chunk
    roots at distance exactly d from v, for each v on the side that level
    updates; the module docstring gives the sweep and why it is exact.
    """
    n = len(adj)
    degree = [len(a) for a in adj]
    peel = [v for v in range(n) if degree[v] < 2]
    while peel:
        for u in adj[peel.pop()]:
            degree[u] -= 1
            if degree[u] == 1:
                peel.append(u)
    sides = (
        [v for v in range(n_left) if degree[v] >= 2],
        [v for v in range(n_left, n) if degree[v] >= 2],
    )
    roots = sides[0]
    if not roots:
        return None
    # the BFS from the first root closes a walk of length g or more, so the
    # sweep only looks for shorter cycles: the levels d < half its length
    cycle = _bfs_walk(adj, roots[0])
    level = len(cycle) // 2
    best_root = -1  # set by a hit; with none, the walk is a shortest cycle
    for start in range(0, len(roots), SWEEP_CHUNK):
        chunk = roots[start:start + SWEEP_CHUNK]
        reach = [0] * n
        for bit, r in enumerate(chunk):
            reach[r] = 1 << bit
        d = 0
        live = True
        while live and d + 1 < level:
            d += 1
            live = False
            hits = 0
            for v in sides[d % 2]:
                acc = dup = 0
                for u in adj[v]:
                    x = reach[u]
                    if x:
                        dup |= acc & x
                        acc |= x
                old = reach[v]
                if dup:
                    hits |= dup & ~old
                if old:
                    acc &= ~old
                if acc:
                    live = True
                reach[v] = acc
            if hits:
                level = d
                best_root = chunk[(hits & -hits).bit_length() - 1]
                break
    if best_root >= 0:
        cycle = _bfs_walk(adj, best_root)
    if len(cycle) != 2 * level:
        raise VerificationError("internal error: reconstructed cycle has wrong length")
    return cycle


def _bfs_walk(adj: Sequence[Sequence[int]], root: int) -> list[int]:
    """The closed walk of the first cross edge of the BFS from ``root``
    through vertices above ``root``: a shortest cycle when ``root`` is the
    smallest vertex of one (see the module docstring)."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[root] = 0
    queue = [root]
    for u in queue:
        du = dist[u]
        pu = parent[u]
        for w in adj[u]:
            if w < root:
                continue
            if dist[w] < 0:
                dist[w] = du + 1
                parent[w] = u
                queue.append(w)
            elif w != pu:
                # root..u, across to w, then w's tree path back to root's child
                return _tree_path(parent, u, root)[::-1] + _tree_path(parent, w, root)[:-1]
    raise VerificationError("internal error: the BFS from a core root met no cross edge")


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
    adj = [[g.n_left + v for v in vs] for vs in g.left_neighbors]
    cycle = _shortest_cycle(adj + list(g.right_neighbors), g.n_left)
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
    cycle = _shortest_cycle(adj + list(h.edges), n)
    if cycle is None:
        return GirthReport(None)
    # The cycle starts at the sweep's root, a vertex, so vertices and edges alternate from it.
    witness = BergeCycle(tuple(cycle[0::2]), tuple(x - n for x in cycle[1::2]))
    witness.check(h)
    return GirthReport(len(cycle) // 2, witness)


def girth_oracle(h: Hypergraph, max_len: int) -> GirthReport:
    """Brute-force girth by exhaustive cycle enumeration up to ``max_len``.

    Searches depth-first for vertex/edge sequences matching the cycle
    definition directly, each from its smallest vertex v0 (see the module
    docstring for the pruning and for the start vertices it skips).
    Returns the minimum cycle length found, or a report with
    ``searched_to = max_len`` when no cycle that short exists.  Refuses
    instances above ORACLE_INCIDENCE_BUDGET incidences rather than risk an
    unbounded search.
    """
    int_args(2, max_len=max_len)
    if h.incidence_count > ORACLE_INCIDENCE_BUDGET:
        raise ResourceBudgetError(
            f"oracle refused: {h.incidence_count} incidences exceed budget {ORACLE_INCIDENCE_BUDGET}"
        )
    vertex_edges = h.vertex_edges
    edges = h.edges
    # each cycle vertex lies in two of the cycle's edges, so no cycle is longer
    limit = min(max_len, sum(1 for es in vertex_edges if len(es) >= 2))
    best_witness: BergeCycle | None = None

    def dist_from(v0: int) -> tuple[list[int], bool]:
        """Edge-BFS distances from v0 through vertices above v0, to depth
        limit // 2; every vertex farther away reads limit + 1.  Also
        whether the ball of radius limit around v0 in the incidence graph
        through those vertices is a tree."""
        back = [limit + 1] * h.num_vertices
        back[v0] = 0
        edge_seen = bytearray(len(edges))
        frontier = [v0]
        tree = True
        for depth in range(1, limit // 2 + 1):
            reached = []
            for x in frontier:
                for e_idx in vertex_edges[x]:
                    if not edge_seen[e_idx]:
                        edge_seen[e_idx] = 1
                        for y in edges[e_idx]:
                            if y > v0:
                                if back[y] > depth:
                                    back[y] = depth
                                    reached.append(y)
                                elif y != x:  # a second edge to y, or an edge joining two frontier vertices
                                    tree = False
            frontier = reached
            if not frontier:
                break
        if limit % 2 and tree:
            # the edges at radius limit: a surplus of seen edges joins two last-level vertices
            seen = 0
            for x in frontier:
                for e_idx in vertex_edges[x]:
                    seen += edge_seen[e_idx]
                    edge_seen[e_idx] = 1
            tree = seen == len(frontier)
        return back, tree

    def steps(v_cur: int, k: int) -> Iterator[int]:
        # the vertices to enter from the end of a path of k vertices and k - 1 edges;
        # limit is the longest cycle still worth finding, and it falls with each find
        nonlocal limit, best_witness
        for e_idx in vertex_edges[v_cur]:
            if used_e[e_idx]:
                continue
            if closes[e_idx] and 1 < k <= limit:
                limit = k - 1
                best_witness = BergeCycle(tuple(path_v), tuple(path_e) + (e_idx,))
            if k < limit:
                used_e[e_idx] = 1
                path_e.append(e_idx)
                for w in edges[e_idx]:
                    if k + back[w] <= limit and not on_path[w]:
                        yield w
                path_e.pop()
                used_e[e_idx] = 0

    # flags of the path's vertices and edges, and of the edges through v0
    on_path = bytearray(h.num_vertices)
    used_e = bytearray(len(edges))
    closes = bytearray(len(edges))
    for v0 in range(h.num_vertices):
        if limit < 2:
            break
        if len(vertex_edges[v0]) < 2:
            continue
        back, tree = dist_from(v0)
        if tree:
            # no cycle of length <= limit has v0 as its smallest vertex
            continue
        path_v = [v0]
        path_e: list[int] = []
        on_path[v0] = 1
        for e_idx in vertex_edges[v0]:
            closes[e_idx] = 1
        # one generator per path vertex; a vertex leaves the path when its generator is spent
        stack = [steps(v0, 1)]
        while stack:
            for w in stack[-1]:
                on_path[w] = 1
                path_v.append(w)
                stack.append(steps(w, len(path_v)))
                break
            else:
                stack.pop()
                on_path[path_v.pop()] = 0
        for e_idx in vertex_edges[v0]:
            closes[e_idx] = 0

    if best_witness is None:
        return GirthReport(None, searched_to=max_len)
    best_witness.check(h)
    return GirthReport(len(best_witness), best_witness)
