import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hypergirth.girth as girth_mod
from hypergirth import (
    BergeCycle,
    BipartiteGraph,
    Hypergraph,
    PreconditionError,
    ResourceBudgetError,
    VerificationError,
    girth_bipartite,
    girth_hypergraph,
    girth_oracle,
    incidence_graph,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from hypergirth.girth import BipartiteCycle, GirthReport


def bipartite_as_pairs(g: BipartiteGraph) -> Hypergraph:
    """A bipartite graph as a 2-uniform hypergraph (independent oracle route:
    its cycles are exactly the graph cycles)."""
    edges = tuple(sorted((u, g.n_left + v) for u, v in g.incidences))
    return Hypergraph(g.n_left + g.n_right, edges)


def even_cycle(k: int) -> BipartiteGraph:
    # vertices alternate left 0..k-1 and right 0..k-1: l_i - r_i - l_{i+1}
    pairs = []
    for i in range(k):
        pairs.append((i, i))
        pairs.append(((i + 1) % k, i))
    return BipartiteGraph.from_incidences(k, k, pairs)


def reference_girth(g: BipartiteGraph) -> int | None:
    """Plain all-roots BFS over the whole graph, no pruning: the minimum of
    dist(u) + dist(w) + 1 over every non-tree edge seen from every root."""
    n = g.n_left + g.n_right
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.incidences:
        adj[u].append(g.n_left + v)
        adj[g.n_left + v].append(u)
    best = None
    for root in range(n):
        dist = {root: 0}
        parent = {root: None}
        order = [root]
        for u in order:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    order.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def random_sparse_bipartite(rng: random.Random) -> BipartiteGraph:
    """Disjoint union of one to four blocks, each a random forest, a random
    sparse graph or a set of isolated vertices."""
    n_left = n_right = 0
    pairs = set()
    for _ in range(rng.randint(1, 4)):
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        kind = rng.randrange(3)
        if kind == 0:
            # each vertex hangs off a random earlier vertex of the other side, if any
            nodes = [("l", n_left + i) for i in range(a)] + [("r", n_right + j) for j in range(b)]
            rng.shuffle(nodes)
            for k, (side, x) in enumerate(nodes):
                earlier = [y for s, y in nodes[:k] if s != side]
                if earlier:
                    y = rng.choice(earlier)
                    pairs.add((x, y) if side == "l" else (y, x))
        elif kind == 1:
            for _ in range(rng.randint(0, a + b + 3)):
                pairs.add((n_left + rng.randrange(a), n_right + rng.randrange(b)))
        n_left += a
        n_right += b
    return BipartiteGraph(n_left, n_right, tuple(sorted(pairs)))


def relabelled(g: BipartiteGraph, rng: random.Random, swap_sides: bool) -> BipartiteGraph:
    left, right = list(range(g.n_left)), list(range(g.n_right))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = [(left[u], right[v]) for u, v in g.incidences]
    if swap_sides:
        return BipartiteGraph.from_incidences(g.n_right, g.n_left, [(v, u) for u, v in pairs])
    return BipartiteGraph.from_incidences(g.n_left, g.n_right, pairs)


HEAWOOD = BipartiteGraph.from_incidences(
    7, 7, [(p, l) for l in range(7) for p in (l, (l + 1) % 7, (l + 3) % 7)]
)


class TestGirthBipartite:
    def test_four_cycle(self):
        g = even_cycle(2)
        rep = girth_bipartite(g)
        assert rep.girth == 4
        assert rep.witness is not None and len(rep.witness) == 4

    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    def test_even_cycles(self, k):
        assert girth_bipartite(even_cycle(k)).girth == 2 * k

    def test_tree_infinite(self):
        g = BipartiteGraph.from_incidences(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        rep = girth_bipartite(g)
        assert rep.girth is None and rep.is_infinite
        assert rep.girth_str() == "inf"

    def test_complete_bipartite(self):
        g = BipartiteGraph.from_incidences(3, 3, [(i, j) for i in range(3) for j in range(3)])
        assert girth_bipartite(g).girth == 4

    def test_heawood(self):
        # frozen from the brute-force oracle on the 2-uniform view
        assert girth_oracle(bipartite_as_pairs(HEAWOOD), 8).girth == 6
        rep = girth_bipartite(HEAWOOD)
        assert rep.girth == 6
        rep.witness.check(HEAWOOD)

    def test_always_even(self):
        rng = random.Random(5)
        for _ in range(40):
            nl, nr = rng.randint(1, 7), rng.randint(1, 7)
            pairs = set()
            for _ in range(rng.randint(0, 18)):
                pairs.add((rng.randrange(nl), rng.randrange(nr)))
            g = BipartiteGraph(nl, nr, tuple(sorted(pairs)))
            rep = girth_bipartite(g)
            assert rep.girth is None or (rep.girth % 2 == 0 and rep.girth >= 4)

    def test_matches_oracle_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            nl, nr = rng.randint(1, 8), rng.randint(1, 8)
            pairs = set()
            for _ in range(rng.randint(0, 20)):
                pairs.add((rng.randrange(nl), rng.randrange(nr)))
            g = BipartiteGraph(nl, nr, tuple(sorted(pairs)))
            fast = girth_bipartite(g).girth
            slow = girth_oracle(bipartite_as_pairs(g), 16).girth
            assert fast == slow

    def test_matches_unpruned_bfs_randomized(self):
        rng = random.Random(41)
        cyclic = 0
        for _ in range(300):
            g = random_sparse_bipartite(rng)
            rep = girth_bipartite(g)
            assert rep.girth == reference_girth(g)
            if rep.girth is None:
                assert rep.witness is None and rep.is_infinite
            else:
                cyclic += 1
                rep.witness.check(g)
                assert len(rep.witness) == rep.girth
        assert 50 < cyclic < 250  # both forests and cyclic graphs were drawn

    @pytest.mark.parametrize(
        "build, q, girth",
        [(projective_plane, 3, 6), (symplectic_quadrangle, 3, 8), (split_cayley_hexagon, 2, 12)],
    )
    def test_relabelled_geometries(self, build, q, girth):
        g = build(q)
        rng = random.Random(1000 * q + girth)
        for trial in range(4):
            h = relabelled(g, rng, swap_sides=trial % 2 == 1)
            rep = girth_bipartite(h)
            assert rep.girth == girth
            rep.witness.check(h)
            assert len(rep.witness) == girth


# The every-root queue engine that the level sweep replaced, kept verbatim
# as the reference for (girth, witness): a BFS from every root through the
# vertices above it, stopped once it cannot beat the best cycle so far.
def queue_shortest_cycle(adj: list[list[int]]) -> list[int] | None:
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
            up = queue_tree_path(parent, cross[0], root)
            down = queue_tree_path(parent, cross[1], root)
            cycle = up[::-1] + down[:-1]
            if len(cycle) != best:
                raise VerificationError("internal error: reconstructed cycle has wrong length")
        for x in queue:
            dist[x] = -1
        if best == 4:
            break
    return cycle


def queue_tree_path(parent: list[int], x: int, root: int) -> list[int]:
    """Tree path x .. root through ``parent``."""
    path = [x]
    while x != root:
        x = parent[x]
        path.append(x)
    return path


def reference_report(fn, obj) -> GirthReport:
    """``fn(obj)`` with the queue engine in place of the sweep."""
    with mock.patch.object(girth_mod, "_shortest_cycle", lambda adj, n_left: queue_shortest_cycle(adj)):
        return fn(obj)


@st.composite
def bipartite_graphs(draw):
    """Disjoint unions of up to four blocks, with both sides shuffled.  A
    block is a tree, a cycle with pendant trees, a sparse random graph or
    isolated vertices."""
    n_left = n_right = 0
    pairs = []
    for kind in draw(st.lists(st.sampled_from(("tree", "cycle", "sparse", "isolated")), min_size=1, max_size=4)):
        if kind in ("tree", "cycle"):
            k = 1 if kind == "tree" else draw(st.integers(2, 6))
            a = b = k
            block = [(i, i) for i in range(k)] + [((i + 1) % k, i) for i in range(k) if k > 1]
            # each pendant vertex hangs off a vertex already in the block
            for left_side in draw(st.lists(st.booleans(), max_size=8)):
                if left_side:
                    block.append((a, draw(st.integers(0, b - 1))))
                    a += 1
                else:
                    block.append((draw(st.integers(0, a - 1)), b))
                    b += 1
        elif kind == "sparse":
            a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
            block = draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)), max_size=a + b + 4))
        else:
            a, b, block = draw(st.integers(0, 3)), draw(st.integers(0, 3)), []
        pairs += [(n_left + u, n_right + v) for u, v in block]
        n_left, n_right = n_left + a, n_right + b
    left = draw(st.permutations(range(n_left)))
    right = draw(st.permutations(range(n_right)))
    return BipartiteGraph.from_incidences(n_left, n_right, [(left[u], right[v]) for u, v in pairs])


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 10))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True)
    return Hypergraph.from_edges(n, draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=10, unique=True)))


@pytest.mark.parametrize("chunk", [girth_mod.SWEEP_CHUNK, 1, 2, 7])
@settings(derandomize=True, max_examples=100, database=None, deadline=None)
@given(g=bipartite_graphs(), h=hypergraphs())
def test_sweep_matches_queue_engine(chunk, g, h):
    with mock.patch.object(girth_mod, "SWEEP_CHUNK", chunk):
        assert girth_bipartite(g) == reference_report(girth_bipartite, g)
        assert girth_hypergraph(h) == reference_report(girth_hypergraph, h)
        hg = incidence_graph(h)
        assert girth_bipartite(hg) == reference_report(girth_bipartite, hg)


@pytest.mark.parametrize("chunk", [girth_mod.SWEEP_CHUNK, 64])
@pytest.mark.parametrize("build, q", [(symplectic_quadrangle, 7), (split_cayley_hexagon, 3)], ids=["W7", "H3"])
def test_sweep_matches_queue_engine_on_relabelled_geometries(monkeypatch, chunk, build, q):
    monkeypatch.setattr(girth_mod, "SWEEP_CHUNK", chunk)
    g = relabelled(build(q), random.Random(q), swap_sides=False)
    rep = girth_bipartite(g)
    assert rep == reference_report(girth_bipartite, g)
    assert rep.girth == (8 if build is symplectic_quadrangle else 12)


def cycle_pairs(lefts: tuple[int, ...], rights: tuple[int, ...]) -> list[tuple[int, int]]:
    """The incidences of the cycle l[0] - r[0] - l[1] - r[1] - ... - r[k-1] - l[0]."""
    return [(u, v) for i, v in enumerate(rights) for u in (lefts[i], lefts[(i + 1) % len(lefts)])]


def bfs_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """The adjacency lists girth_bipartite passes the engine."""
    return [[g.n_left + v for v in vs] for vs in g.left_neighbors] + [list(vs) for vs in g.right_neighbors]


# Graphs whose left vertex 0 is in the 2-core, so it is the root of the
# bounding BFS, with (the length of that BFS's closed walk, whether the walk
# is a cycle, the girth).
BOUND_CASES = {
    # a 6-cycle through l0 and a 4-cycle through l1, both in the first chunk at SWEEP_CHUNK 2
    "root-on-no-shortest-cycle": (
        BipartiteGraph.from_incidences(5, 5, cycle_pairs((0, 2, 4), (0, 1, 2)) + cycle_pairs((1, 3), (3, 4))),
        (6, True, 4),
    ),
    # l0 on a 12-cycle and two steps from a 4-cycle: the walk goes out and back along l0 - r6 - l6
    "walk-with-a-shared-prefix": (
        BipartiteGraph.from_incidences(
            8, 9, cycle_pairs((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)) + [(0, 6), (6, 6)] + cycle_pairs((6, 7), (7, 8))
        ),
        (8, False, 4),
    ),
    # l0 of degree 2 on the path from a 6-cycle to a 4-cycle
    "root-on-a-bridge-path": (
        BipartiteGraph.from_incidences(
            6, 7, [(0, 0), (1, 0), (0, 4), (4, 4)] + cycle_pairs((1, 2, 3), (1, 2, 3)) + cycle_pairs((4, 5), (5, 6))
        ),
        (8, False, 4),
    ),
    # an 8-cycle through l0, a 6-cycle through l4..l6 and a 4-cycle through l7, l8:
    # at SWEEP_CHUNK 1 and 2 a later chunk hits at 6 and a later one again at 4
    "shorter-cycle-in-a-later-chunk": (
        BipartiteGraph.from_incidences(
            9, 9, cycle_pairs((0, 1, 2, 3), (0, 1, 2, 3)) + cycle_pairs((4, 5, 6), (4, 5, 6)) + cycle_pairs((7, 8), (7, 8))
        ),
        (8, True, 4),
    ),
}


@pytest.mark.parametrize("chunk", [girth_mod.SWEEP_CHUNK, 1, 2])
@pytest.mark.parametrize("name", BOUND_CASES)
def test_bounding_walk_matches_queue_engine_on_named_cases(monkeypatch, chunk, name):
    g, (length, simple, girth) = BOUND_CASES[name]
    walk = girth_mod._bfs_walk(bfs_adjacency(g), 0)
    assert (len(walk), len(set(walk)) == len(walk)) == (length, simple)
    monkeypatch.setattr(girth_mod, "SWEEP_CHUNK", chunk)
    for obj, fn in ((g, girth_bipartite), (bipartite_as_pairs(g), girth_hypergraph)):
        assert fn(obj) == reference_report(fn, obj)
    assert girth_bipartite(g).girth == girth


@pytest.mark.parametrize(
    "build, q", [(symplectic_quadrangle, 7), (split_cayley_hexagon, 3), (projective_plane, 13)], ids=["W7", "H3", "PG13"]
)
def test_one_bfs_per_query_on_relabelled_geometries(monkeypatch, build, q):
    # every vertex of a generalized polygon, and of its neighbourhood hypergraph,
    # lies on a shortest cycle, so the bounding walk is the witness
    from hypergirth import neighborhood_hypergraph

    g = relabelled(build(q), random.Random(q), swap_sides=False)
    h = neighborhood_hypergraph(g)
    roots = []
    original = girth_mod._bfs_walk

    def counted(adj, root):
        roots.append(root)
        return original(adj, root)

    monkeypatch.setattr(girth_mod, "_bfs_walk", counted)
    for obj, fn in ((g, girth_bipartite), (h, girth_hypergraph)):
        roots.clear()
        rep = fn(obj)
        assert len(roots) == 1
        assert rep == reference_report(fn, obj)


def theta_pairs(lengths: tuple[int, ...], n_left: int, n_right: int) -> tuple[list[tuple[int, int]], int, int]:
    """A theta graph: paths of the given odd lengths from left ``n_left`` to
    right ``n_right``, through new vertices numbered on from theirs.  Returns
    its incidences and the next free left and right ids."""
    pairs = []
    nl, nr = n_left + 1, n_right + 1
    for length in lengths:
        prev = n_left
        for _ in range(length // 2):
            pairs += [(prev, nr), (nl, nr)]
            prev, nl, nr = nl, nl + 1, nr + 1
        pairs.append((prev, n_right))
    return pairs, nl, nr


def first_hit_cases() -> dict[str, tuple[BipartiteGraph, int]]:
    """Graphs whose sweep first hits at level d = 2..5, with their girth 2d.
    Left vertex 0 is the first core root and lies on a (2d + 2)-cycle, so
    the bounding walk is longer than the girth and the sweep runs level d;
    the 2d-cycles lie among later roots."""
    cases = {}
    for d in range(2, 6):
        long = cycle_pairs(tuple(range(d + 1)), tuple(range(d + 1)))
        short = cycle_pairs(tuple(range(d + 1, 2 * d + 1)), tuple(range(d + 1, 2 * d + 1)))
        # one pendant vertex on each side, so a core degree differs from its degree
        pendants = [(2 * d + 1, d + 1), (d + 1, 2 * d + 1)]
        cases[f"disjoint-{d}"] = BipartiteGraph.from_incidences(2 * d + 2, 2 * d + 2, long + short + pendants), 2 * d
        # a bridge from the long cycle to the short one gives two vertices core degree 3
        cases[f"bridged-{d}"] = (
            BipartiteGraph.from_incidences(2 * d + 2, 2 * d + 2, long + short + pendants + [(d + 1, 0)]),
            2 * d,
        )
        # three paths between two vertices of core degree 3: cycles of 2d, 2d + 2 and no shorter
        first = d if d % 2 else d - 1
        theta, n_left, n_right = theta_pairs((first, 2 * d - first, 2 * d - first + 2), d + 1, d + 1)
        cases[f"theta-{d}"] = BipartiteGraph.from_incidences(n_left, n_right, long + theta), 2 * d
    return cases


FIRST_HIT_CASES = first_hit_cases()


@pytest.mark.parametrize("chunk", [girth_mod.SWEEP_CHUNK, 1, 2, 7])
@pytest.mark.parametrize("name", FIRST_HIT_CASES)
def test_first_hit_level_matches_queue_engine(monkeypatch, chunk, name):
    g, girth = FIRST_HIT_CASES[name]
    adj = bfs_adjacency(g)
    assert len(girth_mod._bfs_walk(adj, 0)) == girth + 2
    monkeypatch.setattr(girth_mod, "SWEEP_CHUNK", chunk)
    cycle = girth_mod._shortest_cycle(adj, g.n_left)
    assert cycle == queue_shortest_cycle(adj)
    assert len(cycle) == girth


@pytest.mark.parametrize(
    "g, witness_root",
    [(HEAWOOD, 0), (BOUND_CASES["shorter-cycle-in-a-later-chunk"][0], 7)],
    ids=["no-hit", "hit"],
)
def test_a_walk_of_the_wrong_length_is_an_internal_error(monkeypatch, g, witness_root):
    # the check a miscounted level would meet: the walk from the witness's root is
    # one vertex short, the bounding walk from l0 on Heawood's graph (no level hits)
    # or the walk rebuilt from l7, the smallest root on the other graph's 4-cycle
    original = girth_mod._bfs_walk

    def short_walk(adj, root):
        walk = original(adj, root)
        return walk[:-1] if root == witness_root else walk

    monkeypatch.setattr(girth_mod, "_bfs_walk", short_walk)
    with pytest.raises(VerificationError, match="^internal error: reconstructed cycle has wrong length$"):
        girth_mod._shortest_cycle(bfs_adjacency(g), g.n_left)


def test_a_bfs_on_a_tree_is_an_internal_error():
    # the path l0 - r0 - l1 - r1 has no cross edge
    adj = [[2], [2, 3], [0, 1], [1]]
    with pytest.raises(VerificationError, match="^internal error: the BFS from a core root met no cross edge$"):
        girth_mod._bfs_walk(adj, 0)


class TestGirthHypergraph:
    def test_fano(self, fano):
        rep = girth_hypergraph(fano)
        assert rep.girth == 3
        rep.witness.check(fano)

    def test_two_edge_overlap(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        rep = girth_hypergraph(h)
        assert rep.girth == 2

    def test_matching_infinite(self):
        h = Hypergraph(6, ((0, 1), (2, 3), (4, 5)))
        assert girth_hypergraph(h).is_infinite

    def test_single_and_empty(self):
        assert girth_hypergraph(Hypergraph(3, ((0, 1, 2),))).is_infinite
        assert girth_hypergraph(Hypergraph(3, ())).is_infinite

    def test_halving_identity_randomized(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 10)
            edges = set()
            for _ in range(rng.randint(1, 10)):
                size = rng.randint(1, min(4, n))
                edges.add(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph(n, tuple(sorted(edges)))
            hg = girth_hypergraph(h)
            bg = girth_bipartite(incidence_graph(h))
            if hg.girth is None:
                assert bg.girth is None
            else:
                assert bg.girth == 2 * hg.girth


class TestGirthOracle:
    def test_fano_exact(self, fano):
        rep = girth_oracle(fano, 6)
        assert rep.girth == 3
        assert rep.searched_to is None
        rep.witness.check(fano)

    def test_bounded_report(self):
        h = Hypergraph(6, ((0, 1), (2, 3), (4, 5)))
        rep = girth_oracle(h, 10)
        assert rep.girth is None
        assert rep.searched_to == 10
        assert not rep.is_infinite
        assert rep.girth_str() == ">10"

    def test_hexagon_budget_vs_maxlen(self, hex2):
        from hypergirth import neighborhood_hypergraph

        h = neighborhood_hypergraph(hex2)
        at5 = girth_oracle(h, 5)
        assert at5.girth is None and at5.searched_to == 5
        assert girth_oracle(h, 6).girth == 6

    def test_two_cycle(self):
        h = Hypergraph(4, ((0, 1, 2), (1, 2, 3)))
        assert girth_oracle(h, 4).girth == 2

    def test_agrees_with_fast_path_randomized(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(2, 9)
            edges = set()
            for _ in range(rng.randint(1, 9)):
                size = rng.randint(2, min(4, n))
                edges.add(tuple(sorted(rng.sample(range(n), size))))
            h = Hypergraph(n, tuple(sorted(edges)))
            fast = girth_hypergraph(h).girth
            slow = girth_oracle(h, 16).girth
            assert fast == slow

    def test_agrees_on_multi_component_hypergraphs(self):
        rng = random.Random(53)
        for _ in range(80):
            n = rng.randint(1, 12)
            edges = set()
            for _ in range(rng.randint(0, 3)):
                # a block of edges on a random vertex window; windows may overlap or not
                lo = rng.randrange(n)
                hi = rng.randint(lo + 1, min(n, lo + 5))
                for _ in range(rng.randint(1, 4)):
                    size = rng.randint(1, min(3, hi - lo))
                    edges.add(tuple(sorted(rng.sample(range(lo, hi), size))))
            h = Hypergraph(n, tuple(sorted(edges)))
            fast = girth_hypergraph(h)
            assert fast.girth == girth_oracle(h, 16).girth
            if fast.girth is not None:
                fast.witness.check(h)
                assert len(fast.witness) == fast.girth

    def test_incidence_budget(self):
        path = Hypergraph(1002, tuple((i, i + 1) for i in range(1001)))
        with pytest.raises(ResourceBudgetError, match="^oracle refused: 2002 incidences exceed budget 2000$"):
            girth_oracle(path, 6)

    def test_env_budget_override(self, fano, monkeypatch):
        # the budget is a constant: the environment no longer sets it
        monkeypatch.setenv("HYPERGIRTH_ORACLE_BUDGET", "20")
        assert girth_oracle(fano, 6).girth == 3
        monkeypatch.setattr("hypergirth.girth.ORACLE_INCIDENCE_BUDGET", 20)
        with pytest.raises(ResourceBudgetError, match="^oracle refused: 21 incidences exceed budget 20$"):
            girth_oracle(fano, 6)

    def test_max_len_validation(self, fano):
        with pytest.raises(PreconditionError, match="max_len"):
            girth_oracle(fano, 1)


class TestConcurrentReads:
    def test_shared_values_thread_safe(self, hex2, fano):
        from concurrent.futures import ThreadPoolExecutor

        def bipartite_job(_):
            return girth_bipartite(hex2).girth

        def hyper_job(_):
            return girth_hypergraph(fano).girth

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert set(pool.map(bipartite_job, range(16))) == {12}
            assert set(pool.map(hyper_job, range(16))) == {3}


class TestWitnessValidation:
    def test_berge_rejects_repeats(self, fano):
        with pytest.raises(VerificationError, match="repeats"):
            BergeCycle((0, 0), (0, 1)).check(fano)

    def test_berge_rejects_noncontaining_edge(self, fano):
        with pytest.raises(VerificationError):
            BergeCycle((0, 1, 2), (0, 1, 2)).check(fano)

    def test_bipartite_rejects_odd_or_short(self):
        g = even_cycle(2)
        with pytest.raises(VerificationError, match="even"):
            BipartiteCycle((("l", 0), ("r", 0), ("l", 1))).check(g)

    def test_bipartite_rejects_non_incidence(self):
        g = BipartiteGraph.from_incidences(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(VerificationError, match="not an incidence"):
            BipartiteCycle((("l", 0), ("r", 0), ("l", 1), ("r", 1))).check(g)

    @pytest.mark.parametrize("cycle, message", [
        (BergeCycle((0,), (0,)), "cycle needs k >= 2 vertices and as many edges, got 1"),
        (BergeCycle((0, 1, 2), (0, 0, 1)), "cycle repeats an edge"),
    ], ids=["one-vertex", "repeated-edge"])
    def test_berge_refuses_a_malformed_cycle(self, fano, cycle, message):
        with pytest.raises(VerificationError) as exc:
            cycle.check(fano)
        assert str(exc.value) == message

    @pytest.mark.parametrize("nodes, message", [
        ((("l", 0), ("r", 0), ("l", 0), ("r", 0)), "bipartite cycle repeats a vertex"),
        ((("l", 0), ("l", 1), ("r", 0), ("r", 1)), "bipartite cycle does not alternate sides"),
    ], ids=["repeated-vertex", "same-side"])
    def test_bipartite_refuses_a_malformed_cycle(self, nodes, message):
        g = BipartiteGraph.from_incidences(2, 2, [(u, v) for u in range(2) for v in range(2)])
        with pytest.raises(VerificationError) as exc:
            BipartiteCycle(nodes).check(g)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [-1, 7, 0.5, "0", True])
    def test_berge_refuses_forged_edge_index(self, fano, bad):
        with pytest.raises(VerificationError, match=f"edge index {bad} out of range"):
            BergeCycle((0, 1, 2), (bad, 2, 3)).check(fano)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_berge_refuses_a_vertex_that_only_compares_as_an_id(self, fano, bad):
        """(0, 1, 2) through edges 0, 3, 1 is a Fano triangle; True and 1.0 compare equal to 1."""
        BergeCycle((0, 1, 2), (0, 3, 1)).check(fano)
        with pytest.raises(VerificationError, match=f"cycle step 1: edge 3 does not contain both {bad} and 2"):
            BergeCycle((0, bad, 2), (0, 3, 1)).check(fano)

    # K_{2,3} has n_left = 2 and n_right = 3: a right id 2 is real, a left id 2 is not.
    # False hashes and compares as 0 but is no vertex id.
    @pytest.mark.parametrize("position, bad", [(0, -1), (0, 2), (0, 3), (0, 0.5), (0, "0"), (0, False),
                                               (1, -1), (1, 3), (1, 0.5), (1, "0")])
    def test_bipartite_refuses_forged_index(self, position, bad):
        g = BipartiteGraph.from_incidences(2, 3, [(u, v) for u in range(2) for v in range(3)])
        nodes = [("l", 0), ("r", 0), ("l", 1), ("r", 1)]
        BipartiteCycle(tuple(nodes)).check(g)
        nodes[position] = (nodes[position][0], bad)
        pair = (bad, 0) if position == 0 else (0, bad)
        with pytest.raises(VerificationError, match=re.escape(f"cycle step 0: {pair} is not an incidence")):
            BipartiteCycle(tuple(nodes)).check(g)

    def test_all_reports_validate(self, fano, plane2, quad2):
        for obj, fn in ((fano, girth_hypergraph), (plane2, girth_bipartite), (quad2, girth_bipartite)):
            rep = fn(obj)
            rep.witness.check(obj)
            assert len(rep.witness) == rep.girth


class TestGirthReportComputedOnce:
    """Each value sweeps once: ``girth_report`` caches the engine's report,
    and the generator self-checks, the pipeline, `report` and `girth` read it.
    Fresh values throughout, since the session fixtures cache their reports."""

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        calls = []
        original = girth_mod._shortest_cycle

        def counted(adj, n_left):
            calls.append(len(adj))
            return original(adj, n_left)

        monkeypatch.setattr(girth_mod, "_shortest_cycle", counted)
        return calls

    def test_report_is_cached_and_equals_the_engine(self, sweeps):
        g = symplectic_quadrangle(2)
        assert len(sweeps) == 1  # the generator's self-check fills the report
        assert g.girth_report is g.girth_report
        assert g.girth_report == girth_bipartite(g)
        assert len(sweeps) == 2
        h = Hypergraph(7, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (5, 6)))
        assert h.girth_report is h.girth_report
        assert len(sweeps) == 3
        assert h.girth_report == girth_hypergraph(h)

    def test_caching_keeps_equality_and_hash(self):
        square = ((0, 1), (1, 2), (2, 3), (0, 3))
        plane = projective_plane(2)  # its self-check has computed the report
        pairs = (
            (plane, BipartiteGraph(plane.n_left, plane.n_right, plane.incidences)),
            (Hypergraph.from_edges(4, square), Hypergraph.from_edges(4, square)),
            (incidence_graph(Hypergraph.from_edges(4, square)), incidence_graph(Hypergraph.from_edges(4, square))),
        )
        for computed, fresh in pairs:
            assert computed.girth_report.girth is not None
            assert "girth_report" in vars(computed) and "girth_report" not in vars(fresh)
            assert computed == fresh and hash(computed) == hash(fresh)

    def test_one_sweep_per_value_in_cli_commands(self, sweeps, tmp_path, capsys):
        from hypergirth.cli import main

        bgt, rcp = str(tmp_path / "p.bgt"), tmp_path / "r.rcp"
        assert main(["gen", "plane", "--q", "3", bgt]) == 0
        assert len(sweeps) == 1  # the generator's self-check
        assert main(["report", bgt]) == 0
        assert len(sweeps) == 2  # the loaded value, once
        assert capsys.readouterr().out.endswith("\ngirth 6\n")
        rcp.write_text("rcp 1\ntarget 3\nstage gen plane q=3\nstage nbhd\n")
        assert main(["pipeline", str(rcp), "--out-dir", str(tmp_path / "run")]) == 0
        # the plane's self-check and stage check share one sweep; the nbhd output carries it, halved
        assert sweeps[2:] == [26]
