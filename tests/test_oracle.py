"""The brute-force girth oracle: results pinned on fixed inputs, and
agreement with the incidence-graph BFS on random hypergraphs.

The pins are ``(girth, witness vertices, witness edge indices,
searched_to)`` as the plain exhaustive search from the cycle definition
returns them.  Any pruning of that search must leave every one of them
unchanged, witness included: the search order decides which shortest
cycle is reported.
"""

import random

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hypergirth import (
    BipartiteGraph,
    Hypergraph,
    girth_hypergraph,
    girth_oracle,
    neighborhood_hypergraph,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from hypergirth.arith import short_decimal
from hypergirth.errors import PreconditionError, ResourceBudgetError
from hypergirth.girth import ORACLE_INCIDENCE_BUDGET, BergeCycle, GirthReport

from conftest import FANO_TRIPLES


def relabelled(h: Hypergraph, seed: int) -> Hypergraph:
    """``h`` with its vertices renamed by a seeded permutation."""
    perm = list(range(h.num_vertices))
    random.Random(seed).shuffle(perm)
    return Hypergraph.from_edges(h.num_vertices, ([perm[v] for v in e] for e in h.edges))


def random_case(index: int) -> tuple[Hypergraph, int]:
    """A small seeded hypergraph with edges of 1 to 3 vertices, and a
    max_len from 2 to 8; odd indices give linear hypergraphs (no two edges
    share two vertices), which have no 2-cycles."""
    rng = random.Random(f"oracle-pin:{index}")
    n = rng.randint(5, 10)
    edges: set[tuple[int, ...]] = set()
    for _ in range(rng.randint(4, 12)):
        edge = tuple(sorted(rng.sample(range(n), rng.choice((1, 2, 2, 3)))))
        if index % 2 and any(len(set(edge) & set(e)) > 1 for e in edges):
            continue
        edges.add(edge)
    return Hypergraph(n, tuple(sorted(edges))), rng.randint(2, 8)


def cases() -> dict[str, tuple[Hypergraph, int]]:
    h2 = neighborhood_hypergraph(split_cayley_hexagon(2))
    w3 = relabelled(neighborhood_hypergraph(symplectic_quadrangle(3)), 7)
    out = {"fano": (Hypergraph(7, FANO_TRIPLES), 6)}
    out.update({f"nbhd-H2-{k}": (h2, k) for k in (5, 6, 8)})
    out.update({f"nbhd-W3-relabelled-{k}": (w3, k) for k in (4, 6)})
    out.update({f"random-{i:02d}": random_case(i) for i in range(20)})
    return out


PINS = {
    "fano": (3, (0, 1, 2), (0, 3, 1), None),
    "nbhd-H2-5": (None, None, None, 5),
    "nbhd-H2-6": (6, (0, 15, 3, 7, 1, 31), (0, 10, 9, 3, 4, 1), None),
    "nbhd-H2-8": (6, (0, 15, 3, 7, 1, 31), (0, 10, 9, 3, 4, 1), None),
    "nbhd-W3-relabelled-4": (4, (0, 2, 7, 19), (0, 8, 6, 2), None),
    "nbhd-W3-relabelled-6": (4, (0, 2, 7, 19), (0, 8, 6, 2), None),
    "random-00": (2, (0, 4), (0, 1), None),
    "random-01": (None, None, None, 2),
    "random-02": (None, None, None, 6),
    "random-03": (5, (0, 1, 2, 4, 5), (0, 2, 3, 5, 1), None),
    "random-04": (3, (2, 3, 6), (5, 7, 6), None),
    "random-05": (3, (1, 2, 3), (2, 5, 3), None),
    "random-06": (2, (0, 3), (0, 1), None),
    "random-07": (None, None, None, 6),
    "random-08": (2, (3, 6), (4, 7), None),
    "random-09": (None, None, None, 7),
    "random-10": (None, None, None, 5),
    "random-11": (None, None, None, 4),
    "random-12": (None, None, None, 4),
    "random-13": (None, None, None, 6),
    "random-14": (None, None, None, 2),
    "random-15": (4, (1, 2, 6, 7), (1, 3, 8, 2), None),
    "random-16": (2, (4, 6), (5, 6), None),
    "random-17": (None, None, None, 3),
    "random-18": (2, (1, 2), (0, 1), None),
    "random-19": (None, None, None, 2),
}


@pytest.fixture(scope="module")
def oracle_cases():
    return cases()


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_result(oracle_cases, name):
    h, max_len = oracle_cases[name]
    rep = girth_oracle(h, max_len)
    got = (
        rep.girth,
        None if rep.witness is None else rep.witness.vertices,
        None if rep.witness is None else rep.witness.edge_indices,
        rep.searched_to,
    )
    assert got == PINS[name]


def test_every_case_is_pinned(oracle_cases):
    assert sorted(oracle_cases) == sorted(PINS)


def test_deep_search_restores_the_recursion_limit():
    # a 900-cycle of 2-vertex edges: the search path reaches 900 vertices
    n = 900
    h = Hypergraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    before = sys.getrecursionlimit()
    rep = girth_oracle(h, 10**9)
    assert (rep.girth, rep.searched_to) == (n, None)
    assert rep.witness.vertices == tuple(range(n))
    assert sys.getrecursionlimit() == before


def _deep_cycle_report():
    n = 900
    h = Hypergraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    rep = girth_oracle(h, 10**9)
    return rep.girth, rep.searched_to, rep.witness.vertices


DEEP_CYCLE = (900, None, tuple(range(900)))


def test_deep_search_never_sets_the_recursion_limit(monkeypatch):
    # the search keeps its path on a stack of its own, so a 900-vertex path needs no Python stack depth
    def refuse(limit):
        raise AssertionError(f"girth_oracle set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert _deep_cycle_report() == DEEP_CYCLE


def test_deep_searches_in_two_threads_at_once():
    before = sys.getrecursionlimit()
    start = threading.Barrier(2)
    reports = []

    def search():
        start.wait(timeout=60)
        reports.append(_deep_cycle_report())

    threads = [threading.Thread(target=search) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert reports == [DEEP_CYCLE, DEEP_CYCLE]
    assert sys.getrecursionlimit() == before


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 9))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=10, unique=True))
    return Hypergraph(n, tuple(sorted(edges)))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(hypergraphs(), st.integers(2, 8))
def test_agrees_with_the_incidence_graph_bfs(h, max_len):
    fast = girth_hypergraph(h)
    rep = girth_oracle(h, max_len)
    if fast.girth is not None and fast.girth <= max_len:
        assert rep.girth == fast.girth
        assert len(rep.witness) == rep.girth
        rep.witness.check(h)
    else:
        assert (rep.girth, rep.witness, rep.searched_to) == (None, None, max_len)


def reference_oracle(h: Hypergraph, max_len: int) -> GirthReport:
    """``girth_oracle`` as it was with a set of path vertices and of path
    edges per start vertex, a frozenset per edge for the closing test and
    the depth read from the path: the search order, pruning and closing
    rule the faster bookkeeping must keep."""
    if max_len < 2:
        raise PreconditionError(f"max_len must be >= 2, got {short_decimal(max_len)}")
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


def report_key(rep: GirthReport) -> tuple:
    witness = rep.witness
    return (rep.girth, None if witness is None else (witness.vertices, witness.edge_indices), rep.searched_to)


@st.composite
def non_linear_hypergraphs(draw):
    """Up to 14 edges of 1 to 4 vertices on at most 8 vertices, so that
    edges often share two or more vertices and close 2-cycles."""
    n = draw(st.integers(1, 8))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(4, n), unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=14, unique=True))
    return Hypergraph(n, tuple(sorted(edges)))


@settings(derandomize=True, max_examples=600, database=None, deadline=None)
@given(non_linear_hypergraphs(), st.integers(2, 9))
def test_same_report_as_the_reference(h, max_len):
    assert report_key(girth_oracle(h, max_len)) == report_key(reference_oracle(h, max_len))


# (girth, witness vertices, witness edge indices, searched_to), from the reference search.
REFERENCE_PINS = {
    "three-edges-sharing-a-pair": (
        lambda: Hypergraph(4, ((0, 1, 2), (0, 1, 2, 3), (0, 1, 3))), 7, (2, (0, 1), (0, 1), None)),
    "nbhd-PG2-11": (
        lambda: neighborhood_hypergraph(projective_plane(11)), 3, (3, (0, 1, 12), (0, 12, 1), None)),
    "nbhd-W5": (
        lambda: neighborhood_hypergraph(symplectic_quadrangle(5)), 4, (4, (0, 6, 1, 31), (0, 6, 7, 1), None)),
    "nbhd-H3": (
        lambda: neighborhood_hypergraph(split_cayley_hexagon(3)), 6,
        (6, (0, 40, 4, 13, 1, 121), (0, 17, 16, 4, 5, 1), None)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_PINS))
def test_reference_pin(name):
    build, max_len, pin = REFERENCE_PINS[name]
    h = build()
    got = girth_oracle(h, max_len)
    assert (got.girth, got.witness.vertices, got.witness.edge_indices, got.searched_to) == pin
    assert report_key(got) == report_key(reference_oracle(h, max_len))


@pytest.mark.parametrize("max_len", [2.5, 3.0, "3", None, [3]], ids=repr)
def test_max_len_not_an_int_is_refused(max_len):
    with pytest.raises(PreconditionError) as exc:
        girth_oracle(Hypergraph(3, ((0, 1, 2),)), max_len)
    assert str(exc.value) == f"max_len must be an integer >= 2, got {max_len!r}"


@pytest.mark.parametrize("max_len", [1, 0, -7, -10**60])
def test_max_len_below_two_keeps_its_message(max_len):
    with pytest.raises(PreconditionError) as exc:
        girth_oracle(Hypergraph(3, ((0, 1, 2),)), max_len)
    assert str(exc.value) == f"max_len must be >= 2, got {short_decimal(max_len)}"


# The oracle skips a start vertex v0 when the ball of radius max_len around
# v0, in the incidence graph through the vertices above v0, is a tree.  The
# tests below hold it to the reference search, which never skips.

def construct_relabelled(g: BipartiteGraph, seed: int) -> Hypergraph:
    """The neighbourhood hypergraph of ``g`` with both sides permuted by a
    seeded shuffle, as the benchmark's construct workload relabels them."""
    rng = random.Random(f"construct:{seed}")
    left, right = list(range(g.n_left)), list(range(g.n_right))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = tuple(sorted((left[u], right[v]) for u, v in g.incidences))
    return neighborhood_hypergraph(BipartiteGraph(g.n_left, g.n_right, pairs))


# (builder, q, hypergraph girth)
GEOMETRIES = {
    "PG2-11": (projective_plane, 11, 3),
    "W5": (symplectic_quadrangle, 5, 4),
    "H2": (split_cayley_hexagon, 2, 6),
    "H3": (split_cayley_hexagon, 3, 6),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_relabelled_geometry_same_report_as_the_reference(name, seed):
    build, q, girth = GEOMETRIES[name]
    h = construct_relabelled(build(q), seed)
    for max_len in (girth - 1, girth, girth + 2):
        got = girth_oracle(h, max_len)
        assert report_key(got) == report_key(reference_oracle(h, max_len))
        assert got.girth == (girth if max_len >= girth else None)


def cycle_hypergraph(length: int) -> Hypergraph:
    """One Berge cycle through 0, 1, ..., length - 1 and nothing else.  The
    2-cycle's two edges each carry a private vertex, as edges are distinct."""
    if length == 2:
        return Hypergraph(4, ((0, 1, 2), (0, 1, 3)))
    return Hypergraph.from_edges(length, ((i, (i + 1) % length) for i in range(length)))


@pytest.mark.parametrize("length", range(2, 8))
def test_cycle_found_at_its_length(length):
    # max_len == length, so the ball around vertex 0 has radius length.  At
    # length 2h, vertex h is reached a second time at the ball's last level;
    # at 2h + 1 every vertex is reached once, and only the edge {h, h + 1},
    # at the ball's radius, joins the two last-level vertices.
    cyc = cycle_hypergraph(length)
    got = girth_oracle(cyc, length)
    assert report_key(got) == report_key(reference_oracle(cyc, length))
    assert (got.girth, got.witness.vertices[0]) == (length, 0)
