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

import pytest
from hypothesis import given, settings, strategies as st

from hypergirth import (
    Hypergraph,
    girth_hypergraph,
    girth_oracle,
    neighborhood_hypergraph,
    split_cayley_hexagon,
    symplectic_quadrangle,
)

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
