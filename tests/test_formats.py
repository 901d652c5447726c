import random

import pytest

from hypergirth import (
    BipartiteGraph,
    FormatError,
    Hypergraph,
    ResourceBudgetError,
    parse_bipartite,
    parse_hypergraph,
    serialize_bipartite,
    serialize_hypergraph,
)
from hypergirth.core import VERTEX_BUDGET

FANO_TEXT = (
    "hgt 1\n"
    "vertices 7\n"
    "edges 7\n"
    "e 0 1 3\n"
    "e 0 2 6\n"
    "e 0 4 5\n"
    "e 1 2 4\n"
    "e 1 5 6\n"
    "e 2 3 5\n"
    "e 3 4 6\n"
)


def test_serialize_fano(fano):
    assert serialize_hypergraph(fano) == FANO_TEXT


def test_hypergraph_roundtrip_bit_exact(fano):
    text = serialize_hypergraph(fano)
    assert parse_hypergraph(text) == fano
    assert serialize_hypergraph(parse_hypergraph(text)) == text


def test_bipartite_roundtrip_bit_exact():
    g = BipartiteGraph.from_incidences(3, 2, [(0, 0), (2, 1), (1, 0)])
    text = serialize_bipartite(g)
    assert text == "bgt 1\nleft 3\nright 2\na 0 0\na 1 0\na 2 1\n"
    assert parse_bipartite(text) == g


def test_random_roundtrips():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(0, 15)
        edges = set()
        for _ in range(rng.randint(0, 12)):
            if n == 0:
                break
            size = rng.randint(1, min(5, n))
            edges.add(tuple(sorted(rng.sample(range(n), size))))
        h = Hypergraph(n, tuple(sorted(edges)))
        assert parse_hypergraph(serialize_hypergraph(h)) == h
        nl, nr = rng.randint(0, 8), rng.randint(0, 8)
        pairs = set()
        for _ in range(rng.randint(0, 20)):
            if nl and nr:
                pairs.add((rng.randrange(nl), rng.randrange(nr)))
        g = BipartiteGraph(nl, nr, tuple(sorted(pairs)))
        assert parse_bipartite(serialize_bipartite(g)) == g


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("xgt 1\nvertices 1\nedges 0\n", 1, "hgt 1"),
        ("hgt 2\nvertices 1\nedges 0\n", 1, "hgt 1"),
        ("hgt 1\nvertices 1\nedges 0", 3, "final newline"),
        ("hgt 1\r\nvertices 1\nedges 0\n", 1, "carriage return"),
        ("hgt 1\nvertices  1\nedges 0\n", 2, "vertices"),
        ("hgt 1\nvertices 01\nedges 0\n", 2, "canonical decimal"),
        ("hgt 1\nvertices 1\nedges 1\n", 4, "edge lines"),
        ("hgt 1\nvertices 1\nedges 0\ne 0\n", 4, "edge lines"),
        ("hgt 1\nvertices 3\nedges 1\ne 1 0\n", 4, "strictly increasing"),
        ("hgt 1\nvertices 3\nedges 1\ne 0 3\n", 4, "out of"),
        ("hgt 1\nvertices 3\nedges 2\ne 0 1\ne 0 1\n", 5, "duplicate edge"),
        ("hgt 1\nvertices 3\nedges 2\ne 1 2\ne 0 1\n", 5, "lexicographic"),
        ("hgt 1\nvertices 3\nedges 1\nf 0 1\n", 4, "expected `e"),
        ("hgt 1\nvertices 3\nedges 1\ne 0 1 \n", 4, "expected `e"),
    ],
)
def test_hypergraph_rejections(text, lineno, fragment):
    with pytest.raises(FormatError, match=rf"line {lineno}:") as err:
        parse_hypergraph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("hgt 1\nleft 1\nright 1\n", 1, "bgt 1"),
        ("bgt 1\nleft 1\nright 1\na 0 0 0\n", 4, "expected `a"),
        ("bgt 1\nleft 1\nright 1\na 1 0\n", 4, "left id 1 out of"),
        ("bgt 1\nleft 1\nright 1\na 0 1\n", 4, "right id 1 out of"),
        ("bgt 1\nleft 2\nright 2\na 1 0\na 0 0\n", 5, "not lexicographic"),
        ("bgt 1\nleft 2\nright 2\na 0 0\na 0 0\n", 5, "duplicate incidence"),
    ],
)
def test_bipartite_rejections(text, lineno, fragment):
    with pytest.raises(FormatError, match=rf"line {lineno}:") as err:
        parse_bipartite(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("hgt 1\nvertices " + "9" * 5000 + "\nedges 0\n", "line 2: vertices 9999"),
        (f"hgt 1\nvertices {VERTEX_BUDGET + 1}\nedges 0\n", f"line 2: vertices {VERTEX_BUDGET + 1} is above"),
        ("hgt 1\nvertices 3\nedges " + "9" * 5000 + "\n", "line 3: edges 9999"),
        ("hgt 1\nvertices 3\nedges 1\ne 0 " + "1" * 5000 + "\n", "line 4: vertex id 1111"),
        ("bgt 1\nleft " + "1" * 5000 + "\nright 1\n", "line 2: left 1111"),
        ("bgt 1\nleft 2\nright 2\na 0 " + "1" * 5000 + "\n", "line 4: right id 1111"),
        (f"bgt 1\nleft {VERTEX_BUDGET}\nright 1\n", f"has {VERTEX_BUDGET + 1} vertices"),
    ],
    ids=["hgt-vertices", "hgt-vertices-over", "hgt-edges", "hgt-id", "bgt-left", "bgt-id", "bgt-sides"],
)
def test_oversized_integers_refused(text, fragment):
    parse = parse_hypergraph if text.startswith("hgt") else parse_bipartite
    with pytest.raises(ResourceBudgetError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_vertex_budget_boundary():
    assert parse_hypergraph(f"hgt 1\nvertices {VERTEX_BUDGET}\nedges 0\n").num_vertices == VERTEX_BUDGET


def test_geometry_serialization_deterministic(hex2):
    from hypergirth import split_cayley_hexagon

    assert serialize_bipartite(hex2) == serialize_bipartite(split_cayley_hexagon(2))
