"""Property tests for the planner, certificates and theorem bound of both
routes, and for the adjacency ``core`` derives from a value.

Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic.  The substrate polynomials, the order
recursion and the display exponents are restated here, independently of
the route table; the neighbour lists, degrees and incidence graph are
rebuilt by sorting and counting, independently of ``core``.
"""

from hypothesis import assume, given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext

from hypergirth import (
    BelowSeedError,
    BipartiteGraph,
    Hypergraph,
    certificate,
    incidence_graph,
    reverify_certificate,
    theorem_bound,
)
from hypergirth.planner import ROUTES

MAX_DIGITS = 400
V = {
    6: lambda q: (1 + q) * (1 + q**4 + q**8),
    8: lambda q: (1 + q) * (1 + q**3 + q**6 + q**9),
}
GROWTH = {6: 9, 8: 10}
STEP = {6: 1, 8: 2}


def vertices(girth: int, p: int, m: int, n: int) -> int:
    e = m
    for _ in range(n - 1):
        e = GROWTH[girth] * e + 1
    return V[girth](p**e)


@st.composite
def plan_inputs(draw, girth):
    p = draw(st.sampled_from((2, 3, 5, 7, 11))) if girth == 6 else 2
    r = draw(st.integers(2, 2**draw(st.integers(1, 16)) + 1))
    try:
        ROUTES[girth].plan(p, r, 1)
    except BelowSeedError as exc:
        seed = exc.seed_vertices
    assume(len(str(seed)) <= MAX_DIGITS)
    digits = draw(st.integers(len(str(seed)), MAX_DIGITS))
    n_value = draw(st.integers(max(seed, 10 ** (digits - 1)), 10**digits - 1))
    return p, r, n_value


def check_plan_and_certificate(girth, p, r, n_value):
    plan = ROUTES[girth].plan(p, r, n_value)
    assert vertices(girth, p, plan.m, plan.n) <= n_value < vertices(girth, p, plan.m + STEP[girth], plan.n)
    assert plan.m >= plan.m_star and plan.n >= plan.n_star
    text = certificate(girth, p, plan.m, plan.n, r).serialize()
    assert "\nstatus VALID\n" in text
    assert reverify_certificate(text).serialize() == text


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plan_inputs(6))
def test_girth6_plan_sandwich_and_certificate(args):
    check_plan_and_certificate(6, *args)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plan_inputs(8))
def test_girth8_plan_sandwich_and_certificate(args):
    check_plan_and_certificate(8, *args)


# A private interval context: nothing the program sets can reach it.
IV = MPIntervalContext()
IV.prec = 160
MAX_BITS = 10**5


def exponent_enclosure_72(girth, p, n_value):
    """Interval containing 72 times the display exponent at N, with log N
    taken from N's top 64 bits: (11/8)(1 - 33/sqrt(log_p N)) or
    (11/9)(1 - 13 sqrt(10/log2 N))."""
    shift = max(0, n_value.bit_length() - 64)
    top = n_value >> shift
    log_n = IV.log(IV.mpf([top, top + (shift > 0)])) + shift * IV.log(2)
    if girth == 6:
        return 72 * IV.mpf(11) / 8 * (1 - 33 / IV.sqrt(log_n / IV.log(p)))
    return 72 * IV.mpf(11) / 9 * (1 - 13 * IV.sqrt(10 * IV.log(2) / log_n))


@st.composite
def theorem_inputs(draw):
    girth = draw(st.sampled_from((6, 8)))
    p = draw(st.sampled_from((2, 3, 5, 7, 11))) if girth == 6 else 2
    kind = draw(st.sampled_from(("random", "round", "power")))
    if kind == "random":
        bits = draw(st.integers(2, MAX_BITS))
        n_value = draw(st.randoms(use_true_random=False)).getrandbits(bits) | 1 << (bits - 1)
    elif kind == "round":
        radix = draw(st.sampled_from((2, 10)))
        n_value = radix ** draw(st.integers(1, MAX_BITS // radix.bit_length()))
    else:
        t = draw(st.integers(1, MAX_BITS // p.bit_length()))
        n_value = p**t + draw(st.integers(-3, 3))
    return girth, p, max(n_value, 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(theorem_inputs())
def test_theorem_floor_meets_interval_enclosure(args):
    """k/72 <= exponent < (k+1)/72 forces the enclosure to meet [k, k+1);
    when the enclosure holds no integer, that pins k to its floor."""
    girth, p, n_value = args
    k72 = theorem_bound(girth, p, n_value).bound.exponent * 72
    assert k72.denominator == 1
    k = int(k72)
    enclosure = exponent_enclosure_72(girth, p, n_value)
    assert enclosure.b >= k and enclosure.a < k + 1


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return Hypergraph(0, ())
    edges = draw(st.sets(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n), max_size=20))
    return Hypergraph.from_edges(n, edges)


@st.composite
def bipartite_graphs(draw):
    n_left, n_right = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    pairs = st.tuples(st.integers(0, max(n_left - 1, 0)), st.integers(0, max(n_right - 1, 0)))
    incidences = draw(st.sets(pairs, max_size=n_left * n_right))
    return BipartiteGraph.from_incidences(n_left, n_right, incidences)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_neighbour_lists_match_a_sorted_build(g):
    """The canonical incidences list each vertex's neighbours in order."""
    left = [[] for _ in range(g.n_left)]
    right = [[] for _ in range(g.n_right)]
    for u, v in g.incidences:
        left[u].append(v)
        right[v].append(u)
    assert g.left_neighbors == tuple(tuple(sorted(a)) for a in left)
    assert g.right_neighbors == tuple(tuple(sorted(a)) for a in right)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hypergraphs())
def test_degrees_and_incidence_graph_match_a_counting_build(h):
    deg = [0] * h.num_vertices
    for edge in h.edges:
        for v in edge:
            deg[v] += 1
    assert h.degrees == tuple(deg)
    pairs = sorted((u, j) for j, edge in enumerate(h.edges) for u in edge)
    assert incidence_graph(h) == BipartiteGraph(h.num_vertices, h.num_edges, tuple(pairs))
