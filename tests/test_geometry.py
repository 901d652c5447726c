import inspect
import itertools
import os
import random
import re
import subprocess
import time
from collections import deque
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hypergirth
from hypergirth import (
    BipartiteGraph,
    FormatError,
    GreedyReport,
    PreconditionError,
    ResourceBudgetError,
    girth_bipartite,
    greedy_high_girth_bipartite,
    is_prime,
    projective_plane,
    serialize_bipartite,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from hypergirth.arith import EXACT, int_to_decimal
from hypergirth.core import VERTEX_BUDGET
from hypergirth.geometry import (
    _HEXAGON_LINE_CONDITIONS,
    GREEDY_PAIR_BUDGET,
    POLYGON,
    _check_geometry,
    _kernel,
    _point_index,
    geometry_incidences,
    polygon_counts,
    projective_points,
)
from hypergirth.pipeline import parse_recipe, run_pipeline, run_stage
from hypergirth.planner import ROUTES


@st.composite
def kernel_inputs(draw):
    q = draw(st.sampled_from((2, 3, 5, 7)))
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3 * q, 3 * q), min_size=dim, max_size=dim)
    return q, dim, draw(st.lists(row, max_size=6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernel_is_the_solution_space(args):
    q, dim, rows = args
    basis = _kernel(rows, q, dim)
    for col, vec in basis.items():
        assert all(sum(a * b for a, b in zip(row, vec)) % q == 0 for row in rows)
        assert all(vec[other] == (other == col) for other in basis)
        assert all(0 <= c < q for c in vec)
    solutions = sum(
        all(sum(a * b for a, b in zip(row, y)) % q == 0 for row in rows)
        for y in itertools.product(range(q), repeat=dim)
    )
    assert solutions == q ** len(basis)


# The builders that point-index arithmetic replaced, kept verbatim as the
# reference: each point is normalised and looked up in a tuple -> index
# dict, every line of W(q) and H(q) is built once from each of its points,
# and every point of PG(2,q) is tested against every line.
def _normalize(vec: tuple[int, ...], q: int) -> tuple[int, ...]:
    """Scale a nonzero vector over F_q so its first nonzero coordinate is 1."""
    for c in vec:
        if c != 0:
            inv = pow(c, -1, q)
            return tuple(inv * x % q for x in vec)
    raise PreconditionError("zero vector has no projective normalization")


def _geometry_from_kernels(points, q, forms, kind):
    index = {pt: i for i, pt in enumerate(points)}
    lines: set[tuple[int, ...]] = set()
    for x in points:
        basis = _kernel(forms(x), q, len(x))
        drop = next(col for col in basis if x[col])
        rest = [vec for col, vec in basis.items() if col != drop]
        for coeffs in projective_points(q, len(rest)):
            y = [sum(c * vec[i] for c, vec in zip(coeffs, rest)) for i in range(len(x))]
            line = [x] + [_normalize(tuple((mu * a + b) % q for a, b in zip(x, y)), q) for mu in range(q)]
            lines.add(tuple(sorted(index[pt] for pt in line)))
    line_list = sorted(lines)
    pairs = [(v, j) for j, ln in enumerate(line_list) for v in ln]
    g = BipartiteGraph.from_incidences(len(points), len(line_list), pairs)
    _check_geometry(g, kind, q)
    return g


def reference_plane(q):
    points = projective_points(q, 3)
    index = {pt: i for i, pt in enumerate(points)}
    pairs = []
    for j, ln in enumerate(points):  # lines are dual points
        for pt in points:
            if sum(a * b for a, b in zip(pt, ln)) % q == 0:
                pairs.append((index[pt], j))
    g = BipartiteGraph.from_incidences(len(points), len(points), pairs)
    _check_geometry(g, "plane", q)
    return g


def reference_quadrangle(q):
    def forms(x: tuple[int, ...]) -> list[list[int]]:
        return [[-x[1], x[0], -x[3], x[2]]]

    return _geometry_from_kernels(projective_points(q, 4), q, forms, "quadrangle")


def reference_hexagon(q):
    def forms(x: tuple[int, ...]) -> list[list[int]]:
        rows = [[x[4], x[5], x[6], -2 * x[3], x[0], x[1], x[2]]]  # polar form of the quadric
        for (i, j), (k, l), sign in _HEXAGON_LINE_CONDITIONS:
            row = [0] * 7  # p_ij - sign * p_kl, with p_ij = x_i*y_j - x_j*y_i
            row[j] += x[i]
            row[i] -= x[j]
            row[l] -= sign * x[k]
            row[k] += sign * x[l]
            rows.append(row)
        return rows

    points = [
        pt for pt in projective_points(q, 7)
        if (pt[0] * pt[4] + pt[1] * pt[5] + pt[2] * pt[6] - pt[3] * pt[3]) % q == 0
    ]
    return _geometry_from_kernels(points, q, forms, "hexagon")


@pytest.mark.parametrize(
    "build, reference, q",
    [(projective_plane, reference_plane, q) for q in (2, 3, 5, 7, 11, 13)]
    + [(symplectic_quadrangle, reference_quadrangle, q) for q in (2, 3, 5, 7)]
    + [(split_cayley_hexagon, reference_hexagon, q) for q in (2, 3)],
)
def test_builder_matches_reference(build, reference, q):
    assert build(q) == reference(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_point_index_is_the_position_in_projective_points(q, dim):
    points = projective_points(q, dim)
    index = _point_index(q, dim)
    vectors = [vec for vec in itertools.product(range(q), repeat=dim) if any(vec)]
    assert len(vectors) == (q - 1) * len(points)
    for vec in vectors:
        assert index(vec) == points.index(_normalize(vec, q))
    with pytest.raises(PreconditionError, match="zero vector"):
        index((0,) * dim)


class TestProjectivePlane:
    def test_q2_is_heawood(self, plane2):
        assert (plane2.n_left, plane2.n_right) == (7, 7)
        assert plane2.num_incidences == 21
        assert girth_bipartite(plane2).girth == 6
        assert set(plane2.left_degrees) == {3} and set(plane2.right_degrees) == {3}

    @pytest.mark.parametrize("q,side", [(3, 13), (5, 31)])
    def test_counts(self, q, side):
        g = projective_plane(q)
        assert g.n_left == g.n_right == side == q * q + q + 1
        assert g.num_incidences == side * (q + 1)
        assert girth_bipartite(g).girth == 6

    def test_q17_past_the_old_cap(self):
        g = projective_plane(17)
        assert (g.n_left, g.n_right, g.num_incidences) == (307, 307, 307 * 18)
        assert set(g.left_degrees) == set(g.right_degrees) == {18}
        assert girth_bipartite(g).girth == 6

    @pytest.mark.parametrize("q", [0, 1, 4, 6])
    def test_bad_orders(self, q):
        with pytest.raises(PreconditionError):
            projective_plane(q)


class TestSymplecticQuadrangle:
    def test_q2_fingerprint(self, quad2):
        assert (quad2.n_left, quad2.n_right) == (15, 15)
        assert quad2.num_incidences == 45
        assert girth_bipartite(quad2).girth == 8
        assert set(quad2.left_degrees) == {3} and set(quad2.right_degrees) == {3}

    def test_q3(self):
        g = symplectic_quadrangle(3)
        assert (g.n_left, g.n_right, g.num_incidences) == (40, 40, 160)
        assert girth_bipartite(g).girth == 8

    def test_neighborhood_girth_four(self, quad2):
        from hypergirth import girth_hypergraph, neighborhood_hypergraph

        assert girth_hypergraph(neighborhood_hypergraph(quad2)).girth == 4

    def test_q11_past_the_old_cap(self):
        g = symplectic_quadrangle(11)
        assert (g.n_left, g.n_right, g.num_incidences) == (1464, 1464, 1464 * 12)
        assert set(g.left_degrees) == set(g.right_degrees) == {12}
        assert girth_bipartite(g).girth == 8

    @pytest.mark.parametrize("q", [1, 4])
    def test_bad_orders(self, q):
        with pytest.raises(PreconditionError):
            symplectic_quadrangle(q)


class TestSplitCayleyHexagon:
    def test_q2_fingerprint(self, hex2):
        assert (hex2.n_left, hex2.n_right) == (63, 63)
        assert hex2.num_incidences == 189
        assert set(hex2.left_degrees) == {3} and set(hex2.right_degrees) == {3}
        assert girth_bipartite(hex2).girth == 12

    def test_neighborhood_is_three_uniform_girth_six(self, hex2):
        from hypergirth import girth_hypergraph, neighborhood_hypergraph, validate

        h = neighborhood_hypergraph(hex2)
        rep = validate(h)
        assert rep.uniformity == 3 and rep.regularity == 3
        assert girth_hypergraph(h).girth == 6

    def test_bad_orders(self):
        with pytest.raises(PreconditionError):
            split_cayley_hexagon(4)

    def test_point_list_checked_against_the_vertex_budget(self, monkeypatch):
        # H(3) has 364 * 4 = 1456 incidences, more than the (3^7 - 1) / 2 =
        # 1093 points of PG(6,3) it lists, so the incidence budget bounds both
        monkeypatch.setattr("hypergirth.core.VERTEX_BUDGET", 1456)
        assert split_cayley_hexagon(3).n_left == 364
        monkeypatch.setattr("hypergirth.core.VERTEX_BUDGET", 1455)
        with pytest.raises(ResourceBudgetError, match=r"^hexagon q=3 has 1456 incidences, budget is 1455$"):
            split_cayley_hexagon(3)


# A 4000-digit q with no prime factor up to 41, so Miller-Rabin would
# spend its full time on it.
ROUGH_Q = next(
    q for q in itertools.count(10**3999) if all(q % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
)
BUILDERS = {"plane": projective_plane, "quadrangle": symplectic_quadrangle, "hexagon": split_cayley_hexagon}


class TestPolygonCounts:
    """One count rule for every generalized polygon: (1+s)F points and
    (1+t)F lines of an n-gon of order (s, t), F = sum of (st)^i for
    i < n/2, and 1+q+q^2 of each for the plane."""

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_order_q_q_is_the_geometric_sum(self, n):
        for q in [*range(2, 60), 7**1500, 2**9999 + 1, 10**3000 + 19]:
            assert polygon_counts(n, q, q) == ((q**n - 1) // (q - 1),) * 2

    def test_published_counts(self):
        # the dual of T(8, 2), T(8, 2) itself, and the Ree-Tits octagon of order (2, 4)
        assert polygon_counts(6, 2, 8) == (819, 2457) == ROUTES[6].substrate(2)
        assert polygon_counts(6, 8, 2) == (2457, 819)
        assert polygon_counts(8, 2, 4) == (1755, 2925) == ROUTES[8].substrate(2)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_duality_swaps_the_counts(self, n):
        for s, t in itertools.product([1, 2, 3, 8, 27, 5**40], repeat=2):
            points, lines = polygon_counts(n, s, t)
            assert polygon_counts(n, t, s) == (lines, points)

    @pytest.mark.parametrize("n, line_power", [(4, 2), (6, 3), (8, 2), (8, 1)])
    def test_decimals_under_exact_match_ints(self, n, line_power):
        q = 7**3000
        with localcontext(EXACT):
            got = polygon_counts(n, Decimal(q), Decimal(q) ** line_power)
        assert tuple(map(str, got)) == tuple(map(int_to_decimal, polygon_counts(n, q, q**line_power)))

    def test_route_constants_derive_from_the_polygon(self):
        assert (ROUTES[6].growth, ROUTES[6].den) == (9, 8)
        assert (ROUTES[8].growth, ROUTES[8].den) == (10, 9)


class TestGeometryBudget:
    """One size rule for the three geometries: the incidence count against
    core.VERTEX_BUDGET, checked before primality and before any allocation."""

    @pytest.mark.parametrize("kind,last,first", [("plane", 167, 173), ("quadrangle", 43, 47), ("hexagon", 11, 13)])
    def test_largest_order_within_the_budget(self, kind, last, first):
        assert [q for q in range(last, first + 1) if is_prime(q)] == [last, first]
        points, _ = polygon_counts(POLYGON[kind], last, last)
        assert geometry_incidences(kind, last) == points * (last + 1) <= VERTEX_BUDGET
        count = polygon_counts(POLYGON[kind], first, first)[0] * (first + 1)
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=f"^{kind} q={first} has {count} incidences, budget is"):
            BUILDERS[kind](first)
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_huge_order_refused_before_primality(self, kind, monkeypatch):
        def no_primality(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr("hypergirth.geometry.is_prime", no_primality)
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=rf"\(4000 digits\) has more than {VERTEX_BUDGET} incidences"):
            BUILDERS[kind](ROUGH_Q)
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("q", [0, 1, 4, 6])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_non_prime_orders(self, kind, q):
        with pytest.raises(PreconditionError, match=f"^{kind} order must be a prime, got {q}$"):
            BUILDERS[kind](q)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_order_of_5001_digits_either_sign(self, kind):
        # rendered short: str() of a 5001-digit int exceeds the int-to-str limit
        shown = r"1" + "0" * 39 + r"\.\.\.\(5001 digits\)"
        with pytest.raises(ResourceBudgetError, match=f"^{kind} q={shown} has more than {VERTEX_BUDGET} incidences"):
            BUILDERS[kind](10**5000)
        with pytest.raises(PreconditionError, match=f"^{kind} order must be a prime, got -{shown}$"):
            BUILDERS[kind](-10**5000)

    def test_hexagon_incidences_exceed_its_point_list(self):
        for q in range(2, 1000):
            assert polygon_counts(6, q, q)[0] * (q + 1) > (q**7 - 1) // (q - 1)


class TestGreedy:
    def test_spec_example(self):
        g, rep = greedy_high_girth_bipartite(30, 30, 3, 12, 1)
        assert max(g.right_degrees) <= 3
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= 12

    def test_degree_one_is_forest(self):
        g, rep = greedy_high_girth_bipartite(10, 10, 1, 6, 3)
        assert girth_bipartite(g).is_infinite
        assert max(g.right_degrees) <= 1

    def test_underfilled_reported(self):
        g, rep = greedy_high_girth_bipartite(4, 4, 4, 6, 7)
        assert rep.rights_below_target > 0
        assert not rep.filled
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= 6
        assert sum(count for _, count in rep.degree_histogram) == 4
        assert any("rights-below-target" in line for line in rep.lines())

    def test_deterministic(self):
        a, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 42)
        b, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 42)
        assert serialize_bipartite(a) == serialize_bipartite(b)
        c, _ = greedy_high_girth_bipartite(25, 25, 3, 8, 43)
        assert serialize_bipartite(a) != serialize_bipartite(c)

    @pytest.mark.parametrize("seed", range(1, 51))
    def test_girth_floor_holds_over_seeds(self, seed):
        target = 6 + 2 * (seed % 4)
        g, rep = greedy_high_girth_bipartite(24, 18, 3, target, seed)
        girth = girth_bipartite(g).girth
        assert girth is None or girth >= target
        assert max(g.right_degrees, default=0) <= 3

    def test_target_far_above_every_cycle_stops_probing(self):
        start = time.monotonic()
        g, rep = greedy_high_girth_bipartite(4, 4, 3, 10**12, 1)
        assert time.monotonic() - start < 1.0
        g18, rep18 = greedy_high_girth_bipartite(4, 4, 3, 18, 1)  # above every cycle length of K_{4,4}
        assert serialize_bipartite(g) == serialize_bipartite(g18)
        assert rep.accepted == rep18.accepted

    def test_validation(self):
        with pytest.raises(PreconditionError):
            greedy_high_girth_bipartite(0, 5, 2, 6, 1)
        with pytest.raises(PreconditionError, match="even"):
            greedy_high_girth_bipartite(5, 5, 2, 7, 1)


def reference_greedy(n_left, n_right, right_degree, target_girth, seed):
    """The greedy generator without the cross-probe cache: every proposal
    below its cap runs a fresh BFS.  Sizes are assumed valid."""
    rng = random.Random(seed)
    grid = [(u, v) for u in range(n_left) for v in range(n_right)]
    rng.shuffle(grid)

    adj = [[] for _ in range(n_left + n_right)]
    right_deg = [0] * n_right
    max_explore = target_girth - 2
    seen = [False] * (n_left + n_right)

    def within_distance(src, dst):
        if not adj[src]:
            return False
        seen[src] = True
        touched = [src]
        frontier = [src]
        found = False
        for depth in range(1, max_explore + 1):
            if depth % 2 and any(dst in adj[x] for x in frontier):
                found = True
                break
            if depth == max_explore:
                break
            start = len(touched)
            for x in frontier:
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        touched.append(y)
            frontier = touched[start:]
        for x in touched:
            seen[x] = False
        return found

    accepted = 0
    for u, v in grid:
        if right_deg[v] >= right_degree:
            continue
        node_v = n_left + v
        if within_distance(u, node_v):
            continue
        adj[u].append(node_v)
        adj[node_v].append(u)
        right_deg[v] += 1
        accepted += 1

    pairs = [(u, w - n_left) for u in range(n_left) for w in adj[u]]
    g = BipartiteGraph.from_incidences(n_left, n_right, pairs)
    hist = {}
    for d in right_deg:
        hist[d] = hist.get(d, 0) + 1
    report = GreedyReport(
        n_left, n_right, right_degree, target_girth, seed, accepted,
        tuple(sorted(hist.items())), sum(1 for d in right_deg if d < right_degree),
    )
    return g, report


def left_right_distances(g, u):
    """Distances from left vertex u to every right vertex by plain BFS
    over the output graph (None where unreachable)."""
    dist = {("L", u): 0}
    queue = deque([("L", u)])
    while queue:
        side, x = queue.popleft()
        nbrs = g.left_neighbors[x] if side == "L" else g.right_neighbors[x]
        other = "R" if side == "L" else "L"
        for y in nbrs:
            if (other, y) not in dist:
                dist[(other, y)] = dist[(side, x)] + 1
                queue.append((other, y))
    return [dist.get(("R", v)) for v in range(g.n_right)]


# Edge shapes (girth 4, degree 1, degree >= n_left, one right vertex, girth
# 16), the benchmark's recipe shape at three seeds, shapes with either side
# the smaller one by far, a square one, plus a fixed-seed draw of small
# shapes: (left, right, deg, girth, seed).
_rng = random.Random(20261018)
GREEDY_SHAPES = [
    (12, 9, 3, 4, 1),
    (15, 15, 1, 8, 2),
    (6, 8, 7, 6, 3),
    (9, 1, 9, 10, 4),
    (1, 9, 2, 6, 5),
    (40, 30, 4, 16, 6),
    (30, 30, 3, 12, 1),
    (24, 18, 3, 8, 5),
    (500, 100, 10, 10, 1),
    (500, 100, 10, 10, 2),
    (500, 100, 10, 10, 4242),
    (1, 300, 3, 6, 1),
    (300, 1, 3, 6, 1),
    (20, 200, 3, 10, 1),
    (200, 20, 3, 10, 1),
    (60, 60, 4, 8, 3),
] + [
    (_rng.randint(1, 40), _rng.randint(1, 40), _rng.randint(1, 8), 2 * _rng.randint(2, 8), _rng.randrange(1000))
    for _ in range(24)
]


class TestGreedyCache:
    """The mask search and its near cache change no output and reject no
    acceptable pair."""

    @pytest.mark.parametrize("shape", GREEDY_SHAPES, ids=str)
    def test_matches_uncached_reference(self, shape):
        g, rep = greedy_high_girth_bipartite(*shape)
        ref_g, ref_rep = reference_greedy(*shape)
        assert serialize_bipartite(g) == serialize_bipartite(ref_g)
        assert rep.lines() == ref_rep.lines()

    @pytest.mark.parametrize("shape", GREEDY_SHAPES, ids=str)
    def test_maximal(self, shape):
        n_left, n_right, right_degree, target_girth, _ = shape
        g, _ = greedy_high_girth_bipartite(*shape)
        for u in range(n_left):
            dist = left_right_distances(g, u)
            for v in range(n_right):
                if v in g.left_neighbors[u] or g.right_degrees[v] >= right_degree:
                    continue
                assert dist[v] is not None and dist[v] <= target_girth - 3, (u, v)

    def test_wide_grid_is_fast(self):
        # One left vertex: every probe reads a one-bit mask, never a BFS over the 5000 right vertices.
        start = time.perf_counter()
        g, rep = greedy_high_girth_bipartite(1, 5000, 3, 6, 1)
        assert time.perf_counter() - start < 1.0
        assert rep.accepted == 5000 and g.left_degrees == (5000,)

    @pytest.mark.parametrize("n_left, n_right", [(10**6, 10**6), (GREEDY_PAIR_BUDGET + 1, 1), (1, 10**12)])
    def test_pair_budget(self, n_left, n_right):
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match=f"budget is {GREEDY_PAIR_BUDGET}"):
            greedy_high_girth_bipartite(n_left, n_right, 3, 8, 1)
        assert time.perf_counter() - start < 1.0

    def test_preconditions_before_budget(self):
        with pytest.raises(PreconditionError, match="even"):
            greedy_high_girth_bipartite(10**6, 10**6, 3, 7, 1)


def _greedy_digests() -> list[str]:
    """sha256 of the greedy graph and report lines on the benchmark's recipe
    shape and on a wide one.  Stdlib only: it also runs as a script."""
    import hashlib

    from hypergirth import greedy_high_girth_bipartite, serialize_bipartite

    out = []
    for shape in (500, 100, 10, 10, 1), (1, 5000, 3, 6, 1):
        g, rep = greedy_high_girth_bipartite(*shape)
        text = serialize_bipartite(g) + "\n".join(rep.lines())
        out.append(hashlib.sha256(text.encode("ascii")).hexdigest())
    return out


def _polygon_digests() -> list[str]:
    """sha256 of the certificates (6,5,2,4,3), (6,5,2,5,3) and (8,-,5,4,3)
    and of the PG(2,7), W(5) and H(3) files, whose sizes all come from the
    polygon count rule, on Decimals and on ints.  Stdlib only: it also runs
    as a script."""
    import hashlib

    from hypergirth import certificate, projective_plane, serialize_bipartite, split_cayley_hexagon
    from hypergirth import symplectic_quadrangle

    texts = [certificate(*args).serialize() for args in ((6, 5, 2, 4, 3), (6, 5, 2, 5, 3), (8, None, 5, 4, 3))]
    builds = (projective_plane, 7), (symplectic_quadrangle, 5), (split_cayley_hexagon, 3)
    texts += [serialize_bipartite(build(q)) for build, q in builds]
    return [hashlib.sha256(text.encode("ascii")).hexdigest() for text in texts]


def _certificate_digests() -> list[str]:
    """sha256 of short certificates, whose values power_at_least reads
    whole, and of long ones, whose vertex and edge counts it brackets from
    their leading digits and, at the girth-8 edge-bound tie, compares with
    an exact Decimal power; and the brackets of a few long Decimals.
    Stdlib only: it also runs as a script."""
    import hashlib
    from decimal import Decimal, localcontext

    from hypergirth import arith, certificate

    headers = (8, None, 65, 1, 3), (6, 2, 18, 1, 3), (8, None, 315, 2, 3), (6, 2, 4, 5, 3), (8, None, 5, 5, 3)
    texts = [certificate(*header).serialize() for header in headers]
    with localcontext(arith.EXACT):
        values = [Decimal(7) ** 900, Decimal(10) ** 700, Decimal(10) ** 700 - 1, Decimal(2) ** 9000 + 1]
    texts.append(repr([arith._bracket(n, prec) for n in values for prec in (128, 512, 2048)]))
    return [hashlib.sha256(text.encode("ascii")).hexdigest() for text in texts]


def _oracle_digests() -> list[str]:
    """sha256 of the oracle's girth, witness and search bound on the
    neighbourhood hypergraphs of PG(2,11) at 3, W(5) at 4 and H(3) at 6,
    and on three edges sharing a pair at 7.  Stdlib only: it also runs as a
    script."""
    import hashlib

    from hypergirth import Hypergraph, girth_oracle, neighborhood_hypergraph, projective_plane
    from hypergirth import split_cayley_hexagon, symplectic_quadrangle

    cases = [
        (neighborhood_hypergraph(projective_plane(11)), 3),
        (neighborhood_hypergraph(symplectic_quadrangle(5)), 4),
        (neighborhood_hypergraph(split_cayley_hexagon(3)), 6),
        (Hypergraph(4, ((0, 1, 2), (0, 1, 2, 3), (0, 1, 3))), 7),
    ]
    out = []
    for h, max_len in cases:
        rep = girth_oracle(h, max_len)
        text = repr((rep.girth, rep.witness.vertices, rep.witness.edge_indices, rep.searched_to))
        out.append(hashlib.sha256(text.encode("ascii")).hexdigest())
    return out


def _cli_digests() -> list[str]:
    """sha256 of the stdout, stderr and exit code of CLI calls: an argparse
    error, a q that is not prime, an N below the seed, a non-canonical
    integer, and `report` on a small hypergraph file.  Stdlib only: it also
    runs as a script."""
    import hashlib
    import io
    import os
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout

    from hypergirth.cli import main

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        bgt, hgt = os.path.join(tmp, "p.bgt"), os.path.join(tmp, "h.hgt")
        lines = ["hgt 1", "vertices 7", "edges 7", "e 0 1 2", "e 0 3 4", "e 0 5 6", "e 1 3 5", "e 1 4 6",
                 "e 2 3 6", "e 2 4 5"]
        with open(hgt, "w", encoding="ascii", newline="") as f:
            f.write("\n".join(lines) + "\n")
        calls = (
            ["gen", "plane", bgt],
            ["gen", "plane", "--q", "4", bgt],
            ["plan", "--girth", "6", "--p", "5", "--r", "3", "--N", "1000"],
            ["gen", "plane", "--q", "03", bgt],
            ["report", hgt],
        )
        for argv in calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            text = f"{stdout.getvalue()}\0{stderr.getvalue()}\0{code}".replace(tmp, "TMP")
            out.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return out


def _golden_digests() -> list[str]:
    """sha256 of the normalised stdout and of the certificate file of the
    eight `plan` calls pinned in tests/test_golden.py, and of its
    theorem_bound displays at N of at most 10^5 bits, hashed as that file
    hashes them.  Stdlib only: it also runs as a script."""
    import hashlib
    import io
    import os
    import random
    import tempfile
    from contextlib import redirect_stdout

    from hypergirth import theorem_bound
    from hypergirth.cli import main

    def sha(text):
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    plans = (
        ["--girth", "6", "--p", "5", "--r", "3", "--N", "3967295312526"],
        ["--girth", "6", "--p", "5", "--r", "3", "--N", "1" + "0" * 60],
        ["--girth", "6", "--p", "2", "--r", "513", "--N", "1" + "0" * 300],
        ["--girth", "6", "--p", "7", "--r", "4", "--N", "3" + "0" * 3000],
        ["--girth", "8", "--r", "3", "--N", "1161119713493025"],
        ["--girth", "8", "--r", "3", "--N", "1" + "0" * 40],
        ["--girth", "8", "--r", "200", "--N", "1" + "0" * 300],
        ["--girth", "8", "--p", "2", "--r", "5", "--N", "7" + "0" * 3000],
    )
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "cert.txt")
        for argv in plans:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                main(["plan", *argv, "--cert", cert])
            with open(cert, encoding="ascii", newline="") as fh:
                out += [sha(stdout.getvalue().replace(cert, "<path>")), sha(fh.read())]
    bounds = (
        (6, 11, random.Random("theorem-golden-6s").getrandbits(3 * 10**4) | 1 << (3 * 10**4 - 1)),
        (6, 3, 3**9800),
        (8, None, 2**77441),
        (8, None, 2**77439),
    )
    for girth, p, n_value in bounds:
        tb = theorem_bound(girth, p, n_value)
        out.append(sha(f"{tb.exponent!r} {tb.bound.exponent} {tb.derived_constant!r}"))
    return out


def _pyenv_python(minor: int) -> Path | None:
    """The newest pyenv-installed CPython 3.minor, or None."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for exe in root.glob(f"3.{minor}.*/bin/python"):
        patch = re.fullmatch(rf"3\.{minor}\.(\d+)", exe.parent.parent.name)
        if patch:
            found.append((int(patch[1]), exe))
    return max(found)[1] if found else None


@pytest.mark.parametrize("digests", [_greedy_digests, _polygon_digests, _oracle_digests, _certificate_digests,
                                     _cli_digests, _golden_digests],
                         ids=["greedy", "polygon", "oracle", "certificate", "cli", "golden"])
def test_digests_same_on_other_interpreters(digests):
    """The greedy outputs do not depend on the interpreter: random.shuffle
    and int bit operations are specified, not implementation details.  Nor
    do the polygon counts, certificates and geometry files, the oracle's
    witnesses, the brackets power_at_least takes of a long Decimal, or the
    CLI's messages and exit codes, which also show that the records build
    the same methods from their annotations on each interpreter."""
    expected = digests()
    script = f"import sys\nsys.path.insert(0, sys.argv[1])\n{inspect.getsource(digests)}print(*{digests.__name__}())\n"
    src = str(Path(hypergirth.__file__).resolve().parents[1])
    ran, absent, differ = [], [], []
    for minor in (10, 12, 13):
        exe = _pyenv_python(minor)
        if exe is None:
            absent.append(f"3.{minor}")
            continue
        proc = subprocess.run([str(exe), "-I", "-B", "-c", script, src],
                              capture_output=True, text=True, timeout=120)
        ran.append(f"{exe.parent.parent.name} ({exe})")
        if proc.returncode != 0 or proc.stdout.split() != expected:
            differ.append(f"{exe.parent.parent.name}: {proc.stdout.strip() or proc.stderr.strip()[-300:]}")
    summary = f"ran {', '.join(ran) or 'none'}; absent {', '.join(absent) or 'none'}"
    print(summary)
    if not ran:
        pytest.skip(f"no pyenv CPython 3.10, 3.12 or 3.13: {summary}")
    assert not differ, f"{summary}; differ: {differ}"


class TestGeometrySpec:
    """The generator rows of the op table, as `gen` and recipe stages use them."""

    def test_dispatch(self, tmp_path):
        g, predicted, rep = run_stage("plane", None, {"q": 2}, str(tmp_path / "p.bgt"))
        assert g.n_left == 7 and predicted == 21 and rep is None
        g, predicted, rep = run_stage(
            "greedy", None, {"left": 5, "right": 5, "deg": 2, "girth": 6, "seed": 0}, str(tmp_path / "g.bgt")
        )
        assert rep is not None and predicted is None

    def test_errors(self, tmp_path):
        with pytest.raises(FormatError, match="needs a kind in"):
            parse_recipe("rcp 1\ntarget 2\nstage gen cube q=2\n")
        with pytest.raises(PreconditionError, match=r"missing \['q'\]"):
            run_pipeline(parse_recipe("rcp 1\ntarget 2\nstage gen plane\n"), str(tmp_path / "a"))
        with pytest.raises(PreconditionError, match="missing"):
            run_pipeline(parse_recipe("rcp 1\ntarget 2\nstage gen greedy left=3\n"), str(tmp_path / "b"))
