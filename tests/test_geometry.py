import functools
import inspect
import itertools
import os
import random
import re
import shutil
import subprocess
import time
import tracemalloc
from array import array
from collections import deque
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hypergirth
from hypergirth import (
    BipartiteGraph,
    FormatError,
    GreedyReport,
    PreconditionError,
    ResourceBudgetError,
    VerificationError,
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
    _shuffle,
    _span_positions,
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
    [(projective_plane, reference_plane, q) for q in (2, 3, 5, 7, 11, 13, 17)]
    + [(symplectic_quadrangle, reference_quadrangle, q) for q in (2, 3, 5, 7, 11)]
    + [(split_cayley_hexagon, reference_hexagon, q) for q in (2, 3)],
)
def test_builder_matches_reference(build, reference, q):
    assert build(q) == reference(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_plane_is_self_polar(q):
    """Line j of PG(2,q) is the points orthogonal to point j, and
    orthogonality is symmetric: the lines through each point are the
    points of the line of the same number."""
    g = projective_plane(q)
    assert g.left_neighbors == g.right_neighbors


@pytest.mark.parametrize(
    "build, q", [(symplectic_quadrangle, q) for q in (2, 3, 5, 7)] + [(split_cayley_hexagon, q) for q in (2, 3)]
)
def test_lines_are_numbered_in_sorted_order(build, q):
    """W(q) and H(q) number their lines in sorted order of the lines' point tuples."""
    lines = build(q).right_neighbors
    assert all(a < b for a, b in zip(lines, lines[1:]))


@pytest.mark.parametrize("build, q", [(projective_plane, 17), (symplectic_quadrangle, 7), (split_cayley_hexagon, 3)])
def test_each_id_is_one_int_object(build, q):
    """All incidences of a point share one int object for its id, and so do
    all incidences of a line; past 256 a fresh int per incidence would
    not, and it costs PG(2,101) about 31 MB more at its peak."""
    g = build(q)
    assert len({id(u) for u, _ in g.incidences}) == g.n_left > 256
    assert len({id(v) for _, v in g.incidences}) == g.n_right > 256


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_point_index_is_the_position_in_projective_points(q, dim):
    """The position rule, read through the span helper one dimension up:
    the points of PG(dim, q) with a 0 first are those of PG(dim-1, q), at
    the same positions, and the line through (0, vec) and e_0 has one of
    them, vec's point; its other points, (1, mu*vec), come after them."""
    points = projective_points(q, dim)
    span = _span_positions(q, dim + 1)
    e0 = (1,) + (0,) * dim
    vectors = [vec for vec in itertools.product(range(q), repeat=dim) if any(vec)]
    assert len(vectors) == (q - 1) * len(points)
    for vec in vectors:
        assert [pos for pos in span((0, *vec), e0) if pos < len(points)] == [points.index(_normalize(vec, q))]
    with pytest.raises(PreconditionError, match="zero vector"):
        span((0,) * (dim + 1), e0)


@functools.lru_cache(maxsize=1)
def _position_of(q: int, dim: int) -> dict[tuple[int, ...], int]:
    """projective_points(q, dim).index as a dict, for the latest (q, dim) only."""
    return {pt: i for i, pt in enumerate(projective_points(q, dim))}


# PG(6, 11) has 1.9 million points, too many to list for a reference
@pytest.mark.parametrize("q, dim", [(q, dim) for q in (2, 3, 5, 7, 11) for dim in range(2, 8) if (q, dim) != (11, 7)])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_span_positions_are_the_points_of_the_span(q, dim, data):
    coords = st.lists(st.integers(0, q - 1), min_size=dim, max_size=dim)
    u, v = data.draw(coords, label="u"), data.draw(coords, label="v")
    assume(any((u[i] * v[k] - u[k] * v[i]) % q for i in range(dim) for k in range(i + 1, dim)))
    position = _position_of(q, dim)
    expected = {
        position[_normalize(tuple((alpha * x + beta * y) % q for x, y in zip(u, v)), q)]
        for alpha in range(q) for beta in range(q) if alpha or beta
    }
    got = _span_positions(q, dim)(u, v)
    assert len(expected) == len(got) == len(set(got)) == q + 1
    assert set(got) == expected


def test_span_positions_refuse_dependent_vectors():
    span = _span_positions(5, 3)
    with pytest.raises(PreconditionError, match="dependent"):
        span((1, 2, 3), (2, 4, 1))


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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_self_check_reads_both_sides_degrees(self, plane2, side):
        """One incidence moved to a vertex on ``side`` that it misses keeps
        the counts and the other side's degrees; the self-check refuses the
        result for its degrees before it reads the girth."""
        pairs = set(plane2.incidences)
        u, v = plane2.incidences[0]
        if side == "left":
            moved = next((w, v) for w in range(plane2.n_left) if (w, v) not in pairs)
        else:
            moved = next((u, w) for w in range(plane2.n_right) if (u, w) not in pairs)
        g = BipartiteGraph.from_incidences(7, 7, pairs - {(u, v)} | {moved})
        assert set((g.right_degrees if side == "left" else g.left_degrees)) == {3}
        with pytest.raises(VerificationError, match=r"^plane q=2: not \(3,3\)-biregular$"):
            _check_geometry(g, "plane", 2)

    def test_self_check_refuses_wrong_counts(self):
        g = BipartiteGraph.from_incidences(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(VerificationError) as exc:
            _check_geometry(g, "plane", 2)
        assert str(exc.value) == "plane q=2: expected 7+7 vertices, got 2+2"

    def test_self_check_refuses_wrong_girth(self):
        """The circulant (i, i + d mod 7), d = 0, 1, 2, has PG(2,2)'s counts
        and degrees, but (0, 2) and (1, 2) share points 1 and 2: girth 4."""
        g = BipartiteGraph.from_incidences(7, 7, [(i, (i + d) % 7) for i in range(7) for d in range(3)])
        with pytest.raises(VerificationError) as exc:
            _check_geometry(g, "plane", 2)
        assert str(exc.value) == "plane q=2: girth 4 != required 6"


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

    @staticmethod
    def moore_sum(n, s, t):
        """The bipartite Moore bound at equality: sum of s^ceil(i/2) t^floor(i/2)
        over i < n counts an n-gon's points (Hoory, JCTB 86, 2002)."""
        return sum(s ** ((i + 1) // 2) * t ** (i // 2) for i in range(n))

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_counts_are_the_moore_sums(self, n):
        for s in (2, 3, 5, 7, 2**61 - 1):
            for t in (s,) if n == 3 else (2, s, s**2, s**3):
                assert polygon_counts(n, s, t) == (self.moore_sum(n, s, t), self.moore_sum(n, t, s)), (n, s, t)

    @pytest.mark.parametrize("n, line_power", [(6, 3), (8, 2)])
    def test_decimal_counts_are_the_moore_sums(self, n, line_power):
        with localcontext(EXACT):
            s = Decimal(5) ** 4000
            t = s**line_power
            assert polygon_counts(n, s, t) == (self.moore_sum(n, s, t), self.moore_sum(n, t, s))

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

    @pytest.mark.parametrize("n", [2, 5, 7, 10, 10**5000], ids=["2", "5", "7", "10", "5001digits"])
    def test_other_n_is_refused_quickly(self, n):
        start = time.monotonic()
        with pytest.raises(PreconditionError, match=r"^polygon counts need n = 3, 4, 6 or 8, got \d"):
            polygon_counts(n, 2, 2)
        assert time.monotonic() - start < 1.0

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

    @pytest.mark.parametrize("seed", [1.5, "1", None, Decimal(1)], ids=repr)
    def test_seed_that_is_not_an_int_is_refused(self, seed):
        # refused before the grid is allocated, so a grid at the budget costs nothing
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=r"^seed must be an integer, got "):
            greedy_high_girth_bipartite(GREEDY_PAIR_BUDGET, 1, 1, 4, seed)
        assert time.perf_counter() - start < 1.0


class TestGreedyGrid:
    """The proposal grid is a packed array, shuffled as random.shuffle shuffles a list."""

    SIZES = [1, 2, 3, *(n for k in range(2, 18) for n in (2**k - 1, 2**k, 2**k + 1))]

    @pytest.mark.parametrize("seed", [0, 1, 2**70 + 3])
    def test_shuffle_is_random_shuffle(self, seed):
        # every draw width from 1 to 18 bits, at each power of two and beside it
        for n in self.SIZES:
            ref_rng, ref = random.Random(seed), list(range(n))
            ref_rng.shuffle(ref)
            rng, got = random.Random(seed), array("i", range(n))
            _shuffle(got, rng)
            assert got.tolist() == ref, n
            assert rng.getstate() == ref_rng.getstate(), n

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_traced_peak_under_10_bytes_a_pair(self, seed):
        # the benchmark's recipe shape: a list of ints held about 42 bytes a pair
        tracemalloc.start()
        try:
            greedy_high_girth_bipartite(500, 100, 10, 10, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 500 * 100, peak / (500 * 100)


def _greedy_digests() -> list[str]:
    """sha256 of the greedy graph and report lines on the benchmark's recipe
    shape, on a wide one and on one above 2^17 pairs, whose shuffle draws
    up to 18 bits.  Stdlib only: it also runs as a script."""
    import hashlib

    from hypergirth import greedy_high_girth_bipartite, serialize_bipartite

    out = []
    for shape in (500, 100, 10, 10, 1), (1, 5000, 3, 6, 1), (400, 400, 4, 8, 3):
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
    eight `plan` calls pinned in tests/test_golden.py, of its theorem_bound
    displays, of the stdout and files of its commands, and of the files of
    its recipes, hashed as that file hashes them.  The commands, recipes
    and theorem_bound inputs past 10^5 bits are read from that file's
    tables, whose definitions are run without its imports.  Stdlib only:
    it also runs as a script."""
    import ast
    import hashlib
    import io
    import os
    import pathlib
    import random
    import tempfile
    from contextlib import redirect_stdout

    import hypergirth
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

    source = pathlib.Path(hypergirth.__file__).resolve().parents[2] / "tests" / "test_golden.py"
    tables = {"TEMPLATE_FILES", "RECIPES", "COMMANDS", "COMMAND_FILES", "THEOREM_BOUNDS", "_random_bits"}
    body = [node for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name in tables
            or isinstance(node, ast.Assign) and any(getattr(t, "id", None) in tables for t in node.targets)]
    golden = {"random": random}
    exec(compile(ast.Module(body, []), str(source), "exec"), golden)
    for girth, p, make_n, _ in golden["THEOREM_BOUNDS"].values():
        n_value = make_n()
        if n_value.bit_length() > 10**5:
            tb = theorem_bound(girth, p, n_value)
            out.append(sha(f"{tb.exponent!r} {tb.bound.exponent} {tb.derived_constant!r}"))

    def write(path, text):
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)

    def run(tmp, command):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            main(command.replace("<tmp>", tmp).split())
        return sha(stdout.getvalue().replace(tmp, "<tmp>"))

    def file_sha(path, tmp):
        with open(path, encoding="ascii", newline="") as fh:
            return sha(fh.read().replace(tmp, "<tmp>"))

    for recipe in (None, *golden["RECIPES"].values()):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in golden["TEMPLATE_FILES"].items():
                write(os.path.join(tmp, name), text)
            if recipe is None:  # the commands, run in order in one directory
                out += [run(tmp, command) for command in golden["COMMANDS"]]
                out += [file_sha(os.path.join(tmp, name), tmp) for name in golden["COMMAND_FILES"]]
                continue
            write(os.path.join(tmp, "r.rcp"), recipe[0].replace("<tmp>", tmp))
            run(tmp, "pipeline <tmp>/r.rcp --out-dir <tmp>/out")
            written = sorted(os.listdir(os.path.join(tmp, "out")))
            out += [file_sha(os.path.join(tmp, "out", name), tmp) for name in written]
    return out


def _other_python(minor: int) -> Path | None:
    """The newest pyenv-installed CPython 3.minor, else ``python3.minor`` on
    PATH, or None."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for exe in root.glob(f"3.{minor}.*/bin/python"):
        patch = re.fullmatch(rf"3\.{minor}\.(\d+)", exe.parent.parent.name)
        if patch:
            found.append((int(patch[1]), exe))
    if found:
        return max(found)[1]
    on_path = shutil.which(f"python3.{minor}")
    return Path(on_path) if on_path else None


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
        exe = _other_python(minor)
        if exe is None:
            absent.append(f"3.{minor}")
            continue
        proc = subprocess.run([str(exe), "-I", "-B", "-c", script, src],
                              capture_output=True, text=True, timeout=120)
        ran.append(f"3.{minor} ({exe})")
        if proc.returncode != 0 or proc.stdout.split() != expected:
            differ.append(f"3.{minor}: {proc.stdout.strip() or proc.stderr.strip()[-300:]}")
    summary = f"ran {', '.join(ran) or 'none'}; absent {', '.join(absent) or 'none'}"
    print(summary)
    if not ran:
        pytest.skip(f"no CPython 3.10, 3.12 or 3.13 under pyenv or on PATH: {summary}")
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
