"""Desk-scale incidence geometries of prescribed girth, plus a randomized
greedy generator for girths with no explicit geometry at small size.

All generators are deterministic, emit canonical BipartiteGraph values and
self-check their advertised counts, biregularity and exact girth before
returning; a failed self-check aborts with VerificationError rather than
ever returning a silently wrong geometry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .arith import is_prime
from .core import BipartiteGraph
from .errors import PreconditionError, VerificationError
from .girth import girth_bipartite


class PrimeField:
    """Arithmetic modulo a prime p, elements the integers in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise PreconditionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)


def _normalize(vec: tuple[int, ...], field: PrimeField) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for c in vec:
        if c != 0:
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in vec)
    raise PreconditionError("zero vector has no projective normalization")


def projective_points(field: PrimeField, dim: int) -> list[tuple[int, ...]]:
    """Sorted normalized representatives of the points of PG(dim-1, p)."""
    p = field.p
    points: list[tuple[int, ...]] = []
    for lead in range(dim):
        for tail in product(range(p), repeat=dim - lead - 1):
            points.append((0,) * lead + (1,) + tail)
    points.sort()
    return points


# Points, equally lines, of each geometry of prime order q; every point
# is on q + 1 lines and every line holds q + 1 points.
PER_SIDE = {
    "plane": lambda q: q * q + q + 1,
    "quadrangle": lambda q: (q + 1) * (q * q + 1),
    "hexagon": lambda q: (q + 1) * (q**4 + q**2 + 1),
}


def _check_geometry(g: BipartiteGraph, kind: str, q: int, girth: int) -> None:
    name, per_side, degree = f"{kind} q={q}", PER_SIDE[kind](q), q + 1
    if g.n_left != per_side or g.n_right != per_side:
        raise VerificationError(
            f"{name}: expected {per_side}+{per_side} vertices, got {g.n_left}+{g.n_right}"
        )
    if set(g.left_degrees) != {degree} or set(g.right_degrees) != {degree}:
        raise VerificationError(f"{name}: not ({degree},{degree})-biregular")
    found = girth_bipartite(g).girth
    if found != girth:
        raise VerificationError(f"{name}: girth {found} != required {girth}")


def projective_plane(q: int) -> BipartiteGraph:
    """Incidence graph of the projective plane PG(2, q).

    Points and lines are the 1- and 2-dimensional subspaces of F_q^3;
    (q+1, q+1)-biregular on q^2+q+1 vertices per side, girth 6.
    """
    if not is_prime(q) or not (2 <= q <= 13):
        raise PreconditionError(f"plane order must be a prime in [2, 13], got {q}")
    field = PrimeField(q)
    points = projective_points(field, 3)
    index = {pt: i for i, pt in enumerate(points)}
    pairs = []
    for j, ln in enumerate(points):  # lines are dual points
        for pt in points:
            if sum(a * b for a, b in zip(pt, ln)) % q == 0:
                pairs.append((index[pt], j))
    g = BipartiteGraph.from_incidences(len(points), len(points), pairs)
    _check_geometry(g, "plane", q, 6)
    return g


def symplectic_quadrangle(q: int) -> BipartiteGraph:
    """Incidence graph of the symplectic quadrangle W(q).

    Points are all points of PG(3, q); lines the ones totally isotropic
    for the alternating form x0*y1 - x1*y0 + x2*y3 - x3*y2.
    (q+1, q+1)-biregular on (q+1)(q^2+1) vertices per side, girth 8.
    """
    if not is_prime(q) or not (2 <= q <= 7):
        raise PreconditionError(f"quadrangle order must be a prime in [2, 7], got {q}")
    field = PrimeField(q)
    points = projective_points(field, 4)
    index = {pt: i for i, pt in enumerate(points)}

    def form(x: tuple[int, ...], y: tuple[int, ...]) -> int:
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q

    lines: set[tuple[int, ...]] = set()
    n = len(points)
    for a in range(n):
        x = points[a]
        for b in range(a + 1, n):
            y = points[b]
            if form(x, y) != 0:
                continue
            ids = {index[x]}  # line points: x itself plus mu*x + y for mu in F_q
            for mu in field.elements():
                pt = _normalize(tuple(field.add(field.mul(mu, xc), yc) for xc, yc in zip(x, y)), field)
                ids.add(index[pt])
            lines.add(tuple(sorted(ids)))
    line_list = sorted(lines)
    pairs = [(v, j) for j, ln in enumerate(line_list) for v in ln]
    g = BipartiteGraph.from_incidences(n, len(line_list), pairs)
    _check_geometry(g, "quadrangle", q, 8)
    return g


# Plucker-coordinate conditions selecting the hexagon lines among the
# lines of the quadric x0*x4 + x1*x5 + x2*x6 = x3^2: each entry reads
# p[a] == sign * p[b].  Any transcription slip is caught by the
# construction-time self-check (counts, biregularity, exact girth 12).
_HEXAGON_LINE_CONDITIONS: tuple[tuple[tuple[int, int], tuple[int, int], int], ...] = (
    ((1, 2), (3, 4), 1),
    ((0, 2), (3, 5), -1),
    ((0, 1), (3, 6), 1),
    ((0, 3), (5, 6), 1),
    ((1, 3), (4, 6), -1),
    ((2, 3), (4, 5), 1),
)


def split_cayley_hexagon(q: int) -> BipartiteGraph:
    """Incidence graph of the generalized hexagon of order (q, q).

    Points are the points of the parabolic quadric in PG(6, q) with
    equation x0*x4 + x1*x5 + x2*x6 = x3^2; lines are the quadric lines
    whose Plucker coordinates satisfy six linear conditions.
    (q+1, q+1)-biregular on (q+1)(q^4+q^2+1) vertices per side, girth 12.
    """
    if not is_prime(q) or q < 2:
        raise PreconditionError(f"hexagon order must be a prime >= 2, got {q}")
    field = PrimeField(q)

    def quadric(x: tuple[int, ...]) -> int:
        return (x[0] * x[4] + x[1] * x[5] + x[2] * x[6] - x[3] * x[3]) % q

    def bilinear(x: tuple[int, ...], y: tuple[int, ...]) -> int:
        return (
            x[0] * y[4] + x[4] * y[0] + x[1] * y[5] + x[5] * y[1]
            + x[2] * y[6] + x[6] * y[2] - 2 * x[3] * y[3]
        ) % q

    points = [pt for pt in projective_points(field, 7) if quadric(pt) == 0]
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)

    def on_hexagon(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        pl = {}
        for i in range(7):
            for j in range(i + 1, 7):
                pl[(i, j)] = (x[i] * y[j] - x[j] * y[i]) % q
        return all(pl[a] == (sign * pl[b]) % q for a, b, sign in _HEXAGON_LINE_CONDITIONS)

    lines: set[tuple[int, ...]] = set()
    for a in range(n):
        x = points[a]
        for b in range(a + 1, n):
            y = points[b]
            if bilinear(x, y) != 0:
                continue  # a line through two quadric points lies on it iff the polar form vanishes
            ids = [a]  # line points: x itself plus mu*x + y for mu in F_q
            contained = True
            for mu in field.elements():
                pt = _normalize(tuple(field.add(field.mul(mu, xc), yc) for xc, yc in zip(x, y)), field)
                pid = index.get(pt)
                if pid is None:
                    contained = False
                    break
                ids.append(pid)
            if contained and on_hexagon(x, y):
                lines.add(tuple(sorted(ids)))
    line_list = sorted(lines)
    pairs = [(v, j) for j, ln in enumerate(line_list) for v in ln]
    g = BipartiteGraph.from_incidences(n, len(line_list), pairs)
    _check_geometry(g, "hexagon", q, 12)
    return g


@dataclass(frozen=True)
class GreedyReport:
    """Outcome summary of the greedy generator: how full the right side
    got and the achieved right-degree histogram."""

    n_left: int
    n_right: int
    right_degree: int
    target_girth: int
    seed: int
    accepted: int
    degree_histogram: tuple[tuple[int, int], ...]
    rights_below_target: int

    @property
    def filled(self) -> bool:
        return self.rights_below_target == 0

    def lines(self) -> list[str]:
        out = [
            f"greedy left {self.n_left} right {self.n_right} "
            f"deg {self.right_degree} girth {self.target_girth} seed {self.seed}",
            f"accepted {self.accepted}",
            f"rights-below-target {self.rights_below_target}",
        ]
        for degree, count in self.degree_histogram:
            out.append(f"degree {degree} count {count}")
        return out


def greedy_high_girth_bipartite(
    n_left: int, n_right: int, right_degree: int, target_girth: int, seed: int
) -> tuple[BipartiteGraph, GreedyReport]:
    """Randomized greedy bipartite generator with guaranteed girth.

    Proposes the full left x right incidence grid in seeded-shuffled order
    (single pass) and accepts a pair iff the right vertex is below its
    degree cap and the current endpoint distance is >= target_girth - 1,
    so no accepted incidence ever closes a cycle shorter than the target.
    Under-filled right vertices are reported, not an error.
    """
    if n_left <= 0 or n_right <= 0 or right_degree <= 0:
        raise PreconditionError("greedy sizes and right_degree must be positive")
    if target_girth < 4 or target_girth % 2 != 0:
        raise PreconditionError(f"target_girth must be even and >= 4, got {target_girth}")

    rng = random.Random(seed)
    grid = [(u, v) for u in range(n_left) for v in range(n_right)]
    rng.shuffle(grid)

    adj: list[list[int]] = [[] for _ in range(n_left + n_right)]
    right_deg = [0] * n_right
    max_explore = target_girth - 2  # unreachable within this depth => dist >= target - 1

    seen = [False] * (n_left + n_right)  # all False between probes

    def within_distance(src: int, dst: int) -> bool:
        """Whether right vertex dst is at most max_explore steps from left vertex src."""
        if not adj[src]:
            return False
        seen[src] = True
        touched = [src]
        frontier = [src]  # the vertices at distance depth - 1
        found = False
        for depth in range(1, max_explore + 1):
            # a right vertex lies at an odd distance from a left one
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
    hist: dict[int, int] = {}
    for d in right_deg:
        hist[d] = hist.get(d, 0) + 1
    report = GreedyReport(
        n_left,
        n_right,
        right_degree,
        target_girth,
        seed,
        accepted,
        tuple(sorted(hist.items())),
        sum(1 for d in right_deg if d < right_degree),
    )
    return g, report

