"""Desk-scale incidence geometries of prescribed girth, plus a randomized
greedy generator for girths with no explicit geometry at small size.

All generators are deterministic, emit canonical BipartiteGraph values and
self-check their advertised counts, biregularity and exact girth before
returning; a failed self-check aborts with VerificationError rather than
ever returning a silently wrong geometry.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Sequence

from . import core
from .arith import Number, int_args, int_to_decimal, is_prime, record, short_decimal
from .core import BipartiteGraph
from .errors import PreconditionError, ResourceBudgetError, VerificationError


def _point_index(q: int, dim: int) -> Callable[[Sequence[int]], int]:
    """Map a nonzero vector over F_q to the position of its projective
    point in ``projective_points(q, dim)``, by arithmetic on the vector.

    The points whose first nonzero coordinate sits at ``lead`` follow the
    (q^(dim-1-lead) - 1)/(q - 1) points with a later lead, in base-q order
    of their tails once the vector is scaled to a leading 1.
    """
    inv = [0] + [pow(c, -1, q) for c in range(1, q)]
    offset = [(q ** (dim - 1 - lead) - 1) // (q - 1) for lead in range(dim)]

    def index(vec: Sequence[int]) -> int:
        for lead, c in enumerate(vec):
            if c % q:
                scale, pos = inv[c % q], 0
                for t in vec[lead + 1:]:
                    pos = pos * q + scale * t % q
                return offset[lead] + pos
        raise PreconditionError("zero vector has no projective point")

    return index


def projective_points(q: int, dim: int) -> list[tuple[int, ...]]:
    """Sorted normalized representatives of the points of PG(dim-1, q):
    a later leading 1 sorts first, and the tails follow in product order."""
    return [(0,) * lead + (1,) + tail
            for lead in reversed(range(dim)) for tail in product(range(q), repeat=dim - lead - 1)]


def _kernel(rows: list[list[int]], q: int, dim: int) -> dict[int, tuple[int, ...]]:
    """Basis of the y in F_q^dim that zero every row, by row reduction mod
    the prime q: one vector per free column, keyed by that column, which
    is 1 there and 0 at the other free columns."""
    m = [[c % q for c in row] for row in rows]
    pivots: dict[int, int] = {}  # pivot column -> its row of m
    for col in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, q)
        m[r] = [c * inv % q for c in m[r]]
        for i, row in enumerate(m):
            if i != r and row[col]:
                m[i] = [(a - row[col] * b) % q for a, b in zip(row, m[r])]
        pivots[col] = r
    return {
        free: tuple(-m[pivots[c]][free] % q if c in pivots else int(c == free) for c in range(dim))
        for free in range(dim) if free not in pivots
    }


POLYGON = {"plane": 3, "quadrangle": 4, "hexagon": 6}  # kind -> n of its generalized n-gon, of order (q, q)


def polygon_counts(n: int, s: Number, t: Number) -> tuple[Number, Number]:
    """(points, lines) of a generalized n-gon of order (s, t), on ints or on
    Decimals under arith.EXACT: (1+s)F and (1+t)F, F = 1 + st + ... +
    (st)^(n/2-1) by Horner's rule; n = 3 is PG(2, s), s = t: 1+s+s^2 each."""
    if n == 3:
        return (1 + s + s * s,) * 2
    step, factor = s * t, 1
    for _ in range(n // 2 - 1):
        factor = factor * step + 1
    return (1 + s) * factor, (1 + t) * factor


def geometry_incidences(kind: str, q: int) -> int:
    """Incidences, points times q + 1, checked by each builder first: a q
    that is not an int raises PreconditionError, a q >= 2 with more than
    core.VERTEX_BUDGET ResourceBudgetError (a larger q is not
    raised to any power), then a q that is not prime PreconditionError.  H(q)
    has more incidences than the PG(6,q) points it lists, so those are bounded."""
    int_args(None, q=q)
    budget = core.VERTEX_BUDGET
    if q >= 2:  # a smaller q is no prime, whatever its size
        count = polygon_counts(POLYGON[kind], q, q)[0] * (q + 1) if q <= budget else None
        if count is None or count > budget:
            shown = f"more than {budget}" if count is None else count
            raise ResourceBudgetError(f"{kind} q={short_decimal(q)} has {shown} incidences, budget is {budget}")
    if not is_prime(q):
        raise PreconditionError(f"{kind} order must be a prime, got {short_decimal(q)}")
    return count


def _check_geometry(g: BipartiteGraph, kind: str, q: int) -> None:
    n, s, t = POLYGON[kind], q, q
    name, (points, lines) = f"{kind} q={q}", polygon_counts(n, s, t)
    if g.n_left != points or g.n_right != lines:
        raise VerificationError(f"{name}: expected {points}+{lines} vertices, got {g.n_left}+{g.n_right}")
    if set(g.left_degrees) != {t + 1} or set(g.right_degrees) != {s + 1}:
        raise VerificationError(f"{name}: not ({t + 1},{s + 1})-biregular")
    found = g.girth_report.girth
    if found != 2 * n:
        raise VerificationError(f"{name}: girth {found} != required {2 * n}")


def projective_plane(q: int) -> BipartiteGraph:
    """Incidence graph of the projective plane PG(2, q).

    Points and lines are the 1- and 2-dimensional subspaces of F_q^3;
    (q+1, q+1)-biregular on q^2+q+1 vertices per side, girth 6.
    """
    geometry_incidences("plane", q)
    points = projective_points(q, 3)
    index = _point_index(q, 3)
    directions = projective_points(q, 2)
    pairs = []
    for j, ln in enumerate(points):  # line j is the plane of vectors orthogonal to dual point j
        a, b = _kernel([list(ln)], q, 3).values()
        for c, d in directions:
            pairs.append((index([(c * u + d * v) % q for u, v in zip(a, b)]), j))
    g = BipartiteGraph.from_incidences(len(points), len(points), pairs)
    _check_geometry(g, "plane", q)
    return g


def _geometry_from_kernels(points: list[tuple[int, ...]], q: int, forms: Callable[[tuple[int, ...]], list[list[int]]],
                           index: Callable[[Sequence[int]], int], kind: str) -> BipartiteGraph:
    """Incidence graph whose lines through each point x fill the kernel of
    ``forms(x)``, rows linear in y that x itself zeroes; ``index`` maps a
    nonzero vector to the position of its point in ``points``.

    x is nonzero at some free column of that kernel; the other basis
    vectors span a complement of x, and each projective point y of it
    gives the line {x} + {mu*x + y : mu in F_q}.  Lines are numbered in
    sorted order of their point tuples.

    Each line is emitted once.  The points are visited in order, and each
    keeps the ids of the emitted lines through it.  A point already on
    q + 1 of them is skipped, and so is a direction y whose point already
    shares an emitted line with x.  This is exact because two points lie
    on at most one line: the line {x, y} is the one line through x and y,
    so it is skipped exactly when it was emitted before, and it is
    emitted from the first of its points that the loop reaches.  Any slip
    fails the self-check, which still verifies the counts, biregularity
    and exact girth.
    """
    through: list[list[int]] = [[] for _ in points]  # ids of the emitted lines on each point
    lines: list[tuple[int, ...]] = []
    for i, x in enumerate(points):
        mine = through[i]
        if len(mine) == q + 1:
            continue
        basis = _kernel(forms(x), q, len(x))
        drop = next(col for col in basis if x[col])
        rest = [vec for col, vec in basis.items() if col != drop]
        for coeffs in projective_points(q, len(rest)):
            y = [sum(c * vec[k] for c, vec in zip(coeffs, rest)) % q for k in range(len(x))]
            j = index(y)
            if any(ln in mine for ln in through[j]):
                continue
            line = sorted([i, j] + [index([(mu * a + b) % q for a, b in zip(x, y)]) for mu in range(1, q)])
            ident = len(lines)
            for v in line:
                through[v].append(ident)
            lines.append(tuple(line))
    del through  # the girth self-check below sets the peak memory
    lines.sort()
    pairs = [(v, j) for j, ln in enumerate(lines) for v in ln]
    g = BipartiteGraph.from_incidences(len(points), len(lines), pairs)
    _check_geometry(g, kind, q)
    return g


def symplectic_quadrangle(q: int) -> BipartiteGraph:
    """Incidence graph of the symplectic quadrangle W(q).

    Points are all points of PG(3, q); lines the ones totally isotropic
    for the alternating form x0*y1 - x1*y0 + x2*y3 - x3*y2, so the lines
    through x are those of its polar plane.
    (q+1, q+1)-biregular on (q+1)(q^2+1) vertices per side, girth 8.
    """
    geometry_incidences("quadrangle", q)

    def forms(x: tuple[int, ...]) -> list[list[int]]:
        return [[-x[1], x[0], -x[3], x[2]]]

    return _geometry_from_kernels(projective_points(q, 4), q, forms, _point_index(q, 4), "quadrangle")


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
    whose Plucker coordinates satisfy six linear conditions.  For a fixed
    point x the polar form and those conditions are linear in y, and
    their kernel is the plane of the lines through x.
    (q+1, q+1)-biregular on (q+1)(q^4+q^2+1) vertices per side, girth 12.
    """
    geometry_incidences("hexagon", q)

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

    points: list[tuple[int, ...]] = []
    quadric: list[int] = []  # PG(6,q) position -> position in points, or -1 off the quadric
    for pt in projective_points(q, 7):
        on = (pt[0] * pt[4] + pt[1] * pt[5] + pt[2] * pt[6] - pt[3] * pt[3]) % q == 0
        quadric.append(len(points) if on else -1)
        if on:
            points.append(pt)
    pg_index = _point_index(q, 7)
    return _geometry_from_kernels(points, q, forms, lambda vec: quadric[pg_index(vec)], "hexagon")


# Largest left x right grid the greedy generator proposes: the shuffled
# pair list costs about 36 bytes a pair, so this caps it near 150 MB.  Its
# bit masks add at most left x right bits each for the neighbour and near
# masks, and min(left, right)^2 bits for the shared-neighbour masks: at
# most 0.5 MB each at the cap, besides one list slot per vertex.
GREEDY_PAIR_BUDGET = 4_000_000


@record
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
            f"greedy left {self.n_left} right {self.n_right} deg {int_to_decimal(self.right_degree)} "
            f"girth {int_to_decimal(self.target_girth)} seed {int_to_decimal(self.seed)}",
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

    The grid is a shuffled list of pair indices k = u * n_right + v.
    Distances are decided on bit masks over the smaller side B; each
    proposal is read as (a, b) with b in B and a on the other side A.
    ``nmask[a]`` holds the B-neighbours of a, and ``nbr[b]`` the B vertices
    that share an A-neighbour with b, b included.  A path from a to b has
    odd length, and it has length at most 2h + 1 exactly when b lies
    within h B-B hops of a neighbour of a.  So a probe starts from
    ``nmask[a]`` and ORs ``nbr`` over the newly reached bits for at most
    (target_girth - 4) // 2 hops, stopping once b is reached or nothing
    new is; its cost does not grow with the target.  What it reached is
    within target_girth - 3 of a, and goes into ``near[a]``.  Edges are
    only ever added, so distances only shrink: a vertex once found that
    close stays too close, and a proposal whose bit is in ``near[a]`` is
    rejected without a search.  The masks never index the larger side:
    its square could be far larger than the grid.
    Grids above GREEDY_PAIR_BUDGET pairs raise ResourceBudgetError before
    anything is allocated.
    """
    int_args(None, n_left=n_left, n_right=n_right, right_degree=right_degree, target_girth=target_girth)
    if n_left <= 0 or n_right <= 0 or right_degree <= 0:
        raise PreconditionError("greedy sizes and right_degree must be positive")
    if target_girth < 4 or target_girth % 2 != 0:
        raise PreconditionError(f"target_girth must be even and >= 4, got {short_decimal(target_girth)}")
    if n_left * n_right > GREEDY_PAIR_BUDGET:
        raise ResourceBudgetError(
            f"greedy grid has {short_decimal(n_left)} x {short_decimal(n_right)} = "
            f"{short_decimal(n_left * n_right)} pairs, budget is {GREEDY_PAIR_BUDGET}"
        )

    rng = random.Random(seed)
    grid = list(range(n_left * n_right))  # pair k = u * n_right + v
    rng.shuffle(grid)

    swap = n_left < n_right  # B is the left side, so (u, v) is read as (a, b) = (v, u)
    n_a, n_b = (n_right, n_left) if swap else (n_left, n_right)
    nmask = [0] * n_a
    near = [0] * n_a
    nbr = [1 << b for b in range(n_b)]
    hops = (target_girth - 4) // 2
    right_deg = [0] * n_right

    def within_distance(a: int, bit: int) -> bool:
        """Whether the B vertex ``bit`` is within target_girth - 3 of a."""
        reach = frontier = nmask[a]
        if not reach & bit:
            for _ in range(hops):
                new = 0
                while frontier:
                    low = frontier & -frontier
                    new |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = new & ~reach
                if not frontier:
                    break
                reach |= frontier
                if reach & bit:
                    break
        near[a] |= reach
        return bool(reach & bit)

    pairs: list[tuple[int, int]] = []
    for k in grid:
        u, v = divmod(k, n_right)
        if right_deg[v] >= right_degree:
            continue
        a, b = (v, u) if swap else (u, v)
        bit = 1 << b
        if near[a] & bit or within_distance(a, bit):
            continue
        old = nmask[a]
        nmask[a] = old | bit
        nbr[b] |= old
        while old:
            low = old & -old
            nbr[low.bit_length() - 1] |= bit
            old ^= low
        right_deg[v] += 1
        pairs.append((u, v))

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
        len(pairs),
        tuple(sorted(hist.items())),
        sum(1 for d in right_deg if d < right_degree),
    )
    return g, report

