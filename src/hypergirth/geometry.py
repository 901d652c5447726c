"""Desk-scale incidence geometries of prescribed girth, plus a randomized
greedy generator for girths with no explicit geometry at small size.

All generators are deterministic, emit canonical BipartiteGraph values and
self-check their advertised counts, biregularity and exact girth before
returning; a failed self-check aborts with VerificationError rather than
ever returning a silently wrong geometry.

The polygon builders read the q + 1 point positions of each line off its
reduced basis, as sums of slices of a per-field table of weighted
multiples (``_span_positions``), and emit the incidences grouped by
point in line order, which is already the canonical order.
"""

from __future__ import annotations

import random
from array import array
from itertools import product
from operator import add
from typing import Callable, Iterator, MutableSequence, Sequence

from . import core
from .arith import Number, int_args, int_to_decimal, is_prime, mul, record, short_decimal
from .core import BipartiteGraph
from .errors import PreconditionError, ResourceBudgetError, VerificationError


def _span_positions(q: int, dim: int) -> Callable[[Sequence[int], Sequence[int]], list[int]]:
    """Map two independent vectors over F_q, coordinates in range(q), to
    the positions in ``projective_points(q, dim)`` of the q + 1 points of
    their span.

    The points whose first nonzero coordinate sits at ``lead`` follow the
    (q^(dim-1-lead) - 1)/(q - 1) points with a later lead, in base-q order
    of their tails once the vector is scaled to a leading 1.  The span is
    reduced to a basis (lo, hi) with leads a < b, both leading 1; its
    points are then hi and lo + mu*hi over mu in F_q, already scaled.
    Coordinate k of lo + mu*hi is (mu + lo_k/hi_k)*hi_k where hi_k != 0, so
    its term of the position, taken over mu, is a slice of the multiples of
    hi_k weighted by q^(dim-1-k), read from a table built once per call of
    this function; where hi_k = 0 the term is the constant weighted lo_k.
    """
    inv = [0] + [pow(c, -1, q) for c in range(1, q)]
    weight = [q ** (dim - 1 - k) for k in range(dim)]
    offset = [(q ** (dim - 1 - lead) - 1) // (q - 1) for lead in range(dim)]
    table = [[[w * (nu * h % q) for nu in range(2 * q)] for h in range(q)] for w in weight]

    def lead(vec: Sequence[int]) -> int:
        for k, c in enumerate(vec):
            if c:
                return k
        raise PreconditionError("a zero vector or two dependent vectors span no line")

    def span(u: Sequence[int], v: Sequence[int]) -> list[int]:
        a, b = lead(u), lead(v)
        if a > b:
            u, v, a, b = v, u, b, a
        elif a == b:
            s = v[a] * inv[u[a]]
            v = [(y - s * x) % q for x, y in zip(u, v)]
            b = lead(v)
        s = inv[v[b]]
        hi = [c * s % q for c in v]
        s = inv[u[a]]
        lo = [c * s % q for c in u]
        first, base, terms = offset[b], offset[a], None
        for k in range(a + 1, dim):
            h = hi[k]
            if not h:
                base += weight[k] * lo[k]
                continue
            if k > b:
                first += weight[k] * h
            s = lo[k] * inv[h] % q
            row = table[k][h][s:s + q]
            terms = row if terms is None else list(map(add, terms, row))
        return [first, *map(base.__add__, terms)]

    return span


def _scan_points(q: int, dim: int) -> Iterator[tuple[int, ...]]:
    """The points of ``projective_points(q, dim)`` in its order, made one at a time."""
    return ((0,) * lead + (1,) + tail
            for lead in reversed(range(dim)) for tail in product(range(q), repeat=dim - lead - 1))


def projective_points(q: int, dim: int) -> list[tuple[int, ...]]:
    """Sorted normalized representatives of the points of PG(dim-1, q):
    a later leading 1 sorts first, and the tails follow in product order."""
    return list(_scan_points(q, dim))


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
    (st)^(n/2-1) by Horner's rule, each product by arith.mul; n = 3 is
    PG(2, s), s = t: 1+s+s^2 each.  Any other n than 3, 4, 6 or 8, the
    thick n-gons (Feit-Higman), is refused."""
    if n not in (3, 4, 6, 8):
        raise PreconditionError(f"polygon counts need n = 3, 4, 6 or 8, got {short_decimal(n)}")
    if n == 3:
        return (1 + s + mul(s, s),) * 2
    step, factor = mul(s, t), 1
    for _ in range(n // 2 - 1):
        factor = mul(factor, step) + 1
    return mul(1 + s, factor), mul(1 + t, factor)


def geometry_incidences(kind: str, q: int) -> int:
    """Incidences, points times q + 1, checked by each builder first: a q
    that is not an int raises PreconditionError, a q >= 2 with more than
    core.VERTEX_BUDGET ResourceBudgetError (a larger q is not
    raised to any power), then a q that is not prime PreconditionError.  H(q)
    has more incidences than the PG(6,q) points it scans, so those are bounded."""
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
    if core.only(g.left_degrees) != t + 1 or core.only(g.right_degrees) != s + 1:
        raise VerificationError(f"{name}: not ({t + 1},{s + 1})-biregular")
    found = g.girth_report.girth
    if found != 2 * n:
        raise VerificationError(f"{name}: girth {found} != required {2 * n}")


def projective_plane(q: int) -> BipartiteGraph:
    """Incidence graph of the projective plane PG(2, q).

    Points and lines are the 1- and 2-dimensional subspaces of F_q^3;
    (q+1, q+1)-biregular on q^2+q+1 vertices per side, girth 6.
    Line j is the points orthogonal to point j under x0*y0 + x1*y1 + x2*y2.
    The form is symmetric (a polarity), so the lines through point i are
    the points of line i.
    """
    geometry_incidences("plane", q)
    points = projective_points(q, 3)
    span = _span_positions(q, 3)
    ids = list(range(len(points)))  # one int per line id, shared by all its incidences
    through = [sorted(map(ids.__getitem__, span(*_kernel([list(x)], q, 3).values()))) for x in points]
    g = BipartiteGraph(len(points), len(points), tuple([(i, j) for i, js in enumerate(through) for j in js]))
    del through, span  # the girth self-check below sets the peak memory
    _check_geometry(g, "plane", q)
    return g


def _geometry_from_kernels(points: list[tuple[int, ...]], q: int, forms: Callable[[tuple[int, ...]], list[list[int]]],
                           position: Sequence[int], kind: str) -> BipartiteGraph:
    """Incidence graph whose lines through each point x fill the kernel of
    ``forms(x)``, rows linear in y that x itself zeroes; ``position`` maps
    the position of a point in PG(dim-1, q) to its position in ``points``.

    x is nonzero at some free column of that kernel; the other two basis
    vectors span a complement of x, and each projective point y of it
    gives the line spanned by x and y.

    Each line is emitted once.  The points are visited in order, and each
    keeps the ids of the emitted lines through it.  A point already on
    q + 1 of them is skipped, and so is a direction y whose point already
    shares an emitted line with x.  This is exact because two points lie
    on at most one line: the line {x, y} is the one line through x and y,
    so it is skipped exactly when it was emitted before, and it is
    emitted from its least point.  So numbering each point's new lines in
    sorted order numbers all lines in sorted order of their point tuples
    and gives each point its line ids in increasing order: ``through`` is
    the canonical incidence list.  A batch is exact when found whole: its
    directions lie on distinct lines through x, each meeting the complement
    only at its y.  Any slip fails the self-check, which still verifies the
    counts, biregularity and exact girth.
    """
    span = _span_positions(q, len(points[0]))
    at = position.__getitem__
    through: list[list[int]] = [[] for _ in points]  # ids of the emitted lines on each point
    n_lines = 0
    for i, x in enumerate(points):
        mine = through[i]
        if len(mine) == q + 1:
            continue
        basis = _kernel(forms(x), q, len(x))
        drop = next(col for col in basis if x[col])
        batch = sorted(sorted(map(at, span(x, points[j])))
                       for j in map(at, span(*(vec for col, vec in basis.items() if col != drop)))
                       if not any(ln in mine for ln in through[j]))
        for ident, line in enumerate(batch, n_lines):
            for v in line:
                through[v].append(ident)
        n_lines += len(batch)
    g = BipartiteGraph(len(points), n_lines, tuple([(v, j) for v, js in enumerate(through) for j in js]))
    del through  # the girth self-check below sets the peak memory
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

    points = projective_points(q, 4)
    return _geometry_from_kernels(points, q, forms, range(len(points)), "quadrangle")


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

    # PG(6,q) has about q times as many points as the quadric, so they are scanned, not listed
    points: list[tuple[int, ...]] = []
    quadric = array("i")  # PG(6,q) position -> position in points, or -1 off the quadric
    for pt in _scan_points(q, 7):
        on = (pt[0] * pt[4] + pt[1] * pt[5] + pt[2] * pt[6] - pt[3] * pt[3]) % q == 0
        quadric.append(len(points) if on else -1)
        if on:
            points.append(pt)
    return _geometry_from_kernels(points, q, forms, quadric, "hexagon")


# Largest left x right grid the greedy generator proposes: the shuffled
# pair array costs 4 bytes a pair, 16 MB at the cap, where a call peaked at
# 38 MB RSS with the 19 MB import and took 3-4 s (2-core VM).  Its
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


def _shuffle(grid: MutableSequence[int], rng: random.Random) -> None:
    """Shuffle ``grid`` in place with exactly the steps of ``rng.shuffle``:
    for i from len(grid) - 1 down to 1, draw j = getrandbits(k), k the bit
    length of i + 1, until j <= i, then swap grid[i] and grid[j].  k is
    computed once for each run of i that shares it, and a step makes no
    Python call but getrandbits, where ``rng.shuffle`` calls ``_randbelow``."""
    getrandbits = rng.getrandbits
    top = len(grid) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the least i whose i + 1 has k bits
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            grid[i], grid[j] = grid[j], grid[i]
        top = low - 1


def greedy_high_girth_bipartite(
    n_left: int, n_right: int, right_degree: int, target_girth: int, seed: int
) -> tuple[BipartiteGraph, GreedyReport]:
    """Randomized greedy bipartite generator with guaranteed girth.

    Proposes the full left x right incidence grid in seeded-shuffled order
    (single pass) and accepts a pair iff the right vertex is below its
    degree cap and the current endpoint distance is >= target_girth - 1,
    so no accepted incidence ever closes a cycle shorter than the target.
    Under-filled right vertices are reported, not an error.

    The grid is a packed array of pair indices k = u * n_right + v,
    shuffled in place with the steps of ``random.Random.shuffle``, so a
    seed gives the order ``shuffle`` gives a list.
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
    int_args(None, n_left=n_left, n_right=n_right, right_degree=right_degree, target_girth=target_girth,
             seed=seed)
    if n_left <= 0 or n_right <= 0 or right_degree <= 0:
        raise PreconditionError("greedy sizes and right_degree must be positive")
    if target_girth < 4 or target_girth % 2 != 0:
        raise PreconditionError(f"target_girth must be even and >= 4, got {short_decimal(target_girth)}")
    if n_left * n_right > GREEDY_PAIR_BUDGET:
        raise ResourceBudgetError(
            f"greedy grid has {short_decimal(n_left)} x {short_decimal(n_right)} = "
            f"{short_decimal(n_left * n_right)} pairs, budget is {GREEDY_PAIR_BUDGET}"
        )

    grid = array("i", range(n_left * n_right))  # pair k = u * n_right + v
    _shuffle(grid, random.Random(seed))

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

