"""Output checks that do not trust the program under test.

Each check raises CheckError with a one-line reason.  The checks re-derive
what they compare against from first principles where that is cheap: the
bipartite and hypergraph text formats are re-parsed here, witness cycles
are re-walked on the benchmark's own copy of the input, vertex counts of
planned constructions come from the closed-form order sequences, and the
floored theorem exponent is compared with a rigorous interval enclosure
of the exact exponent (mpmath's ``iv`` context, not the program's ``mp``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext


# A private interval context, so the program's own mpmath settings are untouched.
iv = MPIntervalContext()
iv.dps = 50


class CheckError(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@contextmanager
def unlimited_int_digits():
    """Allow int <-> str conversion of any size for the duration."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- formats


def parse_bgt(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    lines = text.split("\n")
    require(lines[-1] == "", "bgt text lacks a final newline")
    require(lines[0] == "bgt 1", f"bgt magic is {lines[0]!r}")
    require(lines[1].startswith("left ") and lines[2].startswith("right "), "bgt header malformed")
    n_left, n_right = int(lines[1][5:]), int(lines[2][6:])
    pairs = []
    for line in lines[3:-1]:
        tag, u, v = line.split(" ")
        require(tag == "a", f"bgt line {line!r} is not an incidence")
        pairs.append((int(u), int(v)))
    require(pairs == sorted(set(pairs)), "bgt incidences are not sorted and distinct")
    require(all(0 <= u < n_left and 0 <= v < n_right for u, v in pairs), "bgt id out of range")
    return n_left, n_right, pairs


def serialize_bgt(n_left: int, n_right: int, pairs: list[tuple[int, int]]) -> str:
    lines = ["bgt 1", f"left {n_left}", f"right {n_right}"]
    lines += [f"a {u} {v}" for u, v in sorted(pairs)]
    return "\n".join(lines) + "\n"


def serialize_hgt(n: int, edges: list[tuple[int, ...]]) -> str:
    lines = ["hgt 1", f"vertices {n}", f"edges {len(edges)}"]
    lines += ["e " + " ".join(map(str, e)) for e in sorted(edges)]
    return "\n".join(lines) + "\n"


def neighborhood_edges(n_right: int, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Right-vertex neighborhoods of a bipartite graph, the nbhd transform."""
    nbhd: list[list[int]] = [[] for _ in range(n_right)]
    for u, v in pairs:
        nbhd[v].append(u)
    return sorted(tuple(sorted(nb)) for nb in nbhd if nb)


def printed(stdout: str) -> dict[str, str]:
    """`key rest-of-line` pairs of a command's stdout (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


# ----------------------------------------------------------------- cycles


def check_bipartite_witness(line: str, length: int, incidences: set[tuple[int, int]]) -> None:
    """`l3 r5 l9 ...` must be a cycle of exactly ``length`` in the graph."""
    nodes = [(tok[0], int(tok[1:])) for tok in line.split(" ")]
    require(len(nodes) == length, f"witness has {len(nodes)} nodes, expected {length}")
    require(len(set(nodes)) == length, "witness repeats a vertex")
    for k, (side, idx) in enumerate(nodes):
        nside, nidx = nodes[(k + 1) % length]
        require({side, nside} == {"l", "r"}, "witness does not alternate sides")
        pair = (idx, nidx) if side == "l" else (nidx, idx)
        require(pair in incidences, f"witness step {k}: {pair} is not an incidence")


def check_berge_witness(vertices: str, edge_ids: str, length: int, edges: list[tuple[int, ...]]) -> None:
    vs = [int(x) for x in vertices.split(" ")]
    es = [int(x) for x in edge_ids.split(" ")]
    require(len(vs) == length and len(es) == length, f"witness is not a {length}-cycle")
    require(len(set(vs)) == length and len(set(es)) == length, "witness repeats a vertex or edge")
    for i in range(length):
        require(0 <= es[i] < len(edges), f"witness edge {es[i]} out of range")
        edge = set(edges[es[i]])
        require(vs[i] in edge and vs[(i + 1) % length] in edge, f"witness step {i} leaves edge {es[i]}")


# ------------------------------------------------------------- arithmetic

# girth -> (growth of the order exponent per level, denominator of its offset)
_ROUTES = {6: (9, 8), 8: (10, 9)}


def order_exponent(girth: int, m: int, n: int) -> int:
    """Exponent of the n-th order: g^(n-1) (m + 1/d) - 1/d for (g, d) of the route."""
    growth, den = _ROUTES[girth]
    e = Fraction(growth ** (n - 1)) * (m + Fraction(1, den)) - Fraction(1, den)
    require(e.denominator == 1, f"order exponent {e} is not an integer")
    return int(e)


def substrate_vertices(girth: int, p: int, m: int, n: int) -> int:
    """v(q) = (1+q)(1+q^4+q^8) at girth 6, (1+q)(1+q^3+q^6+q^9) at girth 8."""
    q = p ** order_exponent(girth, m, n)
    if girth == 6:
        return (1 + q) * (1 + q**4 + q**8)
    return (1 + q) * (1 + q**3 + q**6 + q**9)


def check_plan_sandwich(girth: int, p: int, m: int, n: int, n_value: int, printed_vertices: str) -> None:
    """v(m, n) <= N < v(m + step, n), and `vertices` is v(m, n)."""
    step = 1 if girth == 6 else 2
    low = substrate_vertices(girth, p, m, n)
    high = substrate_vertices(girth, p, m + step, n)
    require(low <= n_value < high, f"planned (m={m}, n={n}) does not bracket N")
    with unlimited_int_digits():
        require(printed_vertices == str(low), "printed vertex count differs from v(q_{m,n})")


def exponent_enclosure(girth: int, p: int | None, n_value: int):
    """Interval containing the exact display exponent at N:
    (11/8)(1 - 33/sqrt(log_p N)) or (11/9)(1 - 13 sqrt(10/log2 N))."""
    shift = max(0, n_value.bit_length() - 64)
    top = n_value >> shift
    log_n = iv.log(iv.mpf([top, top + 1])) + shift * iv.log(2)
    if girth == 6:
        return iv.mpf(11) / 8 * (1 - 33 / iv.sqrt(log_n / iv.log(p)))
    return iv.mpf(11) / 9 * (1 - 13 * iv.sqrt(10 * iv.log(2) / log_n))


def check_floored_exponent(girth: int, p: int | None, n_value: int, floored: Fraction) -> None:
    """floored = floor(72 * exponent) / 72, so floored <= exponent < floored + 1/72."""
    require(72 % floored.denominator == 0, f"floored exponent {floored} is not in 1/72 steps")
    k = int(floored * 72)
    scaled = exponent_enclosure(girth, p, n_value) * 72
    require(scaled.b >= k, f"floored exponent {floored} exceeds the exact exponent")
    require(scaled.a < k + 1, f"floored exponent {floored} is more than 1/72 below the exact one")


def check_exponent_value(girth: int, p: int | None, n_value: int, value: float) -> None:
    """A printed float exponent lies in the enclosure, up to float rounding."""
    enc = exponent_enclosure(girth, p, n_value)
    require(enc.a - 1e-12 <= value <= enc.b + 1e-12, f"printed exponent {value!r} is off")
