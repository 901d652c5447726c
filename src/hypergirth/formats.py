"""Bit-exact text formats for hypergraphs (`hgt 1`) and bipartite graphs
(`bgt 1`).

Both formats use LF line endings, single spaces, canonical decimal
integers and canonically ordered content; the parsers reject any
deviation with a line-numbered error, so parse(serialize(x)) == x and
serialize(parse(s)) == s hold bit-exactly.  An integer above
core.VERTEX_BUDGET is refused before it is converted.
"""

from __future__ import annotations

import re

from .core import VERTEX_BUDGET, BipartiteGraph, Hypergraph
from .errors import FormatError, ResourceBudgetError, ValidationError

_INT = re.compile(r"0|[1-9][0-9]*")
_BUDGET_DIGITS = len(str(VERTEX_BUDGET))


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = ["hgt 1", f"vertices {h.num_vertices}", f"edges {h.num_edges}"]
    for edge in h.edges:
        lines.append("e " + " ".join(str(v) for v in edge))
    return "\n".join(lines) + "\n"


def serialize_bipartite(g: BipartiteGraph) -> str:
    lines = ["bgt 1", f"left {g.n_left}", f"right {g.n_right}"]
    for u, v in g.incidences:
        lines.append(f"a {u} {v}")
    return "\n".join(lines) + "\n"


def _split_lines(text: str) -> list[str]:
    if "\r" in text:
        lineno = text[: text.index("\r")].count("\n") + 1
        raise FormatError(f"line {lineno}: carriage return not allowed (LF line endings only)")
    if not text.endswith("\n"):
        raise FormatError(f"line {text.count(chr(10)) + 1}: missing final newline")
    return text[:-1].split("\n")


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not _INT.fullmatch(token):
        raise FormatError(f"line {lineno}: {what} must be a canonical decimal integer, got {token!r}")
    if len(token) <= _BUDGET_DIGITS:  # int() of a longer token can exceed CPython's digit limit
        value = int(token)
        if value <= VERTEX_BUDGET:
            return value
    shown = token if len(token) <= 20 else f"{token[:20]}...({len(token)} digits)"
    raise ResourceBudgetError(f"line {lineno}: {what} {shown} is above the budget {VERTEX_BUDGET}")


def _header_value(line: str, lineno: int, key: str) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != key or line != f"{key} {parts[1]}":
        raise FormatError(f"line {lineno}: expected `{key} <N>`, got {line!r}")
    return _parse_int(parts[1], lineno, key)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the `hgt 1` format; rejects any deviation (line-numbered)."""
    lines = _split_lines(text)
    if len(lines) < 3:
        raise FormatError(f"line {len(lines) + 1}: truncated header (need magic, vertices, edges)")
    if lines[0] != "hgt 1":
        raise FormatError(f"line 1: expected `hgt 1`, got {lines[0]!r}")
    n = _header_value(lines[1], 2, "vertices")
    m = _header_value(lines[2], 3, "edges")
    if len(lines) != 3 + m:
        raise FormatError(
            f"line {min(len(lines), 3 + m) + 1}: expected exactly {m} edge lines after the header, "
            f"found {len(lines) - 3}"
        )
    edges: list[tuple[int, ...]] = []
    prev: tuple[int, ...] | None = None
    for i, line in enumerate(lines[3:]):
        lineno = 4 + i
        parts = line.split(" ")
        if parts[0] != "e" or len(parts) < 2 or "" in parts:
            raise FormatError(f"line {lineno}: expected `e <v1> <v2> ...`, got {line!r}")
        edge = tuple(_parse_int(tok, lineno, "vertex id") for tok in parts[1:])
        if any(a >= b for a, b in zip(edge, edge[1:])):
            raise FormatError(f"line {lineno}: vertex ids must be strictly increasing")
        if edge[-1] >= n:
            raise FormatError(f"line {lineno}: vertex id {edge[-1]} out of [0, {n})")
        if prev is not None and prev >= edge:
            kind = "duplicate edge" if prev == edge else "edge order not lexicographic"
            raise FormatError(f"line {lineno}: {kind}")
        prev = edge
        edges.append(edge)
    try:
        return Hypergraph(n, tuple(edges))
    except ValidationError as exc:  # unreachable given the checks above
        raise FormatError(f"line 4: non-canonical edge data: {exc}") from exc


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the `bgt 1` format; rejects any deviation (line-numbered)."""
    lines = _split_lines(text)
    if len(lines) < 3:
        raise FormatError(f"line {len(lines) + 1}: truncated header (need magic, left, right)")
    if lines[0] != "bgt 1":
        raise FormatError(f"line 1: expected `bgt 1`, got {lines[0]!r}")
    n_left = _header_value(lines[1], 2, "left")
    n_right = _header_value(lines[2], 3, "right")
    pairs: list[tuple[int, int]] = []
    prev_pair: tuple[int, int] | None = None
    for i, line in enumerate(lines[3:]):
        lineno = 4 + i
        parts = line.split(" ")
        if len(parts) != 3 or parts[0] != "a":
            raise FormatError(f"line {lineno}: expected `a <u> <v>`, got {line!r}")
        u = _parse_int(parts[1], lineno, "left id")
        v = _parse_int(parts[2], lineno, "right id")
        if u >= n_left:
            raise FormatError(f"line {lineno}: left id {u} out of [0, {n_left})")
        if v >= n_right:
            raise FormatError(f"line {lineno}: right id {v} out of [0, {n_right})")
        if prev_pair is not None and prev_pair >= (u, v):
            kind = "duplicate incidence" if prev_pair == (u, v) else "incidence order not lexicographic"
            raise FormatError(f"line {lineno}: {kind}")
        prev_pair = (u, v)
        pairs.append((u, v))
    try:
        return BipartiteGraph(n_left, n_right, tuple(pairs))
    except ValidationError as exc:  # unreachable given the checks above
        raise FormatError(f"line 4: non-canonical incidence data: {exc}") from exc


def read_ascii(path: str) -> str:
    """A text file's content; a byte outside ASCII is a FormatError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {lineno}: non-ASCII byte {data[exc.start]:#04x}") from None


def load(path: str) -> BipartiteGraph | Hypergraph:
    """Read an `hgt 1` or `bgt 1` file, whichever its magic line names."""
    text = read_ascii(path)
    first = text.split("\n", 1)[0]
    if first == "hgt 1":
        return parse_hypergraph(text)
    if first == "bgt 1":
        return parse_bipartite(text)
    raise FormatError(f"line 1: unknown magic {first!r} (expected `hgt 1` or `bgt 1`)")
