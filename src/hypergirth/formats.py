"""Bit-exact text formats for hypergraphs (`hgt 1`) and bipartite graphs
(`bgt 1`).

Both formats use LF line endings, single spaces, canonical decimal
integers and canonically ordered content; the parsers reject any
deviation with a line-numbered error, so parse(serialize(x)) == x and
serialize(parse(s)) == s hold bit-exactly.

This module checks syntax and `core` checks structure.  Each body line is
matched against a pattern whose integers have at most VERTEX_BUDGET's
digit count, and the values go to the Hypergraph or BipartiteGraph
constructor; the edge or incidence index its ValidationError carries
names the line.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NoReturn

from .arith import DECIMAL, short_decimal
from .core import VERTEX_BUDGET, BipartiteGraph, Hypergraph, budget_int
from .errors import FormatError, ResourceBudgetError, ValidationError

# An id token has at most VERTEX_BUDGET's digit count, so int() of it is cheap.
_ID = f"(?:0|[1-9][0-9]{{0,{len(str(VERTEX_BUDGET)) - 1}}})"
_EDGE_LINE = re.compile(f"e(?: {_ID})+")
_INCIDENCE_LINE = re.compile(f"a {_ID} {_ID}")


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


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not DECIMAL.fullmatch(token):
        raise FormatError(f"line {lineno}: {what} must be a canonical decimal integer, got {token!r}")
    value = budget_int(token)
    if value is None:
        raise ResourceBudgetError(f"line {lineno}: {what} {short_decimal(token)} is above the budget {VERTEX_BUDGET}")
    return value


def _header_value(line: str, lineno: int, key: str) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != key or line != f"{key} {parts[1]}":
        raise FormatError(f"line {lineno}: expected `{key} <N>`, got {line!r}")
    return _parse_int(parts[1], lineno, key)


def _header(text: str, magic: str, keys: tuple[str, str]) -> tuple[list[str], int, int]:
    """The lines of ``text`` and the values of its two header lines."""
    if "\r" in text:
        lineno = text[: text.index("\r")].count("\n") + 1
        raise FormatError(f"line {lineno}: carriage return not allowed (LF line endings only)")
    if not text.endswith("\n"):
        raise FormatError(f"line {text.count(chr(10)) + 1}: missing final newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3:
        raise FormatError(f"line {len(lines) + 1}: truncated header (need magic, {keys[0]}, {keys[1]})")
    if lines[0] != magic:
        raise FormatError(f"line 1: expected `{magic}`, got {lines[0]!r}")
    return lines, _header_value(lines[1], 2, keys[0]), _header_value(lines[2], 3, keys[1])


def _refuse_edge(line: str, lineno: int, exc: ValidationError | None) -> NoReturn:
    parts = line.split(" ")
    if parts[0] != "e" or len(parts) < 2 or "" in parts:
        raise FormatError(f"line {lineno}: expected `e <v1> <v2> ...`, got {line!r}")
    for token in parts[1:]:
        _parse_int(token, lineno, "vertex id")
    raise FormatError(f"line {lineno}: {exc}")


def _refuse_incidence(line: str, lineno: int, exc: ValidationError | None) -> NoReturn:
    parts = line.split(" ")
    if len(parts) != 3 or parts[0] != "a":
        raise FormatError(f"line {lineno}: expected `a <u> <v>`, got {line!r}")
    _parse_int(parts[1], lineno, "left id")
    _parse_int(parts[2], lineno, "right id")
    raise FormatError(f"line {lineno}: {exc}")


def _build(lines: list[str], line_re: re.Pattern, make: Callable[[list[str]], Any],
           refuse: Callable[[str, int, ValidationError | None], NoReturn]) -> Any:
    """make(body lines), or refuse(line, lineno, structural fault or None)
    of the first bad body line; the lines before a syntax error are built
    first, so an earlier structural fault wins.  Lines are matched one by
    one: one match over the body keeps regex backtracking state per line
    (8 MB on H(5)); the possessive `*+` that avoids it needs Python 3.11."""
    body = lines[3:]
    good = len(body)
    if not all(map(line_re.fullmatch, body)):
        good = next(i for i, line in enumerate(body) if not line_re.fullmatch(line))
    try:
        value = make(body[:good])
    except ValidationError as exc:
        refuse(body[exc.index], 4 + exc.index, exc)
    except ResourceBudgetError:  # class sizes over the budget: a bad line is named first
        if good == len(body):
            raise
    if good < len(body):
        refuse(body[good], 4 + good, None)
    return value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the `hgt 1` format; rejects any deviation (line-numbered)."""
    lines, n, m = _header(text, "hgt 1", ("vertices", "edges"))
    if len(lines) != 3 + m:
        raise FormatError(
            f"line {min(len(lines), 3 + m) + 1}: expected exactly {m} edge lines after the header, "
            f"found {len(lines) - 3}"
        )

    def make(body: list[str]) -> Hypergraph:
        return Hypergraph(n, tuple(tuple(map(int, line[2:].split(" "))) for line in body))

    return _build(lines, _EDGE_LINE, make, _refuse_edge)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the `bgt 1` format; rejects any deviation (line-numbered)."""
    lines, n_left, n_right = _header(text, "bgt 1", ("left", "right"))

    def make(body: list[str]) -> BipartiteGraph:
        return BipartiteGraph(n_left, n_right, tuple((int(u), int(v)) for _, u, v in map(str.split, body)))

    return _build(lines, _INCIDENCE_LINE, make, _refuse_incidence)


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
