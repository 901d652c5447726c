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

``split_lines`` and ``read_header`` frame certificates and recipes too: a
framing fault is a FormatError naming the line where it is.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NoReturn

from .arith import DECIMAL, short_decimal, short_value
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
        raise FormatError(f"line {lineno}: {what} must be a canonical decimal integer, got {short_value(token)}")
    value = budget_int(token)
    if value is None:
        raise ResourceBudgetError(f"line {lineno}: {what} {short_decimal(token)} is above the budget {VERTEX_BUDGET}")
    return value


def split_lines(text: str) -> list[str]:
    """``text`` split at LF; a carriage return is a FormatError at its line."""
    if "\r" in text:
        lineno = text[: text.index("\r")].count("\n") + 1
        raise FormatError(f"line {lineno}: carriage return not allowed (LF line endings only)")
    return text.split("\n")


def read_header(text: str, magic: str, fields: tuple[str, ...],
                read: Callable[[str, int, str], Any]) -> tuple[list[str], list]:
    """The body lines of the LF-terminated ``text`` and its header values:
    the line ``magic``, then one line per field of ``fields``, shaped as the
    field shows (e.g. `edges <N>`), whose value is read(value, lineno, key)."""
    lines = split_lines(text)
    if not text.endswith("\n"):
        raise FormatError(f"line {len(lines)}: missing final newline")
    del lines[-1]
    keys = [field.split(" ")[0] for field in fields]
    if len(lines) <= len(keys):
        raise FormatError(f"line {len(lines) + 1}: truncated header (need magic, {', '.join(keys)})")
    if lines[0] != magic:
        raise FormatError(f"line 1: expected `{magic}`, got {short_value(lines[0])}")
    values = []
    for lineno, (line, key, field) in enumerate(zip(lines[1:], keys, fields), start=2):
        parts = line.split(" ")
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"line {lineno}: expected `{field}`, got {short_value(line)}")
        values.append(read(parts[1], lineno, key))
    return lines[len(keys) + 1:], values


def _refuse(line: str, lineno: int, exc: ValidationError | None, shape: str, names: tuple[str, ...]) -> NoReturn:
    """Raise the FormatError of a bad body line: ``shape`` when the line has
    the wrong tag or token count, else its first bad integer, else ``exc``.
    ``names`` names the tokens after the tag; when ``shape`` ends in `...`,
    names[0] names each of one or more tokens, none of them empty."""
    tag, *tokens = line.split(" ")
    if shape.endswith("..."):
        names = names * len(tokens) if "" not in tokens else ()
    if tag != shape.split(" ")[0] or not tokens or len(tokens) != len(names):
        raise FormatError(f"line {lineno}: expected `{shape}`, got {short_value(line)}")
    for token, name in zip(tokens, names):
        _parse_int(token, lineno, name)
    raise FormatError(f"line {lineno}: {exc}")


def _build(body: list[str], line_re: re.Pattern, make: Callable[[list[str]], Any],
           shape: str, names: tuple[str, ...]) -> Any:
    """make(body lines), or the _refuse of the first bad body line (line 4
    on); the lines before a syntax error are built first, so an earlier
    structural fault wins.  Lines are matched one by one: one match over
    the body keeps regex backtracking state per line (8 MB on H(5)); the
    possessive `*+` that avoids it needs Python 3.11."""
    good = len(body)
    if not all(map(line_re.fullmatch, body)):
        good = next(i for i, line in enumerate(body) if not line_re.fullmatch(line))
    try:
        value = make(body[:good])
    except ValidationError as exc:
        _refuse(body[exc.index], 4 + exc.index, exc, shape, names)
    except ResourceBudgetError:  # class sizes over the budget: a bad line is named first
        if good == len(body):
            raise
    if good < len(body):
        _refuse(body[good], 4 + good, None, shape, names)
    return value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the `hgt 1` format; rejects any deviation (line-numbered)."""
    body, (n, m) = read_header(text, "hgt 1", ("vertices <N>", "edges <N>"), _parse_int)
    if len(body) != m:
        raise FormatError(
            f"line {min(len(body), m) + 4}: expected exactly {m} edge lines after the header, found {len(body)}"
        )

    def make(body: list[str]) -> Hypergraph:
        return Hypergraph(n, tuple(tuple(map(int, line[2:].split(" "))) for line in body))

    return _build(body, _EDGE_LINE, make, "e <v1> <v2> ...", ("vertex id",))


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the `bgt 1` format; rejects any deviation (line-numbered)."""
    body, (n_left, n_right) = read_header(text, "bgt 1", ("left <N>", "right <N>"), _parse_int)

    def make(body: list[str]) -> BipartiteGraph:
        return BipartiteGraph(n_left, n_right, tuple((int(u), int(v)) for _, u, v in map(str.split, body)))

    return _build(body, _INCIDENCE_LINE, make, "a <u> <v>", ("left id", "right id"))


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
    first = split_lines(text.partition("\n")[0])[0]  # a CR is named before the magic is read
    if first == "hgt 1":
        return parse_hypergraph(text)
    if first == "bgt 1":
        return parse_bipartite(text)
    raise FormatError(f"line 1: unknown magic {short_value(first)} (expected `hgt 1` or `bgt 1`)")
