"""The hgt/bgt parsers against the line-by-line parsers they replaced.

The earlier parsers checked every token's range, order and duplicates
themselves, line by line.  They are kept below verbatim, but for their
names, as the reference.  Each example mutates a serialized text (byte
flips, swapped, duplicated or dropped lines, extra spaces, leading zeros,
and ids at and just above the header sizes, VERTEX_BUDGET and 10^7).  On
each text both parsers must return equal values, or raise the same
exception class whose message starts with the same `line N:` (or with no
line number in both).  Hypothesis runs derandomized with a bounded number
of examples.
"""

import re

from hypothesis import given, settings, strategies as st

from hypergirth import (
    BipartiteGraph,
    Hypergraph,
    neighborhood_hypergraph,
    parse_bipartite,
    parse_hypergraph,
    projective_plane,
    serialize_bipartite,
    serialize_hypergraph,
)
from hypergirth.core import VERTEX_BUDGET
from hypergirth.errors import FormatError, ResourceBudgetError, ValidationError

_INT = re.compile(r"0|[1-9][0-9]*")
_BUDGET_DIGITS = len(str(VERTEX_BUDGET))


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


def reference_parse_hypergraph(text: str) -> Hypergraph:
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


def reference_parse_bipartite(text: str) -> BipartiteGraph:
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


PLANE = projective_plane(2)
TEXTS = [
    serialize_hypergraph(neighborhood_hypergraph(PLANE)),
    serialize_bipartite(PLANE),
    "hgt 1\nvertices 4\nedges 3\ne 0 1\ne 0 2 3\ne 3\n",
    "bgt 1\nleft 3\nright 2\na 0 0\na 1 0\na 2 1\n",
    f"hgt 1\nvertices {VERTEX_BUDGET}\nedges 2\ne 0 {VERTEX_BUDGET - 1}\ne {VERTEX_BUDGET - 1}\n",
    f"bgt 1\nleft {VERTEX_BUDGET - 1}\nright 1\na 0 0\na {VERTEX_BUDGET - 2} 0\n",
    f"bgt 1\nleft {VERTEX_BUDGET}\nright 1\na 0 0\na 1 0\n",  # class sizes over the budget
    "hgt 1\nvertices 0\nedges 0\n",
    "bgt 1\nleft 0\nright 0\n",
]
CHARS = ["0", "1", "9", " ", "\n", "\r", "\t", "e", "a", "x", "-", "+", "\u0663"]


@st.composite
def mutated(draw) -> str:
    text = draw(st.sampled_from(TEXTS))
    ids = {0, VERTEX_BUDGET - 1, VERTEX_BUDGET, VERTEX_BUDGET + 1, 10**7 - 1, 10**7, 10**7 + 1}
    sizes = [int(line.split(" ")[1]) for line in text.split("\n")[1:3]]  # the unmutated header
    ids |= {n + d for n in sizes for d in (-1, 0, 1) if n + d >= 0}
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        kind = draw(st.sampled_from(["flip", "swap", "dup", "drop", "space", "zero", "id", "id"]))
        if kind in ("swap", "dup", "drop") and len(lines) > 4:  # lines[-1] is the "" after the final LF
            i = draw(st.integers(3, len(lines) - 2))
            j = draw(st.integers(3, len(lines) - 2))
            if kind == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == "dup":
                lines.insert(j, lines[i])
            else:
                del lines[i]
            text = "\n".join(lines)
        elif kind in ("flip", "space") and len(text) > len(lines[0]):  # the magic line is left alone
            i = draw(st.integers(len(lines[0]), len(text) - 1))
            if kind == "flip":
                text = text[:i] + draw(st.sampled_from(CHARS)) + text[i + 1:]
            else:
                text = text[:i] + " " + text[i:]
        else:
            spans = [m.span() for m in re.finditer(r"[0-9]+", text) if m.start() > len(lines[0])]
            if spans:
                start, end = draw(st.sampled_from(spans))
                token = "0" + text[start:end] if kind == "zero" else str(draw(st.sampled_from(sorted(ids))))
                text = text[:start] + token + text[end:]
    return text


def outcome(parse, text: str):
    """The parsed value, or the exception class and its `line N:` prefix."""
    try:
        return parse(text)
    except (FormatError, ResourceBudgetError, ValidationError) as exc:
        prefix = re.match(r"line [0-9]+:", str(exc))
        return type(exc), prefix and prefix.group()


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(mutated())
def test_parsers_agree_with_the_line_by_line_reference(text):
    new, ref = (parse_hypergraph, reference_parse_hypergraph)
    if text.startswith("bgt"):
        new, ref = (parse_bipartite, reference_parse_bipartite)
    assert outcome(new, text) == outcome(ref, text)
