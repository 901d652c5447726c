"""The hgt/bgt parsers against two earlier parsers, kept as references.

The oldest parsers checked every token's range, order and duplicates
themselves, line by line.  They are kept below verbatim, but for their
names, as the first reference.  Each example mutates a serialized text
(byte flips, swapped, duplicated or dropped lines, extra spaces, leading
zeros, and ids at and just above the header sizes, VERTEX_BUDGET and
10^7).  On each text both parsers must return equal values, or raise the
same exception class whose message starts with the same `line N:` (or with
no line number in both).  Hypothesis runs derandomized with a bounded
number of examples.

The second reference is the parse path that matched every body line
against its pattern and converted its tokens one by one, before the body
was read in bulk; it is kept verbatim, but for its names.  It must give
an equal value or the same exception with the exact same message, on the
mutated texts read in chunks of the default size and of a few tokens, and
on named cases: non-uniform bodies, ids at or above the token count, empty
bodies, tokens over 7 digits, stray spaces and faults past the first chunk.
Valid input never reaches the line matcher that names a bad line.
"""

import os
import random
import re
from typing import Any, Callable, NoReturn
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypergirth import (
    BipartiteGraph,
    Hypergraph,
    formats,
    neighborhood_hypergraph,
    parse_bipartite,
    parse_hypergraph,
    projective_plane,
    serialize_bipartite,
    serialize_hypergraph,
)
from hypergirth.arith import DECIMAL, short_decimal, short_value
from hypergirth.cli import main
from hypergirth.core import VERTEX_BUDGET, budget_int
from hypergirth.errors import FormatError, ResourceBudgetError, ValidationError
from hypergirth.formats import read_header
from test_golden import COMMANDS, RECIPES, _write_templates

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


# The second reference: the line-by-line body path, verbatim but for its names.

_ID = f"(?:0|[1-9][0-9]{{0,{_BUDGET_DIGITS - 1}}})"
_EDGE_LINE = re.compile(f"e(?: {_ID})+")
_INCIDENCE_LINE = re.compile(f"a {_ID} {_ID}")


def _line_parse_int(token: str, lineno: int, what: str) -> int:
    if not DECIMAL.fullmatch(token):
        raise FormatError(f"line {lineno}: {what} must be a canonical decimal integer, got {short_value(token)}")
    value = budget_int(token)
    if value is None:
        raise ResourceBudgetError(f"line {lineno}: {what} {short_decimal(token)} is above the budget {VERTEX_BUDGET}")
    return value


def _line_refuse(line: str, lineno: int, exc: ValidationError | None, shape: str, names: tuple[str, ...]) -> NoReturn:
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
        _line_parse_int(token, lineno, name)
    raise FormatError(f"line {lineno}: {exc}")


def _line_build(body: list[str], line_re: re.Pattern, make: Callable[[list[str]], Any],
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
        _line_refuse(body[exc.index], 4 + exc.index, exc, shape, names)
    except ResourceBudgetError:  # class sizes over the budget: a bad line is named first
        if good == len(body):
            raise
    if good < len(body):
        _line_refuse(body[good], 4 + good, None, shape, names)
    return value


def line_parse_hypergraph(text: str) -> Hypergraph:
    """Parse the `hgt 1` format; rejects any deviation (line-numbered)."""
    body, (n, m) = read_header(text, "hgt 1", ("vertices <N>", "edges <N>"), _line_parse_int)
    if len(body) != m:
        raise FormatError(
            f"line {min(len(body), m) + 4}: expected exactly {m} edge lines after the header, found {len(body)}"
        )

    def make(body: list[str]) -> Hypergraph:
        return Hypergraph(n, tuple(tuple(map(int, line[2:].split(" "))) for line in body))

    return _line_build(body, _EDGE_LINE, make, "e <v1> <v2> ...", ("vertex id",))


def line_parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the `bgt 1` format; rejects any deviation (line-numbered)."""
    body, (n_left, n_right) = read_header(text, "bgt 1", ("left <N>", "right <N>"), _line_parse_int)

    def make(body: list[str]) -> BipartiteGraph:
        return BipartiteGraph(n_left, n_right, tuple((int(u), int(v)) for _, u, v in map(str.split, body)))

    return _line_build(body, _INCIDENCE_LINE, make, "a <u> <v>", ("left id", "right id"))


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


def exact_outcome(parse, text: str):
    """The parsed value, or the exception class and its whole message."""
    try:
        return parse(text)
    except (FormatError, ResourceBudgetError, ValidationError) as exc:
        return type(exc), str(exc)


def parse(text: str):
    return parse_bipartite(text) if text.startswith("bgt") else parse_hypergraph(text)


def line_parse(text: str):
    return line_parse_bipartite(text) if text.startswith("bgt") else line_parse_hypergraph(text)


def assert_agrees_with_the_line_parser(text: str) -> None:
    assert exact_outcome(parse, text) == exact_outcome(line_parse, text)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutated(), st.sampled_from([formats._CHUNK, 1, 4, 7]))
def test_bulk_parser_agrees_exactly_with_the_line_parser(text, chunk):
    with mock.patch.object(formats, "_CHUNK", chunk):
        assert_agrees_with_the_line_parser(text)


def hgt(n: int, *lines: str) -> str:
    return f"hgt 1\nvertices {n}\nedges {len(lines)}\n" + "".join(line + "\n" for line in lines)


def bgt(n_left: int, n_right: int, *lines: str) -> str:
    return f"bgt 1\nleft {n_left}\nright {n_right}\n" + "".join(line + "\n" for line in lines)


# Texts past one chunk of 65 536 characters: the 10 000 incidences of a
# 100 x 100 grid, 8423 lines to the first chunk; 5000 edges of a 3-uniform
# hypergraph, 4050 lines to the first chunk; and one edge of width 1 before
# 40 edges of width 1000, so that a chunk sized by its first line alone
# would hold them all.
GRID = [f"a {u} {v}" for u in range(100) for v in range(100)]
TRIPLES = [f"e {i} {i + 1} {i + 2}" for i in range(5000)]
WIDE = [" ".join(["e", *map(str, range(i, i + 1000))]) for i in range(1, 41)]


def replaced(lines: list[str], at: int, line: str) -> list[str]:
    return lines[:at] + [line] + lines[at + 1:]


CASES = {
    # non-uniform bodies
    "non-uniform": hgt(6, "e 0 1", "e 0 2 3", "e 1", "e 2 3 4 5"),
    "non-uniform-bad-tag": hgt(6, "e 0 1", "e 0 2 3", "x 1", "e 2 3 4 5"),
    "non-uniform-tag-as-id": hgt(6, "e 0 1", "e 0 e 3", "e 1"),
    "non-uniform-order": hgt(6, "e 0 1", "e 0 2 3", "e 0 1 5"),
    "non-uniform-out-of-range": hgt(6, "e 0 1", "e 0 2 6"),
    "non-uniform-bare-tag": hgt(6, "e 0 1", "e", "e 2"),
    "non-uniform-shifted": hgt(6, "0 1", "e e 2"),
    "non-uniform-tag-inside": hgt(9, "e 0 1", "2 e 3"),
    "non-uniform-tag-as-id-regrouped": hgt(6, "e 0", "e e 1 2", "e 3 4"),
    "non-uniform-tag-as-id-short": hgt(6, "e 0 1", "e e 2 3", "e 4"),
    "duplicate-before-syntax": hgt(6, "e 0 1", "e 0 1", "e x"),
    "order-before-syntax": bgt(3, 3, "a 1 1", "a 0 0", "a 2 2 2"),
    "uniform-first-line-shifted": bgt(9, 9, "a 0 1 a", "2 3"),
    "uniform-shifted": bgt(9, 9, "a 0 1", "a 2 3 a", "4 5"),
    "uniform-shifted-hgt": hgt(9, "e 0 1", "e 2 3 e", "4 5"),
    # bipartite lines of other than two ids, which BipartiteGraph refuses as no pair
    "bipartite-one-id": bgt(9, 9, "a 0 1", "a 2"),
    "bipartite-three-ids": bgt(9, 9, "a 0 1", "a 2 3 4"),
    "bipartite-three-ids-each": bgt(9, 9, "a 0 1 2", "a 2 3 4"),
    "bipartite-three-ids-after-order": bgt(9, 9, "a 1 1", "a 0 0", "a 2 3 4"),
    "bipartite-three-ids-then-budget": bgt(VERTEX_BUDGET, 9, "a 0 0", "a 2 3 4"),
    "bipartite-budget": bgt(VERTEX_BUDGET, 9, "a 0 0", "a 2 3"),
    # ids at or above the token count, and at or above the header sizes
    "sparse-ids": hgt(1000, "e 500 999", "e 998"),
    "sparse-ids-out-of-range": hgt(1000, "e 500 1000"),
    "sparse-ids-over-the-budget": hgt(1000, f"e 5 {VERTEX_BUDGET + 1}"),
    "sparse-ids-bipartite": bgt(1000, 10, "a 999 9"),
    "sparse-ids-bipartite-left-out": bgt(10, 1000, "a 10 999"),
    "sparse-ids-bipartite-right-out": bgt(1000, 10, "a 999 10"),
    "ids-at-budget": hgt(VERTEX_BUDGET, f"e 0 {VERTEX_BUDGET - 1}"),
    # empty bodies and n = 0
    "empty-hgt": hgt(7),
    "empty-bgt": bgt(3, 4),
    "n-0-empty": hgt(0),
    "n-0-id": hgt(0, "e 0"),
    "bgt-0-id": bgt(0, 0, "a 0 0"),
    "bgt-0-left": bgt(0, 3, "a 0 1"),
    # tokens over 7 digits
    "8-digits": hgt(9, "e 1 12345678"),
    "5000-digits": hgt(9, "e 1 " + "9" * 5000),
    "8-digits-bipartite": bgt(9, 9, "a 12345678 1"),
    "8-digits-leading-zero": hgt(9, "e 01234567"),
    "7-digits-over-budget": bgt(9, 9, "a 0 0", "a 1 9999999"),
    # trailing and double spaces
    "trailing-space": hgt(9, "e 0 1 "),
    "double-space": hgt(9, "e 0  1"),
    "leading-space": hgt(9, " e 0 1"),
    "trailing-space-bipartite": bgt(9, 9, "a 0 1 "),
    "double-space-bipartite": bgt(9, 9, "a 0  1"),
    "tag-space-only": hgt(9, "e "),
    # faults past the first chunk
    "second-chunk-valid": bgt(100, 100, *GRID),
    "second-chunk-syntax": bgt(100, 100, *replaced(GRID, 9000, "a 1 x")),
    "second-chunk-order": bgt(100, 100, *replaced(GRID, 9000, "a 0 0")),
    "second-chunk-out-of-range": bgt(100, 100, *GRID[:9000], "a 100 0"),
    "first-chunk-order-second-chunk-syntax": bgt(100, 100, *replaced(replaced(GRID, 9, "a 0 0"), 9000, "a 1  2")),
    "first-chunk-syntax-second-chunk-order": bgt(100, 100, *replaced(replaced(GRID, 9000, "a 0 0"), 9, "a 1 2 3")),
    "second-chunk-width": hgt(5002, *replaced(TRIPLES, 4500, "e 4500 4501")),
    "second-chunk-id": hgt(5002, *replaced(TRIPLES, 4500, "e 4500 4501 04502")),
    "second-chunk-duplicate": hgt(5002, *replaced(TRIPLES, 4500, TRIPLES[4499])),
    "narrow-first-line": hgt(1040, "e 0", *WIDE),
    "narrow-first-line-syntax": hgt(1040, "e 0", *replaced(WIDE, 30, WIDE[30].replace(" 500 ", " 0500 "))),
    "narrow-first-line-order": hgt(1040, "e 0", *replaced(WIDE, 30, WIDE[30] + " 31")),
}


@pytest.mark.parametrize("name", CASES)
def test_bulk_parser_agrees_exactly_on_named_cases(name):
    assert_agrees_with_the_line_parser(CASES[name])


def test_token_lists_and_the_id_table_stay_bounded(monkeypatch):
    # Each bulk read splits at most _CHUNK tokens, whatever the edge widths,
    # and the id table holds the ids below min(id bound, body lines) and the
    # ids the body uses, however large a padded header makes the id bound.
    seen, tables = [], []
    original = formats._rows

    def recorded(lines, tag, table):
        seen.append(sum(line.count(" ") + 1 for line in lines))
        rows = original(lines, tag, table)
        tables.append(len(table))
        return rows

    monkeypatch.setattr(formats, "_rows", recorded)
    parse_hypergraph(hgt(VERTEX_BUDGET, "e 0 1 2 999999"))  # a padded body
    parse_bipartite(bgt(2, 100, "a 0 0", "a 0 50", "a 1 99"))
    parse_hypergraph(hgt(2, "e 0", "e 0 1", "e 1"))
    parse_hypergraph(CASES["narrow-first-line"])
    assert tables[:3] == [4, 5, 2] and tables[-1] == 1040
    assert seen[3:] == [16018, 16016, 8008] and max(seen) <= formats._CHUNK
    plane = serialize_hypergraph(neighborhood_hypergraph(projective_plane(13)))  # 183 vertices and edges
    parse_hypergraph(plane.replace("vertices 183", f"vertices {VERTEX_BUDGET}"))
    assert tables[-1] == 183
    seen.clear()
    parse_bipartite(CASES["second-chunk-valid"])
    assert seen == [25269, 4731]
    seen.clear()
    monkeypatch.setattr(formats, "_CHUNK", 100)  # 1 or 2 lines of 15 tokens
    parse_hypergraph(plane)
    assert len(seen) == 106 and max(seen) <= 100


def random_valid_texts(rng: random.Random):
    """Serialized random hypergraphs and bipartite graphs: uniform and not,
    dense and sparse ids, and the empty ones."""
    for _ in range(60):
        n = rng.choice([0, 1, 5, 40, 3000, VERTEX_BUDGET])
        width = rng.choice([None, 1, 3])
        edges = set()
        for _ in range(rng.randint(0, 60) if n else 0):
            size = width or rng.randint(1, min(6, n))
            edges.add(tuple(sorted(rng.sample(range(n), min(size, n)))))
        yield serialize_hypergraph(Hypergraph(n, tuple(sorted(edges))))
        n_left, n_right = rng.choice([0, 3, 50, 4000]), rng.choice([0, 2, 70, 5000])
        count = rng.randint(0, 80) if n_left * n_right else 0
        pairs = {(rng.randrange(n_left), rng.randrange(n_right)) for _ in range(count)}
        yield serialize_bipartite(BipartiteGraph(n_left, n_right, tuple(sorted(pairs))))


def serialize(value) -> str:
    return serialize_bipartite(value) if isinstance(value, BipartiteGraph) else serialize_hypergraph(value)


def test_valid_input_never_reaches_the_line_matcher(tmp_path, capsys, monkeypatch):
    def refuse(lines, *_):
        raise AssertionError(f"the line matcher ran on {short_value(lines[0])}")

    monkeypatch.setattr(formats, "_first_bad_line", refuse)
    texts = list(random_valid_texts(random.Random(5)))
    texts += [text for text in CASES.values() if not isinstance(exact_outcome(line_parse, text), tuple)]
    for chunk in (formats._CHUNK, 1, 5):
        with mock.patch.object(formats, "_CHUNK", chunk):
            for text in texts:
                assert serialize(parse(text)) == text
    # Every golden run parses what it wrote: replayed transforms, reports and girths.
    _write_templates(tmp_path)
    for name, (recipe, _) in RECIPES.items():
        (tmp_path / "r.rcp").write_text(recipe.replace("<tmp>", str(tmp_path)))
        assert main(["pipeline", str(tmp_path / "r.rcp"), "--out-dir", str(tmp_path / name)]) == 0
    for command in COMMANDS:
        assert main(command.replace("<tmp>", str(tmp_path)).split()) == 0, command
    capsys.readouterr()
    artifacts = [os.path.join(root, name) for root, _, names in os.walk(tmp_path)
                 for name in names if name.endswith((".hgt", ".bgt"))]
    assert len(artifacts) > 40
    for path in artifacts:
        with open(path, encoding="ascii", newline="") as fh:
            text = fh.read()
        assert serialize(formats.load(path)) == text

