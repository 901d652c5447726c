"""Bit-exact text formats for hypergraphs (`hgt 1`) and bipartite graphs
(`bgt 1`).

Both formats use LF line endings, single spaces, canonical decimal
integers and canonically ordered content; the parsers reject any
deviation with a line-numbered error, so parse(serialize(x)) == x and
serialize(parse(s)) == s hold bit-exactly.  A serializer writes its text
in one pass: one format string for the whole text, with one piece per
incidence or per edge width, applied once with `%` to the flattened ids.

This module checks syntax and `core` checks structure.  A body is read
in bulk, by C iterators, in chunks of fewer than _CHUNK characters (or
one longer line), so the transient token lists stay bounded whatever the
edge widths.  Each chunk is joined and split once; its tags are checked
at once, at the line starts and, when the chunk has one width, as every
(w + 1)-th token; and each id token is looked up in one table.  The
table starts with the canonical ids below min(id bound, body lines), so
a hit is a canonical id and goes through no int(), and the entries the
body does not use are fewer than its lines, however far a padded header
raises the id bound.  A miss is read once per distinct token, after it
matches an id of at most VERTEX_BUDGET's digit count.  The id tuples go
to the Hypergraph or BipartiteGraph constructor; the edge or incidence
index its ValidationError carries names the line.  Only a chunk the bulk
pass refused goes to the line locator, which runs the same pass on its
lines one by one to name the first bad one with the message the
line-by-line parser gave.

``split_lines`` and ``read_header`` frame certificates and recipes too: a
framing fault is a FormatError naming the line where it is, and ``read_int``
reads each integer of a recipe, a certificate header or a CLI flag alike.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, islice, repeat
from typing import Any, Callable, Iterator, NoReturn

from .arith import DECIMAL, parse_decimal_int, short_decimal, short_value
from .core import VERTEX_BUDGET, BipartiteGraph, Hypergraph, budget_int
from .errors import FormatError, PreconditionError, ResourceBudgetError, ValidationError

# An id token has at most VERTEX_BUDGET's digit count, so int() of it is cheap.
_ID_TOKEN = re.compile(f"0|[1-9][0-9]{{0,{len(str(VERTEX_BUDGET)) - 1}}}")
_CHUNK = 1 << 16  # a chunk of more than one line joins to fewer characters, so it has at most _CHUNK tokens


def serialize_hypergraph(h: Hypergraph) -> str:
    """The text through one format, applied once to the flattened ids: the
    header, then one piece per edge, the piece of its width."""
    pieces = {width: "e" + " %d" * width + "\n" for width in set(map(len, h.edges))}
    if len(pieces) == 1:  # one width: its piece, repeated
        body = [pieces.popitem()[1] * h.num_edges]
    else:
        body = map(pieces.__getitem__, map(len, h.edges))
    return "".join(["hgt 1\nvertices %d\nedges %d\n", *body]) % (
        h.num_vertices, h.num_edges, *chain.from_iterable(h.edges))


def serialize_bipartite(g: BipartiteGraph) -> str:
    """The text through one format, one piece per incidence, applied once
    to the flattened ids."""
    return ("bgt 1\nleft %d\nright %d\n" + "a %d %d\n" * g.num_incidences) % (
        g.n_left, g.n_right, *chain.from_iterable(g.incidences))


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not DECIMAL.fullmatch(token):
        raise FormatError(f"line {lineno}: {what} must be a canonical decimal integer, got {short_value(token)}")
    value = budget_int(token)
    if value is None:
        raise ResourceBudgetError(f"line {lineno}: {what} {short_decimal(token)} is above the budget {VERTEX_BUDGET}")
    return value


def read_int(where: str, key: str, text: str) -> int:
    """A canonical decimal as every front end reads it; anything else is a
    FormatError naming ``where`` and ``key``."""
    try:
        return parse_decimal_int(text)
    except PreconditionError:
        raise FormatError(f"{where}: {key} must be an integer, got {short_value(text)}") from None
    except ResourceBudgetError as exc:
        raise ResourceBudgetError(f"{where}: {key}: {exc}") from None


def split_lines(text: str) -> list[str]:
    """``text`` split at LF; a carriage return is a FormatError at its line,
    and a ``text`` that is not a str a PreconditionError."""
    if not isinstance(text, str):
        raise PreconditionError(f"text must be a str, got {short_value(text)}")
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


def _rows(lines: list[str], tag: str, table: dict[str, int]) -> list[tuple[int, ...]] | None:
    """The id tuples of ``lines``, each `tag id ...` with one or more ids, or
    None if a line is not one.  Each id token is looked up in ``table``; a
    miss is read once, into the table, if it matches an id at all.  A `bgt`
    line with other than two ids gives a tuple that BipartiteGraph refuses
    as not a pair, and _refuse names the line's shape."""
    if not lines:
        return []
    text = "\n".join(lines)
    if not text.startswith(tag + " ") or text.count("\n" + tag + " ") != len(lines) - 1:
        return None  # a line does not start with its tag
    tokens = text.replace("\n", " ").split(" ")
    w = lines[0].count(" ")
    # With every line started by a tag and no id a tag, the lines have one
    # width iff every (w + 1)-th token is a tag.
    uniform = len(tokens) == (w + 1) * len(lines) and tokens[0::w + 1].count(tag) == len(lines)
    if uniform:
        del tokens[0::w + 1]
    else:
        count, widths = len(tokens), list(map(str.count, lines, repeat(" ")))
        tokens = list(filter(tag.__ne__, tokens))
        if len(tokens) + len(lines) != count:  # a tag where an id belongs
            return None

    def group(ids: Iterator[int]) -> list[tuple[int, ...]]:
        return list(zip(*[ids] * w) if uniform else map(tuple, map(islice, repeat(ids), widths)))

    try:
        return group(map(table.__getitem__, tokens))
    except KeyError:
        for token in set(tokens).difference(table):
            if not _ID_TOKEN.fullmatch(token):
                return None
            table[token] = int(token)
        return group(map(table.__getitem__, tokens))


def _first_bad_line(lines: list[str], tag: str, table: dict[str, int]) -> int:
    """The index of the first of ``lines`` that _rows refuses on its own."""
    return next(i for i, line in enumerate(lines) if _rows([line], tag, table) is None)


def _build(body: list[str], id_bound: int, make: Callable[[tuple], Any], shape: str,
           names: tuple[str, ...]) -> Any:
    """make(the id tuples of the body lines), or the _refuse of the first bad
    body line (line 4 on); the lines before a syntax error are built first,
    so an earlier structural fault wins.  The body is read in bulk by _rows,
    one chunk at a time: the lines from ``start`` that join to fewer than
    _CHUNK characters, or the one line at ``start``.  One id table serves
    every chunk.  Only a chunk that _rows refuses goes to _first_bad_line."""
    tag = shape.split(" ")[0]
    table = {str(i): i for i in range(min(id_bound, len(body)))}
    rows: list[tuple[int, ...]] = []
    good, start = len(body), 0
    while start < good:
        lines = body[start:start + _CHUNK // (len(body[start]) + 1) + 1]
        if len("\n".join(lines)) >= _CHUNK:  # lines wider than the first: cut at _CHUNK - 1 characters
            ends = list(accumulate(map((1).__add__, map(len, lines))))  # joined length + 1, at least the tokens
            del lines[max(1, bisect_right(ends, _CHUNK)):]
        chunk = _rows(lines, tag, table)
        if chunk is None:
            good = start + _first_bad_line(lines, tag, table)
            chunk = _rows(lines[:good - start], tag, table)
        rows += chunk
        start += len(lines)
    try:
        value = make(tuple(rows))
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
    return _build(body, n, partial(Hypergraph, n), "e <v1> <v2> ...", ("vertex id",))


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse the `bgt 1` format; rejects any deviation (line-numbered)."""
    body, (n_left, n_right) = read_header(text, "bgt 1", ("left <N>", "right <N>"), _parse_int)
    return _build(body, max(n_left, n_right), partial(BipartiteGraph, n_left, n_right),
                  "a <u> <v>", ("left id", "right id"))


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
