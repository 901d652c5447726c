"""Mutation fuzzing of the text formats, certificates and the CLI.

Each example makes a few small edits to a valid `hgt`, `bgt` or recipe
text, or to a valid `gen` or `transform` argument list, and runs the CLI
on it in-process, in a fresh directory.  Every run must end with an exit
code in {0, 2, 3, 4, 5}; a failing run prints exactly one `error:` line
and never a traceback.  An accepted hgt or bgt text must round-trip
through its parser and serializer.  A serialized certificate, edited the
same way, must re-verify exactly when it is the canonical certificate of
its own header, and otherwise fail with a package error.

No inserted character is a digit, a replaced token comes from the text
itself or from a fixed pool, and the only numbers an argument list can
gain are at most 2.  So no mutation raises a size parameter (a hexagon
stays at q = 2), and each test runs in a few seconds.  Hypothesis runs
derandomized with a bounded number of examples.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from hypergirth import (
    FormatError,
    PreconditionError,
    ResourceBudgetError,
    VerificationError,
    certificate,
    neighborhood_hypergraph,
    parse_bipartite,
    parse_certificate,
    parse_hypergraph,
    projective_plane,
    reverify_certificate,
    serialize_bipartite,
    serialize_hypergraph,
)
from hypergirth.cli import main

PLANE = projective_plane(2)
TEXTS = {
    "hgt": serialize_hypergraph(neighborhood_hypergraph(PLANE)),
    "bgt": serialize_bipartite(PLANE),
    "rcp": (
        "rcp 1\ntarget 3\n# a comment\nstage gen plane q=2\nstage nbhd\n"
        "stage substitute template=loose-path:1:3 k=1\nstage split r=2\nstage pad to=9\n"
        "certify girth=6 p=5 r=3 N=3967295312526\n"
    ),
}
FORMATS = {"hgt": (parse_hypergraph, serialize_hypergraph), "bgt": (parse_bipartite, serialize_bipartite)}
CHARS = [" ", "\n", "\r", "\t", "=", ":", "#", "-", "+", "e", "a", "x", "é", "٣", "\x00"]
# whole tokens an edit may put in place of another, beside the text's own tokens
POOLS = {
    "hgt": ["x", "-1", "01", "e"],
    "bgt": ["x", "-1", "01", "a"],
    "rcp": ["q=+2", "r=03", "r=5", "to=1", "k=x", "bogus=1", "kind=plane", "p=2", "girth=8",
            "template=path7", "template=IN.hgt", "template=IN.bgt", "template=loose-path:2", "gen", "nbhd"],
}
# A small VALID and a small INVALID certificate on each route.  Their own
# decimal tokens are not reused, so an edit cannot raise a size parameter
# above 2.
CERTS = [
    certificate(*key).serialize()
    for key in ((6, 5, 2, 1, 3), (6, 5, 1, 1, 3), (8, None, 5, 1, 3), (8, None, 6, 1, 3))
]
CERT_TOKENS = sorted({t for text in CERTS for t in text.split() if not t.isdigit()} | {"-1", "01", "x", ""})
CERT_LINES = {"header": ("cert", "girth", "p", "m", "n", "r"), "status": ("status",),
              "check": ("check",), "value": ("value",)}

ARGVS = [
    ["gen", "plane", "--q", "2", "OUT"],
    ["gen", "quadrangle", "--q", "2", "OUT"],
    ["gen", "hexagon", "--q", "2", "OUT"],
    ["gen", "greedy", "--left", "10", "--right", "10", "--deg", "2", "--girth", "6", "--seed", "1", "OUT"],
    ["transform", "nbhd", "IN.bgt", "OUT"],
    ["transform", "substitute", "IN.hgt", "OUT", "--template", "loose-path:1:3", "--k", "1"],
    ["transform", "split", "IN.hgt", "OUT", "--r", "2"],
    ["transform", "pad", "IN.hgt", "OUT", "--to", "9"],
]
TOKENS = [
    "gen", "transform", "report", "plane", "hexagon", "greedy", "nbhd", "split", "pad",
    "--q", "--r", "--k", "--to", "--left", "--seed", "--template",
    "path7", "loose-path:1:2", "loose-path:x:3", "IN.bgt", "IN.hgt", "OUT",
    "0", "1", "2", "-1", "+2", "02", "x", "é", "",
]


def edit_line(draw, lines: list[str], rows: st.SearchStrategy[int], tokens: st.SearchStrategy[str]) -> None:
    """Make one edit at a line drawn from ``rows``: a token, a few
    characters or whole lines."""
    edit = draw(st.sampled_from(["token", "token", "delete", "insert", "dup-line", "drop-line", "swap-lines"]))
    j, k = draw(rows), draw(st.integers(0, len(lines) - 1))
    line = lines[j]
    i = draw(st.integers(0, len(line)))
    if edit == "delete":
        lines[j] = line[:i] + line[i + draw(st.integers(1, 3)):]
    elif edit == "insert":
        lines[j] = line[:i] + draw(st.sampled_from(CHARS)) + line[i:]
    elif edit == "token":
        words = line.split(" ")
        words[i % len(words)] = draw(tokens)
        lines[j] = " ".join(words)
    elif edit == "dup-line":
        lines.insert(j, line)
    elif edit == "drop-line" and len(lines) > 1:
        del lines[j]
    else:
        lines[j], lines[k] = lines[k], lines[j]


@st.composite
def mutated_text(draw, ext: str) -> str:
    lines = TEXTS[ext].split("\n")
    tokens = st.sampled_from(sorted(set(TEXTS[ext].split()) | set(POOLS[ext])))
    for _ in range(draw(st.integers(1, 2))):
        edit_line(draw, lines, st.integers(0, len(lines) - 1), tokens)
    return "\n".join(lines)


@st.composite
def mutated_certificate(draw) -> str:
    """A certificate text with one or two edits, each on a header, status,
    check or value line (a header line twice as likely as each other kind).
    Half the edits on a header line replace its value, and half the
    replacement tokens are 0, 1 or 2."""
    lines = draw(st.sampled_from(CERTS)).split("\n")
    tokens = st.sampled_from(["0", "1", "2"]) | st.sampled_from(CERT_TOKENS)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["header", "header", "status", "check", "value"]))
        rows = st.sampled_from([j for j, line in enumerate(lines) if line.split(" ")[0] in CERT_LINES[kind]] or [0])
        if kind == "header" and draw(st.booleans()):
            j = draw(rows)
            lines[j] = lines[j].split(" ")[0] + " " + draw(tokens)
        else:
            edit_line(draw, lines, rows, tokens)
    return "\n".join(lines)


@st.composite
def mutated_argv(draw) -> list[str]:
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        i = draw(st.integers(0, max(len(argv) - 1, 0)))
        j = draw(st.integers(0, max(len(argv) - 1, 0)))
        if edit == "delete" and argv:
            del argv[i]
        elif edit == "insert":
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif edit == "replace" and argv:
            argv[i] = draw(st.sampled_from(TOKENS))
        elif argv:
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def run_in(directory: str, argv: list[str]) -> tuple[int, str]:
    """Run the CLI with ``directory`` as the working directory; returns the
    exit code and stderr, after checking both against the exit contract."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code, stderr)
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == (code != 0), (argv, stderr)
    return code, stderr


def write_inputs(directory: str) -> None:
    for name, text in (("IN.bgt", TEXTS["bgt"]), ("IN.hgt", TEXTS["hgt"])):
        with open(os.path.join(directory, name), "w", encoding="ascii", newline="") as fh:
            fh.write(text)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(TEXTS)).flatmap(lambda ext: st.tuples(st.just(ext), mutated_text(ext))))
def test_mutated_texts(case):
    ext, text = case
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        with open(os.path.join(tmp, f"x.{ext}"), "wb") as fh:
            fh.write(text.encode("utf-8"))
        if ext == "rcp":
            run_in(tmp, ["pipeline", "x.rcp", "--out-dir", "out"])
            return
        code, _ = run_in(tmp, ["report", f"x.{ext}"])
    parse, serialize = FORMATS[ext]
    try:
        value = parse(text)
    except FormatError:
        assert code == 2
        return
    assert code == 0
    assert serialize(value) == text
    assert parse(serialize(value)) == value


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(mutated_argv())
def test_mutated_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        run_in(tmp, argv)


def canonical_certificate(text: str) -> str | None:
    """certificate(*header).serialize() for the header of ``text``, or None
    when the text does not parse or its header is refused."""
    try:
        h = parse_certificate(text)
        return certificate(h.girth, h.p, h.m, h.n, h.r).serialize()
    except (FormatError, PreconditionError):
        return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_certificate())
def test_mutated_certificates(text):
    try:
        rebuilt = reverify_certificate(text)
    except (FormatError, VerificationError, ResourceBudgetError):
        assert text != canonical_certificate(text)
    else:
        assert text == canonical_certificate(text) == rebuilt.serialize()
