"""One framing rule for every line-oriented text: `.hgt`, `.bgt`,
certificates and recipes.

`formats.split_lines` and `formats.read_header` frame them all, so a
carriage return, a missing final newline, a short header, a wrong magic
line or a malformed header line is a FormatError that names the line
where it is, whichever format it is in.
"""

import pytest

from hypergirth import (
    FormatError,
    VerificationError,
    certificate,
    neighborhood_hypergraph,
    parse_bipartite,
    parse_certificate,
    parse_hypergraph,
    parse_recipe,
    projective_plane,
    reverify_certificate,
    serialize_bipartite,
    serialize_hypergraph,
)
from hypergirth.cli import main
from hypergirth.formats import load

PLANE = projective_plane(2)
TEXTS = {
    "hgt": (parse_hypergraph, serialize_hypergraph(neighborhood_hypergraph(PLANE))),
    "bgt": (parse_bipartite, serialize_bipartite(PLANE)),
    "cert": (parse_certificate, certificate(6, 5, 2, 1, 3).serialize()),
    "rcp": (parse_recipe, "rcp 1\n# a comment\ntarget 3\n\nstage gen plane q=2\n  stage nbhd\n"
                          "certify girth=6 p=5 r=3 N=3967295312526\n"),
}
CERT_TEXT = TEXTS["cert"][1]
CERT_HEADER = ("cert 1", "girth 6", "p 5", "m 2", "n 1", "r 3", "status VALID")


def refusal(parse, text: str) -> str:
    with pytest.raises(FormatError) as exc:
        parse(text)
    return str(exc.value)


def test_texts_parse():
    for parse, text in TEXTS.values():
        parse(text)
    assert CERT_TEXT.split("\n")[:7] == list(CERT_HEADER)


@pytest.mark.parametrize(
    "fmt,lineno",
    [(fmt, k) for fmt, (_, text) in TEXTS.items() for k in range(1, text.count("\n") + 1)],
)
def test_carriage_return_names_its_line(fmt, lineno):
    parse, text = TEXTS[fmt]
    lines = text.split("\n")
    lines[lineno - 1] += "\r"
    message = refusal(parse, "\n".join(lines))
    assert message == f"line {lineno}: carriage return not allowed (LF line endings only)"


@pytest.mark.parametrize("fmt", ["hgt", "bgt", "cert"])
def test_missing_final_newline_names_the_last_line(fmt):
    parse, text = TEXTS[fmt]
    assert refusal(parse, text[:-1]) == f"line {text.count(chr(10))}: missing final newline"


@pytest.mark.parametrize("kept", range(1, 7))
def test_truncated_certificate_header_names_the_first_missing_line(kept):
    text = "".join(line + "\n" for line in CERT_HEADER[:kept])
    message = refusal(parse_certificate, text)
    assert message == f"line {kept + 1}: truncated header (need magic, girth, p, m, n, r, status)"


@pytest.mark.parametrize(
    "lineno,line,message",
    [
        (1, "cert 2", "expected `cert 1`, got 'cert 2'"),
        (2, "girth  6", "expected `girth <N>`, got 'girth  6'"),
        (3, "q 5", "expected `p <N>`, got 'q 5'"),
        (6, "r 3 3", "expected `r <N>`, got 'r 3 3'"),
        (7, "status", "expected `status VALID|INVALID`, got 'status'"),
        (7, "status valid", "status must be VALID or INVALID, got 'valid'"),
        (2, "girth 06", "girth must be an integer, got '06'"),
        (5, "n x", "n must be an integer, got 'x'"),
    ],
)
def test_certificate_header_line_fault_names_its_line(lineno, line, message):
    lines = CERT_TEXT.split("\n")
    lines[lineno - 1] = line
    assert refusal(parse_certificate, "\n".join(lines)) == f"line {lineno}: {message}"


@pytest.mark.parametrize("command", ["report", "girth"])
@pytest.mark.parametrize("fmt", ["hgt", "bgt"])
def test_crlf_file_is_refused_at_line_1(tmp_path, capsys, command, fmt):
    path = tmp_path / f"crlf.{fmt}"
    path.write_bytes(TEXTS[fmt][1].replace("\n", "\r\n").encode())
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: line 1: carriage return not allowed (LF line endings only)\n"


LONG = "x" * 10**5
CUT = repr(LONG[:40])


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_hypergraph, LONG + "\nvertices 0\nedges 0\n", f"line 1: expected `hgt 1`, got {CUT}"),
        (parse_hypergraph, "hgt 1\n" + LONG + "\nedges 0\n", f"line 2: expected `vertices <N>`, got {CUT}"),
        (parse_hypergraph, f"hgt 1\nvertices {LONG}\nedges 0\n",
         f"line 2: vertices must be a canonical decimal integer, got {CUT}"),
        (parse_hypergraph, f"hgt 1\nvertices 3\nedges 1\n{LONG}\n", f"line 4: expected `e <v1> <v2> ...`, got {CUT}"),
        (parse_hypergraph, f"hgt 1\nvertices 3\nedges 1\ne 1{LONG}\n",
         f"line 4: vertex id must be a canonical decimal integer, got {repr(('1' + LONG)[:40])}"),
        (parse_bipartite, f"bgt 1\nleft 1\nright 1\n{LONG}\n", f"line 4: expected `a <u> <v>`, got {CUT}"),
        (parse_certificate, CERT_TEXT + LONG + "\n",
         f"line {CERT_TEXT.count(chr(10)) + 1}: expected a check or value line, got {CUT}"),
        (parse_recipe, LONG + "\n", f"line 1: expected `rcp 1` header, got {CUT}"),
        (parse_recipe, f"rcp 1\n{LONG}\n", f"line 2: unknown directive {CUT}"),
        (parse_recipe, f"rcp 1\nstage {LONG}\n", f"line 2: unknown stage op {CUT}"),
        (parse_recipe, f"rcp 1\nstage nbhd {LONG}\n", f"line 2: expected key=value, got {CUT}"),
        (parse_recipe, f"rcp 1\nstage nbhd {LONG}=1 {LONG}=2\n", f"line 2: key {CUT} given twice"),
    ],
    ids=["hgt-magic", "hgt-header", "hgt-header-int", "hgt-edge", "hgt-vertex", "bgt-incidence", "cert-body",
         "rcp-magic", "rcp-directive", "rcp-op", "rcp-kv", "rcp-key-twice"],
)
def test_long_line_is_quoted_by_its_first_40_characters(parse, text, message):
    assert refusal(parse, text) == message


def test_load_quotes_a_long_magic_line_by_its_first_40_characters(tmp_path):
    path = tmp_path / "long.hgt"
    path.write_text(LONG + "\n")
    with pytest.raises(FormatError) as exc:
        load(str(path))
    assert str(exc.value) == f"line 1: unknown magic {CUT} (expected `hgt 1` or `bgt 1`)"


def test_reverify_names_the_line_and_column_of_a_tamper():
    text = certificate(6, 5, 2, 4, 3).serialize()
    lines = text.split("\n")
    lineno = max(range(len(lines)), key=lambda k: len(lines[k])) + 1
    line = lines[lineno - 1]
    column = len(line) - 5
    flipped = "1" if line[column - 1] != "1" else "2"
    lines[lineno - 1] = line[: column - 1] + flipped + line[column:]
    with pytest.raises(VerificationError) as exc:
        reverify_certificate("\n".join(lines))
    message = str(exc.value)
    assert message == (
        f"certificate does not re-verify: line {lineno} column {column}: "
        f"got {repr(lines[lineno - 1][:40])}, recomputed {repr(line[:40])}"
    )
    assert len(line) > 10**4 and len(message) < 200
