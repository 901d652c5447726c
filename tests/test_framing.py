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
    certificate,
    neighborhood_hypergraph,
    parse_bipartite,
    parse_certificate,
    parse_hypergraph,
    parse_recipe,
    projective_plane,
    serialize_bipartite,
    serialize_hypergraph,
)

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
        (2, "girth 06", "girth: not a canonical decimal integer: '06'"),
        (5, "n x", "n: not a canonical decimal integer: 'x'"),
    ],
)
def test_certificate_header_line_fault_names_its_line(lineno, line, message):
    lines = CERT_TEXT.split("\n")
    lines[lineno - 1] = line
    assert refusal(parse_certificate, "\n".join(lines)) == f"line {lineno}: {message}"
