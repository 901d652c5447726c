"""Property tests for the exact power comparison ``arith.power_at_least``,
and the rendering of ``arith.short_decimal``.

Each answer is compared with ``n**a >= base**b`` expanded in full.  The
explicit points sit right next to ties, where the top-bit brackets cannot
separate: the exact fallback (a == 1 after dividing out gcd(a, b)) and the
precision escalation (a > 1) both run there.  Every point is also asked as
a ``Decimal``: read whole, and cut to its leading digits.

``short_decimal`` is compared with a rendering from the full ``str``
conversion, and must never convert a value of more than 52 digits whole.
``int_digits10``, which settles its count with ``power_at_least`` at base
10, is compared with ``len(str(value))``, and ``int_to_decimal`` and
``parse_decimal_int`` with ``str`` and ``int``, on both sides of every
length where their method or CPython's changes.  A library call given an integer
past CPython's 4300-digit ``str()`` limit fails as it does on one below it,
with a short message.
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, Inexact, InvalidOperation, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hypergirth import (
    BergeCycle,
    BipartiteCycle,
    BipartiteGraph,
    Error,
    Hypergraph,
    arith,
    certificate,
    girth_oracle,
    greedy_high_girth_bipartite,
    loose_path,
    pad_vertices,
    parse_bipartite,
    parse_certificate,
    parse_hypergraph,
    parse_recipe,
    plan,
    projective_plane,
    reverify_certificate,
    split_cayley_hexagon,
    split_edges,
    substitute_edges,
    symplectic_quadrangle,
    theorem_bound,
)
from hypergirth.arith import power_at_least
from hypergirth.errors import PreconditionError, ResourceBudgetError, VerificationError
from hypergirth.planner import ROUTES

BASES = (2, 3, 5, 7)


def iroot(x: int, a: int) -> int:
    """floor(x ** (1/a)) for x >= 1, by integer Newton steps from above."""
    y = 1 << (x.bit_length() // a + 1)
    while True:
        z = ((a - 1) * y + x // y ** (a - 1)) // a
        if z >= y:
            return y
        y = z


@st.composite
def near_ties(draw):
    """(n, a, base, b) with n within 2 of the a-th root of base**b, which
    has up to 200 bits per bit of base."""
    base, a = draw(st.sampled_from(BASES)), draw(st.integers(1, 8))
    b = draw(st.integers(1, 200 * a))
    n = iroot(base**b, a) + draw(st.integers(-2, 2))
    return max(n, 2), a, base, b


@st.composite
def small(draw):
    base, a, b = draw(st.sampled_from(BASES)), draw(st.integers(1, 12)), draw(st.integers(1, 400))
    return draw(st.integers(2, 2**200)), a, base, b


def by_form(n: int, a: int, base: int, b: int) -> dict[str, bool]:
    """power_at_least(n, a, base, b) with n as an int, as a Decimal (read
    whole up to arith._WHOLE digits) and as a Decimal cut to its leading
    digits whatever its length (arith._WHOLE at 0)."""
    answers = {"int": power_at_least(n, a, base, b), "Decimal": power_at_least(Decimal(n), a, base, b)}
    with mock.patch.object(arith, "_WHOLE", 0):
        answers["Decimal cut"] = power_at_least(Decimal(n), a, base, b)
    return answers


def every_form(answer: bool) -> dict[str, bool]:
    return dict.fromkeys(("int", "Decimal", "Decimal cut"), answer)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.one_of(small(), near_ties()))
def test_matches_full_expansion(case):
    n, a, base, b = case
    assert by_form(n, a, base, b) == every_form(n**a >= base**b)


# (base, k, a, b): n = base**k + d for d in (-1, 0, 1); b is a*k or next to it.
TIES = [
    (2, 300, 1, 300),  # a == 1, base 2: the brackets of base**b are exact
    (3, 200, 1, 200),
    (5, 150, 1, 149),
    (7, 120, 1, 121),
    (3, 100, 2, 200),  # gcd(a, b) = a: reduces to the a == 1 case
    (5, 70, 3, 210),
    (7, 60, 8, 480),
    (3, 200, 2, 399),  # a does not divide b: a strict inequality
    (5, 100, 2, 201),
    (2, 150, 9, 1351),
    (7, 80, 8, 639),
]


@pytest.mark.parametrize("base,k,a,b", TIES)
@pytest.mark.parametrize("d", (-1, 0, 1))
def test_next_to_ties(base, k, a, b, d):
    n = base**k + d
    assert by_form(n, a, base, b) == every_form(n**a >= base**b)


@pytest.mark.parametrize("a,b", [(3, 392), (3, 394), (8, 1047)])
def test_next_to_a_root_of_a_power_of_two(a, b):
    # The root has over 128 bits, so n is cut to its top bits, and base 2
    # brackets exactly: n's brackets alone must keep n**a on the right side.
    n = iroot(2**b, a)
    assert by_form(n, a, 2, b) == every_form(False) and by_form(n + 1, a, 2, b) == every_form(True)


def decimal_cases() -> list[tuple[int, int, int, int]]:
    """(n, a, base, b) next to the ties a Decimal's bracket meets: n of 60
    to 1200 digits whose leading digits are all 9s, so that t + 1 gains a
    digit, or that is a power of ten, so that the cut digits are all zeros,
    or one off one; base**b is the power of base next below or above n**a."""
    cases = []
    for digits in (60, 700, 1200):
        ten = 10**digits
        nines = (10**45 - 1) * 10 ** (digits - 45)
        for n in (ten - 1, ten, ten + 1, nines, nines + 1, nines + 10 ** (digits - 46)):
            for base, a in ((2, 1), (3, 2), (7, 3)):
                b = int(a * n.bit_length() / math.log2(base))
                while base**b > n**a:
                    b -= 1
                while base ** (b + 1) <= n**a:
                    b += 1
                cases += [(n, a, base, b), (n, a, base, b + 1)]
    return cases


@pytest.mark.parametrize("case", decimal_cases(), ids=lambda c: f"{len(str(c[0]))}digits-{c[0] % 1000}-{c[1:]}")
def test_decimal_next_to_its_cut(case):
    n, a, base, b = case
    with unlimited_str():
        assert by_form(n, a, base, b) == every_form(n**a >= base**b)


@pytest.mark.parametrize("base,b", [(2, 3000), (3, 1500), (5, 1000), (7, 800)])
@pytest.mark.parametrize("d", (-1, 0, 1))
def test_decimal_at_an_integer_tie(base, b, d):
    # a == 1 and n, of over 600 digits, within 1 of base**b: the exact
    # fallback compares Decimals.
    n = base**b + d
    assert by_form(n, 1, base, b) == every_form(d >= 0)


@pytest.mark.parametrize("cut", (1, 2, 20, 600, 5000))
@pytest.mark.parametrize("prec", (128, 512, 2048))
def test_decimal_bracket_holds_n(cut, prec):
    # lo <= n <= hi for random digits, all 9s, a power of ten and trailing
    # zeros, with `cut` digits past the prec * log10(2) + 2 that are kept;
    # the mantissas keep to about prec bits.
    digits = prec * 30103 // 100000 + 2 + cut
    rng = random.Random(digits * prec)
    with unlimited_str():
        values = [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(20)]
        nines = min(45, digits)
        values += [10**digits - 1, 10 ** (digits - 1), 7 * 10 ** (digits - 1), (10**nines - 1) * 10 ** (digits - nines)]
        for value in values:
            (lo, e_lo), (hi, e_hi) = arith._bracket(Decimal(value), prec)
            assert lo << e_lo <= value <= hi << e_hi, value
            assert max(lo.bit_length(), hi.bit_length()) <= prec + 1


def precisions(monkeypatch, n: int, a: int, base: int, b: int) -> set[int]:
    """The precisions the brackets were computed at, checking the answer."""
    seen = set()
    original = arith._pow_bound

    def spy(m, k, prec, up):
        seen.add(prec)
        return original(m, k, prec, up)

    monkeypatch.setattr(arith, "_pow_bound", spy)
    assert power_at_least(n, a, base, b) == (n**a >= base**b)
    return seen


@pytest.mark.parametrize("d", (0, 1))
def test_precision_escalates_near_an_irrational_tie(monkeypatch, d):
    # sqrt(3**401) is irrational, and its floor agrees with it in every one
    # of the ~318 bits, so the 128-bit brackets cannot decide.
    n = iroot(3**401, 2) + d
    assert max(precisions(monkeypatch, n, 2, 3, 401)) > 128


@pytest.mark.parametrize("d", (-1, 0, 1))
def test_fallback_decides_an_integer_tie(monkeypatch, d):
    # a == 1 and n within 1 of 5**200: the brackets never separate, and one
    # exact comparison settles it at the first precision.
    assert precisions(monkeypatch, 5**200 + d, 1, 5, 200) == {128}


def str_short_decimal(value: int) -> str:
    """short_decimal as rendered from the full conversion."""
    text = arith.int_to_decimal(value)
    return text if len(text) <= 52 else f"{text[:40]}...({len(text)} digits)"


_rng = random.Random(20261018)
SHORT_VALUES = (
    [0, 1, 9, 10**51, 10**52 - 1, 10**52, 10**53 - 1, 10**53, 2**4000, 3**5000, 2**172 - 1, 2**172, 2**173]
    + [10**k - d for k in (1, 40, 41, 52, 53, 54, 100, 1000, 5000) for d in (0, 1)]
    + [_rng.randrange(10**51, 10**52) for _ in range(5)]
    + [_rng.randrange(10**52, 10**53) for _ in range(5)]
    + [_rng.getrandbits(_rng.randint(1, 20000)) for _ in range(40)]
)


@pytest.mark.parametrize("value", SHORT_VALUES, ids=lambda v: f"{arith.int_digits10(v)}digits-{v % 1000}")
def test_short_decimal_matches_the_full_conversion(value):
    assert arith.short_decimal(value) == str_short_decimal(value)


def test_short_decimal_converts_only_short_values(monkeypatch):
    original = arith.int_to_decimal

    def guarded(value):
        assert value < 10**52, "short_decimal converted a value of more than 52 digits"
        return original(value)

    monkeypatch.setattr(arith, "int_to_decimal", guarded)
    assert arith.short_decimal(10**52 - 1) == "9" * 52
    assert arith.short_decimal(10**52) == "1" + "0" * 39 + "...(53 digits)"
    assert arith.short_decimal(10**200000 - 1) == "9" * 40 + "...(200000 digits)"
    value = _rng.getrandbits(300000)
    assert arith.short_decimal(value).endswith(f"...({arith.int_digits10(value)} digits)")


@pytest.mark.parametrize("value", SHORT_VALUES, ids=lambda v: f"{arith.int_digits10(v)}digits-{v % 1000}")
def test_short_decimal_shortens_a_negative_int_like_a_positive_one(value):
    expected = arith.short_decimal(value) if value == 0 else "-" + arith.short_decimal(value)
    assert arith.short_decimal(-value) == expected


# Each call with an integer of `size` in a bad place; below the str() limit
# every one of them already failed with a package error and a short message.
BAD_INTEGER_CALLS = {
    "certificate-p": lambda size: certificate(6, size, 2, 1, 3),
    "certificate-m": lambda size: certificate(8, 2, size, 1, 3),
    "certificate-negative-m": lambda size: certificate(6, 5, -size, 1, 3),
    "route-require-n": lambda size: ROUTES[6].require(5, 3, -size),
    "route-order-m": lambda size: ROUTES[8].order(2, size, 1),
    "theorem-bound-p": lambda size: theorem_bound(6, size, 10**6),
    "theorem-bound-N": lambda size: theorem_bound(6, 5, -size),
    "hypergraph-vertices": lambda size: Hypergraph(-size, ()),
    "power-base": lambda size: arith.PowerExpr(-size, 1),
    "oracle-max-len": lambda size: girth_oracle(Hypergraph(3, ((0, 1, 2),)), -size),
    "split-r": lambda size: split_edges(Hypergraph(3, ((0, 1, 2),)), -size),
}


def outcome(call, size: int) -> tuple[type, list[str]]:
    """The error class and message of call(size), or the certificate type
    and its check statements when it returns an INVALID certificate, which
    re-verifies from its serialized text."""
    try:
        cert = call(size)
    except Error as exc:
        return type(exc), [str(exc)]
    assert not cert.valid and reverify_certificate(cert.serialize()) == cert
    return type(cert), [check.statement for check in cert.checks]


@pytest.mark.parametrize("name", BAD_INTEGER_CALLS)
def test_an_integer_past_the_str_limit_fails_as_below_it(name):
    call = BAD_INTEGER_CALLS[name]
    below, _ = outcome(call, 10**60)
    past, past_texts = outcome(call, 10**5000)
    assert past is below
    assert max(map(len, past_texts)) < 200, past_texts


# Library calls with a value that is not an int where an int belongs, or
# not a str where a text belongs: each is refused with a PreconditionError
# and a short message, before any arithmetic on the value.
HUGE_TUPLE = (10**5000,)
SHOWN_HUGE_TUPLE = "(" + "1" + "0" * 39 + "...(5001 digits),)"
TRIANGLE = Hypergraph(3, ((0, 1, 2),))
NOT_AN_INT_CALLS = {
    "theorem-bound-float-p": (lambda: theorem_bound(6, 2.5, 10**10), "girth-6 bound needs a prime p, got 2.5"),
    "theorem-bound-tuple-p": (
        lambda: theorem_bound(6, HUGE_TUPLE, 10**10), f"girth-6 bound needs a prime p, got {SHOWN_HUGE_TUPLE}"),
    "theorem-bound-bool-p": (lambda: theorem_bound(6, True, 10**10), "girth-6 bound needs a prime p, got True"),
    "theorem-bound-tuple-N": (
        lambda: theorem_bound(8, None, HUGE_TUPLE), f"N must be an integer >= 2, got {SHOWN_HUGE_TUPLE}"),
    "theorem-bound-float-N": (lambda: theorem_bound(6, 5, 10.0**10), "N must be an integer >= 2, got 10000000000.0"),
    "certificate-tuple-m": (
        lambda: certificate(6, 5, HUGE_TUPLE, 4, 3), f"m must be a positive integer, got {SHOWN_HUGE_TUPLE}"),
    "certificate-tuple-p-girth-8": (
        lambda: certificate(8, HUGE_TUPLE, 5, 4, 3), f"girth-8 certificate has base 2, got p = {SHOWN_HUGE_TUPLE}"),
    # a girth that is not an int, refused before the route lookup; 6.0 and
    # Decimal(6) hash like 6, so the lookup alone would take them as 6
    **{f"{entry}-girth-{label}": (lambda call=call, girth=girth: call(girth), f"girth must be an integer, got {shown}")
       for entry, call in (("plan", lambda g: plan(g, 5, 3, 10**10)),
                           ("certificate", lambda g: certificate(g, 5, 2, 2, 3)),
                           ("theorem-bound", lambda g: theorem_bound(g, 5, 10**20)))
       for label, girth, shown in (("float", 2.0, "2.0"), ("none", None, "None"), ("list", [1], "[1]"),
                                   ("decimal", Decimal(6), "Decimal('6')"))},
    "plan-float-p": (lambda: plan(6, 2.5, 3, 10**10), "p must be an integer, got 2.5"),
    "plan-float-N": (lambda: plan(6, 5, 3, 10.0**10), "N must be an integer, got 10000000000.0"),
    "plan-float-r": (lambda: plan(6, 5, 3.0, 10**10), "r must be an integer, got 3.0"),
    "plan-str-N": (lambda: plan(8, None, 3, "1000"), "N must be an integer, got '1000'"),
    "route-plan-tuple-p": (
        lambda: ROUTES[6].plan(HUGE_TUPLE, 3, 10**10), f"p must be an integer, got {SHOWN_HUGE_TUPLE}"),
    "power-tuple-base": (
        lambda: arith.PowerExpr(HUGE_TUPLE, Fraction(1)),
        f"PowerExpr base must be an integer >= 2, got {SHOWN_HUGE_TUPLE}"),
    "loose-path-str-edges": (lambda: loose_path("3"), "num_edges must be an integer, got '3'"),
    "loose-path-float-edges": (lambda: loose_path(2.5), "num_edges must be an integer, got 2.5"),
    "loose-path-float-r": (lambda: loose_path(3, 3.0), "r must be an integer, got 3.0"),
    "split-str-r": (lambda: split_edges(TRIANGLE, "2"), "r must be an integer, got '2'"),
    "split-float-r": (lambda: split_edges(TRIANGLE, 2.5), "r must be an integer, got 2.5"),
    "substitution-str-copies": (
        lambda: substitute_edges(TRIANGLE, TRIANGLE, "2"), "copies_per_edge must be an integer, got '2'"),
    "substitution-float-copies": (
        lambda: substitute_edges(TRIANGLE, TRIANGLE, 1.5), "copies_per_edge must be an integer, got 1.5"),
    "pad-str-to": (lambda: pad_vertices(TRIANGLE, "9"), "to must be an integer, got '9'"),
    "plane-str-q": (lambda: projective_plane("3"), "q must be an integer, got '3'"),
    "plane-float-q": (lambda: projective_plane(3.0), "q must be an integer, got 3.0"),
    "quadrangle-float-q": (lambda: symplectic_quadrangle(3.0), "q must be an integer, got 3.0"),
    "hexagon-str-q": (lambda: split_cayley_hexagon("3"), "q must be an integer, got '3'"),
    "greedy-str-n-left": (
        lambda: greedy_high_girth_bipartite("5", 5, 2, 6, 1), "n_left must be an integer, got '5'"),
    "greedy-float-girth": (
        lambda: greedy_high_girth_bipartite(5, 5, 2, 6.0, 1), "target_girth must be an integer, got 6.0"),
    "greedy-float-degree": (
        lambda: greedy_high_girth_bipartite(5, 5, 2.5, 6, 1), "right_degree must be an integer, got 2.5"),
    "route-seed-str-r": (lambda: ROUTES[6].seed(5, "3"), "r must be an integer, got '3'"),
    "route-seed-float-r": (lambda: ROUTES[6].seed(5, 2.5), "r must be an integer, got 2.5"),
    "route-order-float-n": (lambda: ROUTES[6].order(5, 2, 2.0), "n must be an integer, got 2.0"),
    "route-order-float-m": (lambda: ROUTES[6].order(5, 2.0, 2), "m must be an integer, got 2.0"),
    "route-edge-bound-float-n": (lambda: ROUTES[6].edge_bound(5, 2, 2.0), "n must be an integer, got 2.0"),
    "route-require-none-n": (lambda: ROUTES[6].require(5, 2, None), "n must be an integer, got None"),
    "route-exponents-none-m": (lambda: ROUTES[6].exponent(None, 1), "m must be an integer, got None"),
    "route-v-none-q": (lambda: ROUTES[6].v(None), "q must be an integer, got None"),
    "route-v-float-q": (lambda: ROUTES[6].v(2.5), "q must be an integer, got 2.5"),
    "route-substrate-float-q": (lambda: ROUTES[6].substrate(2.0), "q must be an integer, got 2.0"),
    "route-substrate-fraction-q": (lambda: ROUTES[8].substrate(Fraction(2)), "q must be an integer, got Fraction(2, 1)"),
    "route-premise-check-float-p": (
        lambda: ROUTES[6].premise_check(ROUTES[6].premises[0], 2.5, 3), "p must be an integer, got 2.5"),
    "route-premise-check-decimal-p": (
        lambda: ROUTES[6].premise_check(ROUTES[6].premises[1], Decimal(5), 3), "p must be an integer, got Decimal('5')"),
    "route-premise-check-none-m": (
        lambda: ROUTES[8].premise_check(ROUTES[8].premises[0], 2, None), "m must be an integer, got None"),
    "route-premise-check-str-m": (
        lambda: ROUTES[8].premise_check(ROUTES[8].premises[1], 2, "5"), "m must be an integer, got '5'"),
    "is-prime-float": (lambda: arith.is_prime(2.5), "n must be an integer, got 2.5"),
    "is-prime-none": (lambda: arith.is_prime(None), "n must be an integer, got None"),
    "power-none-exponent": (
        lambda: arith.PowerExpr(2, None), "PowerExpr exponent must be an int or a Fraction, got None"),
    # the text parsers, each refused by the one check in formats.split_lines
    "parse-hypergraph-bytes": (lambda: parse_hypergraph(b"hgt 1\n"), "text must be a str, got b'hgt 1\\n'"),
    "parse-hypergraph-none": (lambda: parse_hypergraph(None), "text must be a str, got None"),
    "parse-bipartite-int": (lambda: parse_bipartite(5), "text must be a str, got 5"),
    "parse-certificate-long-bytes": (
        lambda: parse_certificate(b"x" * 10**6), f"text must be a str, got {b'x' * 40!r}"),
    "parse-recipe-list": (lambda: parse_recipe(["rcp 1"]), "text must be a str, got ['rcp 1']"),
}


@pytest.mark.parametrize("name", NOT_AN_INT_CALLS)
def test_a_value_that_is_not_an_int_is_refused(name):
    call, message = NOT_AN_INT_CALLS[name]
    with pytest.raises(PreconditionError) as exc:
        call()
    assert str(exc.value) == message


# An int past the str() limit where a message shows it: each is shown
# shortened in the package's own error, never as a bare ValueError.
SHOWN_HUGE = "1" + "0" * 39 + "...(5001 digits)"
HUGE_INT_MESSAGES = {
    "plan-r": (lambda: plan(6, 5, -10**5000, 10**10), PreconditionError, f"r must be >= 2, got -{SHOWN_HUGE}"),
    "pad-vertices": (lambda: pad_vertices(Hypergraph(3, ((0, 1, 2),)), -10**5000), PreconditionError,
                     f"cannot pad down: 3 vertices > target -{SHOWN_HUGE}"),
    "bipartite-cycle-id": (
        lambda: BipartiteCycle((("l", 10**5000), ("r", 0), ("l", 1), ("r", 1))).check(
            BipartiteGraph.from_incidences(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])),
        VerificationError, f"cycle step 0: ({SHOWN_HUGE}, 0) is not an incidence"),
    "berge-cycle-edge-index": (lambda: BergeCycle((0, 1), (10**5000, 0)).check(Hypergraph(3, ((0, 1, 2),))),
                               VerificationError, f"edge index {SHOWN_HUGE} out of range"),
    "berge-cycle-vertex": (lambda: BergeCycle((10**5000, 1), (0, 1)).check(Hypergraph(3, ((0, 1, 2),))),
                           VerificationError, f"cycle step 0: edge 0 does not contain both {SHOWN_HUGE} and 1"),
}


@pytest.mark.parametrize("name", HUGE_INT_MESSAGES)
def test_a_huge_int_is_shown_shortened(name):
    call, error, message = HUGE_INT_MESSAGES[name]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("least, value, message", [
    (1, 0, "x must be a positive integer, got 0"),
    (1, 2.0, "x must be a positive integer, got 2.0"),
    (1, False, "x must be a positive integer, got False"),
    (2, 1, "x must be >= 2, got 1"),
    (2, -10**60, "x must be >= 2, got -" + "1" + "0" * 39 + "...(61 digits)"),
    (2, "3", "x must be an integer >= 2, got '3'"),
    (2, None, "x must be an integer >= 2, got None"),
    (None, 2.0, "x must be an integer, got 2.0"),
    (None, "3", "x must be an integer, got '3'"),
])
def test_int_args_names_the_first_bad_value(least, value, message):
    arith.int_args(least, x=2, y=3)
    with pytest.raises(PreconditionError) as exc:
        arith.int_args(least, w=5, x=value, y=None)
    assert str(exc.value) == message


SHOWN_BY_REPR = [0, -5, 10**51 + 7, True, False, None, 2.5, float("nan"), "x", b"y", (), (1,), (1, "a", 2.5), [1, [2]],
                 set(), {3}, frozenset(), frozenset({4}), {"k": 1}, Fraction(1, 3), Decimal("1.5")]


@pytest.mark.parametrize("value", SHOWN_BY_REPR, ids=repr)
def test_short_value_shows_a_short_value_by_repr(value):
    expected = arith.short_decimal(value) if type(value) is int else repr(value)
    assert arith.short_value(value) == expected


_rng_digits = random.Random(17)
DIGIT_COUNT_VALUES = (
    list(range(0, 10))
    + [10**k + d for k in range(1, 400) for d in (-1, 0, 1)]
    + [2**k + d for k in range(1, 3000) for d in (-1, 0)]
    + [10**k + d for k in (5000, 30103, 100000) for d in (-1, 0, 1)]
    + [_rng_digits.getrandbits(_rng_digits.randint(1, 40000)) for _ in range(300)]
)


def test_int_digits10_matches_str():
    for value in DIGIT_COUNT_VALUES:
        assert arith.int_digits10(value) == len(arith.int_to_decimal(value)), value


@pytest.mark.parametrize("base,degree", [(2, 1), (2, 11), (5, 8), (2**61 - 1, 10)])
def test_check_expansion_refuses_exactly_past_the_budget(base, degree):
    # Around the last admitted exponent, where the bit-length bound refuses
    # and the exact digit count decides.
    near = int(arith.DIGIT_BUDGET // degree / math.log10(base))
    refused = []
    for exponent in range(near - 3, near + 4):
        digits = arith.int_digits10(base, exponent) * degree
        refused.append(digits > arith.DIGIT_BUDGET)
        if not refused[-1]:
            arith.check_expansion(base, exponent, degree, "x")
        else:
            with pytest.raises(ResourceBudgetError, match=f"^check x: a ~{digits}-digit expansion exceeds "):
                arith.check_expansion(base, exponent, degree, "x")
    assert refused[0] is False and refused[-1] is True


def test_int_digits10_of_a_power_matches_str():
    # The float count is one low at 10^512, 10^1024 and 10^2048, one high at
    # 10^k - 1 from k = 15 on; the power itself is never raised.
    cases = [(10**k + d, 1) for k in (15, 16, 40, 512, 1024, 2048) for d in (-1, 0)]
    cases += [(10, e) for e in (1, 15, 512)] + [(100, 256), (10**8, 64)]
    cases += [(b, e) for b in (2, 3, 5, 7, 11, 1000, 2**61 - 1) for e in (1, 2, 3, 10, 97, 1000, 4321)]
    for base, exponent in cases:
        assert arith.int_digits10(base, exponent) == len(arith.int_to_decimal(base**exponent)), (base, exponent)


@contextmanager
def unlimited_str():
    """CPython's int/str digit limit lifted for the duration, so that the
    tests' own str() and int() can produce the expected texts."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_rng_conv = random.Random(25)
# Lengths on either side of the 640-digit halving leaf, of 2048 digits and
# of the 4300-digit str() limit, then long values.
CONVERSION_VALUES = (
    [0, 1, 9]
    + [10**k - d for k in (1, 639, 640, 641, 1280, 1281, 2047, 2048, 2049, 4299, 4300, 4301, 10**4, 10**5)
       for d in (0, 1)]
    + [2**k for k in (1, 64, 2126, 2127, 6803, 14284, 14287, 33220)]
    + [_rng_conv.getrandbits(_rng_conv.randint(1, 70000)) for _ in range(30)]
)


@pytest.mark.parametrize("value", CONVERSION_VALUES, ids=lambda v: f"{arith.int_digits10(v)}digits-{v % 1000}")
def test_conversions_match_str_and_int(value):
    with unlimited_str():
        text = str(value)
        assert int(text) == value
    assert arith.int_to_decimal(value) == text
    assert arith.int_to_decimal(-value) == ("-" + text if value else text)
    assert arith.parse_decimal_int(text) == value
    assert arith.parse_decimal_int(arith.int_to_decimal(value)) == value


def test_conversions_leave_the_digit_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the process-wide int/str digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    value = 7**20000  # 16 902 digits, past the default 4300-digit limit
    text = arith.int_to_decimal(value)
    assert len(text) == 16902 and arith.parse_decimal_int(text) == value


def test_conversions_under_the_lowest_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        value = 3**20000
        assert arith.parse_decimal_int(arith.int_to_decimal(value)) == value
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_context_refuses_to_round():
    with localcontext(arith.EXACT):
        assert Decimal(7) ** 20000 + 1 == Decimal(7**20000 + 1)
        with pytest.raises(Inexact):
            Decimal("2.5").to_integral_exact()
        with pytest.raises(InvalidOperation):
            Decimal("Infinity") - Decimal("Infinity")


# int_to_decimal converts a value of up to LEAF bits whole and splits a
# longer one at its bit halves; 10^616 < 2^LEAF < 10^617 < 10^1233 < 2^(2 LEAF) < 10^1234.
LEAF = arith._DECIMAL_LEAF
HALVING_VALUES = [
    base**k + d
    for base, ks in ((2, (LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 40000)),
                     (10, (616, 617, 1233, 1234, 10**4)))
    for k in ks
    for d in (-1, 0, 1)
]


@pytest.mark.parametrize("value", HALVING_VALUES, ids=lambda v: f"{v.bit_length()}bits-{v % 1000}")
def test_int_to_decimal_matches_the_decimal_conversion(value):
    assert arith.int_to_decimal(value) == str(Decimal(value))
    assert arith.int_to_decimal(-value) == str(Decimal(-value))


def test_int_to_decimal_echoes_a_long_value_quickly():
    value = 10**999_999 - 1
    start = time.monotonic()
    text = arith.int_to_decimal(value)
    assert time.monotonic() - start < 3.0
    assert text == "9" * 999_999


def refused(base: int, exponent: int) -> bool:
    try:
        arith.check_pow(base, exponent, "x")
    except ResourceBudgetError:
        return True
    return False


def test_check_pow_refuses_a_negative_exponent():
    with pytest.raises(PreconditionError) as exc:
        arith.check_pow(2, -1, "x")
    assert str(exc.value) == "x: negative exponent -1 has no integer expansion"


@pytest.mark.parametrize("digits", [1, 2, 7, 40])
def test_check_pow_refuses_exactly_the_powers_past_the_budget(monkeypatch, digits):
    monkeypatch.setattr(arith, "DIGIT_BUDGET", digits)
    limit = 10**digits
    for base in range(0, 130):
        for exponent in range(0, 140):
            assert refused(base, exponent) == (base**exponent >= limit), (digits, base, exponent)


@pytest.mark.parametrize("base", [2, 5, 9, 2**61 - 1])
def test_check_pow_admits_every_power_of_the_budget_s_digit_count(base):
    # the largest exponent whose power has DIGIT_BUDGET digits, by full expansion
    limit = 10**arith.DIGIT_BUDGET
    exponent = int(arith.DIGIT_BUDGET / math.log10(base)) + 1
    while base**exponent >= limit:
        exponent -= 1
    assert not refused(base, exponent) and refused(base, exponent + 1)


def test_check_pow_decides_clear_cases_from_bit_lengths(monkeypatch):
    refused(2, 1)  # the budget's bit bound is computed once, here

    def unexpected(*args):
        raise AssertionError("power_at_least called")

    monkeypatch.setattr(arith, "power_at_least", unexpected)
    assert not refused(5, 10**3) and not refused(9, 830482) and not refused(2**61 - 1, 54457)
    assert refused(5, 1661000) and refused(9, 1107310) and refused(10**50, 10**5)
