import importlib
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hypergirth import (
    FormatError,
    PreconditionError,
    ResourceBudgetError,
    VerificationError,
    certificate,
    parse_certificate,
    reverify_certificate,
)
from hypergirth import arith


@pytest.fixture(scope="module")
def hex_cert():
    return certificate(6, 5, 2, 2, 3)


@pytest.fixture(scope="module")
def oct_cert():
    return certificate(8, None, 5, 2, 3)


class TestHexagonCertificate:
    def test_valid(self, hex_cert):
        assert hex_cert.valid
        names = [c.name for c in hex_cert.checks]
        assert names == [
            "p-prime",
            "seed-size",
            "r-range",
            "order-closed-form-1",
            "order-closed-form-2",
            "copy-count-2",
            "vertex-growth-1",
            "vertex-growth-2",
            "edge-bound",
            "split-factor",
        ]

    def test_values(self, hex_cert):
        vals = dict(hex_cert.values)
        assert vals["order_1"] == "5^2"
        assert vals["order_2"] == "5^19"
        assert vals["edge_bound"] == "5^231"
        assert vals["v_1"] == str((1 + 25) * (1 + 25**4 + 25**8))
        # exact recurrence: edges = (p-1) * b(q1) * b(q2), final = split * edges
        assert int(vals["edges"]) == 4 * int(vals["b_1"]) * int(vals["b_2"])
        assert int(vals["split_factor"]) == (1 + 5**2) // 3 == 8
        assert int(vals["final_edges"]) == 8 * int(vals["edges"])
        assert vals["vertices"] == vals["v_2"]

    def test_edge_bound_is_real_bignum_comparison(self, hex_cert):
        vals = dict(hex_cert.values)
        assert int(vals["edges"]) ** 64 >= 5 ** (64 * 231)

    def test_methods(self, hex_cert):
        methods = {c.name: c.method for c in hex_cert.checks}
        assert methods["order-closed-form-1"] == "exponent-exact"
        assert methods["edge-bound"] == "bignum"

    def test_invalid_assumption(self):
        cert = certificate(6, 5, 1, 1, 3)
        assert not cert.valid
        failed = [c.name for c in cert.checks if not c.passed]
        assert failed == ["seed-size"]

    def test_invalid_r(self):
        cert = certificate(6, 5, 2, 1, 100)
        assert not cert.valid
        assert [c.name for c in cert.checks if not c.passed] == ["r-range"]

    @pytest.mark.parametrize("girth,p,m", [(6, 5, 2), (8, None, 5)])
    def test_r_range_ends(self, girth, p, m):
        # 2 <= r <= 1 + p^m: each end passes and one step past it fails.
        top = 1 + (p or 2) ** m
        for r, valid in ((1, False), (2, True), (top, True), (top + 1, False)):
            cert = certificate(girth, p, m, 1, r)
            assert [c.name for c in cert.checks if not c.passed] == ([] if valid else ["r-range"])

    @pytest.mark.parametrize("girth,p", [(6, 2), (6, 3), (6, 5), (8, None)])
    def test_r_range_is_decided_unexpanded(self, girth, p):
        # The row decides r - 1 <= p^m by power_at_least, never raising p^m;
        # p^m = 2 at p = 2, m = 1 sets the top end r = 3 apart from r = 4.
        for m in (1, 2, 3):
            top = 1 + (p or 2) ** m
            for r in range(1, top + 3):
                row = next(c for c in certificate(girth, p, m, 1, r).checks if c.name == "r-range")
                assert row.passed == (2 <= r <= top), (m, r)

    def test_nonprime_p(self):
        cert = certificate(6, 6, 2, 1, 3)
        assert not cert.valid
        assert not cert.checks[0].passed

    def test_malformed_arguments_raise(self):
        with pytest.raises(PreconditionError):
            certificate(6, 5, 2, 0, 3)
        with pytest.raises(PreconditionError):
            certificate(7, 5, 2, 1, 3)
        with pytest.raises(PreconditionError):
            certificate(6, None, 2, 1, 3)


class TestOctagonCertificate:
    def test_valid(self, oct_cert):
        assert oct_cert.valid
        vals = dict(oct_cert.values)
        assert vals["order_1"] == "2^5"
        assert vals["order_2"] == "2^51"
        assert vals["edge_bound"] == "2^616"
        assert int(vals["edges"]) == int(vals["b_1"]) * int(vals["b_2"])
        assert int(vals["edges"]) ** 72 >= 2 ** (72 * 616)

    def test_even_m_invalid(self):
        cert = certificate(8, None, 6, 1, 3)
        assert not cert.valid
        assert [c.name for c in cert.checks if not c.passed] == ["m-odd"]

    def test_small_m_invalid(self):
        cert = certificate(8, 2, 3, 1, 3)
        assert not cert.valid
        assert [c.name for c in cert.checks if not c.passed] == ["m-size"]

    def test_p_must_be_two(self):
        with pytest.raises(PreconditionError, match="base 2"):
            certificate(8, 3, 5, 1, 3)


class TestSerialization:
    def test_roundtrip(self, hex_cert):
        text = hex_cert.serialize()
        assert text.startswith("cert 1\ngirth 6\np 5\nm 2\nn 2\nr 3\nstatus VALID\n")
        parsed = parse_certificate(text)
        assert parsed.valid
        assert dict(parsed.values)["edge_bound"] == "5^231"

    def test_status_line_is_status(self, hex_cert):
        invalid = certificate(6, 5, 1, 1, 3)
        assert (hex_cert.status, invalid.status) == ("VALID", "INVALID")
        assert invalid.serialize().split("\n")[6] == "status INVALID"
        assert parse_certificate(invalid.serialize()).status == "INVALID"

    def test_reverify_ok(self, hex_cert, oct_cert):
        assert reverify_certificate(hex_cert.serialize()).valid
        assert reverify_certificate(oct_cert.serialize()).valid

    def test_reverify_detects_value_tamper(self, hex_cert):
        bad = hex_cert.serialize().replace("5^231", "5^230")
        with pytest.raises(VerificationError, match="does not re-verify"):
            reverify_certificate(bad)

    def test_reverify_detects_status_tamper(self):
        cert = certificate(6, 5, 1, 1, 3)
        bad = cert.serialize().replace("status INVALID", "status VALID").replace(
            "check seed-size FAIL", "check seed-size PASS"
        )
        with pytest.raises(VerificationError):
            reverify_certificate(bad)

    def test_parse_rejects_inconsistent_status(self, hex_cert):
        bad = hex_cert.serialize().replace("status VALID", "status INVALID")
        with pytest.raises(FormatError, match="status does not match"):
            parse_certificate(bad)

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_certificate("cert 2\n")
        with pytest.raises(FormatError):
            parse_certificate("cert 1\ngirth 6\np 5\nm 2\nn 2\nr 3\nstatus VALID\njunk\n")

    @pytest.mark.parametrize(
        "old,new,line",
        [("girth 6", "girth x", 2), ("p 5", "p 05", 3), ("m 2", "m -2", 4), ("r 3", "r 3.0", 6)],
    )
    def test_parse_rejects_non_canonical_header_integer(self, hex_cert, old, new, line):
        bad = hex_cert.serialize().replace(f"\n{old}\n", f"\n{new}\n")
        with pytest.raises(FormatError, match=f"^line {line}: .*not a canonical decimal integer"):
            parse_certificate(bad)

    @pytest.mark.parametrize(
        "old,new,name",
        [("girth 6", "girth 7", "girth"), ("girth 6", "girth 8", "p"), ("m 2", "m 0", "m"),
         ("n 2", "n 0", "n"), ("r 3", "r 0", "r")],
    )
    def test_reverify_refused_header_is_verification_error(self, hex_cert, old, new, name):
        # These headers parse, but certificate() refuses them.
        bad = hex_cert.serialize().replace(f"\n{old}\n", f"\n{new}\n")
        with pytest.raises(VerificationError, match=f"^certificate does not re-verify: .*\\b{name}\\b"):
            reverify_certificate(bad)

    def test_parse_header_integer_over_digit_budget_names_its_line(self, hex_cert):
        bad = hex_cert.serialize().replace("\nm 2\n", "\nm " + "1" * (10**6 + 1) + "\n")
        with pytest.raises(ResourceBudgetError) as exc:
            parse_certificate(bad)
        assert str(exc.value) == "line 4: m: integer has 1000001 digits, budget is 1000000"

    def test_reverify_invalid_cert_roundtrips(self):
        cert = certificate(6, 5, 1, 1, 3)
        assert not reverify_certificate(cert.serialize()).valid


class TestDigitBudget:
    def test_budget_names_check(self):
        # order_6 = 11^(9^5 * 2.125 - 0.125) has ~131k digits; v_6 would need ~9 times that
        with pytest.raises(ResourceBudgetError, match="^check vertex-growth-6: "):
            certificate(6, 11, 2, 6, 3)

    def test_large_n_exceeds_default_budget(self):
        # Vertex growth expands no power, so the first value too large to
        # build is the ~1.09M-digit edge product.
        with pytest.raises(ResourceBudgetError, match="edge-bound"):
            certificate(6, 5, 2, 6, 3)

    # One count past the budget is refused before it is built: at m = 350000,
    # b_1 would have 1 158 966 digits (11 per digit of q_1), and at m = 290000,
    # final_edges 1 047 584 (the split factor's digits counted too).
    @pytest.mark.parametrize("m,name", [(350000, "vertex-growth-1"), (290000, "edge-bound")])
    def test_every_count_is_within_the_budget(self, m, name):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=f"^check {name}: "):
            certificate(6, 2, m, 1, 3)
        assert time.monotonic() - start < 2.0

    # Each order's size is checked as soon as its exponent is known, so a
    # header with a huge n is refused at the first over-budget order, not
    # after building the closed-form checks of all n orders.
    @pytest.mark.parametrize("girth,p,m,name", [(6, 5, 2, "order_8"), (8, None, 5, "order_7")])
    def test_huge_n_refused_at_first_order(self, girth, p, m, name):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=f"^check {name}: "):
            certificate(girth, p, m, 10**5, 3)
        assert time.monotonic() - start < 5.0

    # Here p^m and order_1 fit the budget but v_1 does not.  The r-range row
    # decides r - 1 <= p^m by power_at_least and the vertex-growth guard
    # reads order_1's exact digit count, so neither power is raised; the
    # refusal took 0.23 s when both were.
    @pytest.mark.parametrize("girth,p,m", [(6, 5, 1430676), (8, None, 3321927)])
    def test_over_budget_substrate_is_refused_before_any_power_is_raised(self, girth, p, m, monkeypatch):
        class Unraised(Decimal):
            def __pow__(self, other, modulo=None):
                raise AssertionError("an order was raised")

        monkeypatch.setattr(importlib.import_module("hypergirth.certificate"), "Decimal", Unraised)
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError) as exc:
            certificate(girth, p, m, 1, 3)
        assert time.perf_counter() - start < 0.05
        assert str(exc.value) == (
            "check vertex-growth-1: a ~11000000-digit expansion exceeds the digit budget 1000000")

    def test_reverify_huge_n_refused_at_first_order(self):
        text = "cert 1\ngirth 6\np 5\nm 2\nn 100000\nr 3\nstatus VALID\n"
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match="^check order_8: 5\\^10163809 needs "):
            reverify_certificate(text)
        assert time.monotonic() - start < 5.0

    def test_edge_bound_frontier(self):
        # Vertex growth and the edge bound are decided from brackets, never
        # by expanding v^den, p^E or p^e, so these fit the default budget.
        assert certificate(6, 5, 2, 5, 3).valid
        assert certificate(8, None, 5, 4, 3).valid
        assert certificate(8, None, 5, 5, 3).valid

    def test_budget_is_not_a_validity_question(self):
        # same parameters pass with the default budget
        assert certificate(6, 5, 2, 2, 3).valid


@contextmanager
def unlimited_str():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def int_values(girth: int, p: int, m: int, n: int, r: int) -> dict[str, str]:
    """Every value line, computed on ints from the paper's formulas and
    rendered with str()."""
    growth, den, low, step = (9, 8, 3, 4) if girth == 6 else (10, 9, 2, 3)
    exps = [m]
    while len(exps) < n:
        exps.append(growth * exps[-1] + 1)
    values, edges = {}, None
    for i, e in enumerate(exps, start=1):
        q = p**e
        factor = sum(q**k for k in range(0, growth, step))
        v, b = (1 + q) * factor, (1 + q**low) * factor
        values[f"order_{i}"] = f"{p}^{e}"
        values[f"v_{i}"], values[f"b_{i}"] = str(v), str(b)
        edges = b if edges is None else (p - 1) * edges * b
    split = (1 + p**m) // r
    values.update(vertices=str(v), edges=str(edges), split_factor=str(split), final_edges=str(split * edges))
    shift = Fraction(1, den)
    values["edge_bound"] = f"{p}^{Fraction(11, den) * (growth**n * (m + shift) - (n + m + shift))}"
    return values


def int_rows(girth: int, p: int, m: int, n: int, r: int) -> list[tuple[str, str, bool]]:
    """(name, statement, passed) of every copy-count, vertex-growth and
    edge-bound row, stated from the paper's formulas alone, order_i >=
    (p - 1) v_(i-1), v_i^den < p^(g^i (den m + 1)) and edges^k >= p^(k E),
    and decided by full expansion on ints."""
    growth, den, k = (9, 8, 64) if girth == 6 else (10, 9, 72)
    sym = "p" if girth == 6 else "2"
    values = int_values(girth, p, m, n, r)
    rows = []
    for i in range(2, n + 1):
        order = p ** int(values[f"order_{i}"].split("^")[1])
        rows.append((f"copy-count-{i}", f"order_{i} >= {p - 1} * v_{i - 1}", order >= (p - 1) * int(values[f"v_{i - 1}"])))
    for i in range(1, n + 1):
        b = growth**i * (den * m + 1)
        rows.append((f"vertex-growth-{i}", f"v_{i}^{den} < {sym}^{b}", int(values[f"v_{i}"]) ** den < p**b))
    e = int(values["edge_bound"].split("^")[1])
    rows.append(("edge-bound", f"edges^{k} >= {sym}^{k * e}", int(values["edges"]) ** k >= p ** (k * e)))
    return rows


@st.composite
def small_headers(draw):
    """(girth, p, m, n, r) of a VALID certificate with values of up to
    ~10 000 digits."""
    if draw(st.booleans()):
        p = draw(st.sampled_from((2, 3, 5, 7, 11)))
        m = draw(st.integers(2 if p > 3 else 3 if p == 3 else 4, 5))
        girth, n = 6, draw(st.integers(1, 3))
    else:
        girth, p, m, n = 8, 2, draw(st.sampled_from((5, 7, 9, 11))), draw(st.integers(1, 3))
    return girth, p, m, n, draw(st.integers(2, 1 + p**m))


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(small_headers())
def test_value_lines_are_the_int_values(header):
    cert = certificate(*header)
    assert cert.valid
    values = dict(cert.values)
    with unlimited_str():
        expected = int_values(*header)
    assert values == expected


@settings(derandomize=True, max_examples=60, database=None, deadline=None)
@given(small_headers())
def test_power_rows_are_the_int_rows(header):
    cert = certificate(*header)
    with unlimited_str():
        expected = int_rows(*header)
    names = {name for name, _, _ in expected}
    assert [(c.name, c.statement, c.passed) for c in cert.checks if c.name in names] == expected


# Headers whose edge bound is tight: edges^k < p^(k E + 1), so the row one
# exponent step harder FAILs, by full expansion and by the comparison that
# decides the row.  A threshold moved by a step is not vacuous there.
@pytest.mark.parametrize(
    "header", [(6, 5, 2, 1, 3), (6, 11, 5, 1, 3), (6, 2, 4, 3, 9), (8, 2, 5, 2, 3), (8, 2, 11, 3, 3)]
)
def test_tight_edge_bound_fails_one_step_harder(header):
    girth, p, m, n, r = header
    k = 64 if girth == 6 else 72
    with unlimited_str():
        values = int_values(*header)
        edges, e = int(values["edges"]), int(values["edge_bound"].split("^")[1])
    assert certificate(*header).valid
    assert edges**k >= p ** (k * e) and edges**k < p ** (k * e + 1)
    assert not arith.power_at_least(edges, k, p, k * e + 1)
    assert not arith.power_at_least(Decimal(edges), k, p, k * e + 1)


@pytest.mark.parametrize("rel,at_tie", [(">=", True), ("<", False)])
def test_power_row_decides_the_exponent_it_shows(rel, at_tie):
    # At x^a = p^b the row holds for >= and fails for <, and at x - 1 the
    # other way round, so a row decided one step off the b it shows fails.
    power_row = importlib.import_module("hypergirth.certificate")._power_row
    for a, p, e in ((1, 5, 40), (64, 5, 3), (72, 2, 7)):
        x, b = p**e, a * e
        for value, holds in ((x, at_tie), (x - 1, not at_tie)):
            check = power_row("row", "x", Decimal(value), a, p, "p", b, rel)
            assert (check.name, check.statement, check.passed) == ("row", f"x^{a} {rel} p^{b}", holds)


@pytest.mark.parametrize("header", [(6, 5, 2, 5, 3), (8, None, 5, 4, 3), (6, 3, 3, 4, 5)])
def test_certificate_converts_only_short_ints(monkeypatch, header):
    # The long value lines are printed from Decimals: the ints that reach
    # int_to_decimal are the header and the bases and exponents of powers.
    original = arith.int_to_decimal

    def guarded(value):
        assert abs(value) < 10**52, "a value of more than 52 digits went through int_to_decimal"
        return original(value)

    monkeypatch.setattr(arith, "int_to_decimal", guarded)
    monkeypatch.setattr(importlib.import_module("hypergirth.certificate"), "int_to_decimal", guarded)
    text = certificate(*header).serialize()
    assert reverify_certificate(text).serialize() == text
    assert max(len(line) for line in text.split("\n")) > 2000


def test_long_certificate_is_fast():
    # v_5 has 120 593 digits.  Printed through str(int), the build and the
    # re-verify took 0.86 s each on a 2-core VM; from Decimals, 0.05 s each.
    start = time.monotonic()
    text = certificate(6, 5, 2, 5, 3).serialize()
    reverify_certificate(text)
    assert time.monotonic() - start < 1.0


def test_each_substrate_is_computed_once(monkeypatch):
    # One polygon_counts call per order, on Decimals: the checks read the
    # same values that the value lines print.
    planner = importlib.import_module("hypergirth.planner")
    original, orders = planner.polygon_counts, []

    def counted(n, s, t):
        orders.append(s)
        return original(n, s, t)

    monkeypatch.setattr(planner, "polygon_counts", counted)
    assert certificate(6, 5, 2, 4, 3).valid
    assert len(orders) == 4 and all(isinstance(q, Decimal) for q in orders)
