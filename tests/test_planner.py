import hashlib
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from hypergirth import (
    BelowSeedError,
    Error,
    PowerExpr,
    PreconditionError,
    ResourceBudgetError,
    is_prime,
    plan,
    theorem_bound,
)
from hypergirth.arith import EXACT, int_to_decimal, parse_decimal_int
from hypergirth.certificate import certificate
from hypergirth.planner import ROUTES, PlanResult, Route, route_for

from conftest import rough_above


def hexagon_v(q: int) -> int:
    return (1 + q) * (1 + q**4 + q**8)


def octagon_v(q: int) -> int:
    return (1 + q) * (1 + q**3 + q**6 + q**9)


class TestSubstrateParams:
    def test_hexagon_values(self):
        # frozen from direct evaluation: 3*273 and 9*273
        assert ROUTES[6].substrate(2) == (819, 2457)
        assert ROUTES[6].v(5) == 6 * (1 + 625 + 390625) == 2347506
        assert ROUTES[6].substrate(5)[1] == 126 * (1 + 625 + 390625) == 49297626
        assert ROUTES[6].v(25) == 26 * (1 + 390625 + 152587890625) == 3967295312526

    def test_octagon_values(self):
        assert ROUTES[8].substrate(2) == (1755, 2925)
        assert ROUTES[8].v(8) == 9 * (1 + 512 + 262144 + 134217728) == 1210323465

    @pytest.mark.parametrize("girth", [6, 8])
    def test_substrate_is_v_and_b(self, girth):
        # b has the factor of v with 1 + q^3 (girth 6) or 1 + q^2 (girth 8) in place of 1 + q
        v_of, low = (hexagon_v, 3) if girth == 6 else (octagon_v, 2)
        for q in [*range(2, 60), 5**19, 2**51, 3**1720]:
            v, b = ROUTES[girth].substrate(q)
            assert v == ROUTES[girth].v(q) == v_of(q)
            assert b == v_of(q) // (1 + q) * (1 + q**low)

    def test_v_past_the_digit_budget_is_refused_quickly(self):
        # v(q) has about 9 * 300000 digits: it is refused before q^9 is raised
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=r"^substrate vertex count v\(q\): .*\(300001 digits\)\^9 "):
            ROUTES[6].v(10**300000 + 1)
        assert time.monotonic() - start < 1.0
        # q <= 1 is not guarded, and an order just inside the budget still expands
        assert [ROUTES[6].v(q) for q in (-1, 0, 1)] == [0, 1, 6]
        assert ROUTES[8].v(2**330_000) == octagon_v(2**330_000)

    @pytest.mark.parametrize("girth", [6, 8])
    def test_v_of_a_huge_negative_q_is_refused_quickly(self, girth):
        # |q| is guarded as q is: v(-q) has as many digits as v(q)
        start = time.monotonic()
        message = r"^substrate vertex count v\(q\): 10{39}\.\.\.\(300001 digits\)\^"
        with pytest.raises(ResourceBudgetError, match=message):
            ROUTES[girth].v(-10**300000)
        assert time.monotonic() - start < 1.0
        assert [ROUTES[6].v(q) for q in (-1, 0, 1)] == [0, 1, 6]
        assert ROUTES[6].v(-2) == hexagon_v(-2) and ROUTES[8].v(-3) == octagon_v(-3)

    @pytest.mark.parametrize("girth", [6, 8])
    def test_substrate_on_decimals_is_exact(self, girth):
        for q in (2, 25, 5**19, 7**3000):
            with localcontext(EXACT):
                got = ROUTES[girth].substrate(Decimal(q))
            assert tuple(map(str, got)) == tuple(map(int_to_decimal, ROUTES[girth].substrate(q)))

    @pytest.mark.parametrize("girth", [6, 8])
    @pytest.mark.parametrize("q", [10**300000 + 1, -10**300000], ids=["large", "negative"])
    def test_substrate_past_the_digit_budget_is_refused_quickly(self, girth, q):
        # v(q) and b(q) have more than growth * 300000 digits: refused before q^growth is raised
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=r"^substrate vertex count v\(q\): 10{39}\.\.\.\(300001 digits\)\^"):
            ROUTES[girth].substrate(q)
        assert time.monotonic() - start < 1.0


class TestRoutes:
    def test_table(self):
        assert sorted(ROUTES) == [6, 8]
        assert route_for(8) is ROUTES[8]
        with pytest.raises(PreconditionError, match="girth must be 6 or 8, got 7"):
            route_for(7)

    def test_base_for(self):
        assert ROUTES[6].base_for(5, "x") == 5
        assert ROUTES[8].base_for(None, "x") == ROUTES[8].base_for(2, "x") == 2
        with pytest.raises(PreconditionError, match="x needs p"):
            ROUTES[6].base_for(None, "x")
        with pytest.raises(PreconditionError, match="x has base 2, got p = 3"):
            ROUTES[8].base_for(3, "x")


class TestPlan:
    @pytest.mark.parametrize(
        "girth,p,base,r,n_value",
        [(6, 5, 5, 3, 10**30), (6, 2, 2, 513, 10**300), (8, None, 2, 3, 10**40), (8, 2, 2, 200, 10**300)],
    )
    def test_equals_route_plan(self, girth, p, base, r, n_value):
        assert plan(girth, p, r, n_value) == ROUTES[girth].plan(base, r, n_value)

    def test_refusals(self, monkeypatch):
        with pytest.raises(PreconditionError, match="^girth-6 plan needs p$"):
            plan(6, None, 3, 10**30)
        with pytest.raises(PreconditionError, match="^girth-8 plan has base 2, got p = 3$"):
            plan(8, 3, 3, 10**30)
        with pytest.raises(PreconditionError, match="^girth must be 6 or 8, got 7$"):
            plan(7, 5, 3, 10**30)
        # no N within the parse budget makes plan expand past the digit budget
        monkeypatch.setattr("hypergirth.arith.DIGIT_BUDGET", 1)
        with pytest.raises(ResourceBudgetError):
            plan(6, 5, 3, 10**30)


class TestOrderSequences:
    def test_first_terms(self):
        assert ROUTES[6].order(5, 2, 1).expand() == 25
        assert ROUTES[6].order(5, 2, 2).expand() == 19073486328125 == 5**19
        # independent recursion at integer level: q2 = 5 * 25^9
        assert 5 * 25**9 == 19073486328125

    @pytest.mark.parametrize("p,m_min", [(2, 4), (3, 3), (5, 2), (7, 2)])
    def test_closed_form_equals_recursion(self, p, m_min):
        for m in range(m_min, 13):
            exps = [Fraction(m)]
            for _ in range(3):
                exps.append(9 * exps[-1] + 1)
            for n in range(1, 5):
                assert ROUTES[6].order(p, m, n).exponent == exps[n - 1]

    def test_assumption_errors(self):
        with pytest.raises(PreconditionError, match="prime"):
            ROUTES[6].order(4, 2, 1)
        with pytest.raises(PreconditionError, match="seed-size"):
            ROUTES[6].order(5, 1, 1)
        with pytest.raises(PreconditionError, match="seed-size"):
            ROUTES[6].order(2, 2, 1)
        with pytest.raises(PreconditionError, match="n must be"):
            ROUTES[6].order(5, 2, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_level_crossing_identity(self, p, n):
        a = ROUTES[6].order(p, 9 ** (n + 1) + 1, n)
        b = ROUTES[6].order(p, 9**n, n + 1)
        expected = 9 ** (2 * n) + Fraction(9**n - 1, 8)
        assert a.exponent == b.exponent == expected

    def test_prime_sequence_terms(self):
        assert ROUTES[8].order(2, 5, 1).expand() == 32
        assert ROUTES[8].order(2, 5, 2).expand() == 2251799813685248 == 2**51
        assert 2 * 32**10 == 2**51

    def test_prime_sequence_oddness(self):
        for m in (5, 7, 9, 11, 13):
            for n in (1, 2, 3, 4):
                e = ROUTES[8].order(2, m, n).exponent
                assert e.denominator == 1 and e.numerator % 2 == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_prime_level_crossing_identity(self, n):
        a = ROUTES[8].order(2, 10 ** (n + 1) + 1, n)
        # m = 10^n is even, so only the exponent, not the order, exists there
        b = ROUTES[8].exponent(10**n, n + 1)
        expected = 10 ** (2 * n) + Fraction(10**n - 1, 9)
        assert a.exponent == b == expected

    def test_prime_sequence_errors(self):
        with pytest.raises(PreconditionError, match="m-odd"):
            ROUTES[8].order(2, 6, 1)
        with pytest.raises(PreconditionError, match=">= 5"):
            ROUTES[8].order(2, 3, 1)


class TestRequire:
    """One statement of each route's premises: ``require`` names the first
    that fails, and the certificate records the same checks."""

    @pytest.mark.parametrize(
        "girth,p,m,n,name",
        [
            (6, 4, 2, 1, "p-prime"),
            (6, 1, 3, 2, "p-prime"),
            (6, 5, 1, 1, "seed-size"),
            (6, 2, 3, 1, "seed-size"),
            (6, 3, 2, 4, "seed-size"),
            (8, 2, 6, 1, "m-odd"),
            (8, 2, 6, 2, "m-odd"),
            (8, 2, 4, 3, "m-odd"),
            (8, 2, 3, 1, "m-size"),
            (8, 2, 1, 2, "m-size"),
        ],
    )
    def test_names_the_failing_premise(self, girth, p, m, n, name):
        route = ROUTES[girth]
        for call in (route.require, route.order, route.edge_bound):
            with pytest.raises(PreconditionError, match=rf"^premise {name} \("):
                call(p, m, n)
        failed = [c.name for c in certificate(girth, p, m, n, 2).checks if not c.passed]
        assert failed[0] == name

    @pytest.mark.parametrize("girth,p", [(6, 5), (8, 2)])
    def test_n_checked_first(self, girth, p):
        with pytest.raises(PreconditionError, match="^n must be >= 1, got 0$"):
            ROUTES[girth].require(p, 1, 0)

    def test_order_accepts_exactly_the_certificate_premises(self):
        for girth, bases in ((6, (1, 2, 3, 4, 5, 6, 7)), (8, (2,))):
            route = ROUTES[girth]
            names = {name for name, _, _ in route.premises}
            for p in bases:
                for m in range(1, 10):
                    for n in (1, 2, 3):
                        cert = certificate(girth, p, m, n, 2)
                        premises = all(c.passed for c in cert.checks if c.name in names)
                        try:
                            route.order(p, m, n)
                        except PreconditionError:
                            assert not premises, (girth, p, m, n)
                        else:
                            assert premises, (girth, p, m, n)


class TestExponents:
    def test_first_terms(self):
        assert [ROUTES[6].exponent(2, i) for i in (1, 2, 3)] == [2, 19, 172]
        assert [ROUTES[8].exponent(5, i) for i in (1, 2, 3)] == [5, 51, 511]

    def test_order_reads_the_nth_pair(self):
        for girth, p, m in ((6, 5, 2), (6, 2, 7), (8, 2, 9)):
            pairs = list(islice(reference_exponents(ROUTES[girth], m), 5))
            for n, (closed, recursion) in enumerate(pairs, start=1):
                assert ROUTES[girth].order(p, m, n).exponent == ROUTES[girth].exponent(m, n) == closed == recursion


class TestOrderChecks:
    @pytest.mark.parametrize("girth,p,m", [(6, 2, 4), (8, 2, 5)])
    def test_rows_are_the_certificate_rows(self, girth, p, m):
        route = ROUTES[girth]
        for n in range(1, 6):
            cert = certificate(girth, p, m, n, 3)
            recorded = [(c.name, c.statement, c.passed) for c in cert.checks if c.name.startswith("order-")]
            rows = [row for i, (_, e) in zip(range(1, n + 1), reference_exponents(route, m))
                    for row in route.order_checks(i, route.exponent(m, i), int(e))]
            assert recorded == rows and len(rows) == n * (2 if girth == 8 else 1)
            assert {c.method for c in cert.checks if c.name.startswith("order-")} == {"exponent-exact"}

    def test_rows(self):
        assert ROUTES[6].order_checks(2, 19, 19) == [
            ("order-closed-form-2", "recursion exponent equals 9^1*(m+1/8)-1/8", True),
        ]
        assert ROUTES[8].order_checks(3, 511, 510) == [
            ("order-closed-form-3", "recursion exponent equals 10^2*(m+1/9)-1/9", False),
            ("order-odd-3", "order_3 is an odd power of 2", True),
        ]

    def test_order_raises_on_the_first_failing_row(self):
        # Without its premises the octagon route accepts an even m, whose
        # first order is an even power of 2.
        route = Route(**{**{name: getattr(ROUTES[8], name) for name in Route._fields}, "premises": ()})
        with pytest.raises(PreconditionError) as exc:
            route.order(2, 4, 1)
        assert str(exc.value) == "check order-odd-1 (order_1 is an odd power of 2) does not hold"
        assert route.order(2, 5, 1) == PowerExpr(2, Fraction(5))


class TestVertexComparison:
    """``Route._v_vs`` against the sign of v - N by full expansion."""

    @pytest.mark.parametrize(
        "girth,p,m,n",
        [(6, 2, 4, 1), (6, 5, 2, 1), (6, 3, 3, 2), (6, 7, 2, 2), (6, 5, 2, 3),
         (8, 2, 5, 1), (8, 2, 7, 1), (8, 2, 5, 2)],
    )
    def test_sign_matches_expansion(self, girth, p, m, n, monkeypatch):
        route = ROUTES[girth]
        e = int(route.order(p, m, n).exponent)
        v = route.v(p**e)
        low, high = p ** (route.growth * e), p ** (route.growth * e + 3)
        for value in (v - 1, v, v + 1, low - 1, low, low + 1, high - 1, high, high + 1):
            assert route._v_vs(p, m, n, value) == (v > value) - (v < value), value
        # outside [low, high) the brackets decide, so nothing is expanded
        monkeypatch.setattr("hypergirth.arith.DIGIT_BUDGET", 1)
        assert route._v_vs(p, m, n, low - 1) == 1
        assert route._v_vs(p, m, n, high) == -1


class TestEdgeBounds:
    def test_hexagon_values(self):
        assert str(ROUTES[6].edge_bound(5, 2, 1)) == "5^22"
        assert str(ROUTES[6].edge_bound(5, 2, 2)) == "5^231"
        assert str(ROUTES[6].edge_bound(2, 4, 1)) == "2^44"
        # independent: (11/8) * (9^n (m + 1/8) - (n + m + 1/8))
        assert Fraction(11, 8) * (9 * Fraction(17, 8) - Fraction(25, 8)) == 22

    def test_octagon_values(self):
        assert str(ROUTES[8].edge_bound(2, 5, 1)) == "2^55"
        assert str(ROUTES[8].edge_bound(2, 5, 2)) == "2^616"
        assert str(ROUTES[8].edge_bound(2, 7, 1)) == "2^77"

    def test_exponent_always_integral(self):
        for m in range(2, 12):
            for n in range(1, 5):
                if 5 ** (m - 1) >= 5:
                    assert ROUTES[6].edge_bound(5, m, n).exponent.denominator == 1
        for m in range(5, 14, 2):
            for n in range(1, 5):
                assert ROUTES[8].edge_bound(2, m, n).exponent.denominator == 1


def reference_exponents(route, m: int):
    """(closed form, recursion) exponents of q_1, q_2, ... as Route first
    wrote them: a chain of Fraction operations."""
    shift = Fraction(1, route.den)
    scale, e = 1, Fraction(m)
    while True:
        yield scale * (m + shift) - shift, e
        scale, e = scale * route.growth, route.growth * e + 1


def reference_order_checks(route, i: int, closed: Fraction, e: Fraction) -> list[tuple[str, str, bool]]:
    """Route.order_checks as first written: odd read off numerator and denominator."""
    g, den = route.growth, route.den
    rows = [(f"order-closed-form-{i}", f"recursion exponent equals {g}^{i - 1}*(m+1/{den})-1/{den}", e == closed)]
    if route.m_step == 2:
        odd = closed.denominator == 1 and closed.numerator % 2 == 1
        rows.append((f"order-odd-{i}", f"order_{i} is an odd power of {route.sym}", odd))
    return rows


def reference_edge_bound(route, p: int, m: int, n: int) -> PowerExpr:
    """Route.edge_bound as first written: a chain of Fraction operations."""
    route.require(p, m, n)
    inner = route.growth**n * (m + Fraction(1, route.den)) - (n + m + Fraction(1, route.den))
    exponent = Fraction(11, route.den) * inner
    if exponent.denominator != 1:
        raise PreconditionError(f"edge bound exponent {exponent} is not integral")
    return PowerExpr(p, exponent)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([6, 8]),
    st.sampled_from([2, 3, 5, 7]),
    st.one_of(st.integers(1, 100), st.integers(1, 10**12), st.integers(1, 10**60)),
    st.integers(0, 1),
    st.integers(1, 7),
)
def test_exponents_and_edge_bound_match_the_reference(girth, p, m, parity, n):
    """Odd and even m up to about 10^60, i and n up to 7.  The premises are
    dropped, so that an even m on the girth-8 route reaches its order-odd
    row and its edge bound too."""
    route = Route(**{**{name: getattr(ROUTES[girth], name) for name in Route._fields}, "premises": ()})
    m += (m + parity) % 2  # m of the drawn parity
    pairs = [(route.exponent(m, i),) * 2 for i in range(1, 8)]
    assert pairs == list(islice(reference_exponents(route, m), 7))
    for i, (closed, e) in enumerate(pairs, start=1):
        assert route.order_checks(i, closed, e) == reference_order_checks(route, i, Fraction(closed), Fraction(e))
    assert route.edge_bound(p, m, n) == reference_edge_bound(route, p, m, n)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([6, 8]), st.one_of(st.integers(-100, 100), st.integers(1, 10**60)))
def test_exponent_is_the_recursion(girth, m):
    """The closed form against the reference recursion, for i up to 40."""
    route = ROUTES[girth]
    for i, (closed, e) in zip(range(1, 41), reference_exponents(route, m)):
        assert route.exponent(m, i) == closed == e


# sha256 of "%x %x\n" % (order exponent, edge-bound exponent) over every
# n <= 1000 and every n = 1 (mod 97) up to 3 * 10^4, and n = 3 * 10^4: taken
# from the exponent walk these closed forms replace.
TOWER_DIGESTS = {
    (6, 5, 2): "31d7beb9b681dfd133805e5e4f30047083b9abde264dc7572130c8e85353f116",
    (8, 2, 5): "53c0d228397afa9ac37f31fe7688b021fe3679a5d0330ac39cc6c79aec71ff63",
}


@pytest.mark.parametrize("girth,p,m", TOWER_DIGESTS)
def test_order_and_edge_bound_exponents_are_pinned(girth, p, m):
    route, digest, last = ROUTES[girth], hashlib.sha256(), 3 * 10**4
    for n in range(1, last + 1):
        if n <= 1000 or n % 97 == 1 or n == last:
            order, bound = route.order(p, m, n).exponent, route.edge_bound(p, m, n).exponent
            assert order.denominator == bound.denominator == 1
            digest.update(b"%x %x\n" % (order.numerator, bound.numerator))
    assert digest.hexdigest() == TOWER_DIGESTS[girth, p, m]


def reference_seed(route, p: int, r: int) -> tuple[int, int]:
    """The seed search as first written: every lattice step expands p^m."""
    step, shift, g = route.m_step, route.m_step - 1, route.growth
    m_star = 1
    while not (all(ok(p, m_star) for _, _, ok in route.premises) and p**m_star >= r - 1):
        m_star += step
    n_star = 1
    while not (g ** (n_star - 1) - shift <= m_star < g**n_star):
        n_star += 1
    return m_star, n_star


def reference_plan(route, p: int, r: int, n_value: int) -> PlanResult:
    """The plan search as first written: per level, a hand-written binary
    search between a probe of its lowest cell and a probe of the cell above
    the result, each probe deciding v(q_{p,m,n}) against N by expansion."""
    m_star, n_star = reference_seed(route, p, r)
    step, shift, g = route.m_step, route.m_step - 1, route.growth
    v_of = hexagon_v if route.girth == 6 else octagon_v
    seed_vertices = v_of(route.order(p, m_star, n_star).expand())
    assert n_value >= seed_vertices

    def vs(m: int, n: int) -> int:
        v = v_of(route.order(p, m, n).expand())
        return (v > n_value) - (v < n_value)

    n = n_star
    while True:
        m_lo = max(m_star, g ** (n - 1) - shift)
        if vs(m_lo, n) > 0:
            raise PreconditionError("no admissible (m, n)")
        lo, hi = 0, (g ** (n + 1) - shift - m_lo) // step  # invariant: v(m_lo + step*lo) <= N
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if vs(m_lo + step * mid, n) <= 0:
                lo = mid
            else:
                hi = mid - 1
        m = m_lo + step * lo
        if vs(m + step, n) > 0:
            break
        # N >= v(q_{p, g^(n+1)+1, n}) = v(q_{p, g^n, n+1}): climb a level
        n += 1
    return PlanResult(m, n, m_star, n_star, seed_vertices)


PLAN_DIGITS = 10_000  # the largest N the reference comparison draws


@st.composite
def plan_inputs(draw):
    """(girth, p, r, N) with N* <= N < 10^PLAN_DIGITS: N random, or v(q_{m,n})
    + d for d in (-1, 0, 1) at a lattice cell m of level n.  The cells are
    the level's lowest, its top, the one above its top, or any between; at
    N = v(q_{m,n}) exactly, plan must give m, not the cell below it."""
    girth = draw(st.sampled_from([6, 8]))
    p = draw(st.sampled_from([2, 3, 5, 7, 11])) if girth == 6 else 2
    r = draw(st.integers(2, 6))
    route = ROUTES[girth]
    m_star, n_star = route.seed(p, r)
    seed_vertices = route.v(route.order(p, m_star, n_star).expand())
    if draw(st.booleans()):
        digits = draw(st.integers(len(str(seed_vertices)) + 1, PLAN_DIGITS))
        return girth, p, r, random.Random(draw(st.integers(0, 2**32))).randrange(10 ** (digits - 1), 10**digits)
    step, shift, g, den = route.m_step, route.m_step - 1, route.growth, route.den
    # m at level n whose v has at most about PLAN_DIGITS digits: growth * e * log10(p) <= PLAN_DIGITS
    e_cap = PLAN_DIGITS / (g * math.log10(p)) - 1
    n = draw(st.integers(1, 2))
    m_lo = max(m_star, g ** (n - 1) - shift)
    m_cap = min(g ** (n + 1) - shift + step, int((e_cap + 1 / den) / g ** (n - 1) - 1 / den))
    if m_cap < m_lo:
        n, m_lo, m_cap = 1, m_star, min(g**2 - shift + step, int(e_cap))
    k_cap = (m_cap - m_lo) // step
    k = draw(st.one_of(st.sampled_from([0, max(0, k_cap - 1), k_cap]), st.integers(0, k_cap)))
    v = route.v(route.order(p, m_lo + step * k, n).expand())
    return girth, p, r, max(seed_vertices, v + draw(st.sampled_from([-1, 0, 1])))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(plan_inputs())
def test_plan_matches_the_reference(args):
    girth, p, r, n_value = args
    route = ROUTES[girth]
    assert route.plan(p, r, n_value) == reference_plan(route, p, r, n_value)


class TestSeed:
    SEEDS = [(6, p) for p in (2, 3, 5, 7, 11)] + [(8, 2)]

    @pytest.mark.parametrize("girth,p", SEEDS)
    def test_small_r_match_the_reference(self, girth, p):
        route = ROUTES[girth]
        for r in range(2, 2001):
            assert route.seed(p, r) == reference_seed(route, p, r), r

    @pytest.mark.parametrize("girth,p", SEEDS + [(6, 2**61 - 1)])
    def test_r_next_to_powers_match_the_reference(self, girth, p):
        route = ROUTES[girth]
        rs = [10**k + d for k in range(1, 120) for d in (-1, 0, 1, 2)]
        rs += [p**k + d for k in range(1, 120 if p < 100 else 10) for d in (-1, 0, 1, 2)]
        for r in rs:
            if r >= 2:
                assert route.seed(p, r) == reference_seed(route, p, r), r

    @pytest.mark.parametrize("girth,p", SEEDS + [(6, 2**61 - 1)])
    def test_long_r_next_to_powers_match_the_reference(self, girth, p):
        # r of 10^3 digits, and of 10^4 for the largest base alone: the
        # reference expands p^m at every lattice step up to m*
        route = ROUTES[girth]
        k = int(1000 / math.log10(p))
        rs = [p**k + d for d in (-1, 0, 1, 2)] + [10**999 + d for d in (-1, 0, 1)]
        if p > 100:
            k = int(10_000 / math.log10(p))
            rs += [p**k - 1, p**k, 10**9999]
        for r in rs:
            assert route.seed(p, r) == reference_seed(route, p, r), (r.bit_length(), r % 1000)

    def test_long_r_is_refused_quickly(self):
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=r"^5\^187737274: 5\^187737274 needs ~1.31e\+08 digits"):
            plan(6, 5, 10**20_000 - 1, 10**60)
        assert time.monotonic() - start < 1.0


class TestSearchShape:
    """``plan`` calls the public ``order`` and ``require`` once per plan, for
    the seed's vertex count; its probes read ``exponent`` directly."""

    @pytest.mark.parametrize("digits,climbed", [(100, 0), (1000, 1), (20_000, 2)])
    def test_order_and_require_run_once(self, monkeypatch, digits, climbed):
        route, calls = ROUTES[6], {"order": [], "require": []}
        for name in calls:
            original = getattr(Route, name)

            def counted(self, *args, name=name, original=original):
                calls[name].append(args)
                return original(self, *args)

            monkeypatch.setattr(Route, name, counted)
        result = route.plan(2, 3, 10**digits)
        assert result.n - result.n_star == climbed
        seed = (2, result.m_star, result.n_star)
        assert calls == {"order": [seed], "require": [seed]}


class TestStageCountGuard:
    """An n whose exponent growth^(n-1) is past the digit budget is refused
    by ``require``; every n it admits is answered in closed form."""

    # the largest n with growth^(n-1) < 10^DIGIT_BUDGET: 9^1047951 and
    # 10^999999 have exactly 10^6 digits
    LARGEST = {6: 1_047_952, 8: 1_000_000}

    @pytest.mark.parametrize("girth,p,m", [(6, 5, 2), (8, 2, 5)])
    def test_every_admitted_n_is_answered_quickly(self, girth, p, m):
        route = ROUTES[girth]
        for n in (10**5, self.LARGEST[girth]):
            for call in (route.order, route.edge_bound):
                start = time.monotonic()
                call(p, m, n)
                assert time.monotonic() - start < 2.0, (call.__name__, n)
        with pytest.raises(ResourceBudgetError, match=rf"^stage count n = {self.LARGEST[girth] + 1}: "):
            route.require(p, m, self.LARGEST[girth] + 1)

    def test_absurd_n_is_refused_quickly(self):
        route = ROUTES[6]
        long_n = r"^stage count n = 1000000000000000000000000000000000000000\.\.\.\(5001 digits\): 9\^"
        calls = [
            (route.order, 10**30, r"^stage count n = 1000000000000000000000000000000: 9\^9999"),
            (route.order, 10**5000, long_n),
            (route.edge_bound, 10**5000, long_n),
        ]
        for call, n, prefix in calls:
            start = time.monotonic()
            with pytest.raises(ResourceBudgetError, match=prefix):
                call(5, 2, n)
            assert time.monotonic() - start < 1.0, (call.__name__, n)

    @pytest.mark.parametrize("girth", [6, 8])
    def test_every_method_answers_huge_and_non_int_arguments_quickly(self, girth):
        route = ROUTES[girth]
        p = route.base or 5
        calls = {
            "substrate": (3,), "v": (3,), "base_for": (p, "plan"), "premise_check": (route.premises[0], p, 5),
            "require": (p, 5, 2), "exponent": (5, 2), "order_checks": (2, 51, 51), "order": (p, 5, 2),
            "edge_bound": (p, 5, 2), "seed": (p, 3), "plan": (p, 3, 10**40),
        }
        values = {"10^5000": 10**5000, "-10^5000": -(10**5000), "2.5": 2.5, "None": None, "'3'": "3"}
        for name, args in calls.items():
            for k in (k for k, arg in enumerate(args) if isinstance(arg, int)):
                for shown, value in values.items():
                    start = time.monotonic()
                    try:
                        getattr(route, name)(*args[:k], value, *args[k + 1:])
                    except Error:
                        pass
                    assert time.monotonic() - start < 1.0, (name, k, shown)


class TestPlanHexagon:
    def test_acceptance_points(self):
        n_star = hexagon_v(25)
        res = plan(6, 5, 3, n_star)
        assert (res.m, res.n) == (2, 1)
        assert (res.m_star, res.n_star) == (2, 1)
        assert res.seed_vertices == n_star == 3967295312526

        v3 = hexagon_v(125)
        assert (plan(6, 5, 3, v3 - 1).m, plan(6, 5, 3, v3 - 1).n) == (2, 1)
        assert (plan(6, 5, 3, v3).m, plan(6, 5, 3, v3).n) == (3, 1)

    def test_below_seed(self):
        with pytest.raises(BelowSeedError) as err:
            plan(6, 5, 3, 100)
        assert err.value.seed_vertices == hexagon_v(25)

    @pytest.mark.parametrize("r,n_value", [(2**1000, 10**50), (2**4000, 10)], ids=["r-2^1000", "r-2^4000"])
    def test_seed_count_past_the_digit_budget_is_refused_quickly(self, r, n_value):
        # the seed order is within the budget, its vertex count v(q) is not
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=r"^substrate vertex count v\(q\): "):
            plan(6, 2, r, n_value)
        assert time.monotonic() - start < 1.0

    def test_sandwich_holds_independently(self):
        for n_value in (hexagon_v(25), hexagon_v(125) - 1, hexagon_v(125), 10**30, 10**60):
            res = plan(6, 5, 3, n_value)
            q_low = ROUTES[6].order(5, res.m, res.n).expand()
            q_high = ROUTES[6].order(5, res.m + 1, res.n).expand()
            assert hexagon_v(q_low) <= n_value < hexagon_v(q_high)
            assert 9 ** (res.n - 1) <= res.m <= 9 ** (res.n + 1)
            assert res.m >= res.m_star and res.n >= res.n_star

    def test_level_crossing_search(self):
        # N just below/at the m = 9^2 boundary at n = 1 forces n = 2.
        v_boundary = hexagon_v(ROUTES[6].order(5, 9**2 + 1, 1).expand())
        res = plan(6, 5, 3, v_boundary)
        assert (res.m, res.n) == (9, 2)
        res = plan(6, 5, 3, v_boundary - 1)
        assert (res.m, res.n) == (81, 1)

    def test_higher_r_moves_seed(self):
        res = plan(6, 2, 100, hexagon_v(2**7))
        assert res.m_star == 7  # 2^7 = 128 >= 99
        assert (res.m, res.n) == (7, 1)


class TestPlanOctagon:
    def test_acceptance_points(self):
        res = plan(8, None, 3, octagon_v(32))
        assert (res.m, res.n) == (5, 1)
        assert (res.m_star, res.n_star) == (5, 1)
        v7 = octagon_v(2**7)
        assert (plan(8, None, 3, v7 - 1).m, plan(8, None, 3, v7 - 1).n) == (5, 1)
        assert (plan(8, None, 3, v7).m, plan(8, None, 3, v7).n) == (7, 1)

    def test_below_seed(self):
        with pytest.raises(BelowSeedError) as err:
            plan(8, None, 3, 10)
        assert err.value.seed_vertices == octagon_v(32)

    def test_sandwich_and_oddness(self):
        for n_value in (octagon_v(32), octagon_v(2**9) + 5, 10**40, 10**90):
            res = plan(8, None, 3, n_value)
            assert res.m % 2 == 1
            q_low = ROUTES[8].order(2, res.m, res.n).expand()
            q_high = ROUTES[8].order(2, res.m + 2, res.n).expand()
            assert octagon_v(q_low) <= n_value < octagon_v(q_high)
            assert 10 ** (res.n - 1) - 1 <= res.m <= 10 ** (res.n + 1) - 1

    def test_level_crossing_search(self):
        boundary = octagon_v(ROUTES[8].order(2, 10**2 + 1, 1).expand())
        res = plan(8, None, 3, boundary)
        assert (res.m, res.n) == (9, 2)
        res = plan(8, None, 3, boundary - 1)
        assert (res.m, res.n) == (99, 1)


class TestTheoremBound:
    def test_exact_small_points(self):
        # closed forms at N = 2^100: sqrt(log2 N) = 10 exactly
        tb = theorem_bound(6, 2, 2**100)
        assert tb.exponent == pytest.approx((11 / 8) * (1 - 3.3), rel=1e-14)
        assert tb.exponent == -3.1625
        assert tb.derived_constant == 45.375

    def test_negative_exponent_passthrough(self):
        tb = theorem_bound(6, 2, 2**100)
        assert tb.exponent < 0
        assert tb.bound.exponent < 0

    def test_bound_is_lower_rounding(self):
        tb = theorem_bound(6, 2, 2 ** (10**4))
        assert tb.bound.base == 2 ** (10**4)
        assert float(tb.bound.exponent) <= tb.exponent
        assert tb.exponent - float(tb.bound.exponent) < 1 / 72 + 1e-12

    @pytest.mark.parametrize("exp2", [100, 10**6])
    @pytest.mark.parametrize("p", [2, 5])
    def test_girth6_against_decimal_oracle(self, exp2, p):
        with localcontext() as ctx:
            ctx.prec = 50
            log_p_n = Decimal(exp2) * Decimal(2).ln() / Decimal(p).ln()
            expected = Decimal(11) / 8 * (1 - 33 / log_p_n.sqrt())
        got = theorem_bound(6, p, 2**exp2).exponent
        assert abs(got - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))

    @pytest.mark.parametrize("exp2", [100, 10**6])
    def test_girth8_against_decimal_oracle(self, exp2):
        with localcontext() as ctx:
            ctx.prec = 50
            expected = Decimal(11) / 9 * (1 - 13 * (Decimal(10) / Decimal(exp2)).sqrt())
        got = theorem_bound(8, None, 2**exp2).exponent
        assert abs(got - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))

    def test_validation(self):
        with pytest.raises(PreconditionError, match="^girth must be 6 or 8, got 7$"):
            theorem_bound(7, 2, 100)
        with pytest.raises(PreconditionError, match="^girth-6 bound needs a prime p, got None$"):
            theorem_bound(6, None, 100)
        with pytest.raises(PreconditionError, match="^girth-6 bound needs a prime p, got 4$"):
            theorem_bound(6, 4, 100)
        with pytest.raises(PreconditionError, match="^N must be >= 2, got 1$"):
            theorem_bound(6, 2, 1)
        assert theorem_bound(8, 3, 2**500) == theorem_bound(8, None, 2**500)

    # At N = p^a the girth-6 exponent is (99 - 3267/sqrt(a))/72, a multiple
    # of 1/72 when sqrt(a) divides 3267 = 27 * 121.  At a = 88209 the
    # 60-digit float of the exponent lands just below 88/72 = 11/9.
    @pytest.mark.parametrize("a", [1089, 9801, 14641, 88209, 131769])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_girth6_exact_ties(self, p, a):
        k = 99 - 3267 // math.isqrt(a)
        n_value = p**a
        assert theorem_bound(6, p, n_value).bound.exponent == Fraction(k, 72)
        assert theorem_bound(6, p, n_value - 1).bound.exponent == Fraction(k - 1, 72)
        assert theorem_bound(6, p, n_value + 1).bound.exponent == Fraction(k, 72)

    def test_girth8_exact_tie(self):
        # (11/9)(1 - 13 sqrt(10/77440)) = (11/9)(1 - 13/88) = 75/72
        assert theorem_bound(8, None, 2**77440).bound.exponent == Fraction(25, 24)
        assert theorem_bound(8, None, 2**77440 - 1).bound.exponent == Fraction(74, 72)

    def test_straddle_near_irrational_threshold(self):
        # 87/72 <= exponent iff N^16 >= 2^1185921 on girth 6 at p = 2; the
        # floored 16th root is within a factor 1 + 2^-74120 of that threshold
        n_value = 2**1185921
        for _ in range(4):
            n_value = math.isqrt(n_value)
        assert n_value**16 < 2**1185921 < (n_value + 1) ** 16
        assert theorem_bound(6, 2, n_value).bound.exponent == Fraction(86, 72)
        assert theorem_bound(6, 2, n_value + 1).bound.exponent == Fraction(87, 72)


def mpmath_display(girth: int, base: int, n_value: int) -> tuple[float, float]:
    """theorem_bound's (exponent, derived_constant) as mpmath computed them
    at 60 dps, N rounded to the working precision from its top bits."""
    route = route_for(girth)
    with mp.workdps(60):
        shift = n_value.bit_length() - (mp.prec + 3)
        if shift <= 0:
            n_mpf = mpf(n_value)
        else:
            top = n_value >> shift
            if n_value & ((1 << shift) - 1):
                top |= 1
            n_mpf = mp.ldexp(mpf(top), shift)
        log_n = mp.log(n_mpf) / mp.log(base)
        expo = mpf(11) / route.den * (1 - mp.sqrt(route.c2 / log_n))
        constant = mpf(11) / route.den * mp.sqrt(route.c2 * mp.log(base, 2))
        return float(expo), float(constant)


@st.composite
def display_inputs(draw):
    girth = draw(st.sampled_from([6, 8]))
    base = draw(st.sampled_from([2, 3, 5, 7, 11, 13])) if girth == 6 else 2
    bits = draw(st.one_of(st.integers(2, 300), st.integers(2, 10**6)))
    shape = draw(st.sampled_from(["random", "2^k", "2^k-1", "p^e"]))
    if shape == "random":
        n_value = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1 << (bits - 1)
    elif shape == "2^k":
        n_value = 1 << (bits - 1)
    elif shape == "2^k-1":
        n_value = (1 << bits) - 1
    else:
        n_value = base ** max(1, bits // base.bit_length())
    return girth, base, n_value


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(display_inputs())
def test_display_floats_match_mpmath(args):
    girth, base, n_value = args
    tb = theorem_bound(girth, base, n_value)
    assert (tb.exponent, tb.derived_constant) == mpmath_display(girth, base, n_value)


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        limit = 10**5
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(range(d * d, limit, d))
        assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                                   3215031751, 5394826801, 232250619601, 9746347772161])
    def test_carmichael_numbers_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_to_the_first_primes_are_composite(self, n):
        assert not is_prime(n)  # psi_9 = psi_10 = psi_11, and psi_12

    @pytest.mark.parametrize("n", [10**12 + 39, 2**61 - 1, 2**79 - 67])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_composites_at_any_size(self):
        assert not is_prime(2**128 + 1)
        assert not is_prime((2**127 - 1) * (2**89 - 1))

    @pytest.mark.parametrize("n", [3317044064679887385961981, 2**89 - 1])
    def test_pass_at_or_above_psi13_is_refused(self, n):
        with pytest.raises(ResourceBudgetError, match=str(n)):
            is_prime(n)

    def test_a_2048_bit_prime_runs_every_round_within_1s(self):
        # the 2048-bit MODP prime of RFC 3526: 2^2048 - 2^1984 - 1 + 2^64 (floor(2^1918 pi) + 124476)
        with mp.workprec(2200):
            pi_bits = int(mp.floor(mp.ldexp(mp.pi, 1918)))
        n = 2**2048 - 2**1984 - 1 + 2**64 * (pi_bits + 124476)
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match="passes Miller-Rabin on the first 13 prime bases"):
            is_prime(n)
        assert time.monotonic() - start < 1.0

    def test_past_2048_bits_no_round_is_run(self):
        n = rough_above(2**2048)
        assert n.bit_length() == 2049
        with pytest.raises(ResourceBudgetError, match=r"\(617 digits\) is prime: Miller-Rabin is run only up to 2048"):
            is_prime(n)
        assert not is_prime(n * 3)  # trial division still answers

    @pytest.mark.parametrize("call", [
        lambda p: is_prime(p),
        lambda p: ROUTES[6].premise_check(ROUTES[6].premises[0], p, 3),
        lambda p: certificate(6, p, 2, 2, 3),
        lambda p: theorem_bound(6, p, 10**41),
    ], ids=["is_prime", "premise_check", "certificate", "theorem_bound"])
    def test_a_6000_digit_rough_p_is_refused_within_1s(self, call):
        p = rough_above(10**5999)
        start = time.monotonic()
        with pytest.raises(ResourceBudgetError, match=r"\(6000 digits\) is prime: Miller-Rabin is run only up to 2048"):
            call(p)
        assert time.monotonic() - start < 1.0


class TestPowerExpr:
    def test_str_renders_base_and_exponent(self):
        assert str(PowerExpr(5, Fraction(231))) == "5^231"
        assert str(PowerExpr(2, Fraction(-3, 8))) == "2^-3/8"
        base = "1" * 5000  # above CPython's default int-to-str digit limit
        assert str(PowerExpr(parse_decimal_int(base), Fraction(2))) == base + "^2"

    @pytest.mark.parametrize("text", ["12\n", "12x", "012", "", "-1", " 12"])
    def test_parse_decimal_int_refuses(self, text):
        with pytest.raises(PreconditionError, match="not a canonical decimal integer"):
            parse_decimal_int(text)

    def test_denominator_cap(self):
        with pytest.raises(PreconditionError, match="divide 72"):
            PowerExpr(2, Fraction(1, 5))

    def test_comparisons(self):
        assert PowerExpr(2, 10) == PowerExpr(2, Fraction(10))
        assert len({PowerExpr(2, 10), PowerExpr(2, Fraction(10))}) == 1

    def test_expand_guards(self):
        from hypergirth import ResourceBudgetError

        with pytest.raises(PreconditionError):
            PowerExpr(2, Fraction(1, 2)).expand()
        with pytest.raises(ResourceBudgetError):
            PowerExpr(2, Fraction(10**9)).expand()


@pytest.mark.parametrize("n_value, seed, message", [
    (None, 5, "N = None is below the seed vertex count N* = 5"),
    (5, None, "N = 5 is below the seed vertex count N* = None"),
    (2.0, 5, "N = 2.0 is below the seed vertex count N* = 5"),
    ("3", 10**60, "N = '3' is below the seed vertex count N* = 1000000000000000000000000000000000000000...(61 digits)"),
    (Fraction(3, 2), Decimal(7), "N = Fraction(3, 2) is below the seed vertex count N* = Decimal('7')"),
    (True, -5, "N = True is below the seed vertex count N* = -5"),
], ids=["none-n", "none-seed", "float-n", "str-n-long-seed", "fraction-decimal", "bool-n"])
def test_below_seed_error_is_built_from_any_argument(n_value, seed, message):
    """An int is shown by short_decimal, anything else by its repr, cut short."""
    err = BelowSeedError(n_value, seed)
    assert str(err) == message
    assert err.seed_vertices is seed
