"""Property tests for the planner and certificates of both routes.

Hypothesis runs derandomized with a bounded number of examples, so the
suite stays deterministic.  The substrate polynomials and the order
recursion are restated here, independently of the route table.
"""

from hypothesis import assume, given, settings, strategies as st

from hypergirth import BelowSeedError, certificate, reverify_certificate
from hypergirth.planner import ROUTES

MAX_DIGITS = 400
V = {
    6: lambda q: (1 + q) * (1 + q**4 + q**8),
    8: lambda q: (1 + q) * (1 + q**3 + q**6 + q**9),
}
GROWTH = {6: 9, 8: 10}
STEP = {6: 1, 8: 2}


def vertices(girth: int, p: int, m: int, n: int) -> int:
    e = m
    for _ in range(n - 1):
        e = GROWTH[girth] * e + 1
    return V[girth](p**e)


@st.composite
def plan_inputs(draw, girth):
    p = draw(st.sampled_from((2, 3, 5, 7, 11))) if girth == 6 else 2
    r = draw(st.integers(2, 2**draw(st.integers(1, 16)) + 1))
    try:
        ROUTES[girth].plan(p, r, 1)
    except BelowSeedError as exc:
        seed = exc.seed_vertices
    assume(len(str(seed)) <= MAX_DIGITS)
    digits = draw(st.integers(len(str(seed)), MAX_DIGITS))
    n_value = draw(st.integers(max(seed, 10 ** (digits - 1)), 10**digits - 1))
    return p, r, n_value


def check_plan_and_certificate(girth, p, r, n_value):
    plan = ROUTES[girth].plan(p, r, n_value)
    assert vertices(girth, p, plan.m, plan.n) <= n_value < vertices(girth, p, plan.m + STEP[girth], plan.n)
    assert plan.m >= plan.m_star and plan.n >= plan.n_star
    text = certificate(girth, p, plan.m, plan.n, r).serialize()
    assert "\nstatus VALID\n" in text
    assert reverify_certificate(text).serialize() == text


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plan_inputs(6))
def test_girth6_plan_sandwich_and_certificate(args):
    check_plan_and_certificate(6, *args)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(plan_inputs(8))
def test_girth8_plan_sandwich_and_certificate(args):
    check_plan_and_certificate(8, *args)
