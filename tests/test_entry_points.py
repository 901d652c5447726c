"""Every library entry point that takes an int, driven with ints at the
edges and with values that are not ints.

Each int argument is drawn from the argument's valid value, the small ints
-2 to 3, an int just past each budget, +-10^5000, and True, 2.0, "3",
None, Decimal(3) and Fraction(3).  Every call must return, or raise a
``hypergirth.Error``, within 1 s, enforced by a per-call ``SIGALRM`` timer
in this process.  A size that the vertex or greedy-pair budget admits
would be built, so an argument that sizes a construction is never given
an int just below a budget: it is drawn from the budget-past values that
every budget refuses.  Hypothesis runs derandomized with a bounded
number of examples.
"""

import signal
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hypergirth
from hypergirth import (
    BelowSeedError,
    BipartiteGraph,
    Hypergraph,
    PowerExpr,
    build_recursive,
    certificate,
    girth_oracle,
    greedy_high_girth_bipartite,
    is_prime,
    loose_path,
    neighborhood_hypergraph,
    pad_vertices,
    plan,
    projective_plane,
    split_cayley_hexagon,
    split_edges,
    substitute_edges,
    symplectic_quadrangle,
    theorem_bound,
)
from hypergirth.arith import _MR_BITS, DIGIT_BUDGET
from hypergirth.core import VERTEX_BUDGET
from hypergirth.geometry import GREEDY_PAIR_BUDGET
from hypergirth.planner import ROUTES

from conftest import rough_above

SMALL = tuple(range(-2, 4))
HUGE = (10**5000, -(10**5000))
NOT_INTS = (True, 2.0, "3", None, Decimal(3), Fraction(3))
# Past the vertex budget, which every size meets; past the greedy grid, the
# digit budget and the Miller-Rabin bit cap (an n that trial division passes).
PAST_SIZES = (VERTEX_BUDGET + 1, rough_above(2**_MR_BITS))
PAST_ALL = (*PAST_SIZES, GREEDY_PAIR_BUDGET + 1, DIGIT_BUDGET + 1)
INTS = (*SMALL, *PAST_ALL, *HUGE, *NOT_INTS)
SIZES = (*SMALL, *PAST_SIZES, *HUGE, *NOT_INTS)

FANO = neighborhood_hypergraph(projective_plane(2))
ROW = Hypergraph(6, (tuple(range(6)),))  # one edge with room for 3 copies of a 2-vertex template
PAIR = loose_path(1, 2)
EDGE = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
STAR = BipartiteGraph(6, 1, tuple((u, 0) for u in range(6)))

# name: (call, the valid value of each int argument, the pool each is drawn from)
ENTRIES = {
    "BelowSeedError": (BelowSeedError, (10, 1000), (INTS, INTS)),
    "BipartiteGraph": (lambda a, b: BipartiteGraph(a, b, ()), (2, 3), (INTS, INTS)),
    "Hypergraph": (lambda n: Hypergraph(n, ()), (3,), (INTS,)),
    "PowerExpr": (PowerExpr, (2, 3), (INTS, INTS)),
    "build_recursive": (lambda k: build_recursive([EDGE, STAR], [k]), (3,), (INTS,)),
    "certificate": (certificate, (6, 5, 2, 2, 3), (INTS,) * 5),
    "girth_oracle": (lambda n: girth_oracle(FANO, n), (3,), (INTS,)),
    "greedy_high_girth_bipartite": (greedy_high_girth_bipartite, (8, 4, 2, 6, 1), (SIZES, SIZES, INTS, INTS, INTS)),
    "is_prime": (is_prime, (7,), (INTS,)),
    "loose_path": (loose_path, (3, 3), (SIZES, SIZES)),
    "pad_vertices": (lambda n: pad_vertices(FANO, n), (9,), (INTS,)),
    "plan": (plan, (6, 5, 3, 10**10), (INTS,) * 4),
    "projective_plane": (projective_plane, (2,), (INTS,)),
    "split_cayley_hexagon": (split_cayley_hexagon, (2,), (INTS,)),
    "split_edges": (lambda r: split_edges(FANO, r), (2,), (INTS,)),
    "substitute_edges": (lambda k: substitute_edges(ROW, PAIR, k), (3,), (INTS,)),
    "symplectic_quadrangle": (symplectic_quadrangle, (2,), (INTS,)),
    "theorem_bound": (theorem_bound, (6, 5, 10**20), (INTS,) * 3),
}
for g, route in ROUTES.items():
    p, m = route.base or 5, 5
    ENTRIES |= {
        f"Route{g}.substrate": (route.substrate, (3,), (INTS,)),
        f"Route{g}.v": (route.v, (3,), (INTS,)),
        f"Route{g}.base_for": (lambda p, route=route: route.base_for(p, "x"), (p,), (INTS,)),
        f"Route{g}.premise_check": (lambda i, p, m, route=route: route.premise_check(route.premises[i % 2], p, m),
                                    (0, p, m), (SMALL, INTS, INTS)),
        f"Route{g}.require": (route.require, (p, m, 2), (INTS,) * 3),
        f"Route{g}.exponent": (route.exponent, (m, 2), (INTS,) * 2),
        f"Route{g}.order_checks": (route.order_checks, (2, 3, 3), (INTS,) * 3),
        f"Route{g}.order": (route.order, (p, m, 2), (INTS,) * 3),
        f"Route{g}.edge_bound": (route.edge_bound, (p, m, 2), (INTS,) * 3),
        f"Route{g}.seed": (route.seed, (p, 3), (INTS,) * 2),
        f"Route{g}.plan": (route.plan, (p, 3, 10**10), (INTS,) * 3),
    }


def test_every_int_taking_export_is_driven():
    driven = {name for name in ENTRIES if not name.startswith("Route")}
    public = {name for name in hypergirth.__all__ if not name[0].isupper() or name in driven}
    takes_no_int = {"girth_bipartite", "girth_hypergraph", "incidence_graph", "load", "neighborhood_hypergraph",
                    "parse_bipartite", "parse_certificate", "parse_hypergraph", "parse_recipe",
                    "reverify_certificate", "run_pipeline", "serialize_bipartite", "serialize_hypergraph",
                    "validate"}
    assert public - takes_no_int == driven


class Overtime(BaseException):
    """Raised by the timer; a BaseException, so no handler in the package catches it."""


def _overtime(signum, frame):
    raise Overtime


def call_within_1s(call, args):
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            call(*args)
    except hypergirth.Error:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_an_int_argument_returns_or_raises_a_package_error_within_1s(name, data):
    call, valid, pools = ENTRIES[name]
    args = [data.draw(st.sampled_from((value, *pool)), label=f"arg {i}")
            for i, (value, pool) in enumerate(zip(valid, pools))]
    call_within_1s(call, args)
