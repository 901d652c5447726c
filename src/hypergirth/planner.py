"""Exact parameter arithmetic for the recursive constructions.

Everything here is exact: orders and edge bounds are PowerExpr values
whose exponents are integers, each computed on ints as one exact quotient
by the paper's denominator, vertex/edge counts are big integers, and every
inequality is decided by integer comparison.  The only inexact values in
the module are the two display floats of :func:`theorem_bound`, computed
with the standard library's ``decimal`` at 60 digits.  They certify
nothing: the floor of the exponent to a multiple of 1/72 is decided
exactly, by comparing integer powers of N and the base, and the float
only proposes it.

Both parameter families are one recursive substitution scheme with
different constants, each recorded once as a :class:`Route` in
:data:`ROUTES`:

* girth-6 route: orders q_1 = p^m, q_n = p * q_{n-1}^9, substrate the
  generalized hexagon of order (q, q^3), v(q) = (1+q)(1+q^4+q^8);
* girth-8 route: orders q'_1 = 2^m, q'_n = 2 * q'_{n-1}^10, substrate the
  generalized octagon of order (q, q^2), v'(q) = (1+q)(1+q^3+q^6+q^9).

A route states each rule once, for the certificate to record and the
planner to enforce: its premises, each shown and decided by
:meth:`Route.premise_check`, its order exponents in :meth:`Route.exponent`,
and the checks on each order in :meth:`Route.order_checks`; :meth:`Route.require`
guards the stage count.  :meth:`Route.plan` finds (m, n) by a ``bisect`` for the
seed, one probe per level climbed and a ``bisect`` over the level it stops at.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable

from .arith import (
    Number,
    PowerExpr,
    check_pow,
    checked_pow,
    int_args,
    is_prime,
    power_at_least,
    record,
    settle,
    short_decimal,
    short_value,
)
from .errors import PreconditionError
from .geometry import polygon_counts


@record
class PlanResult:
    """Chosen (m, n) for a vertex budget, plus the seed the search grew
    from: minimal admissible (m*, n*) and its vertex count N*."""

    m: int
    n: int
    m_star: int
    n_star: int
    seed_vertices: int


class BelowSeedError(PreconditionError):
    """N is smaller than the smallest admissible construction N*.  Both
    arguments are shown by short_value, which shows an int by
    short_decimal, so the error is built whatever it is given."""

    def __init__(self, n_value: int, seed_vertices: int):
        self.seed_vertices = seed_vertices
        super().__init__(
            f"N = {short_value(n_value)} is below the seed vertex count "
            f"N* = {short_value(seed_vertices)}"
        )


@record
class Route:
    """The constants of one recursive route; every method is written once,
    and each premise is shown and decided in :meth:`premise_check` alone.

    The substrate at order q is the generalized girth-gon of order
    (q, q^line_power), v(q) points (vertices) on b(q) lines (edges).  Orders
    are q_1 = p^m and q_n = p * q_{n-1}^growth; each substitution stage uses
    p - 1 template copies per edge (one copy at base 2).
    """

    girth: int
    base: int | None  # None: the caller supplies a prime p
    line_power: int  # the substrate has order (q, q^line_power)
    m_step: int  # 2 keeps m odd, so that q_1 = 2^m is an odd power of 2
    edge_power: int  # both sides of the stated edge bound are raised to it
    c2: int  # display constant: the exponent is limit * (1 - sqrt(c2 / log_base N))
    premises: tuple[tuple[str, str, Callable[[int, int], bool]], ...]  # (name, statement, check on (p, m))

    @functools.cached_property
    def growth(self) -> int:
        """The degree of v(q) in q: (girth/2 - 1)(1 + line_power) + 1."""
        return (self.girth // 2 - 1) * (1 + self.line_power) + 1

    @functools.cached_property
    def den(self) -> int:
        """growth - 1, as -1/den is the fixed point of e -> growth * e + 1."""
        return self.growth - 1

    @functools.cached_property
    def limit(self) -> Fraction:
        """(den + line_power)/den, the power of N that the edge bound tends to."""
        return Fraction(self.den + self.line_power, self.den)

    @property
    def sym(self) -> str:
        """How statements name the base."""
        return "p" if self.base is None else str(self.base)

    def substrate(self, q: Number) -> tuple[Number, Number]:
        """(v(q), b(q)) by the polygon count rule, on ints or on Decimals under
        arith.EXACT.  Any other q is refused, and an int q with |q| >= 2 when
        |q|^(growth + line_power) > |b| >= |v| would exceed the digit budget; a
        Decimal q is the caller's to bound."""
        if not isinstance(q, Decimal):
            int_args(None, q=q)
            if abs(q) >= 2:
                check_pow(abs(q), self.growth + self.line_power, "substrate vertex count v(q)")
        return polygon_counts(self.girth, q, q**self.line_power)

    def v(self, q: int) -> int:
        """Substrate vertex count at order q; a q that is not an int is refused."""
        int_args(None, q=q)
        return self.substrate(q)[0]

    def base_for(self, p: int | None, what: str) -> int:
        """The base to use given an optional caller-supplied p."""
        if self.base is None:
            if p is None:
                raise PreconditionError(f"{what} needs p")
            return p
        if p not in (None, self.base):
            raise PreconditionError(f"{what} has base {self.base}, got p = {short_value(p)}")
        return self.base

    @staticmethod
    def premise_check(premise: tuple, p: int, m: int) -> tuple[str, str, bool]:
        """(name, statement shown with p and m, passed) of one of the premises;
        a p or m that is not an int is refused."""
        int_args(None, p=p, m=m)
        name, statement, ok = premise
        return name, statement.format(p=short_decimal(p), m=short_decimal(m)), ok(p, m)

    def require(self, p: int, m: int, n: int) -> None:
        """Raise PreconditionError unless n >= 1 and every premise holds on
        (p, m); the error shows only the first premise that fails.  A p, m
        or n that is not an int is refused first.  This is also the one
        guard on the stage count: an n whose exponent growth^(n-1) would
        exceed the digit budget raises ResourceBudgetError."""
        int_args(None, p=p, m=m, n=n)
        if n < 1:
            raise PreconditionError(f"n must be >= 1, got {short_decimal(n)}")
        check_pow(self.growth, n - 1, f"stage count n = {short_decimal(n)}")
        for premise in self.premises:
            if not premise[2](p, m):
                name, shown, _ = self.premise_check(premise, p, m)
                raise PreconditionError(f"premise {name} ({shown}) does not hold")

    def exponent(self, m: int, i: int) -> int:
        """Exponent e_i of q_i, growth^(i-1) * (m + 1/den) - 1/den, as the exact
        quotient (growth^(i-1) * (den*m + 1) - 1)/den: it solves e_1 = m and
        e_i = growth * e_{i-1} + 1, and is an integer as growth = 1 (mod den).
        i may be one past :meth:`require`'s stage guard, for :meth:`edge_bound`."""
        int_args(None, m=m)
        int_args(i=i)
        check_pow(self.growth, max(i - 2, 0), f"order index i = {short_decimal(i)}")
        return (self.growth ** (i - 1) * (self.den * m + 1) - 1) // self.den

    def order_checks(self, i: int, closed: int, e: int) -> list[tuple[str, str, bool]]:
        """(name, statement, passed) rows on the i-th order's closed and recursion
        exponents: they agree, and where m_step keeps m odd, the order is an odd
        power.  An i < 1, or an i, closed or e that is not an int, is refused."""
        int_args(i=i)
        int_args(None, closed=closed, e=e)
        g, den, k, power = self.growth, self.den, short_decimal(i), short_decimal(i - 1)
        rows = [(f"order-closed-form-{k}", f"recursion exponent equals {g}^{power}*(m+1/{den})-1/{den}", e == closed)]
        if self.m_step == 2:
            rows.append((f"order-odd-{k}", f"order_{k} is an odd power of {self.sym}", closed % 2 == 1))
        return rows

    def order(self, p: int, m: int, n: int) -> PowerExpr:
        """n-th order in closed form, refused at the first of its :meth:`order_checks`
        that fails (none can once the premises hold; the certificate decides closed form = recursion)."""
        self.require(p, m, n)
        closed = self.exponent(m, n)
        for name, statement, passed in self.order_checks(n, closed, closed):
            if not passed:
                raise PreconditionError(f"check {name} ({statement}) does not hold")
        return PowerExpr(p, closed)

    def edge_bound(self, p: int, m: int, n: int) -> PowerExpr:
        """Edge-count lower bound p^(limit * (e_{n+1} - n - m)) for the n-th
        construction, e_{n+1} read from :meth:`exponent`; the exponent is an
        integer, as growth = 1 (mod den) makes e_{n+1} = m + n (mod den)."""
        self.require(p, m, n)
        return PowerExpr(p, self.limit * (self.exponent(m, n + 1) - n - m))

    def _v_vs(self, p: int, m: int, n: int, value: int) -> int:
        """Exact sign of v(q_{p,m,n}) - value for value >= 2, with q = p^e read
        from :meth:`exponent`, not :meth:`order`: a probe needs no checks.  As
        q^growth < v(q) < 8 q^growth <= p^3 q^growth, q is expanded only
        when p^(growth e) <= value < p^(growth e + 3), so :meth:`substrate`'s guard on
        q^(growth + line_power) fires only past 3/4 (girth 6) or 5/6 (girth 8) of the budget's digits."""
        e = self.exponent(m, n)
        if not power_at_least(value, 1, p, self.growth * e):
            return 1
        if power_at_least(value, 1, p, self.growth * e + 3):
            return -1
        v = self.substrate(checked_pow(p, e, f"v({p}^{e})"))[0]
        return (v > value) - (v < value)

    def seed(self, p: int, r: int) -> tuple[int, int]:
        """The seed (m*, n*) that :meth:`plan` grows from: one ``bisect`` finds
        the least m* on the lattice 1 + step*k that satisfies the premises and
        p^m >= r - 1, decided as not r - 2 >= p^m without expanding p^m; both
        hold by m = r.bit_length() + 4.  n* is the least n with m* < growth^n,
        so growth^(n*-1) - shift <= m* with shift = step - 1 (10^k - 1 is odd)."""
        int_args(None, p=p, r=r)
        if not is_prime(p):
            raise PreconditionError(f"p must be prime, got {short_decimal(p)}")
        if r < 2:
            raise PreconditionError(f"r must be >= 2, got {short_decimal(r)}")

        def fits(m: int) -> bool:
            held = all(ok(p, m) for _, _, ok in self.premises)
            return held and (r < 4 or not power_at_least(r - 2, 1, p, m))

        cells = range(1, r.bit_length() + 4 + self.m_step, self.m_step)
        m_star = cells[bisect_left(cells, True, key=fits)]
        return m_star, settle(1, lambda n: self.growth ** (n - 1) <= m_star)

    def plan(self, p: int, r: int, n_vertices: int) -> PlanResult:
        """Pick (m, n) with v(q_{p,m,n}) <= N < v(q_{p,m+step,n}) by exact
        comparisons.  From the seed (m*, n*) of :meth:`seed`, the search climbs
        a level, one probe each, while N reaches the cell one past the level's
        top, v(q_{p,g^(n+1)+1,n}) = v(q_{p,g^n,n+1}); then it bisects that
        level's lattice cells alone.  The returned pair additionally satisfies
        m* <= m, n* <= n and growth^(n-1) - shift <= m <= growth^(n+1) - shift;
        both sandwich inequalities are re-checked exactly before returning.  A
        p, r or N that is not an int is refused before any of this, and a seed
        whose vertex count is past the digit budget by :meth:`v`.
        """
        int_args(None, p=p, r=r, N=n_vertices)
        m_star, n_star = self.seed(p, r)
        step, shift, g = self.m_step, self.m_step - 1, self.growth
        seed_vertices = self.v(self.order(p, m_star, n_star).expand())
        if n_vertices < seed_vertices:
            raise BelowSeedError(n_vertices, seed_vertices)

        n = n_star
        while self._v_vs(p, g ** (n + 1) - shift + step, n, n_vertices) <= 0:
            n += 1
        cells = range(max(m_star, g ** (n - 1) - shift), g ** (n + 1) - shift + step, step)
        m = cells[bisect_right(cells, 0, key=lambda m: self._v_vs(p, m, n, n_vertices)) - 1]

        if not self._v_vs(p, m, n, n_vertices) <= 0 < self._v_vs(p, m + step, n, n_vertices):
            raise PreconditionError("sandwich re-check failed")  # unreachable for N >= N*
        return PlanResult(m, n, m_star, n_star, seed_vertices)


ROUTES = {
    6: Route(
        girth=6,
        base=None,
        line_power=3,
        m_step=1,
        edge_power=64,
        c2=33**2,
        premises=(
            ("p-prime", "p = {p} is prime", lambda p, m: is_prime(p)),
            # for p >= 2 an exponent past 3 cannot change the answer (2^3 >= 5): nothing large is expanded
            ("seed-size", "p^(m-1) >= 5 at m = {m}", lambda p, m: m >= 2 and p ** min(m - 1, 3) >= 5),
        ),
    ),
    8: Route(
        girth=8,
        base=2,
        line_power=2,
        m_step=2,
        edge_power=72,
        c2=13**2 * 10,
        premises=(
            ("m-odd", "m = {m} is odd", lambda p, m: m % 2 == 1),
            ("m-size", "m = {m} >= 5", lambda p, m: m >= 5),
        ),
    ),
}


def route_for(girth: int) -> Route:
    int_args(None, girth=girth)
    if girth not in ROUTES:
        raise PreconditionError(f"girth must be 6 or 8, got {short_decimal(girth)}")
    return ROUTES[girth]


def plan(girth: int, p: int | None, r: int, n_vertices: int) -> PlanResult:
    """:meth:`Route.plan` on the girth's route; ``p`` may be None on the
    girth-8 route, whose base is fixed at 2."""
    route = route_for(girth)
    return route.plan(route.base_for(p, f"girth-{girth} plan"), r, n_vertices)


# The benchmark tracer (perfbench/tracing.py) wraps these two names to time
# the plan search; delete them once it wraps Route.plan (ROADMAP item 1).


def plan_parameters_hexagon(p: int, r: int, n_vertices: int) -> PlanResult:
    return plan(6, p, r, n_vertices)


def plan_parameters_octagon(r: int, n_vertices: int) -> PlanResult:
    return plan(8, None, r, n_vertices)


@record
class TheoremBound:
    """Asymptotic edge-bound exponent at a concrete N.

    ``exponent`` evaluates the display form exactly as printed, the
    route's limit times (girth 6) 1 - 33/sqrt(log_p N) or (girth 8)
    1 - 13 sqrt(10/log2 N), in high precision; it is for display
    only.  ``bound`` is N raised to that exponent rounded *down* to a
    multiple of 1/72, decided exactly by integer arithmetic, so it is
    always a true lower bound, also where the exponent is itself a
    multiple of 1/72.  ``derived_constant`` restates the display in the
    c/sqrt(log2 N) shape; it is derived here, not quoted.
    """

    girth: int
    exponent: float
    bound: PowerExpr
    derived_constant: float


_STEPS = 72  # the floored exponent is a multiple of 1/_STEPS
_PREC = 60  # decimal digits of the display floats' working precision


@functools.cache
def _ln_base(base: int) -> Decimal:
    """ln base at the working precision, computed once per process."""
    return Decimal(base).ln(Context(prec=_PREC))


def theorem_bound(girth: int, p: int | None, n_vertices: int) -> TheoremBound:
    """High-precision exponent of the edge-count lower bound at N vertices.

    Both displays are (a/b)(1 - sqrt(c2 / log_base N)), with the route's limit
    a/b in lowest terms and its c2.  Squaring clears the root, so for k < 72a/b

        k/72 <= exponent  iff  N^((72a - k*b)^2) >= base^(c2 * (72a)^2),

    and every k >= 72a/b fails.  The floored multiple of 1/72 is the
    largest k that passes: the high-precision float proposes it, and
    :func:`settle` decides it by that comparison.

    Negative exponents are returned as-is (the bound is then vacuous).
    For girth 8 the base is fixed at 2 and ``p`` is ignored.
    """
    int_args(2, N=n_vertices)
    route = route_for(girth)
    base = route.base
    if base is None:
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"girth-{girth} bound needs a prime p, got {short_value(p)}")
        base = p
    scale = route.limit.numerator * _STEPS

    def passes(k: int) -> bool:
        gap = scale - k * route.limit.denominator
        return gap > 0 and power_at_least(n_vertices, gap * gap, base, route.c2 * scale * scale)

    with localcontext(Context(prec=_PREC)):  # not the caller's context, whatever it is
        shift = max(0, n_vertices.bit_length() - 216)  # ln N from its top 216 bits is off by < 2^-215
        ln_n = Decimal(n_vertices >> shift).ln() + shift * _ln_base(2)
        share = Decimal(route.limit.numerator) / route.limit.denominator
        expo = share * (1 - (route.c2 * _ln_base(base) / ln_n).sqrt())
        constant = float(share * (route.c2 * _ln_base(base) / _ln_base(2)).sqrt())
        k = int((expo * _STEPS).to_integral_value(ROUND_FLOOR))
    k = settle(k, passes)
    return TheoremBound(girth, float(expo), PowerExpr(n_vertices, Fraction(k, _STEPS)), constant)
