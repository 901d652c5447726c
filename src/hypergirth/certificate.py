"""Machine-checkable certificates for the constructions' inequality chains.

A certificate fixes (girth, p, m, n, r) and records every inequality the
corresponding existence argument needs, each decided exactly: power
inequalities by :func:`hypergirth.arith.power_at_least`, which brackets
both sides from their top bits (of a long count, its leading digits), the
rest by exact comparison.  A power row is shown with the exponents it is
decided at, and a premise row is the route's own, so the statement and the
decision of such a row cannot disagree.  Each count is computed once, as a
Decimal under :data:`hypergirth.arith.EXACT`; the checks decide on it and
the value lines print it.  The tower's vertex, edge and final-edge counts
come from :func:`hypergirth.transforms.tower_counts`, the rule that also
counts the tower ``build_recursive`` builds; check_pow refuses each count
by a power of p above it, before any order is raised.  A ``copy-count-i`` row,
order_i >= (p - 1) * v_(i-1), is one stronger than substitute_edges'
check that a host line of 1 + order_i points holds the p - 1 copies,
1 + order_i >= (p - 1) * v_(i-1).  A certificate is VALID iff all checks
pass; assumption failures produce an INVALID certificate listing the
failure, never an exception; the ``r-range`` row is ``Route.r_in_range``,
the planner's own test.  Serialized certificates re-verify independently:
re-verification reruns the whole computation from the header parameters
alone, read by ``formats.read_int``; ``_HEADER`` lists their keys once,
for ``serialize`` and ``parse_certificate``.  Both routes are built by one
function driven by the route's record in :data:`hypergirth.planner.ROUTES`.
"""

from __future__ import annotations

import os
from decimal import Decimal, localcontext

from .arith import (
    EXACT,
    PowerExpr,
    check_pow,
    checked_pow,
    int_args,
    int_to_decimal,
    is_prime,
    power_at_least,
    record,
    short_decimal,
    short_value,
)
from .errors import FormatError, PreconditionError, VerificationError
from .formats import read_header, read_int
from .planner import route_for
from .transforms import tower_counts

_BIGNUM = "bignum"
_EXPONENT = "exponent-exact"


@record
class CertCheck:
    name: str
    statement: str
    method: str
    passed: bool


_HEADER = ("girth", "p", "m", "n", "r")  # the integer header lines, in order, each a Certificate field


@record
class Certificate:
    girth: int
    p: int
    m: int
    n: int
    r: int
    checks: tuple[CertCheck, ...]
    values: tuple[tuple[str, str], ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        """``VALID`` or ``INVALID``, as the certificate, `plan` and report.txt state it."""
        return "VALID" if self.valid else "INVALID"

    def serialize(self) -> str:
        lines = ["cert 1", *(f"{key} {int_to_decimal(getattr(self, key))}" for key in _HEADER), f"status {self.status}"]
        for c in self.checks:
            lines.append(f"check {c.name} {'PASS' if c.passed else 'FAIL'} {c.method}")
        for name, value in self.values:
            lines.append(f"value {name} {value}")
        return "\n".join(lines) + "\n"


def _rows(method: str, *rows: tuple[str, str, bool]) -> list[CertCheck]:
    """CertChecks of (name, statement, passed) rows; a power row is a :func:`_power_row`."""
    return [CertCheck(name, statement, method, ok) for name, statement, ok in rows]


def _power_row(name: str, left: str, value: Decimal, a: int, p: int, sym: str, b: int, rel: str) -> CertCheck:
    """The row ``left^a rel sym^b``, rel ``>=`` or ``<``, decided by
    power_at_least(value, a, p, b) and shown with that b, in full."""
    holds = power_at_least(value, a, p, b) == (rel == ">=")
    return CertCheck(name, f"{left}^{a} {rel} {sym}^{int_to_decimal(b)}", _BIGNUM, holds)


def certificate(girth: int, p: int | None, m: int, n: int, r: int) -> Certificate:
    """Verify the full inequality chain for (p, m, n, r) at the given girth.

    Checks cover, in order: the standing assumptions; closed form =
    recursion for every order; the copy-count inequalities making each
    substitution stage possible; the vertex-count growth bounds; the exact
    edge-count recurrence against the claimed lower-bound power; and the
    final edge-splitting factor.  Each power row is a :func:`_power_row`,
    shown with the exponent it is decided at; the premise and order rows
    are the route's.  Every count is capped by the digit budget of
    :mod:`hypergirth.arith` (a ResourceBudgetError names the first check
    whose power of p would exceed it, before any order is raised).
    """
    route = route_for(girth)
    p = route.base_for(p, f"girth-{girth} certificate")
    int_args(p=p, m=m, n=n, r=r)

    g, den, sym, d = route.growth, route.den, route.sym, route.growth + route.line_power - 1

    # Premises and the uniformity range; a non-prime p fails them all unexpanded.
    prime_ok = is_prime(p)
    rows = [route.premise_check(premise, p, m) for premise in route.premises]
    if prime_ok:
        check_pow(p, m, "check r-range")
    rows.append(("r-range", f"2 <= r <= 1 + {sym}^m at r = {short_decimal(r)}", prime_ok and route.r_in_range(p, m, r)))
    checks = _rows(_BIGNUM, *((name, shown, prime_ok and ok) for name, shown, ok in rows))
    if not all(c.passed for c in checks):
        return Certificate(route.girth, p, m, n, r, tuple(checks), ())

    # Every count is computed once, as a Decimal under EXACT, where any
    # rounding raises; str() of a Decimal is linear where str(int) is
    # quadratic.  Each order's size is checked as soon as its exponent is
    # known, so an over-budget order is refused before the checks of the
    # later ones are built; then, before any order is raised, every count by
    # check_pow on a power of p above it: v_i <= b_i < 2 q_i^d <= p^(d e_i + 1),
    # b of degree d in q_i = p^e_i, and edges <= final_edges < p^(m + 2n - 1 + d sum e_i),
    # as split <= p^m and copies < p.  Only p, split and copies are converted from ints.
    exps: list[int] = []
    with localcontext(EXACT):
        e = m
        for i in range(1, n + 1):
            exps.append(route.exponent(m, i))
            checks += _rows(_EXPONENT, *route.order_checks(i, exps[-1], e))
            check_pow(p, exps[-1], f"check order_{i}")
            e = g * e + 1
        for i, exponent in enumerate(exps, start=1):
            check_pow(p, d * exponent + 1, f"check vertex-growth-{i}")
        check_pow(p, m + 2 * n - 1 + d * sum(exps), "check edge-bound")
        orders = [Decimal(p) ** exponent for exponent in exps]
        substrates = [route.substrate(q) for q in orders]

        # Each stage places p - 1 template copies per edge (one at base 2); the row
        # cannot FAIL once the premises hold: (p-1) v(q) < p q^growth = order_i.
        copies = p - 1
        checks += _rows(_BIGNUM, *((f"copy-count-{i}", f"order_{i} >= {int_to_decimal(copies)} * v_{i - 1}",
                                    orders[i - 1] >= copies * substrates[i - 2][0]) for i in range(2, n + 1)))
        checks += [_power_row(f"vertex-growth-{i}", f"v_{i}", v, den, p, sym, den * route.exponent(m, i + 1) + 1, "<")
                   for i, (v, _) in enumerate(substrates, start=1)]

        split = Decimal((1 + checked_pow(p, m, "check r-range")) // r)
        vertices, edges, final = tower_counts(substrates, [copies] * (n - 1), split)
        bound = route.edge_bound(p, m, n)
        checks.append(_power_row("edge-bound", "edges", edges, route.edge_power, p, sym,
                                 route.edge_power * int(bound.exponent), ">="))
        checks += _rows(_BIGNUM, ("split-factor", f"floor((1 + {sym}^m) / r) >= 1", split >= 1))

    values = [(f"order_{i}", str(PowerExpr(p, exponent))) for i, exponent in enumerate(exps, start=1)]
    for i, (v, b) in enumerate(substrates, start=1):
        values.append((f"v_{i}", str(v)))
        values.append((f"b_{i}", str(b)))
    values.append(("vertices", str(vertices)))
    values.append(("edges", str(edges)))
    values.append(("edge_bound", str(bound)))
    values.append(("split_factor", str(split)))
    values.append(("final_edges", str(final)))
    return Certificate(route.girth, p, m, n, r, tuple(checks), tuple(values))


def _header_value(token: str, lineno: int, key: str) -> int | str:
    if key == "status":
        if token not in ("VALID", "INVALID"):
            raise FormatError(f"line {lineno}: status must be VALID or INVALID, got {short_value(token)}")
        return token
    return read_int(f"line {lineno}", key, token)


def parse_certificate(text: str) -> Certificate:
    """Parse a serialized certificate without re-verifying it."""
    fields = tuple(f"{key} <N>" for key in _HEADER) + ("status VALID|INVALID",)
    body, (*header, status) = read_header(text, "cert 1", fields, _header_value)
    checks: list[CertCheck] = []
    values: list[tuple[str, str]] = []
    for lineno, line in enumerate(body, start=8):
        parts = line.split(" ")
        if parts[0] == "check" and len(parts) == 4 and parts[2] in ("PASS", "FAIL"):
            checks.append(CertCheck(parts[1], "", parts[3], parts[2] == "PASS"))
        elif parts[0] == "value" and len(parts) == 3:
            values.append((parts[1], parts[2]))
        else:
            raise FormatError(f"line {lineno}: expected a check or value line, got {short_value(line)}")
    cert = Certificate(*header, tuple(checks), tuple(values))
    if status != cert.status:
        raise FormatError("line 7: status does not match the recorded checks")
    return cert


def reverify_certificate(text: str) -> Certificate:
    """Recompute a serialized certificate from its header parameters alone
    and demand bit-identical agreement; returns the recomputed value."""
    parsed = parse_certificate(text)
    try:
        rebuilt = certificate(parsed.girth, parsed.p, parsed.m, parsed.n, parsed.r)
    except PreconditionError as exc:
        # No certificate has such a header: serialize() only writes what
        # certificate() accepted.
        raise VerificationError(f"certificate does not re-verify: {exc}") from None
    # The last line of each text is its only empty one, so two texts that
    # differ differ within the shorter one.
    for lineno, (got, expected) in enumerate(zip(text.split("\n"), rebuilt.serialize().split("\n")), start=1):
        if got != expected:
            column = len(os.path.commonprefix((got, expected))) + 1
            raise VerificationError(
                f"certificate does not re-verify: line {lineno} column {column}: "
                f"got {short_value(got)}, recomputed {short_value(expected)}"
            )
    return rebuilt
