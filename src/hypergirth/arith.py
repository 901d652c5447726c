"""Exact big-integer and rational-exponent arithmetic.

PowerExpr holds a value of the form base**e with e an exact rational whose
denominator divides 72 (covering eighths, ninths and their products).
Inequalities involving fractional exponents are decided by raising both
sides to the denominator power, never by floating point.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ResourceBudgetError

DEFAULT_DIGIT_BUDGET = 10**6


def int_digits10(value: int) -> int:
    """Exact decimal digit count of a nonnegative integer."""
    if value == 0:
        return 1
    approx = int(value.bit_length() * 0.30102999566398114)
    # approx is within 1 of the truth; settle it with one power comparison.
    return approx + 1 if value >= 10**approx else approx


def int_to_decimal(value: int) -> str:
    """str(value) regardless of the interpreter's int->str digit limit."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            return str(value)
        finally:
            sys.set_int_max_str_digits(limit)


def short_decimal(value: int, keep: int = 40) -> str:
    """Human-oriented rendering: exact when small, truncated with an
    explicit digit count when huge.  Not for canonical serialization."""
    digits = int_digits10(value)
    if digits <= keep + 12:
        return int_to_decimal(value)
    text = int_to_decimal(value)
    return f"{text[:keep]}...({digits} digits)"


def parse_decimal_int(text: str, digit_budget: int | None = DEFAULT_DIGIT_BUDGET) -> int:
    """Parse a canonical decimal integer of any size within the budget."""
    if not re.match(r"^(0|[1-9][0-9]*)$", text):
        raise PreconditionError(f"not a canonical decimal integer: {text[:40]!r}")
    if digit_budget is not None and len(text) > digit_budget:
        raise ResourceBudgetError(f"integer has {len(text)} digits, budget is {digit_budget}")
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            return int(text)
        finally:
            sys.set_int_max_str_digits(limit)


# The first 13 primes, and psi_13: the least n that passes Miller-Rabin to
# every one of them without being prime (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017, arXiv:1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin on the first 13 prime bases.

    A failing base proves n composite at any size.  Passing every base
    proves n prime below psi_13; at or above it a pass is only probable,
    so ResourceBudgetError is raised rather than an answer given.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ResourceBudgetError(
            f"cannot decide whether {short_decimal(n)} is prime: it passes Miller-Rabin on the "
            f"first 13 prime bases, which is a proof only below {_MR_EXACT_BELOW}"
        )
    return True


def digits10(base: int, exponent: Fraction | int) -> float:
    """Approximate decimal digit count of base**exponent (guards only)."""
    if exponent <= 0:
        return 1.0
    return float(exponent) * math.log10(base) + 1.0


def checked_pow(base: int, exponent: int, digit_budget: int | None, what: str = "expansion") -> int:
    """base**exponent as an int, refused when the result would exceed the
    digit budget."""
    if exponent < 0:
        raise PreconditionError(f"{what}: negative exponent {exponent} has no integer expansion")
    if digit_budget is not None and digits10(base, exponent) > digit_budget:
        raise ResourceBudgetError(
            f"{what}: {base}^{exponent} needs ~{digits10(base, exponent):.3g} digits, "
            f"budget is {digit_budget}"
        )
    return base**exponent


@dataclass(frozen=True)
class PowerExpr:
    """Exact value base**exponent, exponent a rational with denominator
    dividing 72.  Equality is equality of (base, exponent); order
    comparisons are exact and need equal bases."""

    base: int
    exponent: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise PreconditionError(f"PowerExpr base must be an integer >= 2, got {self.base!r}")
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if 72 % self.exponent.denominator != 0:
            raise PreconditionError(
                f"PowerExpr exponent denominator must divide 72, got {self.exponent}"
            )

    def __str__(self) -> str:
        e = self.exponent
        base = int_to_decimal(self.base)
        if e.denominator == 1:
            return f"{base}^{e.numerator}"
        return f"{base}^{e.numerator}/{e.denominator}"

    def describe(self) -> str:
        """Short rendering safe for messages even with a huge base."""
        e = self.exponent
        tail = f"^{e.numerator}" if e.denominator == 1 else f"^{e.numerator}/{e.denominator}"
        return short_decimal(self.base) + tail

    @property
    def is_integral(self) -> bool:
        return self.exponent.denominator == 1 and self.exponent >= 0

    def expand(self, digit_budget: int | None = DEFAULT_DIGIT_BUDGET) -> int:
        """The exact integer value; only defined for nonnegative integer
        exponents."""
        if self.exponent.denominator != 1 or self.exponent < 0:
            raise PreconditionError(f"{self.describe()} has no integer expansion")
        return checked_pow(self.base, self.exponent.numerator, digit_budget, self.describe())

    def digits10(self) -> float:
        return digits10(self.base, self.exponent)

    def _cmp_key_same_base(self, other: "PowerExpr") -> tuple[Fraction, Fraction]:
        if other.base != self.base:
            raise PreconditionError(
                f"exact comparison of {self} and {other} requires equal bases; "
                "expand to integers instead"
            )
        return self.exponent, other.exponent

    def __lt__(self, other: "PowerExpr") -> bool:
        a, b = self._cmp_key_same_base(other)
        return a < b

    def __le__(self, other: "PowerExpr") -> bool:
        a, b = self._cmp_key_same_base(other)
        return a <= b

    def compare_to_int(self, value: int, digit_budget: int | None = DEFAULT_DIGIT_BUDGET) -> int:
        """Exact three-way comparison with a nonnegative integer."""
        if value <= 0:
            return 1
        den = self.exponent.denominator
        num = self.exponent.numerator
        if num < 0:
            return -1 if value >= 1 else 1
        # Cheap digit bound first, exact power comparison only when close.
        approx = self.digits10()
        vdigits = int_digits10(value)
        if approx > vdigits + 2:
            return 1
        if approx < vdigits - 2:
            return -1
        lhs = checked_pow(self.base, num, digit_budget, self.describe())
        rhs = value**den if den != 1 else value
        return (lhs > rhs) - (lhs < rhs)


_POWER_RE = re.compile(r"^([1-9][0-9]*)\^(-?(0|[1-9][0-9]*))(?:/([1-9][0-9]*))?$")


def parse_power_expr(text: str) -> PowerExpr:
    """Parse the `b^a` / `b^a/d` rendering produced by str(PowerExpr)."""
    m = _POWER_RE.match(text)
    if m is None:
        raise PreconditionError(f"not a power expression: {text!r}")
    base = int(m.group(1))
    num = int(m.group(2))
    den = int(m.group(4)) if m.group(4) else 1
    frac = Fraction(num, den)
    if (m.group(4) and frac.denominator != den) or (num == 0 and m.group(4)):
        raise PreconditionError(f"power expression exponent not in lowest terms: {text!r}")
    return PowerExpr(base, frac)
