"""Exact big-integer and rational-exponent arithmetic.

PowerExpr holds a value of the form base**e with e an exact rational whose
denominator divides 72 (covering eighths, ninths and their products).
Inequalities between powers, n**a >= base**b, are decided by
:func:`power_at_least` from directed-rounding brackets of both sides, with
an exact fallback, never by floating point; n may be an int or an exact
integral Decimal.

CPython converts between int and decimal text in time quadratic in the
length.  Long decimals are therefore written from ``decimal.Decimal``
values, whose str() is linear, computed under :data:`EXACT` or built from
an int's bit halves (:func:`int_to_decimal`), and read by halving
(:func:`parse_decimal_int`).

libmpdec (2.5.1, the build bundled with CPython 3.10 to 3.13) multiplies
by its number-theoretic transform only when the shorter factor has more
than 256 words of 19 digits, 4 865 digits or more; below that line it
multiplies word by word, in time that grows as the product of the lengths.
:func:`mul` lifts a factor of 2 000 to 4 864 digits past the line by
adding P = 10^4865 and takes the lift off again exactly.  Measured on a
2-core VM (Python 3.11.7), plain against lifted: 4 332^2 digits 0.46
against 0.17 ms, 3 249 x 8 664 digits 0.71 against 0.34 ms.  The lift
loses below 2 000 digits (1 083 x 8 664: 0.23 against 0.35 ms) and on
two short factors whose digits together number at most 4 865 (2 000^2:
0.10 against 0.17 ms), so those are multiplied plain.

The module also holds what every layer shares: :func:`show`, the one rule
for every value a message shows, the int argument check (:func:`int_args`)
and :func:`record`, the decorator that makes the package's value types.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded
from fractions import Fraction
from operator import attrgetter
from typing import Callable, TypeVar

from .errors import PreconditionError, ResourceBudgetError

DIGIT_BUDGET = 10**6  # the most decimal digits any number is parsed or expanded to; no override
DECIMAL = re.compile(r"0|[1-9][0-9]*")  # a canonical decimal integer
_SHORT = 10**52  # short_decimal shows an int below this whole
_SHOWN = 10  # show shows this many elements of a container and counts the rest

# Integer +, -, * and ** (by an int >= 0) on Decimals under this context are
# exact: a step that would round or fail raises instead of giving a wrong
# digit.  Not for division: 1/3 would be worked to MAX_PREC digits.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation])
Number = TypeVar("Number", int, Decimal)  # an exact integer: an int, or a Decimal under EXACT

# mul lifts a Decimal factor of _LIFT_FROM to _LIFT_DIGITS - 1 digits by
# _LIFT = 10^_LIFT_DIGITS, past libmpdec's 256-word line; no override.
_LIFT_DIGITS = 4865
_LIFT_FROM = 2000
_LIFT = Decimal(f"1e{_LIFT_DIGITS}")
_LIFT_SQUARED = Decimal(f"1e{2 * _LIFT_DIGITS}")


def mul(x: Number, y: Number) -> Number:
    """x * y, for ints or for Decimals under EXACT.  When the shorter of two
    Decimal factors has 2 000 to 4 864 digits (read from adjusted()) and
    the two have more than 4 865 digits together, each short factor is
    lifted by P = 10^4865 under EXACT: (x + P) y - P y, or (x + P)(y + P)
    - P (x + y) - P^2 when both are short, where P times a value is a
    scaleb that moves no digits.  Nothing rounds, and the result has the
    exponent of x * y, so it is the same Decimal.  Anything else is x * y."""
    if isinstance(x, Decimal) and isinstance(y, Decimal):
        dx, dy = x.adjusted() + 1, y.adjusted() + 1
        if dx > dy:
            x, y, dx, dy = y, x, dy, dx
        if _LIFT_FROM <= dx < _LIFT_DIGITS < dx + dy:
            if dy >= _LIFT_DIGITS:
                return EXACT.subtract(EXACT.multiply(EXACT.add(x, _LIFT), y), y.scaleb(_LIFT_DIGITS, EXACT))
            lifted = EXACT.multiply(EXACT.add(x, _LIFT), EXACT.add(y, _LIFT))
            return EXACT.subtract(EXACT.subtract(lifted, EXACT.add(x, y).scaleb(_LIFT_DIGITS, EXACT)), _LIFT_SQUARED)
    return x * y


def settle(k: int, holds: Callable[[int], bool]) -> int:
    """The largest k with holds(k), for a holds true up to some point and
    false after it: from a guess k (a float's) on either side, at any
    distance, step down while holds(k) fails, then up while holds(k + 1)."""
    while not holds(k):
        k -= 1
    while holds(k + 1):
        k += 1
    return k


def int_digits10(value: int) -> int:
    """Exact decimal digit count of a value >= 0, without converting it: one
    more than the largest k with value >= 10^k, proposed by a float and
    settled by power_at_least."""
    if value < 2:
        return 1
    return settle(int(math.log10(value)), lambda k: k < 1 or power_at_least(value, 1, 10, k)) + 1


_DECIMAL_LEAF = 2048  # bits: Decimal(int) is quadratic in the length, but cheap up to here


def int_to_decimal(value: int) -> str:
    """str(value) regardless of the interpreter's int->str digit limit,
    which does not bound Decimal.  A long value is split at bit halves,
    hi * 2^k + lo, and the halves' Decimals joined by EXACT.fma with each
    2^k computed once per call, so the cost follows Decimal multiplication
    instead of Decimal(int)'s quadratic one."""
    if value.bit_length() <= _DECIMAL_LEAF:
        return str(Decimal(value))
    pow2: dict[int, Decimal] = {}

    def convert(n: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_LEAF:
            return Decimal(n)
        k = bits // 2
        if k not in pow2:
            pow2[k] = EXACT.power(2, k)
        return EXACT.fma(convert(n >> k, bits - k), pow2[k], convert(n & ((1 << k) - 1), k))

    text = str(convert(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def short_decimal(value: int | str) -> str:
    """Human-oriented rendering of an integer, or of a canonical decimal
    string without converting it: exact up to 52 digits, else the first 40
    and the digit count, after the sign.  Not for canonical serialization.
    A longer int is never converted whole: its leading 40 digits are the
    quotient by 10^(digits - 40)."""
    if isinstance(value, str):
        return value if len(value) <= 52 else f"{value[:40]}...({len(value)} digits)"
    if value < 0:
        return "-" + short_decimal(-value)
    if value < _SHORT:
        return int_to_decimal(value)
    digits = int_digits10(value)
    return f"{value // 10 ** (digits - 40)}...({digits} digits)"


def show(ids: object, show_one: Callable[[object], str] = str, within: tuple[int, ...] = ()) -> str:
    """A value, such as an edge or a caller's token, as messages show it:
    ``show_one(ids)``, str() at the top and repr() within, except that an
    int goes through short_decimal, as do a Fraction's numerator and
    denominator, a str or bytes is cut to 40 characters, the first 10
    elements of a tuple, list, set or frozenset are shown the same way and
    the rest counted, and any other value too long for the int-to-str digit
    limit is named by its type, so no huge id, token or container stops the
    message.  An OSError shows as str() shows it, but with each of its paths
    shown the same way.  ``within`` holds the enclosing containers' ids; a
    list that holds itself shows as repr does."""
    kind = type(ids)
    if isinstance(ids, OSError) and ids.filename is not None:
        paths = " -> ".join(show(path, repr) for path in (ids.filename, ids.filename2) if path is not None)
        return f"[Errno {ids.errno}] {ids.strerror}: {paths}"
    if kind is int:
        return short_decimal(ids)
    if kind is Fraction:
        num, den = short_decimal(ids.numerator), short_decimal(ids.denominator)
        if show_one is repr:
            return f"Fraction({num}, {den})"
        return num if den == "1" else f"{num}/{den}"
    if kind in (tuple, list, set, frozenset):
        if id(ids) in within:
            return "[...]" if kind is list else "(...)"
        inner = ", ".join(show(x, repr, within + (id(ids),)) for x in itertools.islice(ids, _SHOWN))
        if len(ids) > _SHOWN:
            inner += f", ...({len(ids) - _SHOWN} more)"
        if kind is tuple:
            return f"({inner},)" if len(ids) == 1 else f"({inner})"
        if kind is list:
            return f"[{inner}]"
        if not ids:
            return f"{kind.__name__}()"
        return f"{{{inner}}}" if kind is set else f"frozenset({{{inner}}})"
    try:
        return show_one(ids[:40] if isinstance(ids, (str, bytes)) else ids)
    except ValueError:
        return f"<{kind.__name__}>"


def short_value(value: object) -> str:
    """A value as messages show it: :func:`show` with repr() at the top too."""
    return show(value, repr)


def int_args(least: int | None = 1, **kwargs: object) -> None:
    """Refuse the first keyword argument that is not an int of at least
    ``least`` (any int when ``least`` is None); a bool passes as the int it
    is.  The message wants "an integer" when ``least`` is None and "a
    positive integer" when it is 1; otherwise it wants ">= least" of an int
    and "an integer >= least" of anything else."""
    for name, value in kwargs.items():
        if isinstance(value, int) and (least is None or value >= least):
            continue
        if least is None:
            wanted = "an integer"
        elif least == 1:
            wanted = "a positive integer"
        else:
            wanted = f">= {least}" if isinstance(value, int) else f"an integer >= {least}"
        raise PreconditionError(f"{name} must be {wanted}, got {short_value(value)}")


_NO_DEFAULT = object()


def _field_repr(value: object) -> str:
    """repr(value), or :func:`short_value` where repr() raises ValueError, as
    it does on an int past the interpreter's int-to-str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return short_value(value)


def record(cls: type) -> type:
    """Class decorator for the package's immutable value types.  The class's
    own annotations, in order, are its fields (``cls._fields``), and a
    class-level value is a default.  ``__init__`` takes the fields by
    position or keyword, stores them as the instance dict, then calls any
    ``__post_init__``.  Equality (only within the class) and the hash read
    the fields alone, never a cached_property value; the repr reads
    ``Name(field=value, ...)``, each value by repr() or, where that raises
    ValueError, by :func:`short_value`; assignment and deletion raise AttributeError.
    The methods are closures, so decorating a class compiles no source."""
    names = tuple(cls.__annotations__)
    template = {name: cls.__dict__.get(name, _NO_DEFAULT) for name in names}
    required = sum(value is _NO_DEFAULT for value in template.values())
    if _NO_DEFAULT in tuple(template.values())[required:]:
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    n, key, post, store = len(names), attrgetter(*names), hasattr(cls, "__post_init__"), object.__setattr__
    call = f"{cls.__qualname__}()"

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= n:
            fields = template.copy()
            fields.update(zip(names, args))
            fields.update(kwargs)
            if len(args) > n or len(fields) > n or kwargs.keys() & names[:len(args)] or _NO_DEFAULT in fields.values():
                raise TypeError(f"{call} takes {names}, got {len(args)} by position and "
                                f"{short_value(tuple(kwargs))} by keyword")
        else:
            fields = {} if len(args) == n else template.copy()  # the defaults stay where args ends
            i = 0
            for value in args:
                fields[names[i]] = value
                i += 1
        store(self, "__dict__", fields)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {short_value(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {short_value(name)}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


def parse_decimal_int(text: str) -> int:
    """Parse a canonical decimal integer of any size within the digit budget."""
    if not DECIMAL.fullmatch(text):
        raise PreconditionError(f"not a canonical decimal integer: {short_value(text)}")
    if len(text) > DIGIT_BUDGET:
        raise ResourceBudgetError(f"integer has {len(text)} digits, budget is {DIGIT_BUDGET}")
    return _parse_digits(text)


_PARSE_LEAF = 640  # int() reads this many digits under any int/str digit limit, which is 0 or >= 640


def _parse_digits(digits: str) -> int:
    """int(digits) by halving: hi * 10^k + lo, with 10^k = 5^k << k and
    each 5^k computed once per call, so the cost follows int multiplication
    instead of int()'s quadratic one."""
    pow5: dict[int, int] = {}

    def parse(start: int, stop: int) -> int:
        if stop - start <= _PARSE_LEAF:
            return int(digits[start:stop])
        k = (stop - start) // 2
        if k not in pow5:
            pow5[k] = 5**k
        return (parse(start, stop - k) * pow5[k] << k) + parse(stop - k, stop)

    return parse(0, len(digits))


# The first 13 primes, and psi_13: the least n that passes Miller-Rabin to
# every one of them without being prime (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017, arXiv:1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# Past this length is_prime runs no round: no caller accepts so large an n,
# and a round's time grows as the cube of n's length (on a 2-core VM all 13
# take 0.3 s at 2048 bits, and one takes 15 s at 6000 digits).
_MR_BITS = 2048


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin on the first 13 prime bases.

    A failing base proves n composite.  Passing every base proves n prime
    below psi_13; at or above it a pass is only probable, so
    ResourceBudgetError is raised rather than an answer given, as it is
    before any round for an n of more than 2048 bits that no base divides.
    """
    int_args(None, n=n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n.bit_length() > _MR_BITS:
        raise ResourceBudgetError(
            f"cannot decide whether {short_decimal(n)} is prime: Miller-Rabin is run only up to {_MR_BITS} bits"
        )
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


@functools.cache
def _bits_below(digits: int) -> int:
    """floor(digits * log2 10), the largest L with 2^L <= 10^digits, digits >= 1."""
    return settle(int(digits * math.log2(10)), lambda bits: power_at_least(10, digits, 2, bits))


def check_pow(base: int, exponent: int, what: str) -> None:
    """Refuse base**exponent, before it is raised, when the exponent is
    negative or the result has more digits than the budget D: exactly when
    base**exponent >= 10^D, for a base >= 0.  With L = floor(D log2 10),
    e * bitlen(base) <= L admits and e * (bitlen(base) - 1) > L refuses from
    the bit lengths alone; the narrow rest is power_at_least(base, e, 10, D).
    The message's digit count is a float, shown only."""
    if exponent < 0:
        raise PreconditionError(f"{what}: negative exponent {short_decimal(exponent)} has no integer expansion")
    if base < 2:
        return
    bits, width = _bits_below(DIGIT_BUDGET), base.bit_length()
    if exponent * width <= bits:
        return
    if exponent * (width - 1) > bits or power_at_least(base, exponent, 10, DIGIT_BUDGET):
        digits = exponent * math.log10(base) + 1 if exponent.bit_length() < 1000 else math.inf
        shown = f"{short_decimal(base)}^{short_decimal(exponent)}"
        raise ResourceBudgetError(f"{what}: {shown} needs ~{digits:.7g} digits, budget is {DIGIT_BUDGET}")


def checked_pow(base: int, exponent: int, what: str) -> int:
    """base**exponent as an int, refused by :func:`check_pow` first."""
    check_pow(base, exponent, what)
    return base**exponent


def _round(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    """m * 2^e cut to at most prec mantissa bits, rounded down or up."""
    drop = m.bit_length() - prec
    if drop <= 0:
        return m, e
    r = m >> drop
    if up and r << drop != m:
        r += 1
    return r, e + drop


def _pow_bound(m: int, k: int, prec: int, up: bool) -> tuple[int, int]:
    """(r, e) with r * 2^e <= m^k (up=False) or >= m^k (up=True), for m >= 1.

    Binary powering that rounds every product in one direction: all
    factors are positive, so the result stays on that side of m^k.
    """
    r, e, sq, se = 1, 0, m, 0
    while True:
        if k & 1:
            r, e = _round(r * sq, e + se, prec, up)
        k >>= 1
        if not k:
            return r, e
        sq, se = _round(sq * sq, 2 * se, prec, up)


def _ge(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Exact x >= y for positive values m * 2^e."""
    (mx, ex), (my, ey) = x, y
    bx, by = mx.bit_length() + ex, my.bit_length() + ey
    if bx != by:
        return bx > by
    return mx << max(0, ex - ey) >= my << max(0, ey - ex)


# power_at_least reads a Decimal of at most this many digits whole: int() is
# quadratic in the length, but up to here cheaper than a bracket of 10^k.
_WHOLE = 600
# At a == 1 a long Decimal is bracketed at up to this many bits before the
# exact comparison: 2048 bits separate the edge bound of (8, -, 315, 2, 3),
# 0.17 ms in all, and one step at 8192 bits (0.6 ms) would cost more than
# EXACT.power(2, 38126) (0.5 ms).
_TIE_BITS = 2048


def _bracket(n: Decimal, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(lo, hi) with lo <= n <= hi, each m * 2^e as (m, e) with m >= 1 of
    about prec bits, for an integral Decimal n >= 1: n is cut to leading
    digits t of more than prec bits, t * 10^k <= n <= (t + 1) * 10^k, and
    one directed-rounding bracket of 10^k = 5^k * 2^k serves both sides.
    The t + 1 is dropped when the cut digits are all zeros."""
    k = max(0, n.adjusted() - 1 - prec * 30103 // 100000)  # t keeps more than prec * log10(2) + 1 digits
    scaled = n.scaleb(-k, EXACT)
    t = int(scaled)
    t_hi = t + (scaled != t)
    lo, e_lo = _pow_bound(5, k, prec, up=False)
    hi, e_hi = _pow_bound(5, k, prec, up=True)
    return _round(t * lo, e_lo + k, prec, up=False), _round(t_hi * hi, e_hi + k, prec, up=True)


def power_at_least(n: Number, a: int, base: int, b: int) -> bool:
    """Exact n^a >= base^b for n >= 2, a, b >= 1 and any base >= 2; n is
    an int or an integral Decimal, such as one computed under EXACT.

    n^a and base^b are bracketed from n's top bits (of a long Decimal, its
    leading digits, see :func:`_bracket`) with directed rounding, at a
    precision that grows until the brackets separate; at the latest they
    are exact, so even a tie decides.  With a and b coprime, a = 1 falls
    back to one exact comparison: at once for an int n, whose base**b is
    cheap, and for a Decimal n once brackets of 2048 bits have not
    separated.  A base that is no perfect power only rules out a tie at
    a > 1, such as (2^301)^2 = 4^301.  A Decimal of at most 600 digits is
    read whole, as an int.
    """
    if isinstance(n, Decimal) and n.adjusted() < _WHOLE:
        n = int(n)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    prec = 128
    while True:
        if isinstance(n, Decimal):
            (top, shift), (top_hi, shift_hi) = _bracket(n, prec)
        else:
            shift = shift_hi = max(0, n.bit_length() - prec)
            top = n >> shift
            top_hi = top + (top << shift != n)
        lo, e_lo = _pow_bound(top, a, prec, up=False)
        hi, e_hi = _pow_bound(top_hi, a, prec, up=True)
        n_lo, n_hi = (lo, e_lo + shift * a), (hi, e_hi + shift_hi * a)
        if _ge(n_lo, _pow_bound(base, b, prec, up=True)):
            return True
        if not _ge(n_hi, _pow_bound(base, b, prec, up=False)):
            return False
        if a == 1 and not isinstance(n, Decimal):
            return n >= base**b
        if a == 1 and prec >= _TIE_BITS:
            return n >= EXACT.power(base, b)
        prec *= 4


@record
class PowerExpr:
    """Exact value base**exponent, exponent a rational with denominator
    dividing 72.  Equality is equality of (base, exponent)."""

    base: int
    exponent: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise PreconditionError(f"PowerExpr base must be an integer >= 2, got {short_value(self.base)}")
        if not isinstance(self.exponent, Fraction):
            if not isinstance(self.exponent, int):
                shown = short_value(self.exponent)
                raise PreconditionError(f"PowerExpr exponent must be an int or a Fraction, got {shown}")
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if 72 % self.exponent.denominator != 0:
            raise PreconditionError(
                "PowerExpr exponent denominator must divide 72, "
                f"got {short_decimal(self.exponent.denominator)}"
            )

    def _render(self, decimal: Callable[[int], str]) -> str:
        e = self.exponent
        num = decimal(e.numerator)
        tail = num if e.denominator == 1 else f"{num}/{e.denominator}"
        return f"{decimal(self.base)}^{tail}"

    def __str__(self) -> str:
        return self._render(int_to_decimal)

    def describe(self) -> str:
        """Short rendering safe for messages even with a huge base or
        exponent."""
        return self._render(short_decimal)

    def expand(self) -> int:
        """The exact integer value; only defined for nonnegative integer
        exponents."""
        if self.exponent.denominator != 1 or self.exponent < 0:
            raise PreconditionError(f"{self.describe()} has no integer expansion")
        return checked_pow(self.base, self.exponent.numerator, self.describe())
