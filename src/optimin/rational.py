"""Helpers for exact rational values.

Values at the library's API are `fractions.Fraction`s, which guarantee
lowest terms and a positive denominator.  Inside, the solvers run on ints
over common denominators and build a `Fraction` only for a value they
return.  `literal_ratio` reads a literal straight to a reduced ``(num, den)``
pair, and `over_common_denominator`, the one reader into ints over a common
denominator, reads values with it; `json_ratio` and `table_ratio` write
them back.  The other helpers cover coercion and the two text encodings used
by the file formats and the CLI: exact strings like ``"265/6"`` and plain
integers.  A string is refused before it is parsed when its digits or its
decimal exponent pass `RATIONAL_MAX_DIGITS` or `RATIONAL_MAX_EXPONENT`
(stated in `errors`), because ``"1e1000000"`` alone would build a
3.3-million-bit integer.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import RATIONAL_MAX_DIGITS, RATIONAL_MAX_EXPONENT, FormatError, ResourceLimitError

# "a" and "a/b" in ASCII digits: the literals `json_ratio` writes.
_PLAIN_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def to_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or exact string ("a/b", "0.4") to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_literal_size(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational number: {value!r}") from exc
    raise FormatError(f"expected a rational number, got {type(value).__name__}")


def literal_ratio(value) -> tuple[int, int]:
    """`to_fraction(value).as_integer_ratio()`, with no `Fraction` built for
    an int or a plain "a" or "a/b" string within the digit bound."""
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= RATIONAL_MAX_DIGITS and _PLAIN_LITERAL.fullmatch(value):
        num, _, den = value.partition("/")
        n, d = int(num), int(den or 1)
        if d:
            g = math.gcd(n, d)
            return n // g, d // g
    return to_fraction(value).as_integer_ratio()


def _check_literal_size(text: str) -> None:
    # A literal no longer than the digit bound cannot pass it, and only an
    # "e" or "E" marks an exponent; both tests run at C speed.
    if len(text) > RATIONAL_MAX_DIGITS:
        digits = sum(map(str.isdigit, text))
        if digits > RATIONAL_MAX_DIGITS:
            what = f"rational literal of {digits} digits"
            raise ResourceLimitError.past(what, RATIONAL_MAX_DIGITS, "digit", "RATIONAL_MAX_DIGITS")
    if "e" not in text and "E" not in text:
        return
    try:
        power = int(text.lower().partition("e")[2])  # at most RATIONAL_MAX_DIGITS digits
    except ValueError:
        return  # not a literal Fraction accepts; it reports the format error
    if abs(power) > RATIONAL_MAX_EXPONENT:
        what = f"rational literal with exponent {power}"
        raise ResourceLimitError.past(what, RATIONAL_MAX_EXPONENT, "exponent", "RATIONAL_MAX_EXPONENT")


def over_common_denominator(values) -> tuple[list[int], int]:
    """Values read by `literal_ratio`, as ints over the lcm ``d`` of their
    reduced denominators.

    No tuple as wide as the values: CPython 3.11 files every freed 20-item
    tuple in a free list that it never takes from, up to 2000 of them, and a
    4-player nucleolus round builds LP rows of exactly 20 values.  So the lcm
    is taken pairwise, not over an argument tuple, and the ints are a list.
    """
    ratios = list(map(literal_ratio, values))
    d = 1
    for _, e in ratios:
        if d % e:
            d = math.lcm(d, e)
    return [n * (d // e) for n, e in ratios], d


def format_exact(value: Fraction) -> str:
    """Render a Fraction as "a" or "a/b" with no loss."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_table(value: Fraction) -> str:
    """Exact string plus a 3-place decimal hint for non-integers."""
    return table_ratio(value.numerator, value.denominator)


def table_ratio(numerator: int, denominator: int) -> str:
    """`format_table` of numerator/denominator (denominator > 0), with no
    `Fraction` built.  The hint reads the int quotient, which CPython rounds
    correctly, as ``float`` rounds a `Fraction`."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    num, den = numerator // g, denominator // g
    return f"{num}/{den} (~{num / den:.3f})"


def json_number(value: Fraction):
    """Encode for JSON: plain int when integral, exact "a/b" string otherwise."""
    if value.denominator == 1:
        return value.numerator
    return format_exact(value)


def json_ratio(numerator: int, denominator: int):
    """`json_number` of numerator/denominator (denominator > 0), with no `Fraction` built."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return numerator // g
    return f"{numerator // g}/{denominator // g}"
