"""Exact rational scalars and their text format.

The scalar type throughout the library is :class:`fractions.Fraction`,
which keeps values in canonical form (positive denominator, reduced).
It is the boundary type: every value passed in or returned is a
``Fraction``; the integer kernels behind it are described in
:mod:`oscillax.matrix`.
This module owns the text grammar: integers, ``p/q`` fractions, and
finite decimals.  Decimals are converted exactly, never through a
binary float.  Floats themselves are rejected everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedNumber, ZeroDenominator

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RATIO_RE = re.compile(r"([+-]?\d+)\s*/\s*(\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+)\Z")


def parse_rational(text: str) -> Fraction:
    """Parse an integer, ``p/q``, or finite decimal into an exact Fraction."""
    if not isinstance(text, str):
        raise MalformedNumber(f"expected text, got {type(text).__name__}")
    s = text.strip()
    try:
        if _INT_RE.match(s):
            return Fraction(int(s))
        m = _RATIO_RE.match(s)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise ZeroDenominator(f"zero denominator in {text!r}")
            return Fraction(num, den)
        if _DECIMAL_RE.match(s):
            # Fraction parses decimal strings exactly (no float intermediate).
            return Fraction(s)
    except ValueError as exc:  # digits past the interpreter's conversion limit
        raise MalformedNumber(f"number of {len(s)} characters is too long") from exc
    raise MalformedNumber(f"not an integer, fraction, or finite decimal: {text!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text for a rational: ``p`` when integral, else ``p/q``.

    A ``Fraction`` is formatted as it stands; anything else is read by
    :func:`coerce_rational` first, so floats, booleans and malformed text
    raise :class:`MalformedNumber`."""
    if not isinstance(value, Fraction):
        value = coerce_rational(value)
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _int_text(value: int) -> str:
    """Decimal text of an int, also past the interpreter's digit limit."""
    try:
        return str(value)
    except ValueError:  # split at a power of ten near half the digits
        half = abs(value).bit_length() * 3 // 20
        high, low = divmod(abs(value), 10**half)
        return "-" * (value < 0) + _int_text(high) + _int_text(low).zfill(half)


def coerce_rational(value) -> Fraction:
    """Accept int, Fraction, or rational text.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedNumber("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise MalformedNumber(
            "float input is rejected; pass a finite decimal string instead"
        )
    raise MalformedNumber(f"cannot interpret {value!r} as a rational")
