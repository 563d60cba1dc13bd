"""Exact decimal arithmetic on a fixed 10^-6 grid.

Membership degrees, thresholds and grades are stored as integers counting
micro-units (value * 10^6).  Sums of degrees stay integers, and every
threshold comparison reduces to integer arithmetic, so boundary cases
(P exactly equal to alpha, an overlap sum exactly equal to k) are decided
exactly rather than by floating-point luck.
"""

from __future__ import annotations

import re

MICRO = 10**6

# ASCII digits only: `\d` would also accept other scripts' digits ("٠.٥", "１").
# Matched whole, without stripping, so padding such as " 0.5" is refused.
_DECIMAL_RE = re.compile(r"(-)?([0-9]+)(?:\.([0-9]{1,6}))?")
# a degree in [0, 1] as `format_scaled` writes it: "0", "1", or "0." and at
# most 6 digits, the last of them not 0
CANONICAL_DEGREE_RE = re.compile(r"0|1|0\.[0-9]{0,5}[1-9]")


class DecimalFormatError(ValueError):
    """A string is not an exact decimal with at most 6 fractional digits."""


def parse_scaled(text: str) -> int:
    """Parse a decimal string into micro-units. Raises DecimalFormatError."""
    if not isinstance(text, str):
        raise DecimalFormatError(
            f"expected a decimal string, got {type(text).__name__} {text!r} "
            "(quote it, e.g. \"0.75\", to keep arithmetic exact)"
        )
    m = _DECIMAL_RE.fullmatch(text)
    if m is None:
        raise DecimalFormatError(
            f"not a decimal with at most 6 fractional digits: {text!r}"
        )
    sign, whole, frac = m.groups()
    try:
        value = int(whole) * MICRO + int((frac or "").ljust(6, "0"))
    except ValueError:  # more integer digits than the interpreter converts
        raise DecimalFormatError(
            f"integer part has {len(whole)} digits, past this interpreter's limit"
        ) from None
    return -value if sign else value


def parse_degree(text: str) -> int:
    """Parse a membership degree in [0, 1] into micro-units."""
    value = parse_scaled(text)
    if not 0 <= value <= MICRO:
        raise DecimalFormatError(f"degree out of [0, 1]: {text!r}")
    return value


def format_scaled(value: int) -> str:
    """Canonical decimal string for a micro-unit value (no trailing zeros)."""
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), MICRO)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def ratio_ge(num: int, den: int, threshold: int) -> bool:
    return num * MICRO >= threshold * den
