"""Text and JSON rendering of net values and table grids.

Factored form: sign, then prime powers ascending separated by " · ", with
"^" exponents (omitted when 1) and negative exponents for denominator
primes, e.g. "-2^-36 · 23 · 103".  Chosen to diff cleanly against the
published tables.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Callable

from .fieldarith import factorize

SEPARATOR = " · "

PLAIN = "plain"
FACTORED = "factored"
JSON_FORMAT = "json"


def factor_string(value) -> str:
    value = Fraction(value)
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    merged: dict[int, int] = {}
    for p, e in factorize(abs(value.numerator)).factors:
        merged[p] = e
    for p, e in factorize(value.denominator).factors:
        merged[p] = merged.get(p, 0) - e
    parts = [f"{p}^{e}" if e != 1 else str(p) for p, e in sorted(merged.items())]
    if not parts:
        return sign + "1"
    return sign + SEPARATOR.join(parts)


# Above this size (about 12,000 digits) ``decimal_string`` splits the int;
# below it ``str`` is faster (the two cross near 12,000 digits on a 2-vCPU
# VM under Python 3.11).  Both give the same text.
DECIMAL_SPLIT_BITS = 40_000
_LEAF_BITS = 2048


def decimal_string(n: int) -> str:
    """``str(n)``, subquadratic above DECIMAL_SPLIT_BITS.

    Python 3.11's int-to-str is quadratic: 16.7 s at 10^6 digits on a
    2-vCPU VM, against 0.5 s this way.  Above the threshold n is split in
    halves by bits, hi * 2^w + lo, recursively, and recombined in
    ``decimal``'s exact arithmetic, whose multiplication is subquadratic:
    the method of CPython 3.12's ``_pylong``.
    """
    if n.bit_length() <= DECIMAL_SPLIT_BITS:
        return str(n)
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = D(1 << w) if w <= _LEAF_BITS else two_to(w >> 1) * two_to(w - (w >> 1))
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return D(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def plain_string(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return decimal_string(value.numerator)
    return f"{decimal_string(value.numerator)}/{decimal_string(value.denominator)}"


def render_entry(value, fmt: str) -> str:
    return factor_string(value) if fmt == FACTORED else plain_string(value)


def grid_rows(cols: int, rows: int) -> list[list[tuple[int, int]]]:
    """Index grid in table order: highest second coordinate first."""
    return [[(c, r) for c in range(cols)] for r in range(rows - 1, -1, -1)]


def table_text(entry: Callable[[tuple[int, int]], object], cols: int, rows: int,
               fmt: str = PLAIN) -> str:
    lines = []
    for row in grid_rows(cols, rows):
        lines.append(" | ".join(render_entry(entry(v), fmt) for v in row))
    return "\n".join(lines)


def table_json(entry: Callable[[tuple[int, int]], object], cols: int, rows: int) -> list[dict]:
    out = []
    for row in grid_rows(cols, rows):
        for v in row:
            value = Fraction(entry(v))
            out.append({
                "index": list(v),
                "value": {"num": decimal_string(value.numerator),
                          "den": decimal_string(value.denominator)},
            })
    return out
