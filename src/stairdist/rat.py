"""Exact extended-rational scalars.

All finite coordinates, times and distances in this library are
`fractions.Fraction` values; the only non-Fraction scalars ever produced are
the two IEEE infinities, used as order sentinels (`INF`, `NEG_INF`).  Mixed
comparisons Fraction-vs-infinity are exact, and arithmetic never combines two
infinities, so no precision is ever lost.  Staircases, barcodes and
line-indexed filtrations read their coordinates through `rat`, so an int
becomes a Fraction and an inexact float is refused.
"""

from fractions import Fraction
import math

INF = math.inf
NEG_INF = -math.inf

# A "Rat" is a Fraction; a "RatX" additionally admits INF / NEG_INF.
Rat = Fraction
RatX = Fraction | float


def is_finite(x: RatX) -> bool:
    return isinstance(x, Fraction)


def rat(x) -> RatX:
    """A coordinate as a RatX: an int becomes a Fraction, a Fraction or an
    infinity passes through, anything else (an inexact float included)
    raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and (x == INF or x == NEG_INF):
        return x
    raise ValueError(f"not an exact coordinate: {x!r}; pass an int, a Fraction or +-inf")


def parse_rat(text, allow_infinite: bool = True) -> RatX:
    """Parse "p/q", "p", an int, or "inf"/"-inf" into a RatX; anything else,
    a zero denominator included, raises ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        if text == INF or text == NEG_INF:
            if not allow_infinite:
                raise ValueError("infinite value not allowed here")
            return text
        raise ValueError(f"refusing inexact float {text!r}; pass a string 'p/q'")
    if isinstance(text, str):
        s = text.strip()
        if s in ("inf", "+inf"):
            if not allow_infinite:
                raise ValueError("infinite value not allowed here")
            return INF
        if s == "-inf":
            if not allow_infinite:
                raise ValueError("infinite value not allowed here")
            return NEG_INF
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise ValueError(f"cannot parse rational from {text!r}")


def fmt_rat(x: RatX) -> str:
    """Canonical string form: "p/q", "p", "inf" or "-inf"."""
    if isinstance(x, Fraction):
        return str(x)
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    raise ValueError(f"not an extended rational: {x!r}")
