"""Exact extended-rational scalars, and the integer scale the kernels run on.

All finite coordinates, times and distances in this library are
`fractions.Fraction` values; the only non-Fraction scalars ever produced are
the two IEEE infinities, used as order sentinels (`INF`, `NEG_INF`).  Mixed
comparisons Fraction-vs-infinity are exact, and arithmetic never combines two
infinities, so no precision is ever lost.  Staircases, barcodes, metrics,
line-indexed filtrations, critical points and grid cuts read their
coordinates through `rat`, so an int becomes a Fraction and an inexact
float or a bool is refused; `parse_rat` reads text as well, and
`increasing_rats` reads the finite increasing times of critical points and cuts.
Text with more digits than Python's int-to-str limit is refused on input
(`within_digit_limit`), and so is a short exponent whose value, written
out, passes it; `fmt_rat` writes every value in full, however long,
without changing that limit.

The exact kernels (the staircase profile walk, the bottleneck search, single
linkage and the Gromov-Hausdorff and tripod searches) run on ints:
`common_scale` gives S = 2 lcm of the finite denominators of some lists of
pairs, and `on_scale` puts a list of pairs on S, where every finite
coordinate is an even int (`to_scale` one value, and `from_scale` turns an
int on S back into a Fraction).  A matrix is read and put on its scale in
one step, `rows_on_scale`, where each entry passes `rat` once.  All three
split each Fraction into its numerator and denominator once, with
`as_integer_ratio`.
"""

from fractions import Fraction
import math
import re
import sys

from .errors import ValidationError

INF = math.inf
NEG_INF = -math.inf

# A "Rat" is a Fraction; a "RatX" additionally admits INF / NEG_INF.
Rat = Fraction
RatX = Fraction | float

_INFINITIES = {"inf": INF, "+inf": INF, "-inf": NEG_INF}


def is_finite(x: RatX) -> bool:
    return isinstance(x, Fraction)


def rat(x) -> RatX:
    """A coordinate as a RatX: an int becomes a Fraction, a Fraction or an
    infinity passes through, anything else (an inexact float or a bool
    included) raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float) and (x == INF or x == NEG_INF):
        return x
    raise ValueError(f"not an exact coordinate: {x!r}; pass an int, a Fraction or +-inf")


def increasing_rats(ts, what: str) -> tuple[Fraction, ...]:
    """ts read through `rat` into a tuple, each finite and less than the next;
    otherwise ValidationError, naming `what`."""
    ts = tuple([rat(t) for t in ts])
    if not all(map(is_finite, ts)):
        raise ValidationError(f"{what} must be finite")
    if any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValidationError(f"{what} must be strictly increasing")
    return ts


def parse_rat(text) -> RatX:
    """Parse "p/q", "p", a decimal with an optional exponent ("1.5e-3") or
    "inf"/"-inf", or read any other value through ``rat``.  Text is read
    by one grammar on every supported Python, `Fraction`'s as Python 3.10
    reads it: no "_" between digits and no space around "/".  Text outside
    it and a zero denominator raise ValueError, and a number whose digits,
    written out as an integer or "p/q", pass Python's int-to-str limit
    ValidationError (naming the limit, not the digits), before any power of
    ten is built.  An infinity is refused, where it has no meaning, by the
    constructor of the value it goes into."""
    if not isinstance(text, str):
        return rat(text)
    x = _INFINITIES.get(text.strip())
    if x is not None:
        return x
    m = _NUMBER.match(within_digit_limit(text))
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    sign, num, den, dec, exp = m.groups()
    if den is not None:
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        x = Fraction(int(num), int(den))
    else:
        digits = num + (dec or "")
        shift = int(exp or 0) - len(digits) + len(num)  # n * 10**shift is the value
        if exp is not None:  # written out as n followed by zeros, or n over 10**-shift
            _check_digits(len(digits) + (shift if shift >= 0 else 1 - shift))
        n = int(digits)
        x = Fraction(n * 10**shift) if shift >= 0 else Fraction(n, 10**-shift)
    return -x if sign == "-" else x


# `Fraction`'s text grammar as Python 3.10 reads it; later versions also
# take "_" between digits (3.11) and spaces around "/" (3.12)
_NUMBER = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*)
    (?:/(?P<den>\d+)|(?:\.(?P<dec>\d*))?(?:[eE](?P<exp>[-+]?\d+))?)
    \s*\Z""", re.VERBOSE)


def within_digit_limit(text: str) -> str:
    """text, refused with ValidationError (naming the limit, not the digits)
    when it has more decimal digits than Python's int-to-str limit."""
    limit = _limit()
    if limit and len(text) > limit:
        _check_digits(sum([c.isdecimal() for c in text]))
    return text


def _limit() -> int:
    """Python's int-to-str limit on digits; 0, no limit, before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _check_digits(digits: int) -> None:
    limit = _limit()
    if limit and digits > limit:
        raise ValidationError(f"a number of {digits} digits is over the limit of {limit} digits")


def common_scale(*pair_lists) -> int:
    """S = 2 lcm of every finite denominator in the given lists of pairs
    (or of rows: a matrix is a list of rows)."""
    return 2 * math.lcm(*[
        x.denominator for pairs in pair_lists for p in pairs for x in p
        if not isinstance(x, float)
    ])


def on_scale(pairs, scale: int) -> tuple[tuple[int | float, int | float], ...]:
    """The pairs times ``scale``, a multiple of their denominators: ints,
    with the infinities kept.  The only floats are the infinities, and
    testing for a float is cheaper than comparing a Fraction with one; each
    Fraction is split into its numerator and denominator once, with
    ``as_integer_ratio``."""
    out = []
    for a, b in pairs:
        if not isinstance(a, float):
            p, q = a.as_integer_ratio()
            a = p * (scale // q)
        if not isinstance(b, float):
            p, q = b.as_integer_ratio()
            b = p * (scale // q)
        out.append((a, b))
    return tuple(out)


def to_scale(x: RatX, scale: int) -> int | float:
    """One value times ``scale``, a multiple of its denominator: an int, or
    the infinity itself (``on_scale`` does the same, per coordinate)."""
    if isinstance(x, float):
        return x
    p, q = x.as_integer_ratio()
    return p * (scale // q)


def from_scale(n: int | float, scale: int) -> RatX:
    """An int on ``scale`` back as a Fraction; an infinity stays the float
    it is."""
    return n if isinstance(n, float) else Fraction(n, scale)


def rows_on_scale(rows) -> tuple[list[list[Fraction]], list[list[int]], int]:
    """The rows (of one matrix, or of several one after another) read
    through ``rat`` and put on S = 2 lcm of their denominators, as
    ``common_scale`` takes it: (d, S * d, S).  Each entry passes ``rat``
    once, in row order, so the first it refuses raises its ValueError; then
    each is split into its numerator and denominator once, where an
    infinity, which no scale holds, raises OverflowError."""
    d = [[rat(x) for x in row] for row in rows]
    ratios = [[x.as_integer_ratio() for x in row] for row in d]
    scale = 2 * math.lcm(*{q for row in ratios for _, q in row})
    return d, [[p * (scale // q) for p, q in row] for row in ratios], scale


def _decimal(n: int) -> str:
    """The decimal digits of an int n >= 0, split in halves while a half is
    still past Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of its digits
        high, low = divmod(n, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


def fmt_rat(x: RatX) -> str:
    """Canonical string form: "p/q", "p", "inf" or "-inf", in full however
    many digits it has; an int is written as the Fraction it reads as, so
    error messages can write what a caller passed."""
    if isinstance(x, Fraction):
        try:
            return str(x)
        except ValueError:  # a part past Python's int-to-str limit
            text = ("-" if x < 0 else "") + _decimal(abs(x.numerator))
            return text if x.denominator == 1 else f"{text}/{_decimal(x.denominator)}"
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    if isinstance(x, int) and not isinstance(x, bool):
        return fmt_rat(Fraction(x))
    raise ValueError(f"not an extended rational: {x!r}")
