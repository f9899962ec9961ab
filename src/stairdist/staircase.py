"""Staircase-shaped upper sets and their exact Hausdorff distance.

A staircase lives in one of two ambients:

* ``"int"`` -- the poset of intervals {(a, b) : a < b} ordered by
  containment ((a,b) <= (a',b') iff a' <= a < b <= b'), stored as the
  closure, so the diagonal a = b clamps every region;
* ``"plane"`` -- the product order on R^2.  A plane point (p, q) is stored
  through the flip a := -p, b := q, which turns product-order up-sets into
  the same {a <= l, b >= r} corner regions, so one engine serves both.

A generator (l, r) denotes the closed corner region {(a,b): a <= l, b >= r}
(no constraint where a coordinate is infinite); a staircase is a finite
antichain of generators.  Along each flow line {a + b = c} the staircase is
an upward ray whose entry height is

    g(c) = min over generators of max(r, c - l [, c/2 when clamped]),

a non-decreasing piecewise-linear function with slopes in {0, 1/2, 1}.  The
Hausdorff distance in the sup-norm is sup_c |g_U(c) - g_V(c)|, evaluated
exactly at profile breakpoints plus a tail-slope comparison.

A normalized antichain sorted by l is also sorted by r and by the corner
sum l + r, so g can only kink at O(k) candidate points: the own corners
l_i + r_i, the inner corners l_i + r_{i+1} and, when clamped, 2 l_i and
2 r_i.  These are a subset of the pairwise line intersections, and one
left-to-right walk over the generators reads g at all of them.  With k_u
and k_v generators, ``hausdorff`` costs O((k_u + k_v) log(k_u + k_v)) (the
sort of the merged breakpoints), ``subset`` O(k_u + k_v) and normalizing k
generators (a sort by l and one sweep) O(k log k).

Containment needs no profile: u is inside v iff each generator region of
u is, and the same order lets ``_contained`` settle that for all of u in
one sweep over both generator tuples, by comparisons alone.  A corner
(l, r) with l < r, or any corner in the plane, lies in v iff the first
generator of v with l' >= l has r' <= r.  A clamped region with l >= r
has the diagonal points (t, t), t in [r, l], as its least points, so it
lies in v iff v's diagonal pieces [r', l'] (its generators with l' >= r')
cover that segment.

Both run on Python ints.  The walk takes two steps.  ``_side`` readies
generators on an integer scale S, a multiple of twice every denominator,
where every coordinate and every breakpoint is an even int, so the clamp
c/2 is the exact c // 2: it stores their kink set and corner sums, in
O(k); ``_on(u, S)`` puts u on S first.  One kernel then walks two sides on
the same scale: ``_walk`` reads g_u - g_v at their merged kinks and past
both ends in one pass, and ``_gap`` and ``profile`` (against a side of
known height) read that one list; ``_contained`` reads the generator
tuples on S (``on_scale``) alone.  ``hausdorff`` and ``subset`` take
S = lcm(S_u, S_v) of the two own scales, S_u = 2 L_u for L_u the lcm of
u's finite denominators (``rat.common_scale`` of u alone), which is the
common scale of the two.  A staircase is frozen, so it keeps what is
derived from its generators in its ``__dict__``, where ``==``, ``hash``,
``repr`` and ``asdict`` do not look and which a pickle or a copy leaves
behind: its own scale, worked out once, and the last scale ``_on`` put it
on with that side.  A part that many pair keys share (the cosheaf code,
the grid code) is put on its scale once, not once per key.  Callers that
compare many staircases pick one scale for all of them, and those that
take a join over pairs of parts read ``_gaps``.
Fractions appear only at the boundary: ``hausdorff`` returns the
largest scaled gap over S, and ``profile`` converts each breakpoint, value
and slope.  The counts above are integer operations on ints of the bit
size of S.

Constructions that emit the normalized antichain by design (the cosheaf
code, the grid code and the sublevel sweep) skip the normalizing
constructor through ``_antichain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import itemgetter

from .errors import AmbientMismatch, NegativeEpsilon, PointOutsideAmbient, ValidationError
from .rat import INF, NEG_INF, RatX, common_scale, from_scale, is_finite, on_scale, rat

INT, PLANE = "int", "plane"

Gen = tuple[RatX, RatX]
_IntGen = tuple[int | float, int | float]  # a generator on an integer scale
_Side = tuple[tuple[_IntGen, ...], set[int], list[int | float]]  # gens, kinks, corners

_FULL = ((INF, NEG_INF),)


@dataclass(frozen=True)
class Staircase:
    """A finitely generated upper set, normalized to a generator antichain.

    Coordinates go through ``rat``: an int is read as a Fraction, and any
    float other than an infinity on its own side raises ValueError, as
    does a generator of an empty region; an ambient other than ``"int"``
    or ``"plane"`` raises ValidationError."""

    ambient: str
    gens: tuple[Gen, ...]

    def __post_init__(self):
        if self.ambient not in (INT, PLANE):
            raise ValidationError(f'ambient must be "int" or "plane", got {self.ambient!r}')
        gens = self.gens
        for l, r in gens:
            # a Fraction or an infinity on its own side passes; anything else
            # (an int, an empty region, an inexact float) goes to _exact_gen
            if not (is_finite(l) or l == INF) or not (is_finite(r) or r == NEG_INF):
                gens = tuple([_exact_gen(g) for g in gens])
                break
        # (l, r) contains (l', r') iff l >= l' and r <= r'.  Scanning by l
        # descending meets every strict dominator of a generator before it,
        # so a generator survives iff its r is below every r seen so far;
        # among equal l the smaller r replaces the larger.  The sort is
        # stable, so equal duplicates keep their first copy.
        kept: list[Gen] = []
        low = INF
        for g in sorted(gens, key=itemgetter(0), reverse=True):
            if g[1] < low:
                if kept and kept[-1][0] == g[0]:
                    kept[-1] = g
                else:
                    kept.append(g)
                low = g[1]
        kept.reverse()
        object.__setattr__(self, "gens", tuple(kept))

    @property
    def clamped(self) -> bool:
        return self.ambient == INT

    def is_empty(self) -> bool:
        return not self.gens

    def is_full(self) -> bool:
        return _is_full(self.gens)

    def __getstate__(self):
        # a pickle or a copy carries the generators, not what ``_scale`` and
        # ``_on`` keep of them
        return {"ambient": self.ambient, "gens": self.gens}


def _is_full(gens) -> bool:
    """gens (normalized, or on an integer scale) is the one full generator
    (INF, NEG_INF): it dominates every other, so it stands alone, and the
    only floats a normalized generator holds are those infinities, so two
    type tests stand in for comparing Fractions with floats."""
    return len(gens) == 1 and isinstance(gens[0][0], float) and isinstance(gens[0][1], float)


def _exact_gen(g) -> Gen:
    """g with both coordinates through ``rat``; an empty region raises."""
    l, r = rat(g[0]), rat(g[1])
    if l == NEG_INF or r == INF:
        raise ValueError(f"generator {g} denotes an empty region")
    return l, r


def staircase(gens, ambient: str = INT) -> Staircase:
    """Normalize a generator list (any iterable of (l, r) pairs)."""
    return Staircase(ambient, tuple([(l, r) for l, r in gens]))


def full(ambient: str = INT) -> Staircase:
    return Staircase(ambient, _FULL)


def empty(ambient: str = INT) -> Staircase:
    return Staircase(ambient, ())


def _antichain(ambient: str, gens: tuple[Gen, ...]) -> Staircase:
    """A Staircase on gens that its caller already built as the normalized
    antichain sorted by l, of Fractions and infinities on their own sides,
    so the constructor's reading and sweep are skipped.  O(1)."""
    u = object.__new__(Staircase)
    object.__setattr__(u, "ambient", ambient)
    object.__setattr__(u, "gens", gens)
    return u


def contains(u: Staircase, p: tuple[Fraction, Fraction]) -> bool:
    """Closed-region membership of an ambient point."""
    a, b = p
    if u.clamped and not a < b:
        raise PointOutsideAmbient(f"({a}, {b}) is not an interval: need a < b")
    return any(a <= l and b >= r for l, r in u.gens)


def plane_generator(corner: tuple[RatX, RatX]) -> Gen:
    """Generator for the product-order up-set of a plane corner point."""
    px, py = corner
    return (-px, py)  # -NEG_INF == INF


def thicken(u: Staircase, eps: Fraction) -> Staircase:
    """Flow the staircase: points whose eps-shift lands inside.

    Generators move (l, r) -> (l + eps, r - eps); thickening by a then b
    equals thickening by a + b.
    """
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps} < 0")
    if eps == 0:
        return u
    return Staircase(
        u.ambient,
        tuple([
            (l if l == INF else l + eps, r if r == NEG_INF else r - eps)
            for l, r in u.gens
        ]),
    )


def _g(u: Staircase, c: Fraction) -> RatX:
    """Entry height of the staircase on the flow line a + b = c.

    +inf for the empty staircase; -inf only for the full plane.  Rescans
    every generator: the reference that ``_walk`` and ``profile`` are
    tested against.
    """
    if not u.gens:
        return INF
    best = INF
    for l, r in u.gens:
        t = max(r, NEG_INF if l == INF else c - l)
        if u.clamped:
            t = max(t, c / 2)
        if t < best:
            best = t
    return best


def _scale(u: Staircase) -> int:
    """u's own scale, ``common_scale`` of its generators (2 lcm of its
    finite denominators), worked out once per object.  It is kept in u's
    ``__dict__``, as ``cached_property`` keeps a value, where ``==``,
    ``hash`` and ``repr`` do not look: it is derived from the frozen gens."""
    scale = u.__dict__.get("_scale")
    if scale is None:
        scale = u.__dict__["_scale"] = common_scale(u.gens)
    return scale


def _on(u: Staircase, scale: int) -> _Side:
    """The ``_side`` of u's generators on ``scale``, a multiple of u's own
    scale.  u keeps the last scale it was put on and that side in its
    ``__dict__`` (as ``_scale`` does), so a second call on the same scale
    is O(1); otherwise O(k) for k generators.  One slot is enough: a part
    that many pair keys share almost always meets one scale."""
    last = u.__dict__.get("_scaled")
    if last is not None and last[0] == scale:
        return last[1]
    side = _side(on_scale(u.gens, scale), u.clamped)
    u.__dict__["_scaled"] = scale, side
    return side


def _side(gens: tuple[_IntGen, ...], clamped: bool) -> _Side:
    """(gens, kinks, corners) of generators already on a scale: a staircase
    as ``_walk`` reads it, ready to meet many partners.  O(k)."""
    return gens, _breaks(gens, clamped), _corners(gens)


def _breaks(gens: tuple[_IntGen, ...], clamped: bool) -> set[int]:
    """Candidate kink positions of the profile of scaled generators, in one
    pass: own corners l_i + r_i, inner corners l_{i-1} + r_i and (clamped)
    the diagonal hits 2 l_i and 2 r_i.  Sums with an infinite term are
    skipped; in a normalized antichain only the first r and the last l can
    be infinite, so every inner corner is finite."""
    out: set[int] = set()
    prev = None  # l_{i-1}
    for l, r in gens:
        if prev is not None:
            out.add(prev + r)
        if l != INF:
            if r != NEG_INF:
                out.add(l + r)
            if clamped:
                out.add(2 * l)
        if clamped and r != NEG_INF:
            out.add(2 * r)
        prev = l
    return out


def _merged_breaks(*kinks: set[int]) -> list[int]:
    """Sorted union of kink sets ([0] when none)."""
    cs = sorted(set().union(*kinks))
    return cs if cs else [0]


def _corners(gens: tuple[_IntGen, ...]) -> list[int | float]:
    """Corner sums l_i + r_i, ascending: -inf first at most, +inf last."""
    return [NEG_INF if r == NEG_INF else INF if l == INF else l + r for l, r in gens]


def _walk(a: _Side, b: _Side, clamped: bool) -> list[int | float]:
    """g_u - g_v at the merged kinks cs of two sides on one scale
    (a = ``_on(u, S)``, b = ``_on(v, S)``) and at cs[0] - 2 and cs[-1] + 2,
    beyond which both profiles are single lines.

    A pointer j into each side's corners is the first generator whose
    corner l_j + r_j is not left of c: every generator before it is on its
    slope-1 leg and every one after it is higher than r_j, so
    g(c) = min(r_j, c - l_{j-1}), clamped to at least c // 2.  An empty side
    reads +inf; the full corner is -inf, so j passes it and the full plane
    reads c - INF = -inf.  A difference is an int, or +-inf against the
    other side's proper region (nan for two empty sides or two full planes:
    equal generators)."""
    cs = _merged_breaks(a[1], b[1])
    su, _, cu = a
    sv, _, cv = b
    ku, kv, i, j, d = len(su), len(sv), 0, 0, []
    for c in (cs[0] - 2, *cs, cs[-1] + 2):
        while i < ku and cu[i] < c:
            i += 1
        while j < kv and cv[j] < c:
            j += 1
        x = su[i][1] if i < ku else INF
        if i:
            t = c - su[i - 1][0]
            if t < x:
                x = t
        y = sv[j][1] if j < kv else INF
        if j:
            t = c - sv[j - 1][0]
            if t < y:
                y = t
        if clamped:
            t = c // 2
            if t > x:
                x = t
            if t > y:
                y = t
        d.append(x - y)
    return d


def _gap(a, b, clamped: bool) -> int | float:
    """sup_c |g_u(c) - g_v(c)| times S for a = ``_on(u, S)`` and
    b = ``_on(v, S)``: an int, or INF when one side is empty/full against
    the other's proper region, or when the profiles diverge in a tail.
    O((k_u + k_v) log(k_u + k_v)) int operations."""
    if a[0] == b[0]:  # the same set, and the only sides read as nan
        return 0
    d = _walk(a, b, clamped)
    # Beyond the extreme breakpoints both profiles are single lines: equal
    # slopes leave |g_u - g_v| at its endpoint value, anything else diverges.
    if d[1] != d[0] or d[-1] != d[-2]:
        return INF
    return max(map(abs, d))


def _gaps():
    """gap(a, b): the ``_gap`` of two interval staircases given as generator
    tuples on one scale (``on_scale`` of normalized generators), with each
    distinct tuple made a ``_side`` once and one ``_gap`` per unordered
    pair."""
    on = cache(lambda gens: _side(gens, True))
    pair = cache(lambda a, b: _gap(on(a), on(b), True))
    return lambda a, b: pair(a, b) if a <= b else pair(b, a)


def _contained(u, v, clamped: bool) -> bool:
    """u inside v, i.e. g_v <= g_u on every flow line, for the generator
    tuples u and v of two normalized staircases on one scale
    (``on_scale``), by the two rules of the module docstring in one sweep
    of u: i, the first generator of v with l' >= l, only moves right as l
    grows, and j takes v's generators by their left ends r', as r grows,
    into ``end``, the right end of the last run of diagonal pieces that
    meet, so neither reads a generator of v twice.  O(k_u + k_v)
    comparisons of ints and infinities, and no arithmetic."""
    kv, i, j, end = len(v), 0, 0, NEG_INF
    for l, r in u:
        if clamped and r <= l:
            # take the generators that start by r, then those that meet the
            # run, until it reaches l; one off the diagonal (l' < r') leaves
            # end < r' <= r, where no later generator meets it
            while j < kv and end < l:
                l2, r2 = v[j]
                if r2 > r and r2 > end:
                    break
                end, j = l2, j + 1  # the right ends grow with j
            if end < l:
                return False
        else:
            while i < kv and v[i][0] < l:
                i += 1
            if i == kv or v[i][1] > r:
                return False
    return True


def _check_ambient(u: Staircase, v: Staircase):
    if u.ambient != v.ambient:
        raise AmbientMismatch(f"{u.ambient} vs {v.ambient}")


def hausdorff(u: Staircase, v: Staircase) -> RatX:
    """Exact sup-norm Hausdorff distance between two staircases.

    Returns a Fraction, or INF when one side is empty/full against the
    other's proper region, or when the entry profiles diverge in a tail:
    ``_gap`` on the common scale of the two, taken back by ``from_scale``.
    """
    _check_ambient(u, v)
    scale = lcm(_scale(u), _scale(v))
    return from_scale(_gap(_on(u, scale), _on(v, scale), u.clamped), scale)


def subset(u: Staircase, v: Staircase) -> bool:
    """True iff u is contained in v, i.e. g_v <= g_u on every flow line:
    ``_contained`` on the common scale of the two."""
    _check_ambient(u, v)
    scale = lcm(_scale(u), _scale(v))
    return _contained(on_scale(u.gens, scale), on_scale(v.gens, scale), u.clamped)


def upper_set_interleaved(u: Staircase, v: Staircase, eps: Fraction) -> bool:
    """eps-interleaving of upper sets: each inside the other's thickening
    (`thicken` refuses a negative eps)."""
    return subset(u, thicken(v, eps)) and subset(v, thicken(u, eps))


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-linear entry profile of a staircase, for dumping/plotting.

    ``pieces[i]`` covers (breakpoints[i-1], breakpoints[i]) with the listed
    slope; the first and last pieces are the unbounded tails.  ``values``
    are g at the breakpoints.  An empty staircase has ``empty`` set and no
    pieces.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]
    empty: bool = False


# The side ``profile`` walks against, the same on every scale and with no
# kink: the full interval poset (g = c // 2) and the half-plane b >= 0 (g = 0).
_REFERENCE = {True: _side(_FULL, True), False: _side(((INF, 0),), False)}


def profile(u: Staircase) -> StepProfile:
    """Exact entry profile at the O(k) candidate kinks of ``_breaks``: the
    ``_walk`` of u against the ``_REFERENCE`` side, plus that side's height.

    A breakpoint may still carry no slope change (a candidate that turns
    out not to be a kink); every true kink is listed.  The values are those
    of g, so pieces interpolated between breakpoints reproduce g anywhere.
    """
    if u.is_empty():
        return StepProfile((), (), (), empty=True)
    if u.is_full() and not u.clamped:
        # full plane: the profile is identically -inf; represent as one piece
        return StepProfile((), (), (Fraction(0),))
    scale = _scale(u)
    side = _on(u, scale)
    cs = _merged_breaks(side[1])
    pts = (cs[0] - 2, *cs, cs[-1] + 2)  # the points ``_walk`` reads
    g = _walk(side, _REFERENCE[u.clamped], u.clamped)
    if u.clamped:
        g = [x + c // 2 for c, x in zip(pts, g)]
    return StepProfile(
        tuple([Fraction(c, scale) for c in cs]),
        tuple([Fraction(x, scale) for x in g[1:-1]]),
        tuple([
            Fraction(y - x, c1 - c0) for c0, c1, x, y in zip(pts, pts[1:], g, g[1:])
        ]),
    )
