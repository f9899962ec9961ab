"""Simplicial filtrations over the line or over the interval poset, and the
tripod distance between them.

A line-indexed filtration stores a birth time per simplex (absent simplices
are born at +inf); an interval-indexed filtration stores a staircase support
per simplex.  The tripod distance minimizes, over correspondences between
the vertex sets, the worst birth/support discrepancy over pulled-back
simplices.  The pulled-back simplex pairs are the images (A, B) of the
nonempty sub-relations of the correspondence (the subsets of a tripod apex);
they are enumerated as such, each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping

from .compare import CORRESPONDENCE_GUARD, min_max_over_correspondences
from .errors import (
    EmptySimplex,
    GroundSetMismatch,
    NotOnePoint,
    ValidationError,
)
from .lattice import GroundSet, Surjection
from .rat import INF, RatX, is_finite, rat
from .staircase import INT, Staircase, empty, hausdorff, staircase, subset

Simplex = frozenset

_EMPTY = empty(INT)  # the support of every absent simplex


def _check_simplices(ground: GroundSet, keys) -> None:
    for s in keys:
        if not s:
            raise ValidationError("empty simplex in filtration")
        for v in s:
            if v not in ground:
                raise ValidationError(f"simplex vertex {v!r} not in ground set")


@dataclass(frozen=True)
class RFiltration:
    """Line-indexed filtration: finite-birth simplices only."""

    ground: GroundSet
    births: Mapping[Simplex, Fraction]

    def __post_init__(self):
        _check_simplices(self.ground, self.births)
        births = {Simplex(s): rat(b) for s, b in self.births.items()}
        for s, b in births.items():
            if not is_finite(b):
                raise ValidationError(f"simplex {sorted(s)} has an infinite birth {b}")
        object.__setattr__(self, "births", births)

    def simplices(self) -> list[Simplex]:
        return sorted(self.births, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class IntFiltration:
    """Interval-indexed filtration: a staircase support per simplex."""

    ground: GroundSet
    supports: Mapping[Simplex, Staircase]

    def __post_init__(self):
        _check_simplices(self.ground, self.supports)
        for s, u in self.supports.items():
            if u.ambient != INT:
                raise ValidationError("supports must live in the interval ambient")
        object.__setattr__(
            self, "supports", {Simplex(s): u for s, u in self.supports.items()}
        )

    def simplices(self) -> list[Simplex]:
        return sorted(self.supports, key=lambda s: (len(s), sorted(s)))


def birth(f: RFiltration, simplex) -> RatX:
    """Stored birth time, +inf for absent simplices."""
    s = Simplex(simplex)
    if not s:
        raise EmptySimplex("birth of the empty simplex is undefined")
    for v in s:
        if v not in f.ground:
            raise GroundSetMismatch(f"vertex {v!r} not in the filtration ground set")
    return f.births.get(s, INF)


def support(f: IntFiltration, simplex) -> Staircase:
    """Stored support staircase, empty for absent simplices."""
    s = Simplex(simplex)
    if not s:
        raise EmptySimplex("support of the empty simplex is undefined")
    for v in s:
        if v not in f.ground:
            raise GroundSetMismatch(f"vertex {v!r} not in the filtration ground set")
    return f.supports.get(s, _EMPTY)


def validate_filtration(f) -> str | None:
    """Face closure + monotonicity report (None when valid)."""
    if isinstance(f, RFiltration):
        for s, b in f.births.items():
            if len(s) == 1:
                continue
            for v in s:
                face = s - {v}
                if face not in f.births:
                    return f"face {sorted(face)} of simplex {sorted(s)} is absent"
                if not f.births[face] <= b:
                    return (
                        f"face {sorted(face)} born at {f.births[face]} after its "
                        f"coface {sorted(s)} born at {b}"
                    )
        return None
    if isinstance(f, IntFiltration):
        for s, u in f.supports.items():
            if len(s) == 1:
                continue
            for v in s:
                face = s - {v}
                if not subset(u, support(f, face)):
                    return (
                        f"support of simplex {sorted(s)} is not contained in the "
                        f"support of its face {sorted(face)}"
                    )
        return None
    raise TypeError(f"not a filtration: {f!r}")


def pullback_filtration(f, phi: Surjection):
    """Pull back along a vertex surjection: a simplex of the source is
    present exactly when its image is, with the image's birth/support."""
    if phi.target != f.ground:
        raise GroundSetMismatch("surjection target must equal the filtration ground")
    present = f.births if isinstance(f, RFiltration) else f.supports
    pulled = {}
    for tau in present:
        fiber = sorted({z for v in tau for z in phi.fibers[v]})
        for k in range(1, len(fiber) + 1):
            for sub in combinations(fiber, k):
                s = Simplex(sub)
                if s in pulled:
                    continue
                image = Simplex(phi(z) for z in s)
                if image in present:
                    pulled[s] = present[image]
    if isinstance(f, RFiltration):
        return RFiltration(phi.source, pulled)
    return IntFiltration(phi.source, pulled)


def to_int_indexed(f: RFiltration) -> IntFiltration:
    """Encode a line-indexed filtration over intervals: a simplex born at b
    is supported on every interval whose right end has passed b."""
    return IntFiltration(
        f.ground,
        {s: staircase([(INF, b)], INT) for s, b in f.births.items()},
    )


def _realizable_pairs(pairs) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
    """The image pairs (pi_X S, pi_Y S) of the nonempty sub-relations S of
    the correspondence, each once, in order of first appearance.  A
    minimal cover has at most |X| + |Y| - 1 pairs, so this walks at most
    2^(|X| + |Y| - 1) subsets."""
    seen = set()
    for k in range(1, len(pairs) + 1):
        for sub in combinations(pairs, k):
            item = frozenset(x for x, _ in sub), frozenset(y for _, y in sub)
            if item not in seen:
                seen.add(item)
                yield item


def tripod_distance_r(
    f: RFiltration, g: RFiltration, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Smallest worst birth discrepancy over correspondences.

    Simplices absent from both sides cost nothing; absent versus present is
    an infinite discrepancy.
    """

    def cost(a, b):
        ba, bb = birth(f, a), birth(g, b)
        if is_finite(ba) != is_finite(bb):
            return INF
        return abs(ba - bb) if is_finite(ba) else Fraction(0)

    return min_max_over_correspondences(f.ground, g.ground, _realizable_pairs, cost, guard)


def tripod_distance_int(
    f: IntFiltration, g: IntFiltration, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Interval-indexed tripod distance: worst support-staircase Hausdorff
    distance over realizable image pairs, minimized over correspondences."""

    def cost(a, b):
        return hausdorff(support(f, a), support(g, b))

    return min_max_over_correspondences(f.ground, g.ground, _realizable_pairs, cost, guard)


def one_point_tripod(f: IntFiltration, g: IntFiltration) -> RatX:
    """Tripod distance against a one-vertex filtration needs no search: it
    is the worst distance from any simplex support to the point's support.
    Absent simplices all have the empty support, so they count once."""
    if len(g.ground) != 1:
        raise NotOnePoint(f"second filtration has {len(g.ground)} vertices")
    star = support(g, Simplex(g.ground.elements))
    supports = list(f.supports.values())
    if len(supports) < 2 ** len(f.ground) - 1:
        supports.append(_EMPTY)
    worst: RatX = Fraction(0)
    for u in supports:
        d = hausdorff(u, star)
        if d > worst:
            worst = d
    return worst
