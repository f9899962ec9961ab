"""Simplicial filtrations over the line or over the interval poset, and the
tripod distance between them.

A line-indexed filtration stores a birth time per simplex (absent simplices
are born at +inf); an interval-indexed filtration stores a staircase support
per simplex.  The tripod distance minimizes, over correspondences between
the vertex sets, the worst birth/support discrepancy over pulled-back
simplices.  The pulled-back simplex pairs are the images (A, B) of the
nonempty sub-relations of the correspondence (the subsets of a tripod apex).
They are grown one star at a time along the search's walk: the images that
a star at x adds are ({x}, B') and every earlier image joined with it, for
each nonempty B' within the star, so each image is made once per cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .compare import CORRESPONDENCE_GUARD, Item, _by_mask, _diff, _search, _staircase_search
from .errors import (
    EmptySimplex,
    GroundSetMismatch,
    NotOnePoint,
    ValidationError,
)
from .lattice import GroundSet, Surjection
from .rat import INF, RatX, common_scale, fmt_rat, from_scale, is_finite, on_scale, rat, to_scale
from .staircase import INT, Staircase, _contained, _gaps, empty, staircase

Simplex = frozenset

_EMPTY = empty(INT)  # the support of an absent simplex


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
    """Interval-indexed filtration: a staircase support per simplex.  A
    support that is not a Staircase of the interval ambient raises
    ValidationError naming the simplex."""

    ground: GroundSet
    supports: Mapping[Simplex, Staircase]

    def __post_init__(self):
        _check_simplices(self.ground, self.supports)
        for s, u in self.supports.items():
            if not isinstance(u, Staircase):
                raise ValidationError(
                    f"support of simplex {sorted(s)} is not a staircase: {u!r}"
                )
            if u.ambient != INT:
                raise ValidationError("supports must live in the interval ambient")
        object.__setattr__(
            self, "supports", {Simplex(s): u for s, u in self.supports.items()}
        )

    def simplices(self) -> list[Simplex]:
        return sorted(self.supports, key=lambda s: (len(s), sorted(s)))


def _simplex(f, simplex, what: str) -> Simplex:
    """simplex as a Simplex, checked nonempty and over f's vertices before
    its `what` (birth or support) is looked up."""
    s = Simplex(simplex)
    if not s:
        raise EmptySimplex(f"{what} of the empty simplex is undefined")
    for v in s:
        if v not in f.ground:
            raise GroundSetMismatch(f"vertex {v!r} not in the filtration ground set")
    return s


def birth(f: RFiltration, simplex) -> RatX:
    """Stored birth time, +inf for absent simplices."""
    return f.births.get(_simplex(f, simplex, "birth"), INF)


def support(f: IntFiltration, simplex) -> Staircase:
    """Stored support staircase, empty for absent simplices."""
    return f.supports.get(_simplex(f, simplex, "support"), _EMPTY)


def validate_filtration(f) -> str | None:
    """Face closure + monotonicity report (None when valid): the first
    (simplex, face) pair that fails, in the order of the stored simplices
    and of their vertices.

    A line-indexed filtration is read once into one table from each
    simplex's vertex mask (`compare._by_mask`) to its birth on the common
    scale of every birth; the face of a simplex m without the vertex of bit
    v is then the entry of m ^ v, and each check is one lookup and one int
    comparison.
    An interval-indexed filtration puts all of its N supports on one
    integer scale, the common scale of every support, and converts each
    once (`rat.on_scale`, O(K) for K generators in all); each of the
    (simplex, face) checks is then one `staircase._contained` sweep over the
    two converted generator tuples, O(k_s + k_f) comparisons of ints of the
    bit size of that scale (or infinities), with no arithmetic."""
    if isinstance(f, RFiltration):
        index = f.ground.index
        scale = common_scale([f.births.values()])
        born = _by_mask(f.ground, f.births, lambda b: to_scale(b, scale))
        for s, m in zip(f.births, born):
            if len(s) == 1:
                continue
            b = born[m]
            for v in s:
                face_born = born.get(m ^ 1 << index[v])
                if face_born is None:
                    return f"face {sorted(s - {v})} of simplex {sorted(s)} is absent"
                if face_born > b:
                    face = s - {v}
                    return (
                        f"face {sorted(face)} born at {fmt_rat(f.births[face])} after its "
                        f"coface {sorted(s)} born at {fmt_rat(f.births[s])}"
                    )
        return None
    if isinstance(f, IntFiltration):
        scale = common_scale(*[u.gens for u in f.supports.values()])
        on = {s: on_scale(u.gens, scale) for s, u in f.supports.items()}
        for s, scaled in on.items():
            if len(s) == 1:
                continue
            for v in s:
                face = s - {v}
                if not _contained(scaled, on.get(face, ()), True):
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


def _image_items(
    images: tuple[Item, ...], i: int, c: int
) -> tuple[tuple[Item, ...], list[Item]]:
    """`grow` for the tripod searches: the images (A, B) of the
    sub-relations that relate xs[i] to a nonempty B' within c, that is
    ({xs[i]}, B') and every image so far joined with it, as packed items
    and each once: for each image so far, in the order grown (({xs[i]}, B')
    first), the submasks B' of c in decreasing order.  xs and c are of the
    ground sets the search walks as X and Y, which a public search may have
    swapped, and the walk chooses N(xs[i]) from the last x to the first.  No
    earlier image names xs[i], so none of these is old.  The state is every
    image so far."""
    xb = 1 << i
    subs = []
    s = c
    while s:  # every nonempty submask of c, with xs[i]
        subs.append(xb | s)
        s = (s - 1) & c
    new = list(dict.fromkeys([a | s for a in (0, *images) for s in subs]))
    return images + tuple(new), new


def tripod_distance_r(
    f: RFiltration, g: RFiltration, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Smallest worst birth discrepancy over correspondences.

    Simplices absent from both sides cost nothing; absent versus present is
    an infinite discrepancy.  The births of both sides go on one integer
    scale S, so the search compares ints; the answer is the best over S.
    """
    scale = common_scale([f.births.values(), g.births.values()])
    at_x, at_y = [_by_mask(h.ground, h.births, lambda b: to_scale(b, scale)) for h in (f, g)]
    best = _search(f.ground, g.ground, at_x, at_y, INF, _diff, _image_items, guard)
    return from_scale(best, scale)


def tripod_distance_int(
    f: IntFiltration, g: IntFiltration, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Interval-indexed tripod distance: worst support-staircase Hausdorff
    distance over realizable image pairs, minimized over correspondences.
    The best of `_staircase_search` on the supports, over S."""
    best, scale = _staircase_search(
        f.ground, g.ground, f.supports, g.supports, _image_items, guard
    )
    return from_scale(best, scale)


def one_point_tripod(f: IntFiltration, g: IntFiltration) -> RatX:
    """Tripod distance against a one-vertex filtration needs no search: it
    is the worst distance from any simplex support to the point's support.
    Absent simplices all have the empty support, so they count once; the
    answer is the largest `staircase._gaps` on their common scale S, over S."""
    if len(g.ground) != 1:
        raise NotOnePoint(f"second filtration has {len(g.ground)} vertices")
    star = support(g, Simplex(g.ground.elements))
    supports = list(f.supports.values())
    if len(supports) < 2 ** len(f.ground) - 1:
        supports.append(_EMPTY)
    scale = common_scale(star.gens, *[u.gens for u in supports])
    gap, point = _gaps(), on_scale(star.gens, scale)
    return from_scale(max([gap(on_scale(u.gens, scale), point) for u in supports]), scale)
