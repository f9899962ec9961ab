"""Distances that search over correspondences, and plane-indexed
clusterings.

A correspondence is a relation between two ground sets covering both; it
carries exactly the information of a tripod (the apex can be taken to be
the relation itself).  The searches are exact and guarded: exceeding the
guard raises instead of approximating.

Both searched objectives (the worst pair-key mismatch of GH and the worst
realizable image pair of the tripod distances) only grow when the relation
grows, and every correspondence contains a minimal one, so the search
visits minimal covers only: relations in which every pair has an end of
degree one, i.e. disjoint unions of stars.  There are far fewer of them
than relations (30 against 1023 masks at 2 x 5, 48 against 4095 at 3 x 4).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import GroundSetMismatch, SizeGuardExceeded, ValidationError
from .formigram import Formigram, Ultrametric, all_pair_keys, cosheaf_code
from .lattice import GroundSet, SubPartition
from .rat import NEG_INF, INF, RatX, common_scale, increasing_rats, rows_on_scale
from .staircase import PLANE, Staircase, hausdorff, plane_generator

CORRESPONDENCE_GUARD = 12

Pair = tuple[str, str]
Correspondence = tuple[Pair, ...]


def _check_guard(x: GroundSet, y: GroundSet, guard: int) -> None:
    nx, ny = len(x), len(y)
    if nx * ny > guard:
        raise SizeGuardExceeded(f"|X| * |Y| = {nx * ny} exceeds guard {guard}")


def enumerate_correspondences(
    x: GroundSet, y: GroundSet, guard: int = CORRESPONDENCE_GUARD
) -> Iterator[Correspondence]:
    """Every relation between x and y surjective on both factors, once.

    The guard is checked up front (not lazily on first iteration)."""
    _check_guard(x, y, guard)
    return _iter_correspondences(x, y)


def _iter_correspondences(x: GroundSet, y: GroundSet) -> Iterator[Correspondence]:
    nx, ny = len(x), len(y)
    cells = [(a, b) for a in x.elements for b in y.elements]
    n = len(cells)
    for mask in range(1, 1 << n):
        chosen = [cells[i] for i in range(n) if mask >> i & 1]
        if len({a for a, _ in chosen}) == nx and len({b for _, b in chosen}) == ny:
            yield tuple(chosen)


def _minimal_covers(
    x: GroundSet, y: GroundSet, guard: int = CORRESPONDENCE_GUARD
) -> Iterator[Correspondence]:
    """Every correspondence in which each pair has an end of degree one,
    once, in the order (and with the pair order) of
    `enumerate_correspondences`.

    Such a relation is a choice of a nonempty neighbourhood N(a) in y for
    every a in x, where each N(a) of two or more elements is disjoint from
    all the others and together they cover y.  The guard is checked up
    front."""
    _check_guard(x, y, guard)
    return _iter_minimal_covers(x, y)


def _iter_minimal_covers(x: GroundSet, y: GroundSet) -> Iterator[Correspondence]:
    xs, ys = x.elements, y.elements
    full = (1 << len(ys)) - 1
    rows = [[(a, b) for b in ys] for a in xs]
    chosen = [0] * len(xs)  # N(a) for every a in x, as a bitmask over y

    def pairs():
        return tuple([
            p for row, m in zip(rows, chosen) for k, p in enumerate(row) if m >> k & 1
        ])

    def options(i: int, stars: int, leaves: int) -> list[int]:
        # the choices of N(xs[i]) once N(a) is chosen for xs[i + 1:], the
        # high bits of the mask that `enumerate_correspondences` counts up.
        # stars: elements of an N(a) of size >= 2, which no other N(a) may
        # name; leaves: elements some N(a) = {b} names.
        free = full & ~(stars | leaves)
        if i == 0:  # the last choice must cover what is left
            return [free] if free else [1 << k for k in range(len(ys)) if leaves >> k & 1]
        return [
            c for c in range(1, full + 1)
            if not c & (stars | leaves if c & (c - 1) else stars)
        ]

    if not (xs and ys):
        return
    # depth-first over xs from the last element down, on an explicit stack
    # of (untried choices, stars, leaves), so |X| is not bounded by the
    # recursion limit; stack[d] chooses N(xs[len(xs) - 1 - d])
    stack = [(iter(options(len(xs) - 1, 0, 0)), 0, 0)]
    while stack:
        untried, stars, leaves = stack[-1]
        i = len(xs) - len(stack)
        c = next(untried, None)
        if c is None:
            stack.pop()
            continue
        chosen[i] = c
        if i == 0:
            yield pairs()
            continue
        if c & (c - 1):
            stars |= c
        else:
            leaves |= c
        stack.append((iter(options(i - 1, stars, leaves)), stars, leaves))


def min_max_over_correspondences(
    x: GroundSet, y: GroundSet, items, cost, guard: int
) -> RatX:
    """min over correspondences R of the max of `cost` over `items(R)`.

    `items` maps a correspondence to hashable (left, right) items, and must
    be monotone: a sub-relation yields a subset of the items.  The minimum
    is then attained on a minimal cover, so only minimal covers are visited
    (`_minimal_covers`; far fewer than the 2^(|X||Y|) relations, e.g. 62
    at 2 x 6).  `cost` is evaluated once per distinct item over the whole
    search.  A correspondence is abandoned as soon as its worst item
    reaches the best value so far, and the search stops at 0.
    """
    memo: dict = {}
    best: RatX = INF
    for rel in _minimal_covers(x, y, guard):
        worst: RatX = Fraction(0)
        for item in items(rel):
            c = memo.get(item)
            if c is None:
                c = memo[item] = cost(*item)
            if c > worst:
                worst = c
                if worst >= best:
                    break
        if worst < best:
            best = worst
            if best == 0:
                break
    return best


def _key_pairs(rel: Correspondence) -> Iterator[tuple[frozenset, frozenset]]:
    """Pair keys ({x1, x2}, {y1, y2}) of every two related pairs."""
    for (x1, y1), (x2, y2) in combinations_with_replacement(rel, 2):
        yield frozenset({x1, x2}), frozenset({y1, y2})


def gromov_hausdorff_formigrams(
    fx: Formigram, fy: Formigram, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest worst mismatch, over correspondences, between the
    merge staircases of related pairs."""
    code_x = cosheaf_code(fx)
    code_y = cosheaf_code(fy)

    def cost(kx, ky):
        return hausdorff(code_x[kx], code_y[ky])

    return min_max_over_correspondences(fx.ground, fy.ground, _key_pairs, cost, guard) / 2


def gromov_hausdorff_ultrametrics(
    ux: Ultrametric, uy: Ultrametric, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest correspondence distortion between two ultrametric
    (or plain metric) matrices.  Both matrices are put on one integer scale
    S, so the search compares int costs; the answer is the best over 2 S."""
    scale = common_scale(ux.entries, uy.entries)
    ex, ey = rows_on_scale(ux.entries, scale), rows_on_scale(uy.entries, scale)
    ix, iy = ux.ground.index, uy.ground.index

    def cost(kx, ky):
        return abs(ex[ix[min(kx)]][ix[max(kx)]] - ey[iy[min(ky)]][iy[max(ky)]])

    best = min_max_over_correspondences(ux.ground, uy.ground, _key_pairs, cost, guard)
    return Fraction(best, 2 * scale)


@dataclass(frozen=True)
class GridClustering:
    """Plane-indexed clustering, constant on the open cells of a finite
    grid; cells[row][col] with row 0 the unbounded bottom strip and col 0
    the unbounded left strip.  Values on cut lines are taken from the
    upper-right cell, which the closure-insensitive distances never see."""

    ground: GroundSet
    x_cuts: tuple[Fraction, ...]
    y_cuts: tuple[Fraction, ...]
    cells: tuple[tuple[SubPartition, ...], ...]

    def __post_init__(self):
        for name in ("x_cuts", "y_cuts"):
            object.__setattr__(self, name, increasing_rats(getattr(self, name), "cuts"))
        nrow, ncol = len(self.y_cuts) + 1, len(self.x_cuts) + 1
        if len(self.cells) != nrow or any(len(r) != ncol for r in self.cells):
            raise ValidationError(f"need {nrow} rows x {ncol} cols of cells")
        for row in self.cells:
            for v in row:
                if v.ground != self.ground:
                    raise GroundSetMismatch("cell value over a different ground set")
        for r in range(nrow):
            for c in range(ncol):
                v = self.cells[r][c]
                if r + 1 < nrow and not v.refines(self.cells[r + 1][c]):
                    raise ValidationError(f"not order-preserving at cell ({r},{c})->({r + 1},{c})")
                if c + 1 < ncol and not v.refines(self.cells[r][c + 1]):
                    raise ValidationError(f"not order-preserving at cell ({r},{c})->({r},{c + 1})")

    def value_at(self, p: tuple[Fraction, Fraction]) -> SubPartition:
        col = bisect_right(self.x_cuts, p[0])
        row = bisect_right(self.y_cuts, p[1])
        return self.cells[row][col]


def grid_upper_set(f: GridClustering, key: frozenset) -> Staircase:
    """Plane staircase of cells whose value merges the pair (or contains
    the element, for singleton keys).

    Cells are order-preserving, so the merging cells of row r are the
    suffix of the row from some column c_r, and c_r does not increase with
    r.  One walk moves c leftward row by row and offers the corner of
    cell (r, c_r) only where c_r drops: exactly the minimal corners.
    O(rows + cols) `same_block` calls."""
    for v in key:
        if v not in f.ground:
            raise GroundSetMismatch(f"{v!r} not in the clustering ground set")
    x, y = (min(key), max(key))
    gens = []
    c = len(f.x_cuts) + 1
    for r, row in enumerate(f.cells):
        start = c
        while c > 0 and row[c - 1].same_block(x, y):
            c -= 1
        if c < start:
            corner = (
                f.x_cuts[c - 1] if c >= 1 else NEG_INF,
                f.y_cuts[r - 1] if r >= 1 else NEG_INF,
            )
            gens.append(plane_generator(corner))
    return Staircase(PLANE, tuple(gens))


def grid_interleaving_distance(f: GridClustering, g: GridClustering) -> RatX:
    """Largest pairwise plane-staircase Hausdorff distance (the diagonal
    flow interleaving distance of the two clusterings)."""
    if f.ground != g.ground:
        raise GroundSetMismatch("clusterings over different ground sets")
    best: RatX = Fraction(0)
    for key in all_pair_keys(f.ground):
        d = hausdorff(grid_upper_set(f, key), grid_upper_set(g, key))
        if d > best:
            best = d
    return best
