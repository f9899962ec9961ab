"""Distances that search over correspondences, and plane-indexed
clusterings.

A correspondence is a relation between two ground sets covering both; it
carries exactly the information of a tripod (the apex can be taken to be
the relation itself).  The searches are exact and guarded: past
|X| * |Y| = `CORRESPONDENCE_GUARD` (12) they raise SizeGuardExceeded
instead of approximating.

Both searched objectives (the worst pair-key mismatch of GH and the worst
realizable image pair of the tripod distances) only grow when the relation
grows, and every correspondence contains a minimal one, so the search
visits minimal covers only: relations in which every pair has an end of
degree one, i.e. disjoint unions of stars.  There are far fewer of them
than relations (30 against 1023 masks at 2 x 5, 48 against 4095 at 3 x 4).

The search is one branch and bound that walks the minimal covers itself,
one star at a time on one explicit stack; the library makes the covers
nowhere else and never lists them.  Each star adds only the items it
creates, and they are costed when the star is chosen: a partial choice
whose worst item reaches the best cover so far is dropped with every cover
below it, so every cover the search completes is a new best.

Masks: an element set of a ground set is one int, bit k for
`ground.elements[k]`.  An item, a pair (A, B) of element sets of the
ground set walked as X and the one walked as Y, is one packed int: the
mask of A in bits 0 to nx - 1 and that of B shifted up by nx.  So `grow`
joins items with `|`, dedupes ints and the memo keys on ints; the search
splits an item into its x-mask and y-mask only to cost it, and each
caller's tables key on the masks of the same layout.  The costs are ints
on one scale that the caller picks, or INF, so no Fraction is compared
inside the search.

Orientation: the four public searches walk the larger ground set as X,
except that a side of one element is always X (one frame).  Both
objectives are symmetric in the two inputs, so this changes the tree
walked and never the value.  The rule is set on counts of `grow` items,
which do not depend on the machine: over 4 seeded instances of each kind,
at 2 x 5 the larger side as X grows 756, 631, 2612 and 1988 items (GH
formigrams, GH ultrametrics, tripod r, tripod int) against 1339, 1742, 3844
and 3324, and at 3 x 4 1018, 1132, 2756 and 1632 against 1414, 1842, 3512
and 2784; at 1 x k both ways grow the same items, and one frame is faster.
It is measured up to the guard only.

The four public searches run through one setup, `_search`.  Its caller
hands it, per side, one table {mask of an element set: its value on the
caller's scale}, the value of a set the table lacks, and the gap between
two values; `_search` applies the orientation rule, swapping the tables
with the grounds, and costs an item (mx, my) as the gap of the two values
that its masks read.  `_by_mask` builds every table from a map keyed by
element sets, each mask in one OR loop over its set, except the
ultrametric one, which reads its matrix by index.  The staircase searches
(GH between formigrams, the interval tripod distance, `_staircase_search`)
put every generator list of both inputs on their common scale and cost
each distinct pair of lists once by one int `_gap` (`staircase._gaps`),
with no Fraction made or compared; the other two take `_diff` of two ints
or infinities.

The grid distance takes the same join over pair keys as `d_F`: `grid_code`
walks the boundary of each key's merging cells, O(rows + cols), into a
run of (col, row) corner indices, and `formigram._code`, the builder of
`cosheaf_code`, gives keys with equal runs one shared staircase, built as
its normalized antichain.  `grid_interleaving_distance` then calls
`hausdorff` once per pair key, and each shared part goes on its scale
once (`staircase._on`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

from .errors import GroundSetMismatch, SizeGuardExceeded, ValidationError
from .formigram import Formigram, PairKey, Ultrametric, _code, cosheaf_code
from .lattice import GroundSet, SubPartition, _check_same_ground
from .rat import (
    NEG_INF,
    INF,
    RatX,
    common_scale,
    from_scale,
    increasing_rats,
    on_scale,
    rows_on_scale,
)
from .staircase import PLANE, Staircase, _gaps, hausdorff

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


def _options(i: int, stars: int, leaves: int, full: int) -> list[int]:
    """The choices of N(xs[i]) once N(a) is chosen for xs[i + 1:], as masks
    over y, in the order the search tries them: the high bits of the mask
    that `enumerate_correspondences(x, y)` counts up, for the x and y that
    the search walks as X and Y (a public search may have swapped its
    arguments).  stars: elements of an N(a) of size >= 2, which no other
    N(a) may name; leaves: elements some N(a) = {b} names; full: every
    element of y."""
    free = full & ~(stars | leaves)
    if i == 0:  # the last choice must cover what is left
        return [free] if free else [1 << k for k in range(full.bit_length()) if leaves >> k & 1]
    return [
        c for c in range(1, full + 1)
        if not c & (stars | leaves if c & (c - 1) else stars)
    ]


Item = int  # packed, as the module docstring lays out


def min_max_over_correspondences(
    x: GroundSet, y: GroundSet, grow, cost, guard: int
) -> int | float:
    """min over correspondences R of the max of `cost` over the items of R,
    by a depth-first branch and bound over the minimal covers of x (as X)
    and y (as Y).

    A minimal cover is a choice of a nonempty N(a), a bitmask over y, for
    every a in x, where each N(a) of two or more elements is disjoint from
    all the others and together they cover y.  The search chooses N(xs[i])
    from i = nx - 1 down to 0 among `_options`, so it reaches the covers of
    x and y in the order of `enumerate_correspondences(x, y)`.  It keeps
    one explicit stack with one frame per level, so nx is not bounded by
    the recursion limit.

    Items are packed ints (module docstring).  `grow(state, i, c)` gets
    the choice N(xs[i]) = c in item coordinates and returns the new state
    and the items that it adds to the choices for xs[i + 1:], which left
    `state` (() at the root); the items of a cover are those of its
    choices.  The objective must be monotone (a sub-relation yields a
    subset of the items), so the minimum is attained on a minimal cover
    (e.g. 62 of the 4095 relations at 2 x 6).  `cost(mx, my)` maps the
    x-mask and the y-mask of an item to an int on the caller's scale, or to
    INF, and runs at most once per item.

    The items of a choice are costed when the choice is made, so a frame's
    worst cost is exact: the choice is dropped, with every cover below it,
    at the first of its costs that reaches the best cover so far, and a
    frame is popped once the choices above it reach the best.  A cover
    that is completed is therefore a new best.  The search stops at 0 and
    returns the best cost; the caller turns it back into a Fraction.
    """
    _check_guard(x, y, guard)
    memo: dict[Item, int | float] = {}
    best: int | float = INF
    nx, full = len(x), (1 << len(y)) - 1
    low = (1 << nx) - 1  # the x bits of an item
    # a frame chooses N(xs[i]), i = nx - len(stack): its untried choices,
    # then the stars, leaves, state and worst cost that the choices for
    # xs[i + 1:] left
    stack = [(iter(_options(nx - 1, 0, 0, full)), 0, 0, (), 0)]
    while stack:
        untried, stars, leaves, state, worst = stack[-1]
        c = next(untried, None)
        if c is None or worst >= best:
            stack.pop()
            continue
        i = nx - len(stack)
        state, new = grow(state, i, c << nx)
        for item in new:
            v = memo.get(item)
            if v is None:
                v = memo[item] = cost(item & low, item >> nx)
            if v > worst:
                worst = v
                if worst >= best:
                    break
        if worst >= best:
            continue
        if i:
            if c & (c - 1):
                stars |= c
            else:
                leaves |= c
            options = iter(_options(i - 1, stars, leaves, full))
            stack.append((options, stars, leaves, state, worst))
            continue
        best = worst  # a complete cover below the best: the new best
        if best == 0:
            break
    return best


def _key_items(
    pairs: tuple[Item, ...], i: int, c: int
) -> tuple[tuple[Item, ...], list[Item]]:
    """`grow` for GH: the choice N(xs[i]) = c relates xs[i] to each b in
    c, and adds the pair key of each new pair with itself, with the new
    pairs before it and with every pair so far, each the | of two pairs.
    The state is the related pairs, as packed items of two bits."""
    xb = 1 << i
    items: list[Item] = []
    while c:
        b = c & -c
        c ^= b
        pair = xb | b
        pairs += (pair,)
        items += [pair | p for p in pairs]
    return pairs, items


def _by_mask(ground: GroundSet, values, read) -> dict[int, object]:
    """{mask of s: read(v)} for each element set s of ground and its value
    v in values, the mask as the module docstring lays out."""
    index, out = ground.index, {}
    for s, v in values.items():
        m = 0
        for e in s:
            m |= 1 << index[e]
        out[m] = read(v)
    return out


def _diff(a: int | float, b: int | float) -> int | float:
    """|a - b| for two ints or infinities on one scale: 0 when they are
    equal, else INF when either is an infinity (a float, by a type test),
    so no int of any size meets an infinity in arithmetic."""
    if a == b:
        return 0
    if isinstance(a, float) or isinstance(b, float):
        return INF
    return abs(a - b)


def _search(x: GroundSet, y: GroundSet, at_x, at_y, missing, gap, grow, guard: int):
    """`min_max_over_correspondences` of x and y, walked by the orientation
    rule of the module docstring, with an item (mx, my) costing
    gap(at_x.get(mx, missing), at_y.get(my, missing)): at_x and at_y are
    the tables of x and y, and are swapped with them."""
    nx, ny = len(x), len(y)
    if 1 < nx < ny or nx > ny == 1:
        x, y, at_x, at_y = y, x, at_y, at_x
    return min_max_over_correspondences(
        x, y, grow, lambda mx, my: gap(at_x.get(mx, missing), at_y.get(my, missing)), guard
    )


def _staircase_search(x: GroundSet, y: GroundSet, parts_x, parts_y, grow, guard: int):
    """(best, S): `_search` with the cost of an item (mx, my) the Hausdorff
    distance between the parts (interval staircases) of its element sets,
    times S, the `common_scale` of every part of both maps: each such
    distance is a multiple of 1 / S, so the search compares ints.  An
    element set that a map lacks reads as the empty staircase, no
    generator.  Each element set's part goes on S once, and
    `staircase._gaps` costs each distinct pair of generator lists."""
    scale = common_scale(*[u.gens for parts in (parts_x, parts_y) for u in parts.values()])
    at_x, at_y = [
        _by_mask(g, parts, lambda u: on_scale(u.gens, scale))
        for g, parts in ((x, parts_x), (y, parts_y))
    ]
    return _search(x, y, at_x, at_y, (), _gaps(), grow, guard), scale


def gromov_hausdorff_formigrams(
    fx: Formigram, fy: Formigram, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest worst mismatch, over correspondences, between the
    merge staircases of related pairs: the best of `_staircase_search` over
    2 S."""
    best, scale = _staircase_search(
        fx.ground, fy.ground, cosheaf_code(fx), cosheaf_code(fy), _key_items, guard
    )
    return from_scale(best, 2 * scale)


def gromov_hausdorff_ultrametrics(
    ux: Ultrametric, uy: Ultrametric, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest correspondence distortion between two ultrametric
    (or plain metric) matrices.  Both matrices are put on one integer scale
    S, so the search compares int costs; the answer is the best over 2 S.
    A side's table maps the mask of the pair key {i, j} to S times entry
    (i, j), which the symmetric matrices make independent of the order of
    i and j, so each table is built from the triangle j >= i alone, whose
    rows `rows_on_scale` puts on S, both matrices' rows in one call."""
    nx = len(ux.ground)
    _, rows, scale = rows_on_scale(
        [row[i:] for entries in (ux.entries, uy.entries) for i, row in enumerate(entries)]
    )
    at_x, at_y = [
        {1 << i | 1 << (i + k): d for i, row in enumerate(upper) for k, d in enumerate(row)}
        for upper in (rows[:nx], rows[nx:])
    ]
    best = _search(ux.ground, uy.ground, at_x, at_y, INF, _diff, _key_items, guard)
    return from_scale(best, 2 * scale)


@dataclass(frozen=True)
class GridClustering:
    """Plane-indexed clustering, constant on the open cells of a finite
    grid; cells[row][col] with row 0 the unbounded bottom strip and col 0
    the unbounded left strip.  Values on cut lines are taken from the
    upper-right cell, which the closure-insensitive distances never see.
    The cuts and cells are stored as tuples."""

    ground: GroundSet
    x_cuts: tuple[Fraction, ...]
    y_cuts: tuple[Fraction, ...]
    cells: tuple[tuple[SubPartition, ...], ...]

    def __post_init__(self):
        for name in ("x_cuts", "y_cuts"):
            object.__setattr__(self, name, increasing_rats(getattr(self, name), "cuts"))
        object.__setattr__(self, "cells", tuple([tuple(row) for row in self.cells]))
        nrow, ncol = len(self.y_cuts) + 1, len(self.x_cuts) + 1
        if len(self.cells) != nrow or any(len(r) != ncol for r in self.cells):
            raise ValidationError(f"need {nrow} rows x {ncol} cols of cells")
        for row in self.cells:
            for v in row:
                _check_same_ground(self.ground, v.ground)
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


def grid_upper_set(f: GridClustering, key: PairKey) -> Staircase:
    """Plane staircase of cells whose value merges the pair (or contains
    the element, for singleton keys): the one-key reader of the walk that
    `grid_code` runs for every key.  A key that is not one or two elements
    raises ValidationError, an element outside the ground
    GroundSetMismatch."""
    if not 1 <= len(key) <= 2:
        raise ValidationError(f"a key is one or two elements, got {sorted(key)}")
    for v in key:
        if v not in f.ground:
            raise GroundSetMismatch(f"{v!r} not in the clustering ground set")
    return _grid_code(f, [(min(key), max(key))])[frozenset(key)]


def _grid_run(f: GridClustering, x: str, y: str) -> tuple[tuple[int, int], ...]:
    """The (col, row) index of every minimal corner of the cells whose
    value merges x and y (contains x, when x == y).

    Cells are order-preserving, so the merging cells of row r are the
    suffix of the row from some column c_r, and c_r does not increase with
    r.  One walk moves c leftward row by row and notes cell (r, c_r) only
    where c_r drops: exactly the minimal corners, met with both generator
    coordinates (minus the x cut, the y cut) increasing, so their
    generators are the normalized antichain.  O(rows + cols) `same_block`
    calls."""
    run = []
    c = len(f.x_cuts) + 1
    for r, row in enumerate(f.cells):
        start = c
        while c > 0 and row[c - 1].same_block(x, y):
            c -= 1
        if c < start:
            run.append((c, r))
    return tuple(run)


def grid_code(f: GridClustering) -> dict[PairKey, Staircase]:
    """`grid_upper_set` of every pair key, in the order of `all_pair_keys`,
    with one (frozen) Staircase shared by the keys of equal corner runs, as
    in `cosheaf_code`.  For n elements this is O(n^2 (rows + cols))
    `same_block` calls."""
    return _grid_code(f, combinations_with_replacement(f.ground.elements, 2))


def _grid_code(f: GridClustering, pairs) -> dict[PairKey, Staircase]:
    """`formigram._code` of the `_grid_run`s of the element pairs, read on
    the cuts negated once: column c gives l = -x_cuts[c - 1] (INF for the
    unbounded column 0) and row i gives r = y_cuts[i - 1] (NEG_INF for the
    unbounded row 0)."""
    lefts = (INF, *[-x for x in f.x_cuts])
    rights = (NEG_INF, *f.y_cuts)
    return _code(pairs, lambda x, y: _grid_run(f, x, y), PLANE, lefts, rights)


def grid_interleaving_distance(f: GridClustering, g: GridClustering) -> RatX:
    """Largest pairwise plane-staircase Hausdorff distance (the diagonal
    flow interleaving distance of the two clusterings), one `hausdorff`
    call per pair key of the two `grid_code`s."""
    _check_same_ground(f.ground, g.ground)
    code_f = grid_code(f)
    code_g = grid_code(g)
    best: RatX = Fraction(0)
    for key in code_f:
        d = hausdorff(code_f[key], code_g[key])
        if d > best:
            best = d
    return best
