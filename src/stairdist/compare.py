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

The search is one branch and bound that walks the minimal covers itself,
one star at a time on one explicit stack; the library makes the covers
nowhere else and never lists them.  Each star adds only the items it
creates, as (x-mask, y-mask) ints, and a partial choice whose known worst
item already reaches the best cover so far is dropped with every cover
below it.  The costs are ints on one scale that the caller picks, or INF,
so no Fraction is compared inside the search; the callers read each mask's
cost from small lazy tables.  For staircase costs the scale is the common
scale of every staircase of both inputs, and the kernel `staircase._gaps`
costs each distinct pair of generator lists by one int `_gap`, with no
Fraction made or compared.

The grid distance takes the same join over pair keys as `d_F`: `grid_code`
walks the boundary of each key's merging cells, O(rows + cols), into a
run of (col, row) corner indices, and gives keys with equal runs one
shared staircase, built as its normalized antichain, as `cosheaf_code`
shares a formigram's parts.  `grid_interleaving_distance` then calls
`hausdorff` once per pair key, and each shared part goes on its scale
once (`staircase._on`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator

from .errors import GroundSetMismatch, SizeGuardExceeded, ValidationError
from .formigram import Formigram, PairKey, Ultrametric, cosheaf_code
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
from .staircase import PLANE, Staircase, _antichain, _gaps, hausdorff

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
    """The choices of N(xs[i]) once N(a) is chosen for xs[i + 1:], in the
    order the search tries them: the high bits of the mask that
    `enumerate_correspondences` counts up.  stars: elements of an N(a) of
    size >= 2, which no other N(a) may name; leaves: elements some
    N(a) = {b} names; full: every element of y."""
    free = full & ~(stars | leaves)
    if i == 0:  # the last choice must cover what is left
        return [free] if free else [1 << k for k in range(full.bit_length()) if leaves >> k & 1]
    return [
        c for c in range(1, full + 1)
        if not c & (stars | leaves if c & (c - 1) else stars)
    ]


Item = tuple[int, int]  # (x-mask, y-mask): bit k stands for elements[k]


def min_max_over_correspondences(
    x: GroundSet, y: GroundSet, grow, cost, guard: int
) -> int | float:
    """min over correspondences R of the max of `cost` over the items of R,
    by a depth-first branch and bound over the minimal covers.

    A minimal cover is a choice of a nonempty N(a), a bitmask over y, for
    every a in x, where each N(a) of two or more elements is disjoint from
    all the others and together they cover y.  The search chooses N(xs[i])
    from i = nx - 1 down to 0 among `_options`, so it completes the covers
    in the order of `enumerate_correspondences`.  It keeps one explicit
    stack with one frame per level, so nx is not bounded by the recursion
    limit.

    Items are (x-mask, y-mask) ints.  `grow(state, i, c)` returns the new
    state and the items that the choice N(xs[i]) = c adds to the choices
    for xs[i + 1:], which left `state` (() at the root); the items of a
    cover are those of its choices.  The objective must be monotone (a
    sub-relation yields a subset of the items), so the minimum is attained
    on a minimal cover (e.g. 62 of the 4095 relations at 2 x 6).  `cost`
    maps an item to an int on the caller's scale, or to INF, and runs at
    most once per item.

    The bound reads memoized costs only: a choice is dropped, with every
    cover below it, as soon as the worst memoized cost among its items
    (read when the choice is made) reaches the best cover so far, and a
    frame is popped once the choices above it reach the best.  Unknown
    costs are computed only at a complete cover, after every cost found
    since, and the cover is abandoned at the first that reaches the best.
    The search stops at 0 and returns the best cost; the caller turns it
    back into a Fraction.
    """
    _check_guard(x, y, guard)
    memo: dict[Item, int | float] = {}
    best: int | float = INF
    nx, full = len(x), (1 << len(y)) - 1
    # a frame chooses N(xs[i]), i = nx - len(stack): its untried choices,
    # then the stars, leaves, state, worst known cost and items of unknown
    # cost that the choices for xs[i + 1:] left
    stack = [(iter(_options(nx - 1, 0, 0, full)), 0, 0, (), 0, ())]
    while stack:
        untried, stars, leaves, state, worst, unknown = stack[-1]
        c = next(untried, None)
        if c is None or worst >= best:
            stack.pop()
            continue
        i = nx - len(stack)
        state, new = grow(state, i, c)
        worst, new = _known(memo, worst, new)
        if worst >= best:
            continue
        if i:
            if c & (c - 1):
                stars |= c
            else:
                leaves |= c
            options = iter(_options(i - 1, stars, leaves, full))
            stack.append((options, stars, leaves, state, worst, unknown + new))
            continue
        # a complete cover: the costs found since its choices were made
        # first, then the unknown ones until one reaches the best
        worst, unknown = _known(memo, worst, unknown + new)
        for item in unknown:
            if worst >= best:
                break
            v = memo.get(item)
            if v is None:
                v = memo[item] = cost(*item)
            if v > worst:
                worst = v
        if worst < best:
            best = worst
            if best == 0:
                break
    return best


def _known(memo: dict, worst, items) -> tuple[int | float, tuple[Item, ...]]:
    """worst raised to the memoized costs of items, and the items whose
    cost is not known yet."""
    unknown = []
    for item in items:
        v = memo.get(item)
        if v is None:
            unknown.append(item)
        elif v > worst:
            worst = v
    return worst, tuple(unknown)


def _names(elements: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset([e for k, e in enumerate(elements) if mask >> k & 1])


def _key_items(
    pairs: tuple[Item, ...], i: int, c: int
) -> tuple[tuple[Item, ...], list[Item]]:
    """`grow` for GH: the choice N(xs[i]) = c relates xs[i] to each b in
    c, and adds the pair key of each new pair with itself, with the new
    pairs before it and with every pair so far.  The state is the related
    pairs, as one-bit masks."""
    xb = 1 << i
    items: list[Item] = []
    while c:
        b = c & -c
        c ^= b
        pairs += ((xb, b),)
        items += [(xb | px, b | py) for px, py in pairs]
    return pairs, items


def _hausdorff_costs(stair_x, stair_y, scale: int):
    """cost(mx, my) = `hausdorff(stair_x(mx), stair_y(my))` times `scale`
    (a multiple of twice every generator denominator on both sides), as an
    int or INF, for interval staircases (merge staircases and supports).
    Each mask's staircase goes on the scale once, and `staircase._gaps`
    costs each distinct pair of generator lists."""
    gap = _gaps()
    at_x = cache(lambda m: on_scale(stair_x(m).gens, scale))
    at_y = cache(lambda m: on_scale(stair_y(m).gens, scale))
    return lambda mx, my: gap(at_x(mx), at_y(my))


def gromov_hausdorff_formigrams(
    fx: Formigram, fy: Formigram, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest worst mismatch, over correspondences, between the
    merge staircases of related pairs.  Every Hausdorff value is a multiple
    of 1 / S, for S the `common_scale` of every merge staircase of both
    sides, so the search compares ints and the answer is the best over 2 S."""
    code_x = cosheaf_code(fx)
    code_y = cosheaf_code(fy)
    scale = common_scale(*[u.gens for code in (code_x, code_y) for u in code.values()])
    xs, ys = fx.ground.elements, fy.ground.elements
    cost = _hausdorff_costs(
        lambda m: code_x[_names(xs, m)], lambda m: code_y[_names(ys, m)], scale
    )
    best = min_max_over_correspondences(fx.ground, fy.ground, _key_items, cost, guard)
    return from_scale(best, 2 * scale)


def _ends(mask: int) -> tuple[int, int]:
    """The lowest and the highest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1, mask.bit_length() - 1


def gromov_hausdorff_ultrametrics(
    ux: Ultrametric, uy: Ultrametric, guard: int = CORRESPONDENCE_GUARD
) -> RatX:
    """Half the smallest correspondence distortion between two ultrametric
    (or plain metric) matrices.  Both matrices are put on one integer scale
    S, so the search compares int costs; the answer is the best over 2 S.
    A key's cost reads entry (lo, hi) of its two indices, which the
    symmetric matrices make independent of the element names."""
    scale = common_scale(ux.entries, uy.entries)
    ex, ey = rows_on_scale(ux.entries, scale), rows_on_scale(uy.entries, scale)

    def cost(mx, my):
        (i, j), (k, m) = _ends(mx), _ends(my)
        return abs(ex[i][j] - ey[k][m])

    best = min_max_over_correspondences(ux.ground, uy.ground, _key_items, cost, guard)
    return from_scale(best, 2 * scale)


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
                _check_same_ground(self, v)
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
    return _grid_parts(f)(_grid_run(f, min(key), max(key)))


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


def _grid_parts(f: GridClustering):
    """part(run): the plane staircase of a `_grid_run` of f, built as the
    normalized antichain the run is (`_antichain`), on the cuts negated
    once: column c gives l = -x_cuts[c - 1] (INF for the unbounded column
    0) and row i gives r = y_cuts[i - 1] (NEG_INF for the unbounded row 0)."""
    lefts = (INF, *[-x for x in f.x_cuts])
    rights = (NEG_INF, *f.y_cuts)
    return lambda run: _antichain(PLANE, tuple([(lefts[c], rights[r]) for c, r in run]))


def grid_code(f: GridClustering) -> dict[PairKey, Staircase]:
    """`grid_upper_set` of every pair key, in the order of `all_pair_keys`,
    with one (frozen) Staircase shared by the keys of equal corner runs, as
    in `cosheaf_code`.  For n elements this is O(n^2 (rows + cols))
    `same_block` calls."""
    elements = f.ground.elements
    part = _grid_parts(f)
    shared: dict[tuple, Staircase] = {}
    out: dict[PairKey, Staircase] = {}
    for a, x in enumerate(elements):
        for y in elements[a:]:
            run = _grid_run(f, x, y)
            u = shared.get(run)
            if u is None:
                u = shared[run] = part(run)
            out[frozenset((x, y))] = u
    return out


def grid_interleaving_distance(f: GridClustering, g: GridClustering) -> RatX:
    """Largest pairwise plane-staircase Hausdorff distance (the diagonal
    flow interleaving distance of the two clusterings), one `hausdorff`
    call per pair key of the two `grid_code`s."""
    _check_same_ground(f, g)
    code_f = grid_code(f)
    code_g = grid_code(g)
    best: RatX = Fraction(0)
    for key in code_f:
        d = hausdorff(code_f[key], code_g[key])
        if d > best:
            best = d
    return best
