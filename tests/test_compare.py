"""Correspondence searches: GH distances and plane-indexed clusterings."""

from collections import Counter
from fractions import Fraction
from functools import cache
import importlib
from itertools import combinations_with_replacement
import random

import pytest

from stairdist import (
    Formigram,
    GridClustering,
    GroundSet,
    GroundSetMismatch,
    INF,
    SizeGuardExceeded,
    SubPartition,
    Surjection,
    ValidationError,
    barcode,
    enumerate_correspondences,
    erosion_distance,
    grid_code,
    grid_interleaving_distance,
    grid_upper_set,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    interleaving_distance,
    one_point_tripod,
    pullback_formigram,
    single_linkage,
    sublevel_staircase,
    ultrametric,
)
from stairdist import compare
from stairdist.compare import _key_items, min_max_over_correspondences
from stairdist.rat import NEG_INF
from stairdist.staircase import PLANE, Staircase, hausdorff, plane_generator, staircase
from stairdist.filtration import (
    RFiltration,
    _image_items,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
)
from stairdist.formigram import (
    Ultrametric,
    all_pair_keys,
    cosheaf_code,
    interleaving_distance_with_witness,
)
from stairdist.oracle import grid_interleaved, oracle_formigram_distance, oracle_grid_distance
from conftest import (
    full_r_filtration,
    ground,
    rand_barcode,
    rand_formigram,
    rand_formigram_pair,
    rand_grid,
    rand_grid_pair,
    rand_int_filtration,
    rand_merged_tail_formigram,
    rand_metric,
    rand_r_filtration,
)

F = Fraction

# the package exports a function named `staircase`, so fetch the module
staircase_module = importlib.import_module("stairdist.staircase")
formigram_module = importlib.import_module("stairdist.formigram")


def fs(*xs):
    return frozenset(xs)


def oracle_gh_via_pullbacks(fx, fy, guard=12):
    """The definitional route: half the best pullback interleaving distance
    over all correspondences, with the relation itself as the apex."""
    best = INF
    for rel in enumerate_correspondences(fx.ground, fy.ground, guard):
        znames = tuple(f"{x}|{y}" for x, y in rel)
        z = GroundSet(znames)
        phi_x = Surjection(z, fx.ground, {f"{x}|{y}": x for x, y in rel})
        phi_y = Surjection(z, fy.ground, {f"{x}|{y}": y for x, y in rel})
        d = interleaving_distance(
            pullback_formigram(fx, phi_x), pullback_formigram(fy, phi_y)
        )
        best = min(best, d)
    return best / 2


def _key_pairs(rel):
    """Pair keys ({x1, x2}, {y1, y2}) of every two related pairs: the GH
    items of a correspondence, by name."""
    for (x1, y1), (x2, y2) in combinations_with_replacement(rel, 2):
        yield frozenset({x1, x2}), frozenset({y1, y2})


def unpruned_min_max(x, y, items, cost, guard=12):
    """The unpruned twin of `min_max_over_correspondences`: every minimal
    cover in turn, listed by brute force (`minimal_covers`), its items by
    name from `items(rel)`, `cost` once per distinct item.  A cover is
    abandoned as soon as its worst item reaches the best value so far, and
    the search stops at 0."""
    memo = {}
    best = INF
    for rel in minimal_covers(x, y, guard):
        worst = F(0)
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


def gh_cost_formigrams(fx, fy):
    """The merge-staircase mismatch of a pair of keys, by name."""
    code_x, code_y = cosheaf_code(fx), cosheaf_code(fy)

    def cost(kx, ky):
        return hausdorff(code_x[kx], code_y[ky])

    return cost


def gh_cost_ultrametrics(ux, uy):
    """The distortion of a pair of keys, by name."""

    def cost(kx, ky):
        return abs(ux(min(kx), max(kx)) - uy(min(ky), max(ky)))

    return cost


def unpruned_gh_formigrams(fx, fy, guard=12):
    """GH between formigrams through the unpruned twin, on Fraction costs."""
    cost = gh_cost_formigrams(fx, fy)
    return unpruned_min_max(fx.ground, fy.ground, _key_pairs, cost, guard) / 2


def unpruned_gh_ultrametrics(ux, uy, guard=12):
    """GH between ultrametrics through the unpruned twin, on Fraction costs."""
    cost = gh_cost_ultrametrics(ux, uy)
    return unpruned_min_max(ux.ground, uy.ground, _key_pairs, cost, guard) / 2


def named_grounds(nx, ny):
    return tuple(GroundSet(tuple(f"{c}{i}" for i in range(n))) for c, n in (("x", nx), ("y", ny)))


def reversed_grounds(nx, ny):
    """`named_grounds` with each canonical order the reverse of the sorted
    one, so a mask numbered by sorted names misreads them."""
    return tuple(GroundSet(g.elements[::-1]) for g in named_grounds(nx, ny))


def _names(elements, mask):
    """The element set of a mask: bit k stands for elements[k]."""
    return frozenset([e for k, e in enumerate(elements) if mask >> k & 1])


def split(item, nx):
    """A packed item of a search with nx elements in X as (x-mask, y-mask):
    x bits below bit nx, y bits from bit nx up."""
    return item & ((1 << nx) - 1), item >> nx


def grown_items(grow, rows):
    """The packed items `grow` adds over the rows N(xs[i]) of a relation
    (bitmasks over y, handed to `grow` in item coordinates, as the search
    does), from the last row to the first, in order."""
    nx = len(rows)
    state, out = (), []
    for i in reversed(range(nx)):
        state, new = grow(state, i, rows[i] << nx)
        out += new
    return out


def searched_covers(x, y, guard=12):
    """Every cover that `min_max_over_correspondences` completes, in its
    order, as named pairs.  `grow` keeps the rows N(xs[i]), and the last
    choice adds one item naming the cover, its rows side by side in the
    y-mask; `cost` records that item's rows at cost 1, so the search costs
    every cover once."""
    nx, ny = len(x), len(y)
    covers = []

    def grow(rows, i, c):
        rows = (split(c, nx)[1],) + rows
        return rows, [] if i else [sum(m << k * ny for k, m in enumerate(rows)) << nx]

    def cost(mx, my):
        assert mx == 0
        covers.append([my >> k * ny & ((1 << ny) - 1) for k in range(nx)])
        return 1

    min_max_over_correspondences(x, y, grow, cost, guard)
    return [cover_of(rows, x, y) for rows in covers]


def cover_of(rows, x, y):
    """The relation whose rows N(xs[i]) are bitmasks over y, as named pairs:
    a in xs, then b in ys."""
    return tuple([
        (a, b) for a, m in zip(x.elements, rows) for k, b in enumerate(y.elements) if m >> k & 1
    ])


@cache
def minimal_covers(x, y, guard=12):
    """Every minimal cover of x and y by brute force, as named pairs: the
    correspondences in which every pair has an end of degree one, in the
    order of `enumerate_correspondences`.  Cached per shape and names, as
    the twins list the same covers again and again."""
    return tuple([
        rel for rel in enumerate_correspondences(x, y, guard) if is_minimal_cover(rel, x, y)
    ])


def rows_of(rel, x, y):
    return tuple([
        sum(1 << k for k, b in enumerate(y.elements) if (a, b) in rel) for a in x.elements
    ])


def named(items, x, y):
    """Packed items as pairs of element sets."""
    pairs = [split(item, len(x)) for item in items]
    return [(_names(x.elements, mx), _names(y.elements, my)) for mx, my in pairs]


# --- correspondences -------------------------------------------------------------


def test_correspondence_counts():
    one = GroundSet(("a",))
    two = GroundSet(("x", "y"))
    assert len(list(enumerate_correspondences(one, GroundSet(("b",))))) == 1
    assert len(list(enumerate_correspondences(two, one))) == 1
    rels = list(enumerate_correspondences(two, GroundSet(("u", "v"))))
    assert len(rels) == 7
    assert len(set(rels)) == 7
    for rel in rels:
        assert {x for x, _ in rel} == {"x", "y"}
        assert {y for _, y in rel} == {"u", "v"}


def test_correspondence_guard():
    with pytest.raises(SizeGuardExceeded):
        list(enumerate_correspondences(ground(4), ground(4)))
    # every search over correspondences keeps the default guard at 4 x 4
    f4 = Formigram.constant(SubPartition.one_block(ground(4)))
    with pytest.raises(SizeGuardExceeded):
        gromov_hausdorff_formigrams(f4, f4)
    u4 = ultrametric(single_linkage(ground(4), rand_metric(random.Random(3), ground(4))))
    with pytest.raises(SizeGuardExceeded):
        gromov_hausdorff_ultrametrics(u4, u4)
    r4 = RFiltration(ground(4), {fs(x): F(0) for x in ground(4)})
    with pytest.raises(SizeGuardExceeded):
        tripod_distance_r(r4, r4)
    i4 = to_int_indexed(r4)
    with pytest.raises(SizeGuardExceeded):
        tripod_distance_int(i4, i4)


def is_minimal_cover(rel, x, y):
    """A correspondence of x and y in which every pair has an end of
    degree one."""
    dx = Counter(a for a, _ in rel)
    dy = Counter(b for _, b in rel)
    return set(dx) == set(x.elements) and set(dy) == set(y.elements) and all(
        dx[a] == 1 or dy[b] == 1 for a, b in rel
    )


@pytest.mark.parametrize(
    "nx, ny, count", [(1, 1, 1), (2, 2, 2), (2, 5, 30), (5, 2, 30), (3, 4, 48), (2, 6, 62)]
)
def test_minimal_cover_counts(nx, ny, count):
    x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
    rels = searched_covers(x, y)
    assert len(rels) == len(set(rels)) == count
    assert all(is_minimal_cover(rel, x, y) for rel in rels)


def test_minimal_covers_are_the_minimal_correspondences():
    """Every shape up to the default guard: the search completes exactly
    the minimal covers among all correspondences, each once and in the same
    order."""
    for nx in range(1, 13):
        for ny in range(1, 12 // nx + 1):
            x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
            rels = searched_covers(x, y)
            assert len(rels) == len(set(rels))
            assert tuple(rels) == minimal_covers(x, y)


def test_minimal_covers_walk_long_ground_sets():
    """One choice per element of X, far past the recursion limit."""
    x, y = GroundSet(tuple(f"x{i:04d}" for i in range(1200))), GroundSet(("y",))
    assert searched_covers(x, y, guard=1200) == [tuple((a, "y") for a in x.elements)]


def test_key_items_are_the_key_pairs():
    """The GH items grown row by row, as the search grows them along a
    cover, are the pair keys of the relation, on every correspondence up to
    2 x 3 and 3 x 2; on the minimal covers, the only relations the search
    grows, each key is grown once (a relation holding (a, u), (a, v),
    (b, u) and (b, v) grows the key ({a, b}, {u, v}) twice)."""
    for nx, ny in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]:
        x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
        for rel in enumerate_correspondences(x, y):
            items = named(grown_items(_key_items, rows_of(rel, x, y)), x, y)
            assert set(items) == set(_key_pairs(rel))
            if is_minimal_cover(rel, x, y):
                assert len(items) == len(set(items))


def search_inputs(rng, nx, ny, grounds=named_grounds):
    """One random pair of inputs of each searched kind over the nx and ny
    elements of `grounds(nx, ny)`, with the public search and its unpruned
    twin: (kind, search, twin, a, b)."""
    from test_filtration import unpruned_tripod_int, unpruned_tripod_r

    gx, gy = grounds(nx, ny)
    make = rand_formigram if rng.random() < 0.5 else rand_merged_tail_formigram
    yield (
        "gh_formigrams", gromov_hausdorff_formigrams, unpruned_gh_formigrams,
        make(rng, gx, max_crit=2), make(rng, gy, max_crit=2),
    )
    yield (
        "gh_ultrametrics", gromov_hausdorff_ultrametrics, unpruned_gh_ultrametrics,
        *[ultrametric(single_linkage(g, rand_metric(rng, g))) for g in (gx, gy)],
    )
    yield (
        "tripod_r", tripod_distance_r, unpruned_tripod_r,
        full_r_filtration(rng, gx), full_r_filtration(rng, gy),
    )
    if rng.random() < 0.5:
        ix, iy = (to_int_indexed(full_r_filtration(rng, g)) for g in (gx, gy))
    else:
        ix, iy = (rand_int_filtration(rng, g, pinned=True) for g in (gx, gy))
    yield "tripod_int", tripod_distance_int, unpruned_tripod_int, ix, iy


def search_instances(rng, nx, ny):
    """The inputs of `search_inputs` as the search loop reads them, with the
    items and the Fraction cost by name that the unpruned twin reads, and
    the library's `grow`: (kind, x, y, items, cost, grow)."""
    from test_filtration import _realizable_pairs, tripod_cost_int, tripod_cost_r

    parts = {
        "gh_formigrams": (_key_pairs, gh_cost_formigrams, _key_items),
        "gh_ultrametrics": (_key_pairs, gh_cost_ultrametrics, _key_items),
        "tripod_r": (_realizable_pairs, tripod_cost_r, _image_items),
        "tripod_int": (_realizable_pairs, tripod_cost_int, _image_items),
    }
    for kind, _, _, a, b in search_inputs(rng, nx, ny):
        items, cost, grow = parts[kind]
        yield kind, a.ground, b.ground, items, cost(a, b), grow


def counted(cost):
    calls = []

    def wrapped(*item):
        calls.append(item)
        return cost(*item)

    return wrapped, calls


def test_pruned_search_agrees_with_the_unpruned_twin():
    """Every shape up to the default guard with at most 6 elements a side,
    and 4 x 4 past it (guard 16, where the twin still lists its covers by
    brute force): the branch and bound and the unpruned search give the
    same value."""
    rng = random.Random(167)
    shapes = [(nx, ny, 12) for nx in range(1, 7) for ny in range(1, min(6, 12 // nx) + 1)]
    for nx, ny, guard in shapes + [(4, 4, 16)]:
        for kind, x, y, items, cost, grow in search_instances(rng, nx, ny):
            xs, ys = x.elements, y.elements
            got = min_max_over_correspondences(
                x, y, grow, lambda mx, my: cost(_names(xs, mx), _names(ys, my)), guard
            )
            assert got == unpruned_min_max(x, y, items, cost, guard), (kind, nx, ny)


@pytest.mark.parametrize("nx, ny", [(3, 4), (2, 6)])
def test_pruned_search_reaches_no_more_covers_than_the_unpruned_twin(nx, ny):
    """Count band, not time, at 48 and 62 covers: on each instance of a
    seeded batch of each search, the branch and bound reaches (grows the
    last choice of) no more covers than the unpruned twin scans, over each
    kind's batch strictly fewer, never calls `cost` twice on one item, and
    gives the twin's value."""
    assert compare.CORRESPONDENCE_GUARD == 12
    rng = random.Random(nx * 100 + ny)
    total = Counter()
    for _ in range(6):
        for kind, x, y, items, cost, grow in search_instances(rng, nx, ny):
            xs, ys = x.elements, y.elements
            new_cost, new_calls = counted(
                lambda mx, my: cost(_names(xs, mx), _names(ys, my))
            )
            reached, scanned = [], []

            def last_choices(state, i, c):
                if i == 0:
                    reached.append(c)
                return grow(state, i, c)

            def twin_items(rel):
                scanned.append(rel)
                return items(rel)

            got = min_max_over_correspondences(x, y, last_choices, new_cost, 12)
            assert got == unpruned_min_max(x, y, twin_items, cost)
            assert len(reached) <= len(scanned), kind
            assert len(set(new_calls)) == len(new_calls), kind
            total[kind, "new"] += len(reached)
            total[kind, "twin"] += len(scanned)
    assert all(total[k, "new"] < total[k, "twin"] for k, _ in total), total


def test_argument_order_does_not_matter():
    """Every shape up to the default guard with at most 6 elements a side:
    each public search gives its unpruned twin's value with its arguments
    in either order, over grounds named in sorted order and over grounds
    whose canonical order, which numbers the mask bits, is not sorted."""
    rng = random.Random(179)
    for grounds in (named_grounds, reversed_grounds):
        for nx in range(1, 7):
            for ny in range(1, min(6, 12 // nx) + 1):
                for kind, search, twin, a, b in search_inputs(rng, nx, ny, grounds):
                    assert search(a, b) == search(b, a) == twin(a, b), (kind, nx, ny)


def recorded_walks(monkeypatch):
    """Patch the search loop in `compare`, where `_search`, the one setup
    of the four public searches, calls it: each walk is recorded as (|X|,
    items grown, items grown by the same search with X and Y swapped), and
    returns its own value."""
    walks = []
    search = compare.min_max_over_correspondences

    def counting(grow, grown):
        def wrapped(state, i, c):
            state, new = grow(state, i, c)
            grown.append(len(new))
            return state, new

        return wrapped

    def recording(x, y, grow, cost, guard):
        grown, other = [], []
        best = search(x, y, counting(grow, grown), cost, guard)
        assert search(y, x, counting(grow, other), lambda mx, my: cost(my, mx), guard) == best
        walks.append((len(x), sum(grown), sum(other)))
        return best

    monkeypatch.setattr(compare, "min_max_over_correspondences", recording)
    return walks


@pytest.mark.parametrize("nx, ny", [(2, 5), (2, 6), (3, 4)])
def test_searches_walk_the_larger_side_as_x(monkeypatch, nx, ny):
    """Count band, not time: in either argument order, each public search
    walks the larger ground set as X, and over a seeded batch of each kind
    grows no more items than the walk with X and Y swapped.  Each call of
    each of the four kinds records one walk, so all four go through the one
    loop."""
    walks = recorded_walks(monkeypatch)
    rng = random.Random(nx * 100 + ny + 7)
    total = Counter()
    for _ in range(4):
        for kind, search, _, a, b in search_inputs(rng, nx, ny):
            for args in ((a, b), (b, a)):
                search(*args)
                assert len(walks) == 1, kind
                size, grown, other = walks.pop()
                assert size == ny
                total[kind, "walked"] += grown
                total[kind, "swapped"] += other
    assert all(total[k, "walked"] <= total[k, "swapped"] for k, _ in total), total
    assert {k for k, _ in total} == {"gh_formigrams", "gh_ultrametrics", "tripod_r", "tripod_int"}


def test_a_one_element_side_stays_x(monkeypatch):
    """At 1 x k, in either argument order, each public search walks the
    one-element side as X: a single frame."""
    walks = recorded_walks(monkeypatch)
    rng = random.Random(181)
    for k in range(1, 7):
        for kind, search, _, a, b in search_inputs(rng, 1, k):
            search(a, b)
            search(b, a)
            assert [size for size, _, _ in walks] == [1, 1], (kind, k)
            walks.clear()


def test_searches_cost_items_as_ints_or_inf(monkeypatch):
    """Every cost that the four public searches hand the loop is an int or
    INF, as `min_max_over_correspondences` asks: in particular a simplex
    absent from both sides of the line-indexed tripod distance costs 0,
    not the nan of INF - INF."""
    search = compare.min_max_over_correspondences
    costs = []

    def recording(x, y, grow, cost, guard):
        def wrapped(mx, my):
            costs.append(cost(mx, my))
            return costs[-1]

        return search(x, y, grow, wrapped, guard)

    monkeypatch.setattr(compare, "min_max_over_correspondences", recording)
    rng = random.Random(191)
    gx, gy = named_grounds(3, 3)
    for _ in range(6):
        for _, search_fn, _, a, b in search_inputs(rng, 2, 3):
            search_fn(a, b)
        tripod_distance_r(*[rand_r_filtration(rng, g, edge_prob=0.5, tri_prob=0.5) for g in (gx, gy)])
    assert INF in costs
    assert all(type(v) is int or v == INF for v in costs)


def test_int_cost_searches_compare_no_fraction(monkeypatch):
    """The line-indexed tripod distance and GH between ultrametrics read
    each Fraction onto the integer scale once: the search compares ints
    only, and the answers still match the twins'."""
    from test_filtration import unpruned_tripod_r

    rng = random.Random(173)
    gx, gy = named_grounds(3, 4)
    pairs = []
    for _ in range(4):
        pairs.append((tripod_distance_r, unpruned_tripod_r,
                      full_r_filtration(rng, gx), full_r_filtration(rng, gy)))
        pairs.append((gromov_hausdorff_ultrametrics, unpruned_gh_ultrametrics,
                      ultrametric(single_linkage(gx, rand_metric(rng, gx))),
                      ultrametric(single_linkage(gy, rand_metric(rng, gy)))))

    def refuse(*args):
        raise AssertionError("a Fraction comparison")

    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [search(a, b) for search, _, a, b in pairs]
    monkeypatch.undo()
    assert got == [twin(a, b) for _, twin, a, b in pairs]
    assert all(type(d) is Fraction for d in got)


def kernel_calls(monkeypatch):
    """Record, in the staircase kernel's module, the scaled generator list
    of every staircase whose kinks are found (`_breaks`), of every one
    whose corners are listed (`_corners`) and the scaled generator lists of
    every `_gap` call; every staircase put on a scale one at a time (`_on`,
    which every `hausdorff` call runs) goes to a fourth list."""
    conversions, corner_lists, gaps, calls = [], [], [], []
    breaks, corners = staircase_module._breaks, staircase_module._corners
    gap, on = staircase_module._gap, staircase_module._on

    def recording_breaks(gens, clamped):
        conversions.append(gens)
        return breaks(gens, clamped)

    def recording_corners(gens):
        corner_lists.append(gens)
        return corners(gens)

    def recording_gap(a, b, clamped):
        gaps.append(frozenset((a[0], b[0])))
        return gap(a, b, clamped)

    def recording_on(u, scale):
        calls.append(u.gens)
        return on(u, scale)

    monkeypatch.setattr(staircase_module, "_breaks", recording_breaks)
    monkeypatch.setattr(staircase_module, "_corners", recording_corners)
    monkeypatch.setattr(staircase_module, "_gap", recording_gap)
    monkeypatch.setattr(staircase_module, "_on", recording_on)
    return conversions, corner_lists, gaps, calls


@pytest.mark.parametrize("nx, ny", [(3, 4), (2, 6)])
def test_one_hausdorff_per_distinct_staircase_pair(monkeypatch, nx, ny):
    """GH between formigrams, the interval tripod distance, erosion and the
    one-point tripod find the kinks and the corners of each distinct
    generator list on their scale once and run the int kernel `_gap` once
    per distinct (unordered) pair of them, with no `hausdorff` call, and
    agree with their twins."""
    from test_filtration import one_point_tripod_by_subsets, unpruned_tripod_int
    from test_persistence import oracle_erosion

    conversions, corner_lists, gaps, calls = kernel_calls(monkeypatch)
    rng = random.Random(nx * 10 + ny)
    gx, gy = named_grounds(nx, ny)
    for _ in range(6):
        fx = rand_merged_tail_formigram(rng, gx, max_crit=2)
        fy = rand_merged_tail_formigram(rng, gy, max_crit=2)
        ix = rand_int_filtration(rng, gx, pinned=True)
        iy = rand_int_filtration(rng, gy, pinned=True)
        point = rand_int_filtration(rng, ground(1), pinned=True)
        b1, b2 = (barcode([(F(0), F(1)), *rand_barcode(rng, n)]) for n in (nx, ny))
        for search, twin, x, y in [
            (gromov_hausdorff_formigrams, unpruned_gh_formigrams, fx, fy),
            (tripod_distance_int, unpruned_tripod_int, ix, iy),
            # against itself, one list meets another in both orders
            (gromov_hausdorff_formigrams, unpruned_gh_formigrams, fx, fx),
            (tripod_distance_int, unpruned_tripod_int, ix, ix),
            (erosion_distance, oracle_erosion, b1, b2),
            (one_point_tripod, one_point_tripod_by_subsets, ix, point),
        ]:
            conversions.clear()
            corner_lists.clear()
            gaps.clear()
            got = search(x, y)
            assert gaps and len(gaps) == len(set(gaps))
            assert conversions and len(conversions) == len(set(conversions))
            assert corner_lists and len(corner_lists) == len(set(corner_lists))
            assert calls == []
            assert got == twin(x, y)
            calls.clear()


def on_integers(rng, h):
    """h, a formigram or a grid, with its critical points or cuts moved to
    distinct integers in the same order: every staircase built from it has
    the own scale 2, so every pair of them meets on that one scale."""

    def ints(ts):
        return tuple([F(t) for t in sorted(rng.sample(range(-9, 10), len(ts)))])

    if isinstance(h, Formigram):
        return Formigram(h.ground, ints(h.crit), h.values)
    return GridClustering(h.ground, ints(h.x_cuts), ints(h.y_cuts), h.cells)


def test_d_F_and_grid_put_each_part_on_its_scale_once(monkeypatch):
    """d_F and the grid distance make one `hausdorff` call per pair key, on
    the parts of `cosheaf_code` and `grid_code`, in code order.  Where every
    pair meets on one scale, each distinct part object is put on it once:
    its kinks are found (`_breaks`) once, however many keys share it,
    while `_on` still runs twice per call.  The answers are those of the
    oracles, and the witness is the first attaining key in code order."""
    conversions, _, _, calls = kernel_calls(monkeypatch)
    met = []
    for module in (formigram_module, compare):
        def recording(u, v, hausdorff=module.hausdorff):
            met.append((u, v))
            return hausdorff(u, v)

        monkeypatch.setattr(module, "hausdorff", recording)

    def run(distance, code, x, y):
        conversions.clear()
        calls.clear()
        met.clear()
        got = distance(x, y)
        code_x, code_y = code(x), code(y)
        assert [(u.gens, v.gens) for u, v in met] == [
            (code_x[key].gens, code_y[key].gens) for key in code_x
        ]
        assert len(calls) == 2 * len(met)
        assert len(conversions) == len({id(u) for pair in met for u in pair})
        saved.append(len(calls) - len(conversions))
        return got, list(code_x)

    rng = random.Random(191)
    saved = []
    for _ in range(30):
        g = ground(rng.randint(1, 4))
        f1, f2 = (on_integers(rng, f) for f in rand_formigram_pair(rng, g, max_crit=3))
        (d, witness), keys = run(interleaving_distance_with_witness, cosheaf_code, f1, f2)
        assert d == oracle_formigram_distance(f1, f2)
        ds = [hausdorff(u, v) for u, v in met]
        assert witness == (keys[ds.index(d)] if d > 0 else fs(g.elements[0]))
        h1, h2 = (on_integers(rng, h) for h in rand_grid_pair(rng, ground(rng.randint(1, 3))))
        d, _ = run(grid_interleaving_distance, grid_code, h1, h2)
        assert d == oracle_grid_distance(h1, h2)
    # conversions saved by the sharing: d_F, then grid
    assert sum(saved[::2]) > 50 and sum(saved[1::2]) > 50


def test_grid_code_shares_one_part_per_corner_run():
    """`grid_code` gives every pair key, in the order of `all_pair_keys`,
    the staircase that `grid_upper_set` and the all-cells scan give it, and
    one shared object per distinct corner run."""
    rng = random.Random(197)
    for _ in range(100):
        g = ground(rng.randint(1, 5))
        f = rand_edged_grid(rng, g)
        code = grid_code(f)
        assert list(code) == all_pair_keys(g)
        for key, u in code.items():
            assert u.gens == grid_upper_set(f, key).gens == referee_grid_upper_set(f, key).gens
        assert len({id(u) for u in code.values()}) == len({u.gens for u in code.values()})


# --- Gromov-Hausdorff between formigrams ------------------------------------------


def make_loop_pair(delta=F(3, 2)):
    xy = GroundSet(("x", "y"))
    merged = SubPartition(xy, (("x", "y"),))
    split = SubPartition(xy, (("x",), ("y",)))
    theta = Formigram.constant(merged)
    theta_p = Formigram(xy, (-delta, delta), (merged, merged, split, merged, merged))
    return theta, theta_p


def test_gh_identity_and_loop_value():
    theta, theta_p = make_loop_pair()
    assert gromov_hausdorff_formigrams(theta, theta) == 0
    d = gromov_hausdorff_formigrams(theta, theta_p)
    assert d == F(3, 4) == oracle_gh_via_pullbacks(theta, theta_p)


def test_gh_upper_bounded_by_interleaving():
    rng = random.Random(137)
    for _ in range(10):
        g = ground(rng.randint(1, 3))
        f1 = rand_formigram(rng, g, max_crit=3)
        f2 = rand_formigram(rng, g, max_crit=3)
        assert 2 * gromov_hausdorff_formigrams(f1, f2) <= interleaving_distance(f1, f2)


def test_gh_structural_route_matches_pullback_route():
    rng = random.Random(139)
    for i in range(8):
        make = rand_formigram if i % 2 else rand_merged_tail_formigram
        fx = make(rng, ground(rng.randint(1, 3)), max_crit=2)
        fy = make(rng, ground(rng.randint(1, 3)), max_crit=2)
        assert gromov_hausdorff_formigrams(fx, fy) == oracle_gh_via_pullbacks(fx, fy)


def test_gh_metric_properties():
    rng = random.Random(149)
    for _ in range(6):
        f1 = rand_formigram(rng, ground(2), max_crit=2)
        f2 = rand_formigram(rng, ground(2), max_crit=2)
        f3 = rand_formigram(rng, ground(2), max_crit=2)
        d12 = gromov_hausdorff_formigrams(f1, f2)
        assert d12 == gromov_hausdorff_formigrams(f2, f1)
        assert gromov_hausdorff_formigrams(f1, f3) <= d12 + gromov_hausdorff_formigrams(
            f2, f3
        )


# --- GH between ultrametric spaces -------------------------------------------------


def test_gh_ultrametric_examples():
    two_a = Ultrametric(ground(2), ((F(0), F(2)), (F(2), F(0))))
    two_b = Ultrametric(ground(2), ((F(0), F(4)), (F(4), F(0))))
    assert gromov_hausdorff_ultrametrics(two_a, two_a) == 0
    assert gromov_hausdorff_ultrametrics(two_a, two_b) == 1


def test_gh_dendrograms_equal_gh_ultrametrics():
    rng = random.Random(151)
    for _ in range(8):
        gx, gy = ground(rng.randint(1, 3)), ground(rng.randint(1, 3))
        fx = single_linkage(gx, rand_metric(rng, gx))
        fy = single_linkage(gy, rand_metric(rng, gy))
        assert gromov_hausdorff_formigrams(fx, fy) == gromov_hausdorff_ultrametrics(
            ultrametric(fx), ultrametric(fy)
        )


# --- grid clusterings ---------------------------------------------------------------


def two_point_grids():
    g = GroundSet(("x", "y"))
    merged = SubPartition(g, (("x", "y"),))
    split = SubPartition(g, (("x",), ("y",)))
    f = GridClustering(g, (F(0),), (F(0),), ((split, split), (split, merged)))
    shifted = GridClustering(g, (F(1),), (F(1),), ((split, split), (split, merged)))
    never = GridClustering(g, (F(0),), (F(0),), ((split, split), (split, split)))
    return g, f, shifted, never


def test_grid_upper_set_examples():
    g, f, _, never = two_point_grids()
    merged = SubPartition(g, (("x", "y"),))
    constant = GridClustering(g, (), (), ((merged,),))
    assert grid_upper_set(constant, fs("x", "y")).is_full()
    u = grid_upper_set(f, fs("x", "y"))
    assert u.gens == ((F(0), F(0)),)  # the quadrant above (0, 0)
    assert grid_upper_set(never, fs("x", "y")).is_empty()
    with pytest.raises(GroundSetMismatch):
        grid_upper_set(f, fs("zz"))
    # a key of three ground elements was read as the pair of the least and
    # the greatest, and an empty key raised a bare ValueError from min()
    abc = GroundSet(("a", "b", "c"))
    one = GridClustering(abc, (), (), ((SubPartition.one_block(abc),),))
    for key in (fs(), fs("a", "b", "c")):
        with pytest.raises(ValidationError, match="one or two"):
            grid_upper_set(one, key)


def referee_grid_upper_set(f, key):
    """The all-cells scan: every merging cell offers its corner, and
    normalization keeps the minimal ones."""
    x, y = (min(key), max(key))
    gens = []
    for r, row in enumerate(f.cells):
        for c, val in enumerate(row):
            if val.same_block(x, y):
                corner = (
                    f.x_cuts[c - 1] if c >= 1 else NEG_INF,
                    f.y_cuts[r - 1] if r >= 1 else NEG_INF,
                )
                gens.append(plane_generator(corner))
    return staircase(gens, PLANE)


def rand_edged_grid(rng, g):
    """A random order-preserving grid whose lowest rows and leftmost
    columns may be empty and whose highest rows and rightmost columns may
    be one block (each edge band 0 to 2 wide)."""
    f = rand_grid(rng, g)
    cells = [list(row) for row in f.cells]
    nrow, ncol = len(cells), len(cells[0])
    nothing, one = SubPartition.empty(g), SubPartition.one_block(g)
    low, left, high, right = (rng.randint(0, 2) for _ in range(4))
    for r in range(nrow):
        for c in range(ncol):
            if r < low or c < left:
                cells[r][c] = nothing
            if r >= nrow - high or c >= ncol - right:
                cells[r][c] = one
    return GridClustering(g, f.x_cuts, f.y_cuts, tuple(tuple(row) for row in cells))


def test_grid_upper_set_matches_all_cells_scan():
    """The corner walk of `grid_upper_set` gives every pair key the
    generators that a scan of every cell gives it."""
    rng = random.Random(163)
    for _ in range(200):
        g = ground(rng.randint(1, 4))
        f = rand_edged_grid(rng, g)
        for key in all_pair_keys(g):
            assert grid_upper_set(f, key).gens == referee_grid_upper_set(f, key).gens, (f, key)


def test_built_staircases_need_no_normalization():
    """`cosheaf_code`, `grid_upper_set` and `sublevel_staircase` skip the
    normalizing constructor: normalizing what they build again changes
    nothing, and every coordinate is already a Fraction or an infinity."""
    from test_persistence import rand_tied_barcode

    rng = random.Random(181)
    for _ in range(150):
        g = ground(rng.randint(1, 5))
        f = rand_formigram(rng, g, max_crit=rng.choice((0, 2, 5)))
        grids = [make(rng, ground(rng.randint(1, 4))) for make in (rand_grid, rand_edged_grid)]
        bars = rand_tied_barcode(rng, 8)
        built = [*cosheaf_code(f).values()]
        built += [grid_upper_set(h, key) for h in grids for key in all_pair_keys(h.ground)]
        built += [sublevel_staircase(bars, n) for n in range(len(bars) + 2)]
        for u in built:
            assert Staircase(u.ambient, u.gens).gens == u.gens, u
            assert all(type(x) in (Fraction, float) for gen in u.gens for x in gen), u


def test_grid_distance_examples():
    g, f, shifted, never = two_point_grids()
    assert grid_interleaving_distance(f, f) == 0
    assert grid_interleaving_distance(f, shifted) == 1
    assert grid_interleaving_distance(f, never) == INF
    assert grid_interleaved(f, shifted, F(1))
    assert not grid_interleaved(f, shifted, F(1, 2))


def test_grid_validation():
    g = GroundSet(("x", "y"))
    merged = SubPartition(g, (("x", "y"),))
    split = SubPartition(g, (("x",), ("y",)))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0),), (F(0),), ((merged, split), (split, split)))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0), F(0)), (), ((split, split, split),))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0),), (), ((split,),))


def test_grid_value_on_cut_lines_uses_upper_right():
    g, f, _, _ = two_point_grids()
    merged = SubPartition(g, (("x", "y"),))
    assert f.value_at((F(0), F(0))) == merged
    assert f.value_at((F(-1, 100), F(0))) != merged


def test_grid_oracle_agreement():
    rng = random.Random(157)
    seen_inf = seen_finite = 0
    for _ in range(25):
        g = ground(rng.randint(1, 3))
        f1, f2 = rand_grid_pair(rng, g)
        d = grid_interleaving_distance(f1, f2)
        if d == INF:
            seen_inf += 1
        else:
            seen_finite += 1
        assert d == oracle_grid_distance(f1, f2)
    assert seen_inf > 0 and seen_finite > 5


def test_grid_ground_mismatch():
    _, f, _, _ = two_point_grids()
    g3 = ground(3)
    other = GridClustering(g3, (), (), ((SubPartition.empty(g3),),))
    with pytest.raises(GroundSetMismatch):
        grid_interleaving_distance(f, other)
