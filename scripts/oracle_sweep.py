#!/usr/bin/env python3
"""Random agreement sweep: every fast distance against its brute-force twin.

`FAMILIES` is the one list of what is swept: each row names a family, the
builder of its random instances, the library's answer, the twin's answer
and, where the answer is not a distance, the check that it is exact.  The
families run in table order from one seeded `random.Random`, so a row
added last leaves every earlier family's instances as they were.  Each
family prints its instance count and how many answers were infinite.
Disagreements abort with the offending instance printed for replay, and
so does a fast answer that fails its exactness check: by default a
Fraction or +-inf, a tuple of them or a SubPartition.
"""

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stairdist import (
    INF,
    GroundSet,
    NotADendrogram,
    SubPartition,
    bottleneck_distance,
    cosheaf_code,
    erosion_distance,
    evaluate_cosheaf,
    grid_interleaving_distance,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    hausdorff,
    interleaving_distance,
    one_point_tripod,
    single_linkage,
    staircase,
    subset,
    thicken,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
    ultrametric,
    validate_filtration,
)
from stairdist.compare import CORRESPONDENCE_GUARD
from stairdist.formigram import interleaving_distance_with_witness
from stairdist.oracle import (
    oracle_formigram_distance,
    oracle_grid_distance,
    oracle_hausdorff,
    reconstruct,
)
from conftest import (
    broken_copies,
    dendrogram_mutant,
    full_r_filtration,
    ground,
    rand_barcode,
    rand_dendrogram,
    rand_formigram,
    rand_formigram_pair,
    rand_free_formigram,
    rand_grid_pair,
    rand_int_filtration,
    rand_merged_tail_formigram,
    rand_metric,
    rand_r_filtration,
    rand_staircase_pair,
)
from twins import (
    brute_merge_time,
    d_F_by_every_key,
    essential,
    is_dendrogram_twin,
    oracle_bottleneck,
    oracle_erosion,
    oracle_erosion_direct,
    oracle_gh_via_pullbacks,
    oracle_tripod_int,
    oracle_tripod_r,
    per_face_validate,
    plane_subset_by_generators,
    search_inputs,
    single_linkage_rescan,
    ultrametric_scan,
    unpruned_gh_formigrams,
    unpruned_gh_ultrametrics,
    unpruned_tripod_int,
    unpruned_tripod_r,
)

# ground-set sizes of the correspondence families: |X| * |Y| <= 8
SEARCH_SIZES = [(nx, ny) for nx in range(1, 9) for ny in range(1, 9) if nx * ny <= 8]
# and of the `search` family, past the brute-force oracles: 9 <= |X| * |Y| <= 12
LARGE_SEARCH_SIZES = [(3, 3), (2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (6, 2)]


def search_pair(make):
    """Two inputs over ground sets of a random size pair from SEARCH_SIZES."""

    def draw(r):
        nx, ny = r.choice(SEARCH_SIZES)
        return make(r, ground(nx)), make(r, ground(ny))

    return draw


def small_formigram(r, g):
    make = r.choice((rand_formigram, rand_merged_tail_formigram))
    return make(r, g, max_crit=2)


def small_r_filtration(r, g):
    return r.choice((rand_r_filtration, full_r_filtration))(r, g)


def small_int_filtration(r, g):
    if r.random() < 0.5:
        return rand_int_filtration(r, g)
    return to_int_indexed(full_r_filtration(r, g))


def small_ultrametric(r, g):
    return ultrametric(single_linkage(g, rand_metric(r, g)))


# kind -> (input builder, library search, unpruned twin)
SEARCHES = {
    "gh": (small_formigram, gromov_hausdorff_formigrams, unpruned_gh_formigrams),
    "gh-um": (small_ultrametric, gromov_hausdorff_ultrametrics, unpruned_gh_ultrametrics),
    "tripod-r": (small_r_filtration, tripod_distance_r, unpruned_tripod_r),
    "tripod-int": (small_int_filtration, tripod_distance_int, unpruned_tripod_int),
}


def large_search_instance(r, sizes=LARGE_SEARCH_SIZES):
    """A kind of search and two inputs over a shape of `sizes`.  The second
    ground's canonical order, which numbers the bits of its masks, is the
    reverse of its sorted order."""
    kind = r.choice(sorted(SEARCHES))
    nx, ny = r.choice(sizes)
    make = SEARCHES[kind][0]
    return kind, make(r, ground(nx)), make(r, GroundSet(ground(ny).elements[::-1]))


def full_tripod_instance(r):
    """Tripod r or tripod int and two full filtrations over a shape of
    LARGE_SEARCH_SIZES, drawn by `search_inputs` (whose interval-indexed
    pair is pinned instead half the time)."""
    nx, ny = r.choice(LARGE_SEARCH_SIZES)
    tripods = [
        (kind.replace("_", "-"), a, b)
        for kind, _, _, a, b in search_inputs(r, nx, ny)
        if kind.startswith("tripod")
    ]
    return r.choice(tripods)


def in_both_orders(guard=CORRESPONDENCE_GUARD):
    """The library search of an instance (kind, a, b) in both argument
    orders, and the unpruned twin's answer twice, both under `guard`."""
    return (
        lambda kind, a, b: (SEARCHES[kind][1](a, b, guard), SEARCHES[kind][1](b, a, guard)),
        lambda kind, a, b: (SEARCHES[kind][2](a, b, guard),) * 2,
    )


def merge_times(f):
    """The merge-time matrix of `ultrametric`, or its NotADendrogram message."""
    try:
        return ultrametric(f).entries
    except NotADendrogram as e:
        return str(e)


def brute_merge_times(g, d):
    n = len(g)
    return tuple(tuple(brute_merge_time(d, i, j) for j in range(n)) for i in range(n))


def dendrogram_instance(r):
    dens = r.choice(((1, 2, 3), (3, 7, 11, 13)))
    return (rand_dendrogram(r, ground(r.randint(1, 6)), dens=dens),)


def dendrogram_check_instance(r):
    """A mutated dendrogram (a valid one a third of the time) or, one time
    in five, a random formigram, over 1 to 6 elements."""
    g = ground(r.randint(1, 6))
    if r.random() < 0.2:
        return (rand_formigram(r, g),)
    return (dendrogram_mutant(r, g),)


def twin_checked_merge_times(f):
    problem = is_dendrogram_twin(f)
    return ultrametric_scan(f) if problem is None else problem


def tied_metric_instance(r):
    """A symmetric matrix over 1 to 12 points whose distances take at most
    eight values, so most weights are tied."""
    g = ground(r.randint(1, 12))
    n = len(g)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(r.randint(1, 4), r.choice((1, 2)))
    return g, d


def crit_and_values(linkage):
    """`linkage(g, d)` read as its critical points and values."""

    def read(g, d):
        f = linkage(g, d)
        return f.crit, f.values

    return read


def code_instance(r):
    """A formigram over 1 to 8 elements and an open interval whose ends
    avoid its critical points (the staircases are closed, the interval
    open)."""
    f = rand_formigram(r, GroundSet(tuple("abcdefgh"[: r.randint(1, 8)])), 5)
    ends = [t for t in (Fraction(k, 7) for k in range(-49, 50)) if t not in f.crit]
    return f, tuple(sorted(r.sample(ends, 2)))


def code_join(f, interval):
    return reconstruct(cosheaf_code(f), f.ground, interval)


def metric_instance(r):
    g = ground(r.randint(1, 6))
    return g, rand_metric(r, g)


def validate_instance(r):
    """An interval-indexed filtration over 1 to 5 vertices, possibly with
    2-simplices: valid, or with one face's support shrunk or dropped."""
    f = rand_int_filtration(r, ground(r.randint(1, 5)), tri_prob=r.choice((0, 0.5, 1)))
    return (r.choice(broken_copies(r, f)),)


def one_point_instance(r):
    """An interval-indexed filtration over 1 to 4 vertices, possibly with
    2-simplices and pinned tails, and a one-vertex filtration."""
    pin = r.random() < 0.5
    f = rand_int_filtration(
        r, ground(r.randint(1, 4)), edge_prob=r.choice((0.7, 1.0)),
        tri_prob=r.choice((0, 1)), pinned=pin,
    )
    return f, rand_int_filtration(r, ground(1), pinned=pin)


def subset_instance(r):
    """Two plane staircases; half the time the second also holds the
    first's generators or is its thickening, so the first lies inside it."""
    u, v = rand_staircase_pair(r, "plane")
    roll = r.random()
    if roll < 0.25:
        v = staircase(u.gens + v.gens, "plane")
    elif roll < 0.5:
        v = thicken(u, Fraction(r.randint(0, 6), r.choice((1, 2, 3))))
    return u, v


def infinite_instance(r):
    """Half the time `d_F` and two formigrams over 1 to 4 elements, drawn
    as the `formigram` family draws them or with values drawn
    independently, whose first or last values differ; else `erosion` and
    two barcodes with unequal counts of infinite bars.  Draws that miss
    are drawn again."""
    while True:
        if r.random() < 0.5:
            g = ground(r.randint(1, 4))
            if r.random() < 0.5:
                f1, f2 = rand_formigram_pair(r, g, 5)
            else:
                f1, f2 = rand_free_formigram(r, g, 5), rand_free_formigram(r, g, 5)
            if f1.values[0] != f2.values[0] or f1.values[-1] != f2.values[-1]:
                return "d_F", f1, f2
        else:
            b1, b2 = rand_barcode(r, 4), rand_barcode(r, 4)
            if essential(b1) != essential(b2):
                return "erosion", b1, b2


def finite_formigram_instance(r):
    """Two formigrams drawn as the `formigram` family draws them, drawn
    again until their first values agree and their last values agree."""
    while True:
        f1, f2 = rand_formigram_pair(r, ground(r.randint(1, 4)), 5)
        if f1.values[0] == f2.values[0] and f1.values[-1] == f2.values[-1]:
            return f1, f2


def finite_erosion_instance(r):
    """Two barcodes drawn as the `erosion` family draws them, drawn again
    until their counts of infinite bars agree."""
    while True:
        b1, b2 = rand_barcode(r, 4), rand_barcode(r, 4)
        if essential(b1) == essential(b2):
            return b1, b2


def d_F_with_witness(f1, f2):
    """The value of `interleaving_distance`, which decides unequal outer
    values up front, and the witness of the walk over both codes."""
    return interleaving_distance(f1, f2), interleaving_distance_with_witness(f1, f2)[1]


# kind -> (library answer, twin answer), each a (distance, witness) pair
DECIDED = {
    "d_F": (d_F_with_witness, d_F_by_every_key),
    "erosion": (lambda b1, b2: (erosion_distance(b1, b2), None),
                lambda b1, b2: (oracle_erosion(b1, b2), None)),
}


def is_report(x) -> bool:
    return x is None or type(x) is str


def is_exact(x) -> bool:
    """A Fraction or +-inf, a tuple of them (the merge-time matrices), or
    a SubPartition (the cosheaf code's joins, which hold no numbers)."""
    if isinstance(x, tuple):
        return all(map(is_exact, x))
    if isinstance(x, SubPartition):
        return True
    return type(x) is Fraction or (type(x) is float and math.isinf(x))


class Family(NamedTuple):
    """One row of the sweep: `make(rng)` draws an instance, `fast` and
    `slow` answer it, `exact` checks the fast answer and `value` reads the
    distance out of it, for that check and the count of infinite values."""

    name: str
    make: Callable
    fast: Callable
    slow: Callable
    exact: Callable = is_exact
    value: Callable = lambda got: got


FAMILIES = [
    Family("staircase", lambda r: rand_staircase_pair(r, "int"), hausdorff, oracle_hausdorff),
    Family("formigram", lambda r: rand_formigram_pair(r, ground(r.randint(1, 4)), 5),
           interleaving_distance, oracle_formigram_distance),
    Family("grid", lambda r: rand_grid_pair(r, ground(r.randint(1, 3))),
           grid_interleaving_distance, oracle_grid_distance),
    Family("bottleneck", lambda r: (rand_barcode(r, 4), rand_barcode(r, 4)),
           bottleneck_distance, oracle_bottleneck),
    # the correspondence searches at |X| * |Y| <= 8, against the brute-force oracles
    Family("gh", search_pair(small_formigram), gromov_hausdorff_formigrams,
           oracle_gh_via_pullbacks),
    Family("tripod-r", search_pair(small_r_filtration), tripod_distance_r, oracle_tripod_r),
    Family("tripod-int", search_pair(small_int_filtration), tripod_distance_int,
           oracle_tripod_int),
    Family("erosion", lambda r: (rand_barcode(r, 4), rand_barcode(r, 4)),
           erosion_distance, oracle_erosion_direct),
    Family("slhc", metric_instance, lambda g, d: merge_times(single_linkage(g, d)),
           brute_merge_times),
    Family("code", code_instance, code_join, evaluate_cosheaf),
    Family("um", dendrogram_instance, merge_times, ultrametric_scan),
    # all four searches past the oracles, against the search over every minimal cover
    Family("search", large_search_instance, *in_both_orders()),
    Family("validate", validate_instance, validate_filtration, per_face_validate,
           exact=is_report),
    Family("one-point", one_point_instance, one_point_tripod, tripod_distance_int),
    Family("plane", lambda r: rand_staircase_pair(r, "plane"), hausdorff, oracle_hausdorff),
    Family("subset", subset_instance, subset, plane_subset_by_generators,
           exact=lambda x: type(x) is bool),
    Family("search16", lambda r: large_search_instance(r, [(4, 4)]), *in_both_orders(16)),
    Family("tripod-full", full_tripod_instance, *in_both_orders()),
    Family("dendrogram-check", dendrogram_check_instance, merge_times,
           twin_checked_merge_times, exact=lambda x: type(x) is str or is_exact(x)),
    Family("linkage-ties", tied_metric_instance, crit_and_values(single_linkage),
           crit_and_values(single_linkage_rescan)),
    # answers decided before any staircase is built, then the paths past that exit
    Family("infinite", infinite_instance, lambda kind, a, b: DECIDED[kind][0](a, b),
           lambda kind, a, b: DECIDED[kind][1](a, b), value=lambda got: got[0]),
    Family("formigram-finite", finite_formigram_instance, interleaving_distance,
           oracle_formigram_distance),
    Family("erosion-finite", finite_erosion_instance, erosion_distance, oracle_erosion_direct),
]


def sweep(family, rng, iterations):
    """Run `iterations` instances of one family, printing one line."""
    name, make, fast, slow, exact, value = family
    t0 = time.perf_counter()
    infinite = 0
    for i in range(iterations):
        instance = make(rng)
        got = fast(*instance)
        expected = slow(*instance)
        if not exact(value(got)):
            print(f"{name}: INEXACT answer {got!r} at iteration {i}")
            print(f"  instance: {instance!r}")
            sys.exit(1)
        if got != expected:
            print(f"{name}: DISAGREEMENT at iteration {i}")
            print(f"  instance: {instance!r}")
            print(f"  fast={got} slow={expected}")
            sys.exit(1)
        if value(got) in (INF, (INF, INF)):  # the searches answer in both argument orders
            infinite += 1
    dt = time.perf_counter() - t0
    print(f"{name:<16} {iterations:>5} instances  {infinite:>4} infinite  {dt:6.2f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=150)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    for family in FAMILIES:
        sweep(family, rng, args.iterations)
    print("all families agree")


if __name__ == "__main__":
    main()
