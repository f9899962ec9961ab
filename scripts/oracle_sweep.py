#!/usr/bin/env python3
"""Random agreement sweep: every fast distance against its brute-force twin.

Covers staircase Hausdorff on intervals, formigram interleaving,
grid-clustering interleaving, erosion and bottleneck distances,
single-linkage merge times, the correspondence searches (Gromov-Hausdorff
between formigrams, line- and interval-indexed tripod distances at
|X|*|Y| <= 8), the cosheaf code (the join over a random open interval
rebuilt from the merge staircases, against the join of the pieces) and the
merge times of dendrograms built directly (`um`: idle critical points and
several merges at one time included, against the `same_block` scan), the
pruned correspondence search (`search`: both Gromov-Hausdorff distances
and both tripod distances at 9 <= |X|*|Y| <= 12, past the brute-force
oracles, in both argument orders, one ground's canonical order not
sorted, against the unpruned search over every minimal cover), the
validation of interval-indexed filtrations (`validate`: valid ones and
copies with one face's support shrunk or dropped, against one walk-twin
containment per (simplex, face), comparing the report strings or None),
the one-point tripod shortcut (`one-point`: interval-indexed filtrations
over 1 to 4 vertices against a one-vertex filtration, against the search
`tripod_distance_int`), staircases of the plane (`plane`: Hausdorff
against the candidate scan; `subset`: containment, where half the second
staircases hold the first's generators or are its thickening, against
containment generator by generator), the pruned search past the default
guard (`search16`: as `search`, at 4 x 4 with guard 16 on the search and on
the twin), the tripod searches where most answers are finite
(`tripod-full`: tripod r and tripod int on full filtrations, built as the
tests' `search_inputs` builds them, at the `search` shapes, in both
argument orders, against the unpruned twins), the dendrogram check of
`ultrametric`'s walk (`dendrogram-check`: mutated dendrograms and random
formigrams, the merge-time matrix or the NotADendrogram message, against
the tests' statement of the rule and the `same_block` scan), single
linkage on ties (`linkage-ties`: the critical points and values of
`single_linkage` over 1 to 12 points whose distances take few values,
against the tests' rescan of every pair at every distinct distance), the
answers decided up front (`infinite`: the d_F value on formigram pairs
whose first or last values differ, with the witness of
`interleaving_distance_with_witness`, against both codes walked key by
key, and erosion on barcodes with unequal counts of infinite bars,
against the per-grade oracle) and, last, the paths past that exit
(`formigram-finite`: d_F on pairs drawn as `formigram` draws them whose
first and last values agree, against the oracle; `erosion-finite`:
erosion on barcodes with equal counts of infinite bars, against the
direct oracle), on freshly sampled instances, and reports per-family
counts (including how many infinite values were hit).
Disagreements abort with the offending instance printed for replay, and
so does a fast answer that is not a Fraction or +-inf (or, for the cosheaf
code, a SubPartition; for validation, a report string or None; for
containment, a bool; for the dendrogram check, a message string; for
single linkage, critical points and SubPartitions).
"""

import argparse
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

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


def both_orders(kind, a, b):
    return SEARCHES[kind][1](a, b), SEARCHES[kind][1](b, a)


def twin_both_orders(kind, a, b):
    return (SEARCHES[kind][2](a, b),) * 2


def slhc_merge_times(g, d):
    return ultrametric(single_linkage(g, d)).entries


def brute_merge_times(g, d):
    n = len(g)
    return tuple(tuple(brute_merge_time(d, i, j) for j in range(n)) for i in range(n))


def dendrogram_instance(r):
    dens = r.choice(((1, 2, 3), (3, 7, 11, 13)))
    return (rand_dendrogram(r, ground(r.randint(1, 6)), dens=dens),)


def dendrogram_merge_times(f):
    return ultrametric(f).entries


def dendrogram_check_instance(r):
    """A mutated dendrogram (a valid one a third of the time) or, one time
    in five, a random formigram, over 1 to 6 elements."""
    g = ground(r.randint(1, 6))
    if r.random() < 0.2:
        return (rand_formigram(r, g),)
    return (dendrogram_mutant(r, g),)


def checked_merge_times(f):
    try:
        return ultrametric(f).entries
    except NotADendrogram as e:
        return str(e)


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


def linkage(g, d):
    f = single_linkage(g, d)
    return f.crit, f.values


def rescan_linkage(g, d):
    f = single_linkage_rescan(g, d)
    return f.crit, f.values


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


def sweep(name, make, fast, slow, rng, iterations, exact=is_exact, value=lambda got: got):
    """Run `iterations` instances of `make`; `value` reads the distance
    out of an answer, for the exactness check and the count of infinite
    values."""
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
        if value(got) in (INF, (INF, INF)):  # `search` answers in both argument orders
            infinite += 1
    dt = time.perf_counter() - t0
    print(f"{name:<16} {iterations:>5} instances  {infinite:>4} infinite  {dt:6.2f}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=150)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    sweep(
        "staircase",
        lambda r: rand_staircase_pair(r, "int"),
        hausdorff,
        oracle_hausdorff,
        rng,
        args.iterations,
    )
    sweep(
        "formigram",
        lambda r: rand_formigram_pair(r, ground(r.randint(1, 4)), 5),
        interleaving_distance,
        oracle_formigram_distance,
        rng,
        args.iterations,
    )
    sweep(
        "grid",
        lambda r: rand_grid_pair(r, ground(r.randint(1, 3))),
        grid_interleaving_distance,
        oracle_grid_distance,
        rng,
        args.iterations,
    )
    sweep(
        "bottleneck",
        lambda r: (rand_barcode(r, 4), rand_barcode(r, 4)),
        bottleneck_distance,
        oracle_bottleneck,
        rng,
        args.iterations,
    )
    sweep(
        "gh",
        search_pair(small_formigram),
        gromov_hausdorff_formigrams,
        oracle_gh_via_pullbacks,
        rng,
        args.iterations,
    )
    sweep(
        "tripod-r",
        search_pair(small_r_filtration),
        tripod_distance_r,
        oracle_tripod_r,
        rng,
        args.iterations,
    )
    sweep(
        "tripod-int",
        search_pair(small_int_filtration),
        tripod_distance_int,
        oracle_tripod_int,
        rng,
        args.iterations,
    )
    sweep(
        "erosion",
        lambda r: (rand_barcode(r, 4), rand_barcode(r, 4)),
        erosion_distance,
        oracle_erosion_direct,
        rng,
        args.iterations,
    )
    sweep(
        "slhc",
        metric_instance,
        slhc_merge_times,
        brute_merge_times,
        rng,
        args.iterations,
    )
    sweep(
        "code",
        code_instance,
        code_join,
        evaluate_cosheaf,
        rng,
        args.iterations,
    )
    sweep(
        "um",
        dendrogram_instance,
        dendrogram_merge_times,
        ultrametric_scan,
        rng,
        args.iterations,
    )
    sweep(
        "search",
        large_search_instance,
        both_orders,
        twin_both_orders,
        rng,
        args.iterations,
    )
    sweep(
        "validate",
        validate_instance,
        validate_filtration,
        per_face_validate,
        rng,
        args.iterations,
        exact=is_report,
    )
    sweep(
        "one-point",
        one_point_instance,
        one_point_tripod,
        tripod_distance_int,
        rng,
        args.iterations,
    )
    sweep(
        "plane",
        lambda r: rand_staircase_pair(r, "plane"),
        hausdorff,
        oracle_hausdorff,
        rng,
        args.iterations,
    )
    sweep(
        "subset",
        subset_instance,
        subset,
        plane_subset_by_generators,
        rng,
        args.iterations,
        exact=lambda x: type(x) is bool,
    )
    sweep(
        "search16",
        lambda r: large_search_instance(r, [(4, 4)]),
        lambda kind, a, b: (SEARCHES[kind][1](a, b, 16), SEARCHES[kind][1](b, a, 16)),
        lambda kind, a, b: (SEARCHES[kind][2](a, b, 16),) * 2,
        rng,
        args.iterations,
    )
    sweep(
        "tripod-full",
        full_tripod_instance,
        both_orders,
        twin_both_orders,
        rng,
        args.iterations,
    )
    sweep(
        "dendrogram-check",
        dendrogram_check_instance,
        checked_merge_times,
        twin_checked_merge_times,
        rng,
        args.iterations,
        exact=lambda x: type(x) is str or is_exact(x),
    )
    sweep(
        "linkage-ties",
        tied_metric_instance,
        linkage,
        rescan_linkage,
        rng,
        args.iterations,
    )
    sweep(
        "infinite",
        infinite_instance,
        lambda kind, a, b: DECIDED[kind][0](a, b),
        lambda kind, a, b: DECIDED[kind][1](a, b),
        rng,
        args.iterations,
        value=lambda got: got[0],
    )
    sweep(
        "formigram-finite",
        finite_formigram_instance,
        interleaving_distance,
        oracle_formigram_distance,
        rng,
        args.iterations,
    )
    sweep(
        "erosion-finite",
        finite_erosion_instance,
        erosion_distance,
        oracle_erosion_direct,
        rng,
        args.iterations,
    )
    print("all families agree")


if __name__ == "__main__":
    main()
