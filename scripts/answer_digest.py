#!/usr/bin/env python3
"""One sha256 over the answers of every engine, with their types.

Draws seeded random instances from the generators in ``tests/conftest.py``
and feeds each (kind, repr(answer), type(answer).__name__) into one hash:
staircase ``hausdorff``, ``subset`` and ``profile`` in both ambients,
sublevel staircases, formigram and grid interleaving distances, erosion and
bottleneck distances, both Gromov-Hausdorff distances, both tripod
distances and ``one_point_tripod``.  Two builds that print the same line
for the same seed give the same answers of the same types, bit for bit.

    PYTHONPATH=src python scripts/answer_digest.py --seed 0
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stairdist import (
    GroundSet,
    IntFiltration,
    bottleneck_distance,
    empty,
    erosion_distance,
    full,
    grid_interleaving_distance,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    hausdorff,
    interleaving_distance,
    one_point_tripod,
    profile,
    single_linkage,
    sublevel_staircase,
    subset,
    tripod_distance_int,
    tripod_distance_r,
    ultrametric,
)
from conftest import (
    ground,
    rand_barcode,
    rand_formigram,
    rand_formigram_pair,
    rand_grid_pair,
    rand_int_filtration,
    rand_merged_tail_formigram,
    rand_metric,
    rand_r_filtration,
    rand_staircase,
    rand_staircase_pair,
)


DRAWS = 200  # per family


def answers(rng, n):
    """(kind, answer) for n draws of every family."""
    for ambient in ("int", "plane"):
        pairs = [rand_staircase_pair(rng, ambient, rng.choice((2, 5, 9))) for _ in range(n)]
        pairs += [(full(ambient), empty(ambient)), (full(ambient), full(ambient))]
        pairs += [(full(ambient), rand_staircase(rng, ambient)) for _ in range(n // 8)]
        for u, v in pairs:
            yield f"hausdorff.{ambient}", hausdorff(u, v)
            yield f"subset.{ambient}", (subset(u, v), subset(v, u))
            yield f"profile.{ambient}", profile(u)
    for _ in range(n):
        bars1, bars2 = rand_barcode(rng, 6), rand_barcode(rng, 6)
        yield "erosion", erosion_distance(bars1, bars2)
        yield "bottleneck", bottleneck_distance(bars1, bars2)
        for k in range(len(bars1) + 2):
            yield "sublevel", sublevel_staircase(bars1, k).gens
    for _ in range(n // 2):
        yield "d_F", interleaving_distance(*rand_formigram_pair(rng, ground(rng.randint(1, 4))))
        yield "grid", grid_interleaving_distance(*rand_grid_pair(rng, ground(rng.randint(1, 3))))
    for _ in range(n // 4):
        make = rng.choice((rand_formigram, rand_merged_tail_formigram))
        fx, fy = (make(rng, ground(rng.randint(1, 3)), 2) for _ in range(2))
        yield "gh.formigrams", gromov_hausdorff_formigrams(fx, fy)
        ux, uy = (ultrametric(single_linkage(g, rand_metric(rng, g)))
                  for g in (ground(rng.randint(1, 3)), ground(rng.randint(1, 3))))
        yield "gh.ultrametrics", gromov_hausdorff_ultrametrics(ux, uy)
        f, g = (rand_r_filtration(rng, ground(rng.randint(1, 3))) for _ in range(2))
        yield "tripod.r", tripod_distance_r(f, g)
        pinned = rng.random() < 0.5
        f, g = (rand_int_filtration(rng, ground(rng.randint(1, 2)), pinned=pinned)
                for _ in range(2))
        yield "tripod.int", tripod_distance_int(f, g)
        point = rand_int_filtration(rng, GroundSet(("p",)), pinned=pinned)
        yield "one_point_tripod", one_point_tripod(f, point)
    yield "one_point_tripod", one_point_tripod(
        IntFiltration(GroundSet(("p",)), {frozenset("p"): full()}),
        IntFiltration(GroundSet(("q",)), {frozenset("q"): full()}),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    h = hashlib.sha256()
    total = 0
    for kind, answer in answers(random.Random(args.seed), DRAWS):
        h.update(repr((kind, repr(answer), type(answer).__name__)).encode())
        total += 1
    print(f"seed {args.seed}: {total} answers sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
