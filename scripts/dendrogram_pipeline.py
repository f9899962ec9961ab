#!/usr/bin/env python3
"""Dendrogram pipeline demo on random metrics.

Runs single linkage on two random metrics over a shared point set, reads
off the induced ultrametrics, and prints both reduction identities in
action: the interleaving distance of the dendrograms against the sup gap
of the ultrametrics, and (over different point sets) the formigram
Gromov-Hausdorff distance against the ultrametric-space one.
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stairdist import (
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    interleaving_distance,
    single_linkage,
    ultrametric,
)
from stairdist.io_json import formigram_to_json, ultrametric_to_json
from stairdist.rat import fmt_rat
from conftest import ground, rand_metric


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=4, choices=range(2, 6))
    ap.add_argument("--other-points", type=int, default=3, choices=range(1, 4))
    args = ap.parse_args()
    rng = random.Random(args.seed)

    g = ground(args.points)
    d1 = single_linkage(g, rand_metric(rng, g))
    d2 = single_linkage(g, rand_metric(rng, g))
    u1, u2 = ultrametric(d1), ultrametric(d2)
    gap = max(abs(u1(x, y) - u2(x, y)) for x in g.elements for y in g.elements)

    gy = ground(args.other_points)
    d3 = single_linkage(gy, rand_metric(rng, gy))
    u3 = ultrametric(d3)

    doc = {
        "dendrogram_1": formigram_to_json(d1),
        "dendrogram_2": formigram_to_json(d2),
        "ultrametric_1": ultrametric_to_json(u1),
        "ultrametric_2": ultrametric_to_json(u2),
        "interleaving_distance": fmt_rat(interleaving_distance(d1, d2)),
        "sup_ultrametric_gap": fmt_rat(gap),
        "gromov_hausdorff_dendrograms_1_3": fmt_rat(
            gromov_hausdorff_formigrams(d1, d3)
        ),
        "gromov_hausdorff_ultrametrics_1_3": fmt_rat(
            gromov_hausdorff_ultrametrics(u1, u3)
        ),
    }
    assert doc["interleaving_distance"] == doc["sup_ultrametric_gap"]
    assert (
        doc["gromov_hausdorff_dendrograms_1_3"]
        == doc["gromov_hausdorff_ultrametrics_1_3"]
    )
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
