"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete.
Every comparison is exact rational equality; randomized checks use fixed
seeds.
"""

import contextlib
import random
import time
from itertools import combinations

from stairdist import (
    Formigram,
    GroundSet,
    INF,
    IntFiltration,
    NEG_INF,
    RFiltration,
    SubPartition,
    barcode,
    bottleneck_distance,
    enumerate_subpartitions,
    erosion_distance,
    full,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    grid_interleaving_distance,
    h0_barcode,
    hausdorff,
    interleaving_distance,
    irreducible_parts,
    is_join_irreducible,
    minimal_join_representations,
    one_point_tripod,
    single_linkage,
    smooth,
    staircase,
    sublevel_staircase,
    tripod_distance_int,
    tripod_distance_r,
    ultrametric,
    formigrams_equal,
)
from stairdist.formigram import CosheafTable
from stairdist.oracle import (
    formigram_interleaved,
    oracle_formigram_distance,
    oracle_grid_distance,
    oracle_hausdorff,
)
from conftest import (
    F,
    fs,
    ground,
    rand_barcode,
    rand_formigram,
    rand_formigram_pair,
    rand_fraction,
    rand_grid_pair,
    rand_merged_tail_formigram,
    rand_metric,
    rand_r_filtration,
    rand_subpartition,
)
from twins import (
    brute_greatest_lower_bound,
    brute_least_upper_bound,
    oracle_gh_via_pullbacks,
    oracle_tripod_r,
)

DELTA = F(3, 2)
XY = GroundSet(("x", "y"))
XYZ = GroundSet(("x", "y", "z"))
MERGED = SubPartition(XY, (("x", "y"),))
SPLIT = SubPartition(XY, (("x",), ("y",)))
THETA = Formigram.constant(MERGED)
THETA_PRIME = Formigram(XY, (-DELTA, DELTA), (MERGED, MERGED, SPLIT, MERGED, MERGED))


@contextlib.contextmanager
def criterion(num, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS  {description}  ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_loop_exact_value():
    with criterion(1, "two-point loop: distance 3/2, interleaved iff eps >= 3/2"):
        assert interleaving_distance(THETA, THETA_PRIME) == F(3, 2)
        for eps in (F(0), F(1), F(3, 2) - F(1, 1000)):
            assert not formigram_interleaved(THETA, THETA_PRIME, eps)
        for eps in (F(3, 2), F(2), F(17)):
            assert formigram_interleaved(THETA, THETA_PRIME, eps)


def test_criterion_02_loop_smoothing_facts():
    with criterion(2, "loop smoothing: split at 0 below 3/2, constant at 3/2"):
        for eps in (F(0), F(1, 2), F(1), F(11, 8), F(3, 2) - F(1, 1000)):
            assert smooth(THETA_PRIME, eps).evaluate(F(0)) == SPLIT
        assert formigrams_equal(smooth(THETA_PRIME, DELTA), THETA)
        for eps in (DELTA + F(1, 8), DELTA + 2):
            assert formigrams_equal(smooth(THETA_PRIME, eps), THETA)


def test_criterion_03_three_element_lattice_facts():
    with criterion(3, "3-set subpartitions: 15 elements, 3 atoms, 6 irreducibles"):
        all3 = enumerate_subpartitions(XYZ)
        assert len(all3) == 15 and len(set(all3)) == 15
        zero = SubPartition.empty(XYZ)
        atoms = {
            p
            for p in all3
            if p != zero
            and not any(q not in (zero, p) and q.refines(p) for q in all3)
        }
        singles = {SubPartition(XYZ, ((v,),)) for v in "xyz"}
        assert atoms == singles
        irr = {p for p in all3 if is_join_irreducible(p)}
        doubles = {
            SubPartition(XYZ, ((a, b),)) for a, b in combinations("xyz", 2)
        }
        assert irr == singles | doubles


def test_criterion_04_join_decomposition_example():
    with criterion(4, "7-set example: 10 irreducible parts, exactly 3 minimal reps"):
        g = GroundSet(tuple("1234567"))
        p = SubPartition(g, (("1", "2", "3"), ("4", "5"), ("6",)))
        parts = irreducible_parts(p)
        expected = {SubPartition(g, ((str(i),),)) for i in range(1, 7)} | {
            SubPartition(g, (("1", "2"),)),
            SubPartition(g, (("1", "3"),)),
            SubPartition(g, (("2", "3"),)),
            SubPartition(g, (("4", "5"),)),
        }
        assert set(parts) == expected and len(parts) == 10
        tail = {SubPartition(g, (("4", "5"),)), SubPartition(g, (("6",),))}
        reps = set(minimal_join_representations(p))
        assert reps == {
            frozenset({SubPartition(g, (("1", "2"),)), SubPartition(g, (("1", "3"),))} | tail),
            frozenset({SubPartition(g, (("1", "3"),)), SubPartition(g, (("2", "3"),))} | tail),
            frozenset({SubPartition(g, (("1", "2"),)), SubPartition(g, (("2", "3"),))} | tail),
        }


def test_criterion_05_lattice_universal_properties():
    with criterion(5, "join/meet are LUB/GLB: |X|=3 exhaustive, |X|=4 sampled x500"):
        all3 = enumerate_subpartitions(XYZ)
        for p in all3:
            for q in all3:
                assert p.join(q) == brute_least_upper_bound(p, q)
                assert p.meet(q) == brute_greatest_lower_bound(p, q)
        rng = random.Random(2024)
        g4 = ground(4)
        for _ in range(500):
            p, q = rand_subpartition(rng, g4), rand_subpartition(rng, g4)
            assert p.join(q) == brute_least_upper_bound(p, q)
            assert p.meet(q) == brute_greatest_lower_bound(p, q)


def test_criterion_06_interleaving_by_parts():
    with criterion(6, "200 random formigram pairs: staircase route == direct infimum"):
        rng = random.Random(603)
        infinite_seen = finite_positive = 0
        for _ in range(197):
            g = ground(rng.randint(1, 4))
            f1, f2 = rand_formigram_pair(rng, g, max_crit=5)
            engine = interleaving_distance(f1, f2)
            assert engine == oracle_formigram_distance(f1, f2)
            if engine == INF:
                infinite_seen += 1
            elif engine > 0:
                finite_positive += 1
        assert finite_positive >= 40  # the finite regime is well exercised
        # crafted infinite cases
        late = Formigram(XY, (F(0), F(1)), (SPLIT, MERGED, MERGED, MERGED, SPLIT))
        gone = Formigram.constant(SubPartition.empty(XY))
        for f1, f2 in [(THETA, late), (THETA, gone), (THETA_PRIME, gone)]:
            engine = interleaving_distance(f1, f2)
            assert engine == oracle_formigram_distance(f1, f2) == INF
            infinite_seen += 1
        assert infinite_seen >= 3


def test_criterion_07_dendrogram_reductions():
    with criterion(7, "dendrograms: distance == sup ultrametric gap; GH matches"):
        rng = random.Random(707)
        for _ in range(100):
            g = ground(rng.randint(2, 5))
            f1 = single_linkage(g, rand_metric(rng, g))
            f2 = single_linkage(g, rand_metric(rng, g))
            u1, u2 = ultrametric(f1), ultrametric(f2)
            gap = max(
                abs(u1(x, y) - u2(x, y)) for x in g.elements for y in g.elements
            )
            assert interleaving_distance(f1, f2) == gap
        for _ in range(25):
            gx, gy = ground(rng.randint(1, 3)), ground(rng.randint(1, 3))
            fx = single_linkage(gx, rand_metric(rng, gx))
            fy = single_linkage(gy, rand_metric(rng, gy))
            assert gromov_hausdorff_formigrams(fx, fy) == gromov_hausdorff_ultrametrics(
                ultrametric(fx), ultrametric(fy)
            )


def test_criterion_08_gromov_hausdorff_consistency():
    with criterion(8, "50 pairs: correspondence-max route == pullback route; 2dGH<=dF"):
        rng = random.Random(808)
        finite = 0
        for i in range(50):
            make = rand_formigram if i % 2 else rand_merged_tail_formigram
            fx = make(rng, ground(rng.randint(1, 3)), max_crit=3)
            fy = make(rng, ground(rng.randint(1, 3)), max_crit=3)
            d = gromov_hausdorff_formigrams(fx, fy)
            assert d == oracle_gh_via_pullbacks(fx, fy)
            if d != INF:
                finite += 1
        assert finite >= 20
        for _ in range(20):
            g = ground(rng.randint(1, 3))
            f1, f2 = rand_formigram_pair(rng, g, max_crit=3)
            assert 2 * gromov_hausdorff_formigrams(f1, f2) <= interleaving_distance(f1, f2)


def test_criterion_09_erosion():
    with criterion(9, "erosion examples certified; erosion <= bottleneck x200"):
        b02, b13 = barcode([(F(0), F(2))]), barcode([(F(1), F(3))])
        assert erosion_distance(b02, b13) == 1
        assert max(
            oracle_hausdorff(sublevel_staircase(b02, n), sublevel_staircase(b13, n))
            for n in range(2)
        ) == 1
        rng = random.Random(909)
        p = rand_fraction(rng)
        q = p + abs(rand_fraction(rng, lo=1, hi=6))
        single = barcode([(p, q)])
        assert erosion_distance((), single) == (q - p) / 2
        assert oracle_hausdorff(full(), sublevel_staircase(single, 0)) == (q - p) / 2
        for _ in range(200):
            b1, b2 = rand_barcode(rng, 5), rand_barcode(rng, 5)
            assert erosion_distance(b1, b2) <= bottleneck_distance(b1, b2)


def test_criterion_10_tripod_distance():
    with criterion(10, "tripod: shift == c (brute), H0 bound, 2:1 interval instance"):
        rng = random.Random(1010)
        for _ in range(10):
            f = rand_r_filtration(rng, ground(rng.randint(1, 3)))
            c = abs(rand_fraction(rng, lo=0, hi=4)) + F(1, 5)
            shifted = RFiltration(f.ground, {s: b + c for s, b in f.births.items()})
            assert tripod_distance_r(f, shifted) == c == oracle_tripod_r(f, shifted)
        for _ in range(100):
            f = rand_r_filtration(rng, ground(rng.randint(1, 3)))
            g = rand_r_filtration(rng, ground(rng.randint(1, 3)))
            assert bottleneck_distance(h0_barcode(f), h0_barcode(g)) <= tripod_distance_r(f, g)
        # Interval-indexed instance: two always-present vertices, one edge
        # supported off a width-2 gap, against an always-present point.  The
        # degree-0 modules are rank 2 off the edge support and rank 1 on it
        # (vs constant rank 1), so a 2eps-enlargement of every interval must
        # land in the edge support; the smallest such enlargement fills the
        # ambient, making the homology interleaving value half the Hausdorff
        # distance from the edge support to the full staircase.
        g2 = GroundSet(("x1", "x2"))
        edge = staircase([(F(-1), NEG_INF), (INF, F(1))])
        filt = IntFiltration(
            g2, {fs("x1"): full(), fs("x2"): full(), fs("x1", "x2"): edge}
        )
        point = IntFiltration(GroundSet(("p",)), {fs("p"): full()})
        d_t = tripod_distance_int(filt, point)
        h0_bound = hausdorff(edge, full()) / 2
        assert d_t == one_point_tripod(filt, point) == 1
        assert h0_bound == F(1, 2)
        assert d_t == 2 * h0_bound


def test_criterion_11_two_parameter_clustering():
    with criterion(11, "100 random grid clusterings: staircase route == direct oracle"):
        rng = random.Random(1111)
        finite = 0
        for _ in range(100):
            g = ground(rng.randint(1, 3))
            f1, f2 = rand_grid_pair(rng, g, max_cuts=4)
            d = grid_interleaving_distance(f1, f2)
            assert d == oracle_grid_distance(f1, f2)
            if d != INF:
                finite += 1
        assert finite >= 30


def test_criterion_12_cosheaf_table_complexity():
    with criterion(12, "run-join table cost grows no faster than c * n^2 m^2 (4x band)"):
        rng = random.Random(1212)

        def bench_formigram(n, m):
            g = GroundSet(tuple(f"v{i}" for i in range(n)))
            crit = tuple(F(i) for i in range(m))
            intervals = [rand_subpartition(rng, g) for _ in range(m + 1)]
            values = [intervals[0]]
            for k in range(m):
                values.append(intervals[k].join(intervals[k + 1]))
                values.append(intervals[k + 1])
            return Formigram(g, crit, tuple(values))

        def build_time(n, m):
            f = bench_formigram(n, m)
            best = INF
            for _ in range(3):
                t0 = time.perf_counter()
                CosheafTable(f)
                best = min(best, time.perf_counter() - t0)
            return best

        base = build_time(10, 10)
        unit = base / (10**2 * 10**2)
        for n, m in ((10, 40), (40, 10)):
            t = build_time(n, m)
            assert t <= 4 * unit * n**2 * m**2, (
                f"table build at (n={n}, m={m}) took {t:.4f}s, "
                f"band allows {4 * unit * n**2 * m**2:.4f}s"
            )
