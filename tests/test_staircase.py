"""Staircase engine: examples, profile shape, flow laws, oracle agreement."""

from dataclasses import asdict
from math import lcm
import copy
import pickle
import random
import time

import pytest

from stairdist import (
    AmbientMismatch,
    INF,
    NEG_INF,
    NegativeEpsilon,
    PointOutsideAmbient,
    contains,
    empty,
    full,
    hausdorff,
    profile,
    staircase,
    subset,
    thicken,
    upper_set_interleaved,
)
from stairdist.lattice import _built
from stairdist.oracle import oracle_hausdorff
from stairdist.rat import common_scale, from_scale, on_scale
from stairdist.staircase import (
    Staircase,
    StepProfile,
    _contained,
    _gap,
    _merged_breaks,
    _on,
    _scale,
    _walk,
    plane_generator,
)
from conftest import F, amounts, moved, rand_fraction, rand_staircase, rand_staircase_pair
from twins import (
    _g,
    common_kinks,
    contained_by_walk,
    plane_subset_by_generators,
    subset_by_walk,
    walked,
)

DELTA = F(3, 2)
LOOP = staircase([(-DELTA, NEG_INF), (INF, DELTA)])


def test_normalize_examples():
    assert staircase([(F(2), F(1)), (F(3), F(0))]).gens == ((F(3), F(0)),)
    assert staircase([]).is_empty()
    assert staircase([(INF, NEG_INF), (F(1), F(2))]).gens == ((INF, NEG_INF),)


def test_normalize_dedup_and_sorted():
    u = staircase([(F(1), F(2)), (F(1), F(2)), (F(0), F(0))])
    assert u.gens == ((F(0), F(0)), (F(1), F(2)))


def test_contains_examples():
    u = staircase([(F(1), F(3))])
    assert contains(u, (F(0), F(4)))
    assert not contains(u, (F(2), F(4)))
    assert not contains(empty(), (F(0), F(1)))
    assert contains(full(), (F(0), F(1)))
    with pytest.raises(PointOutsideAmbient):
        contains(u, (F(2), F(2)))


def test_contains_closed_at_corner():
    u = staircase([(F(1), F(3))])
    assert contains(u, (F(1), F(3)))  # corner is in the closure
    assert not contains(u, (F(1) + F(1, 100), F(3)))


def test_profile_full_int():
    prof = profile(full())
    assert set(prof.slopes) == {F(1, 2)}
    for c in (-7, 0, 5):
        assert _g(full(), F(c)) == F(c) / 2


def test_profile_loop_staircase():
    # c/2 until -2*delta, then c+delta, flat at delta, then c/2 again
    checks = [(F(-4), F(-2)), (F(-3), F(-3, 2)), (F(-1), F(1, 2)),
              (F(0), DELTA), (F(2), DELTA), (F(3), DELTA), (F(5), F(5, 2))]
    for c, expect in checks:
        assert _g(LOOP, c) == expect
    prof = profile(LOOP)
    assert prof.breakpoints == (F(-3), F(0), F(3))
    assert prof.slopes == (F(1, 2), F(1), F(0), F(1, 2))


def test_profile_empty():
    assert profile(empty()).empty


def test_profile_monotone_with_legal_slopes():
    rng = random.Random(11)
    for _ in range(40):
        u = rand_staircase(rng, "int")
        if u.is_empty():
            continue
        prof = profile(u)
        assert set(prof.slopes) <= {F(0), F(1, 2), F(1)}
        assert all(v0 <= v1 for v0, v1 in zip(prof.values, prof.values[1:]))
        for c in prof.breakpoints:
            assert _g(u, c) >= c / 2  # clamped profiles stay above the diagonal


def test_hausdorff_examples():
    assert hausdorff(LOOP, LOOP) == 0
    assert hausdorff(full(), LOOP) == DELTA
    assert hausdorff(full(), empty()) == INF
    a = staircase([(F(0), NEG_INF), (INF, F(2))])
    b = staircase([(F(1), NEG_INF), (INF, F(3))])
    assert hausdorff(a, b) == 1


def test_hausdorff_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        hausdorff(full("int"), full("plane"))


def test_thicken_examples():
    u = staircase([(F(1), F(3))])
    assert thicken(u, F(0)) == u
    assert thicken(u, F(1)).gens == ((F(2), F(2)),)
    assert thicken(full(), F(7)) == full()
    assert thicken(empty(), F(7)) == empty()
    with pytest.raises(NegativeEpsilon):
        thicken(u, F(-1))


def test_thicken_is_a_flow():
    rng = random.Random(0)
    for a, b in amounts(rng, 2, 4, 8):
        u = rand_staircase(rng, "int")
        assert thicken(u, F(0)) == u
        assert thicken(thicken(u, a), b) == thicken(u, a + b)
        assert subset(u, thicken(u, a))  # monotone in eps
        v = rand_staircase(rng, "int")
        if subset(u, v):
            assert subset(thicken(u, a), thicken(v, a))  # monotone in the set


def test_subset_examples():
    u = staircase([(F(1), F(3))])
    assert subset(u, thicken(u, F(5, 7)))
    assert subset(empty(), u)
    assert subset(empty(), empty())
    assert not subset(u, empty())
    assert subset(u, staircase([(F(2), F(2))]))
    assert not subset(staircase([(F(2), F(2))]), u)


def test_upper_set_interleaved_examples():
    d = hausdorff(full(), LOOP)
    assert upper_set_interleaved(full(), LOOP, d)
    assert not upper_set_interleaved(full(), LOOP, d - F(1, 100))
    assert upper_set_interleaved(LOOP, LOOP, F(0))
    with pytest.raises(NegativeEpsilon):  # refused by `thicken`
        upper_set_interleaved(LOOP, LOOP, F(-1))


def test_closure_convention_attains_infimum():
    rng = random.Random(23)
    for _ in range(60):
        u, v = rand_staircase(rng, "int"), rand_staircase(rng, "int")
        d = hausdorff(u, v)
        if d == INF:
            assert not upper_set_interleaved(u, v, F(10 ** 6))
            continue
        assert upper_set_interleaved(u, v, d)
        if d > 0:
            assert not upper_set_interleaved(u, v, d * F(99, 100))


def test_hausdorff_matches_candidate_scan_oracle():
    rng = random.Random(5)
    seen_inf = seen_finite_positive = 0
    for _ in range(120):
        u, v = rand_staircase_pair(rng, "int")
        d = hausdorff(u, v)
        if d == INF:
            seen_inf += 1
        elif d > 0:
            seen_finite_positive += 1
        assert d == oracle_hausdorff(u, v)
    assert seen_inf > 0  # the scan certifies infinite distances too
    assert seen_finite_positive > 20


def find_violating_line(u, v):
    """A flow line on which u pokes out of v (g_u < g_v), or None."""
    cs = common_kinks(u, v)
    for c in cs:
        if _g(u, c) < _g(v, c):
            return c
    hi, lo = cs[-1], cs[0]
    f_hi = _g(u, hi) - _g(v, hi)
    slope = (_g(u, hi + 1) - _g(v, hi + 1)) - f_hi
    if slope < 0:
        return hi + f_hi / -slope + 1
    f_lo = _g(u, lo) - _g(v, lo)
    slope = f_lo - (_g(u, lo - 1) - _g(v, lo - 1))
    if slope > 0:
        return lo - f_lo / slope - 1
    return None


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_subset_agrees_with_raw_membership(ambient):
    """Ties the profile route to plain generator containment: a True subset
    never contradicts point membership, a False one yields an explicit
    witness point inside u but outside v.  Only interval points need a < b."""
    rng = random.Random(37)
    falsified = 0
    for _ in range(80):
        u, v = rand_staircase_pair(rng, ambient)
        if subset(u, v):
            for c2 in range(-16, 17):
                c = F(c2, 2)
                b0 = _g(u, c)
                if b0 == INF:
                    continue
                for bump in (F(0), F(1, 3), F(2)):
                    b = b0 + bump
                    a = c - b
                    if a < b or ambient == "plane":
                        assert contains(v, (a, b)), (u, v, (a, b))
        else:
            assert not u.is_empty()
            c = find_violating_line(u, v)
            assert c is not None
            gu, gv = _g(u, c), _g(v, c)
            b = gu + 1 if gv == INF else (gu + gv) / 2
            point = (c - b, b)
            assert contains(u, point) and not contains(v, point)
            falsified += 1
    assert falsified > 10


def test_hausdorff_is_extended_pseudometric():
    rng = random.Random(17)
    for _ in range(40):
        u, v, w = (rand_staircase(rng, "int") for _ in range(3))
        assert hausdorff(u, u) == 0
        assert hausdorff(u, v) == hausdorff(v, u)
        assert hausdorff(u, w) <= hausdorff(u, v) + hausdorff(v, w)


def test_hausdorff_zero_iff_mutual_containment():
    rng = random.Random(29)
    for _ in range(60):
        u, v = rand_staircase_pair(rng, "int")
        same_set = subset(u, v) and subset(v, u)
        assert (hausdorff(u, v) == 0) == same_set
    # distinct generator antichains can still denote the same clamped set
    covering = staircase(
        [(F(-3, 2), NEG_INF), (F(3, 2), F(-3, 2)), (INF, F(3, 2))]
    )
    assert covering.gens != full().gens
    assert hausdorff(covering, full()) == 0
    assert subset(covering, full()) and subset(full(), covering)


# --- plane ambient -----------------------------------------------------------


def test_plane_quadrant_distance():
    a = staircase([plane_generator((F(0), F(0)))], "plane")
    b = staircase([plane_generator((F(1), F(1)))], "plane")
    assert hausdorff(a, b) == 1
    assert subset(b, a)
    assert not subset(a, b)


def test_plane_generator_flips_the_corner():
    """(-px, py), with -NEG_INF the float INF: the same values and types
    for finite and infinite corners."""
    cases = [
        ((F(1, 2), F(-3)), (F(-1, 2), F(-3))),
        ((F(0), NEG_INF), (F(0), NEG_INF)),
        ((NEG_INF, F(2)), (INF, F(2))),
        ((NEG_INF, NEG_INF), (INF, NEG_INF)),
    ]
    for corner, gen in cases:
        got = plane_generator(corner)
        assert got == gen
        assert [type(x) for x in got] == [type(x) for x in gen]


def test_plane_full_vs_proper():
    a = full("plane")
    b = staircase([(F(1), F(2))], "plane")
    assert hausdorff(a, a) == 0
    assert hausdorff(a, b) == INF
    assert hausdorff(a, empty("plane")) == INF
    assert subset(b, a) and not subset(a, b)


def test_plane_oracle_agreement():
    rng = random.Random(31)
    finite = 0
    for _ in range(60):
        u, v = rand_staircase_pair(rng, "plane")
        d = hausdorff(u, v)
        assert d == oracle_hausdorff(u, v)
        if d != INF:
            finite += 1
    assert finite > 10


# --- linear-time engine against its rescanning twins ---------------------------


def naive_normalize(gens):
    """Quadratic dominance filter: keep the first copy of each generator
    that no other generator's region contains, sorted by l."""
    kept = []
    for g in gens:
        if any(h[0] >= g[0] and h[1] <= g[1] for h in kept):
            continue
        kept = [h for h in kept if not (g[0] >= h[0] and g[1] <= h[1])]
        kept.append(g)
    return tuple(sorted(kept))


def pairwise_breaks(u):
    """Every intersection of the constituent lines b = r_i, b = c - l_j and
    (clamped) b = c/2: a superset of the profile's kinks."""
    horiz = [r for _, r in u.gens if r != NEG_INF]
    diag = [l for l, _ in u.gens if l != INF]
    out = {r + l for r in horiz for l in diag}
    if u.clamped:
        out.update(2 * x for x in horiz + diag)
    return out


def rand_gen_list(rng, k):
    """k generators with infinite coordinates, repeats and a chance of the
    full generator, unnormalized."""
    gens = []
    for _ in range(k):
        roll = rng.random()
        l = INF if roll < 0.15 else rand_fraction(rng, lo=-12, hi=12)
        r = NEG_INF if roll > 0.85 else rand_fraction(rng, lo=-12, hi=12)
        gens.append((l, r))
    if gens:
        gens += rng.choices(gens, k=rng.randint(0, 3))
    if rng.random() < 0.05:
        gens.append((INF, NEG_INF))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_is_full_only_on_the_full_generator(ambient):
    """Type tests, not Fraction-float equality: a lone generator with one
    infinite coordinate is not full, and neither is the empty staircase."""
    assert full(ambient).is_full()
    assert staircase([(F(1), F(2)), (INF, NEG_INF)], ambient).is_full()
    assert not empty(ambient).is_full()
    assert not staircase([(INF, F(3))], ambient).is_full()
    assert not staircase([(F(-3), NEG_INF)], ambient).is_full()
    assert not staircase([(INF, F(3)), (F(-3), NEG_INF)], ambient).is_full()
    assert not staircase([(F(0), F(0))], ambient).is_full()


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_normalize_matches_naive_dominance_filter(ambient):
    rng = random.Random(41)
    for _ in range(400):
        gens = rand_gen_list(rng, rng.randint(0, 25))
        u = staircase(gens, ambient)
        assert u.gens == naive_normalize(gens)
        assert u.is_full() == ((INF, NEG_INF) in gens)
    with pytest.raises(ValueError):
        staircase([(F(0), F(1)), (NEG_INF, F(0))])
    with pytest.raises(ValueError):
        staircase([(F(0), INF)])


def profile_at(prof, c):
    """The piecewise-linear function a StepProfile describes, at c."""
    bps, vals, slopes = prof.breakpoints, prof.values, prof.slopes
    i = sum(1 for b in bps if b <= c)
    if i == 0:
        return vals[0] - slopes[0] * (bps[0] - c)
    return vals[i - 1] + slopes[i] * (c - bps[i - 1])


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_sweep_matches_rescanning_reference(ambient):
    """`profile`, one walk against a side of known height, equals _g at
    every breakpoint, interpolated between breakpoints and in both tails,
    and its breakpoints are the staircase's merged kinks.  The points are
    the merged kinks of u and a second staircase w on the scale 4 L, where
    every breakpoint is a multiple of 4, so the midpoints stay even, plus
    the midpoints of the profile's own breakpoints.  The full staircase
    is a case too: in the interval ambient g = c / 2, and the full plane
    and the empty staircase keep their special forms."""
    rng = random.Random(43)
    cases = []
    for _ in range(150):
        u = staircase(rand_gen_list(rng, rng.randint(1, 20)), ambient)
        if u.is_full() and ambient == "plane":
            continue
        cases.append((u, staircase(rand_gen_list(rng, 4), ambient)))
    if ambient == "int":
        cases.append((full(ambient), staircase(rand_gen_list(rng, 4), ambient)))
    else:
        assert profile(full(ambient)) == StepProfile((), (), (F(0),))
    assert profile(empty(ambient)) == StepProfile((), (), (), empty=True)
    for u, w in cases:
        scale = 2 * common_scale(u.gens, w.gens)
        cs = _merged_breaks(_on(u, scale)[1], _on(w, scale)[1])
        assert all(c % 4 == 0 for c in cs)
        mids = ((a + b) // 2 for a, b in zip(cs, cs[1:]))
        pts = sorted({*cs, *mids, cs[0] - 3 * scale, cs[-1] + 3 * scale})
        prof = profile(u)
        bps = prof.breakpoints
        assert list(bps) == [F(c, scale) for c in _merged_breaks(_on(u, scale)[1])]
        assert all(type(x) is F for x in (*bps, *prof.values, *prof.slopes))
        assert len(prof.values) == len(bps) and len(prof.slopes) == len(bps) + 1
        assert list(prof.values) == [_g(u, c) for c in bps]
        real = sorted({*(F(c, scale) for c in pts), *((a + b) / 2 for a, b in zip(bps, bps[1:]))})
        assert [profile_at(prof, c) for c in real] == [_g(u, c) for c in real], u
        for lo, hi in [(bps[0], bps[-1]), (real[0], real[-1])]:  # a unit step out
            assert prof.slopes[0] == _g(u, lo) - _g(u, lo - 1)
            assert prof.slopes[-1] == _g(u, hi + 1) - _g(u, hi)


def special_staircases(ambient):
    """Empty, full, one-side-infinite and single-generator staircases."""
    return [
        empty(ambient),
        full(ambient),
        staircase([(INF, F(1))], ambient),
        staircase([(F(-1), NEG_INF)], ambient),
        staircase([(INF, F(1, 2)), (F(-3, 2), NEG_INF)], ambient),
        staircase([(F(1, 3), F(2))], ambient),
    ]


def gap_and_containment_by_g(u, v, real):
    """sup |g_u - g_v| and u inside v from _g alone at the sorted points
    real: the merged kinks and one step past each end, beyond which both
    profiles are single lines.  Where both sides are the same infinity
    the difference is 0."""
    gs = [(_g(u, c), _g(v, c)) for c in real]
    diffs = [0 if gu == gv else gu - gv for gu, gv in gs]
    inside = all(gv <= gu for gu, gv in gs)
    if any(d in (INF, NEG_INF) for d in diffs):
        return INF, inside
    lo = (diffs[1] - diffs[0]) / (real[1] - real[0])
    hi = (diffs[-1] - diffs[-2]) / (real[-1] - real[-2])
    gap = INF if lo or hi else max(abs(d) for d in diffs)
    return gap, inside and lo <= 0 and hi >= 0


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_walk_matches_rescanning_reference(ambient):
    """The one walk over both staircases reads g_u - g_v, as _g gives it
    through the scale, at every merged kink and one step past each end,
    as an int, for every pair with neither side empty nor the full plane;
    _gap answers those sides before any walk.  _gap and the walk twin of
    `_contained` equal the largest |g_u - g_v| and the containment that _g
    gives there, as does `subset`, and in the plane the containment by
    generators.  oracle_hausdorff reads `subset`, which compares
    generators and so shares nothing with the walk, but it reads it only
    at candidate distances: this test is the walk's own."""
    rng = random.Random(59)
    specials = special_staircases(ambient)
    pairs = [(u, v) for u in specials for v in specials]
    for _ in range(200):
        u, v = rand_staircase_pair(rng, ambient, max_gens=rng.choice((2, 5, 12)))
        one = rand_staircase(rng, ambient, max_gens=1)
        pairs += [(u, v), (one, v), (rng.choice(specials), v), (u, rng.choice(specials))]
    for u, v in pairs:
        scale = common_scale(u.gens, v.gens)
        a, b = _on(u, scale), _on(v, scale)
        cs = _merged_breaks(a[1], b[1])
        pts = [cs[0] - 2, *cs, cs[-1] + 2]
        real = [F(c, scale) for c in pts]
        if walked(a, b, u.clamped):
            d = _walk(a, b, u.clamped)
            assert len(d) == len(pts)
            for x, c in zip(d, real):
                assert type(x) is int and from_scale(x, scale) == _g(u, c) - _g(v, c), (u, v, c)
        gap, inside = gap_and_containment_by_g(u, v, real)
        assert from_scale(_gap(a, b, u.clamped), scale) == gap, (u, v)
        assert contained_by_walk(a, b, u.clamped) == inside == subset(u, v), (u, v)
        if ambient == "plane":
            assert inside == plane_subset_by_generators(u, v), (u, v)


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_contained_matches_the_walk_twin(ambient):
    """`_contained`, which compares generators, answers what the walk twin
    reads off the profiles, on empty and full staircases, infinite tails,
    generators on or across the diagonal (l >= r), thickened and shrunk
    copies, copies with generators added or dropped, and the same pairs
    moved past the float range, where the twin reads them too: a
    translation keeps every containment."""
    rng = random.Random(71)
    specials = special_staircases(ambient)
    pairs = [(u, v) for u in specials for v in specials]
    for _ in range(400):
        u = staircase(rand_gen_list(rng, rng.randint(0, 12)), ambient)
        eps = rand_fraction(rng, lo=0, hi=3)
        extra = rand_gen_list(rng, rng.randint(1, 3))
        kept = [g for g in u.gens if rng.random() < 0.7]
        pairs += [
            (u, staircase(rand_gen_list(rng, rng.randint(0, 12)), ambient)),
            (u, thicken(u, eps)),
            (u, staircase([(l - eps, r + eps) for l, r in u.gens], ambient)),
            (u, staircase([*u.gens, *extra], ambient)),
            (u, staircase(kept, ambient)),
            (u, rng.choice(specials)),
        ]

    def contained(a, b):
        scale = lcm(_scale(a), _scale(b))
        return _contained(on_scale(a.gens, scale), on_scale(b.gens, scale), a.clamped)

    big = 10**400
    inside = diagonal = 0
    for u, v in pairs:
        for a, b in [(u, v), (v, u)]:
            want = subset_by_walk(a, b)
            far = moved(a, big), moved(b, big)
            assert contained(a, b) == contained(*far) == subset_by_walk(*far) == want, (a, b)
            inside += want
            diagonal += any(l >= r for l, r in a.gens)
    assert 1000 < inside < 2 * len(pairs) - 1000 and diagonal > 1000


def test_contained_growth_band():
    """The containment sweep grows no faster than c * k (4x band): the unit
    is a batch at k = 40; k = 320 must stay within 4 * unit * k.  Each
    generator's diagonal piece [r, l] reaches past the next four, and v, a
    thickening of u, covers each piece of u only by a run of its own
    pieces, so a rescan of v per generator would be quadratic, about 64x
    here, and fail.  The sweep is timed on the generators already on their
    scale: conversion is linear by construction and would hide it."""
    rng = random.Random(1717)

    def long_pieces(k):
        rs = [F(0)]
        for _ in range(k + 3):
            rs.append(rs[-1] + F(rng.randint(1, 10**4), 1000))
        return Staircase("int", tuple([(rs[i + 4] + F(1, 2), rs[i]) for i in range(k)]))

    def batch_time(k):
        pairs = []
        for _ in range(10):
            u = long_pieces(k)
            v = thicken(u, F(1, 7))
            scale = lcm(_scale(u), _scale(v))
            pairs.append((on_scale(u.gens, scale), on_scale(v.gens, scale)))
        best = INF
        for _ in range(5):
            t0 = time.perf_counter()
            for a, b in pairs:
                assert _contained(a, b, True)
            best = min(best, time.perf_counter() - t0)
        return best

    unit = batch_time(40) / 40
    k = 320
    t = batch_time(k)
    assert t <= 4 * unit * k, (
        f"containment batch at k={k} took {t:.4f}s, band allows {4 * unit * k:.4f}s"
    )


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_profile_breakpoints_describe_the_same_function(ambient):
    """The O(k) breakpoints are a subset of all pairwise line intersections,
    and the pieces they delimit, interpolated at every one of those
    intersections, reproduce _g there."""
    rng = random.Random(47)
    for _ in range(150):
        u = staircase(rand_gen_list(rng, rng.randint(1, 15)), ambient)
        if u.is_full():
            continue
        prof = profile(u)
        assert set(prof.breakpoints) <= pairwise_breaks(u) | {F(0)}
        for c in sorted(pairwise_breaks(u)):
            assert profile_at(prof, c) == _g(u, c), (u, c)


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_merged_breaks_are_linear_in_generators(ambient):
    rng = random.Random(53)
    for _ in range(200):
        u = staircase(rand_gen_list(rng, rng.randint(0, 30)), ambient)
        v = staircase(rand_gen_list(rng, rng.randint(0, 30)), ambient)
        scale = common_scale(u.gens, v.gens)
        cs = _merged_breaks(_on(u, scale)[1], _on(v, scale)[1])
        assert len(cs) <= 4 * (len(u.gens) + len(v.gens)) + 1
        assert all(type(c) is int and c % 2 == 0 for c in cs)
        assert {F(c, scale) for c in cs} <= pairwise_breaks(u) | pairwise_breaks(v) | {F(0)}


def test_hausdorff_growth_band():
    """Hausdorff cost, conversion to the scale and walk, grows no faster
    than c * k (4x band): the unit is a batch at k = 40; k = 320 must stay
    within 4 * unit * k.  Near-linear growth is about 8x here, quadratic
    growth would be 64x and fail."""
    rng = random.Random(1313)

    def antichain(k):
        l = r = F(0)
        gens = []
        for _ in range(k):
            l += F(rng.randint(1, 10**4), 1000)
            r += F(rng.randint(1, 10**4), 1000)
            gens.append((l, r))
        return Staircase("int", tuple(gens))

    def batch_time(k):
        pairs = [(antichain(k), antichain(k)) for _ in range(5)]
        best = INF
        for _ in range(3):
            # fresh copies each round: a staircase keeps its scale and side,
            # and the band covers putting both on their scale, not the walk
            # alone
            fresh = [(Staircase("int", u.gens), Staircase("int", v.gens)) for u, v in pairs]
            t0 = time.perf_counter()
            for u, v in fresh:
                hausdorff(u, v)
            best = min(best, time.perf_counter() - t0)
        return best

    unit = batch_time(40) / 40
    k = 320
    t = batch_time(k)
    assert t <= 4 * unit * k, (
        f"hausdorff batch at k={k} took {t:.4f}s, band allows {4 * unit * k:.4f}s"
    )


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_scale_memo_is_invisible_and_follows_the_scale(ambient):
    """A staircase keeps its own scale and the last scale and side it was
    put on (`_on`).  Met by partners on denominators 3, then 5, then 3
    again, it gives every `hausdorff` and `subset` the answer of fresh
    copies and of `oracle_hausdorff`, whether built by the normalizing
    constructor or by `lattice._built`; ==, hash, repr, asdict and a pickle
    round trip do not see what it keeps, and neither a pickle nor a copy
    carries it: the pickle's bytes are a fresh copy's."""
    rng = random.Random(211)

    def on(den, pinned):
        def x():
            return rand_fraction(rng, dens=(den,))

        gens = [(INF, x()), (x(), NEG_INF)] if pinned else []
        gens += [(x(), x()) for _ in range(rng.randint(0, 4))]
        return staircase(gens, ambient)

    def fresh(u):
        return Staircase(u.ambient, u.gens)

    us = special_staircases(ambient)
    for _ in range(40):
        u = on(rng.choice((1, 2)), rng.random() < 0.5)
        us += [u, _built(Staircase, ambient=ambient, gens=u.gens)]
    finite = 0
    for u in us:
        before = repr(u), hash(u), asdict(u)
        pinned = rng.random() < 0.5
        for den in (3, 5, 3):
            v = on(den, pinned)
            d = hausdorff(u, v)
            assert d == hausdorff(fresh(u), fresh(v)) == oracle_hausdorff(fresh(u), fresh(v))
            assert hausdorff(v, u) == d
            for a, b in [(u, v), (v, u)]:
                inside = subset(fresh(a), fresh(b))
                assert subset(a, b) == inside
                if ambient == "plane":
                    assert inside == plane_subset_by_generators(a, b)
            assert (d == 0) == (subset(u, v) and subset(v, u))
            finite += d != INF
        assert "_scaled" in vars(u)
        assert u == fresh(u) and (repr(u), hash(u), asdict(u)) == before
        assert pickle.dumps(u) == pickle.dumps(fresh(u))
        assert vars(copy.copy(u)) == vars(fresh(u))
        back = pickle.loads(pickle.dumps(u))
        assert back == fresh(u) and (repr(back), hash(back), asdict(back)) == before
        assert hausdorff(back, u) == 0
    assert finite > 40
