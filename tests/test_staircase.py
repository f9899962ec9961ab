"""Staircase engine: examples, profile shape, flow laws, oracle agreement."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, strategies as st

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
from stairdist.oracle import oracle_hausdorff
from stairdist.staircase import _g, _merged_breaks
from conftest import rand_staircase, rand_staircase_pair

F = Fraction
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


@given(st.integers(0, 10**6), st.fractions(0, 4, max_denominator=8),
       st.fractions(0, 4, max_denominator=8))
def test_thicken_is_a_flow(seed, a, b):
    rng = random.Random(seed)
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
    cs = _merged_breaks(u, v)
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
    from stairdist.staircase import plane_generator

    a = staircase([plane_generator((F(0), F(0)))], "plane")
    b = staircase([plane_generator((F(1), F(1)))], "plane")
    assert hausdorff(a, b) == 1
    assert subset(b, a)
    assert not subset(a, b)


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
