"""The brute-force routes themselves: monotonicity, densification, reports."""

import random

from stairdist import (
    Formigram,
    GroundSet,
    INF,
    SubPartition,
    cosheaf_code,
    interleaving_distance,
)
from stairdist.oracle import (
    candidate_epsilons,
    first_admissible,
    formigram_interleaved,
    oracle_formigram_distance,
    parts_equality_check,
    reconstruct,
)
from conftest import F, fs, ground, rand_formigram, rand_formigram_pair

XY = GroundSet(("x", "y"))
MERGED = SubPartition(XY, (("x", "y"),))
SPLIT = SubPartition(XY, (("x",), ("y",)))
DELTA = F(3, 2)
THETA = Formigram.constant(MERGED)
THETA_PRIME = Formigram(XY, (-DELTA, DELTA), (MERGED, MERGED, SPLIT, MERGED, MERGED))


def test_candidate_set_shape():
    cands = candidate_epsilons([F(0), F(3), F(7)])
    assert cands[0] == 0
    assert F(3) in cands and F(3, 2) in cands and F(2) in cands
    assert all(a < b for a, b in zip(cands, cands[1:]))


def test_interleaved_examples():
    assert formigram_interleaved(THETA, THETA, F(0))
    for eps in (F(0), F(1), DELTA - F(1, 1000)):
        assert not formigram_interleaved(THETA, THETA_PRIME, eps)
    for eps in (DELTA, F(2), F(100)):
        assert formigram_interleaved(THETA, THETA_PRIME, eps)


def test_interleaved_monotone_in_eps():
    rng = random.Random(163)
    for _ in range(15):
        g = ground(rng.randint(1, 3))
        f1 = rand_formigram(rng, g, max_crit=3)
        f2 = rand_formigram(rng, g, max_crit=3)
        cands = candidate_epsilons(list(f1.crit) + list(f2.crit))
        states = [formigram_interleaved(f1, f2, e) for e in cands]
        assert states == sorted(states)  # False... then True...


def with_spike(f, value, t):
    """Insert an extra critical point at t (not already critical) whose
    value is coarsened by `value`; the surrounding intervals keep theirs."""
    assert t not in f.crit
    piece = f._piece_of(t)
    k = piece // 2
    crit = f.crit[:k] + (t,) + f.crit[k:]
    spike = f.values[piece].join(value)
    values = f.values[: piece + 1] + (spike,) + f.values[piece:]
    return Formigram(f.ground, crit, values)


def test_interleaved_saturates_at_largest_candidate():
    # with equal outer values AND equal total joins, only boundedly many
    # merges differ, so huge smoothing windows absorb the difference and
    # the predicate holds at the largest candidate.  (Equal tails alone are
    # not enough: a pair merged only in the bounded middle of one side is
    # an infinite obstruction.)
    rng = random.Random(211)
    from stairdist import join_all

    for _ in range(15):
        g = ground(rng.randint(1, 3))
        f1, f2 = rand_formigram_pair(rng, g, max_crit=3)
        if not f2.crit:  # a constant has a single slot; split it first
            f2 = with_spike(f2, f2.values[0], F(0))
        vals = list(f2.values)
        vals[0], vals[-1] = f1.values[0], f1.values[-1]
        vals[1] = vals[1].join(vals[0])
        vals[-2] = vals[-2].join(vals[-1])
        f2 = Formigram(g, f2.crit, tuple(vals))
        total = join_all(g, list(f1.values) + list(f2.values))
        spike_at = min(f2.crit + f1.crit) - 1
        f1 = with_spike(f1, total, spike_at)
        f2 = with_spike(f2, total, spike_at)
        cands = candidate_epsilons(list(f1.crit) + list(f2.crit))
        assert formigram_interleaved(f1, f2, cands[-1])
        assert interleaving_distance(f1, f2) <= cands[-1]


def test_oracle_distance_examples():
    assert oracle_formigram_distance(THETA, THETA_PRIME) == DELTA
    assert oracle_formigram_distance(THETA, THETA) == 0
    late = Formigram(XY, (F(0), F(1)), (SPLIT, MERGED, MERGED, MERGED, SPLIT))
    assert oracle_formigram_distance(THETA, late) == INF


def test_densification_changes_nothing():
    rng = random.Random(167)
    for _ in range(10):
        g = ground(rng.randint(1, 3))
        f1 = rand_formigram(rng, g, max_crit=3)
        f2 = rand_formigram(rng, g, max_crit=3)
        cands = candidate_epsilons(list(f1.crit) + list(f2.crit))
        dense = sorted(
            set(cands) | {(a + b) / 2 for a, b in zip(cands, cands[1:])}
        )
        base = first_admissible(cands, lambda e: formigram_interleaved(f1, f2, e))
        denser = first_admissible(dense, lambda e: formigram_interleaved(f1, f2, e))
        assert base == denser


def test_reconstruct_examples():
    code = cosheaf_code(THETA)
    assert reconstruct(code, XY, (F(-5), F(5))) == MERGED
    code_p = cosheaf_code(THETA_PRIME)
    assert reconstruct(code_p, XY, (F(-1, 2), F(1, 2))) == SPLIT
    nothing = Formigram.constant(SubPartition.empty(XY))
    assert reconstruct(cosheaf_code(nothing), XY, (F(0), F(1))) == SubPartition.empty(XY)


def test_parts_equality_check_report():
    report = parts_equality_check(THETA, THETA_PRIME)
    assert report.equal
    assert report.engine == DELTA
    assert report.witness == fs("x", "y")
    same = parts_equality_check(THETA, THETA)
    assert same.engine == 0


def test_parts_equality_random():
    rng = random.Random(173)
    for _ in range(20):
        g = ground(rng.randint(1, 4))
        f1, f2 = rand_formigram_pair(rng, g, max_crit=4)
        report = parts_equality_check(f1, f2)
        assert report.engine == report.oracle == interleaving_distance(f1, f2)


def test_first_admissible_none():
    assert first_admissible([F(0), F(1)], lambda e: False) == INF
    assert first_admissible([], lambda e: True) == INF
