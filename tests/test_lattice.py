"""Subpartition lattice: examples, brute-force universal properties, laws."""

from itertools import combinations
import random

import pytest

from stairdist import (
    GroundSet,
    GroundSetMismatch,
    SizeGuardExceeded,
    SubPartition,
    Surjection,
    ValidationError,
    enumerate_subpartitions,
    irreducible_parts,
    is_join_irreducible,
    join_all,
    minimal_join_representations,
    pullback,
    single_linkage,
)
from conftest import DRAWS, ground, rand_metric, rand_subpartition
from twins import brute_greatest_lower_bound, brute_least_upper_bound

XYZ = GroundSet(("x", "y", "z"))


def sp(g, *blocks):
    return SubPartition(g, tuple(tuple(b) for b in blocks))


# --- brute-force lattice oracles -------------------------------------------


def join_refines(a, b):
    return all(any(x.refines(y) for y in b) for x in a)


def brute_minimal_join_representations(p):
    irr = irreducible_parts(p)
    reps = []
    for k in range(len(irr) + 1):
        for combo in combinations(irr, k):
            if join_all(p.ground, combo) != p:
                continue
            if any(
                join_all(p.ground, [c for c in combo if c != drop]) == p
                for drop in combo
            ):
                continue  # redundant
            reps.append(frozenset(combo))
    return {
        a
        for a in reps
        if not any(b != a and join_refines(b, a) and not join_refines(a, b) for b in reps)
    }


# --- refines ----------------------------------------------------------------


def test_refines_examples():
    empty = SubPartition.empty(XYZ)
    assert empty.refines(sp(XYZ, ("x", "y")))
    assert empty.refines(empty)
    assert sp(XYZ, ("x",), ("y",)).refines(sp(XYZ, ("x", "y")))
    assert not sp(XYZ, ("x", "y")).refines(sp(XYZ, ("y", "z")))


def test_refines_mismatched_grounds():
    a, b = sp(XYZ, ("x",)), sp(GroundSet(("x", "y")), ("x",))
    with pytest.raises(GroundSetMismatch):
        a.refines(b)
    # join and join_all check every part, the last one too, with one message
    message = r"ground sets differ: \('x', 'y', 'z'\) vs \('x', 'y'\)$"
    with pytest.raises(GroundSetMismatch, match=message):
        a.join(b)
    with pytest.raises(GroundSetMismatch, match=message):
        join_all(XYZ, (a, a, b))


def test_refines_is_partial_order():
    all3 = enumerate_subpartitions(XYZ)
    for p in all3:
        assert p.refines(p)
        for q in all3:
            if p.refines(q) and q.refines(p):
                assert p == q
            for r in all3:
                if p.refines(q) and q.refines(r):
                    assert p.refines(r)


# --- join / meet -------------------------------------------------------------


def test_join_examples():
    p = sp(XYZ, ("x", "y"))
    assert p.join(p) == p
    assert p.join(SubPartition.empty(XYZ)) == p == SubPartition.empty(XYZ).join(p)
    expected = brute_least_upper_bound(p, sp(XYZ, ("y", "z")))
    assert p.join(sp(XYZ, ("y", "z"))) == expected == sp(XYZ, ("x", "y", "z"))


def test_meet_examples():
    p = sp(XYZ, ("x", "y"))
    q = sp(XYZ, ("y", "z"))
    assert p.meet(p) == p
    assert p.meet(q) == brute_greatest_lower_bound(p, q) == sp(XYZ, ("y",))
    assert sp(XYZ, ("x", "y", "z")).meet(sp(XYZ, ("x",), ("y",), ("z",))) == sp(
        XYZ, ("x",), ("y",), ("z",)
    )


def test_join_meet_universal_properties_exhaustive_n3():
    all3 = enumerate_subpartitions(XYZ)
    for p in all3:
        for q in all3:
            assert p.join(q) == brute_least_upper_bound(p, q)
            assert p.meet(q) == brute_greatest_lower_bound(p, q)
            for r in all3:
                assert join_all(XYZ, (p, q, r)) == brute_least_upper_bound(p, q, r)
    assert join_all(XYZ, ()) == SubPartition.empty(XYZ)


def test_lattice_laws():
    g = ground(4)
    rng = random.Random(0)
    for _ in range(DRAWS):
        p, q, r = (rand_subpartition(rng, g) for _ in range(3))
        assert p.join(q) == q.join(p)
        assert p.meet(q) == q.meet(p)
        assert p.join(p) == p
        assert p.meet(p) == p
        assert p.join(q).join(r) == p.join(q.join(r))
        assert p.meet(q).meet(r) == p.meet(q.meet(r))
        assert p.join(p.meet(q)) == p  # absorption
        assert p.meet(p.join(q)) == p
        # order compatibility
        assert p.refines(p.join(q))
        assert p.meet(q).refines(p)


# --- irreducibles -------------------------------------------------------------


def test_is_join_irreducible_facts():
    assert is_join_irreducible(sp(XYZ, ("x",)))
    assert is_join_irreducible(sp(XYZ, ("x", "y")))
    assert not is_join_irreducible(sp(XYZ, ("x",), ("y",)))
    assert not is_join_irreducible(SubPartition.empty(XYZ))


def test_join_irreducible_matches_definition_n3():
    all3 = enumerate_subpartitions(XYZ)
    for p in all3:
        if p.blocks == ():
            continue
        definitional = not any(
            q.join(r) == p
            for q in all3
            if q != p and q.refines(p)
            for r in all3
            if r != p and r.refines(p)
        )
        assert is_join_irreducible(p) == definitional


def test_irreducible_parts_seven_element_example():
    g = GroundSet(("1", "2", "3", "4", "5", "6", "7"))
    p = sp(g, ("1", "2", "3"), ("4", "5"), ("6",))
    parts = irreducible_parts(p)
    expected = {sp(g, (str(i),)) for i in range(1, 7)} | {
        sp(g, ("1", "2")),
        sp(g, ("1", "3")),
        sp(g, ("2", "3")),
        sp(g, ("4", "5")),
    }
    assert set(parts) == expected
    assert len(parts) == 10
    assert join_all(g, parts) == p


def test_irreducible_parts_trivia():
    assert irreducible_parts(SubPartition.empty(XYZ)) == []
    g2 = GroundSet(("x", "y"))
    assert set(irreducible_parts(sp(g2, ("x", "y")))) == {
        sp(g2, ("x",)),
        sp(g2, ("y",)),
        sp(g2, ("x", "y")),
    }


def test_join_of_irreducible_parts_recovers():
    rng = random.Random(0)
    for i in range(DRAWS):
        g = ground(1 + i % 5)  # every size from 1 to 5, twelve times
        p = rand_subpartition(rng, g)
        assert join_all(g, irreducible_parts(p)) == p


# --- minimal join representations ---------------------------------------------


def test_minimal_join_representations_seven_element_example():
    g = GroundSet(("1", "2", "3", "4", "5", "6", "7"))
    p = sp(g, ("1", "2", "3"), ("4", "5"), ("6",))
    reps = minimal_join_representations(p)
    tail = {sp(g, ("4", "5")), sp(g, ("6",))}
    expected = {
        frozenset({sp(g, ("1", "2")), sp(g, ("1", "3"))} | tail),
        frozenset({sp(g, ("1", "3")), sp(g, ("2", "3"))} | tail),
        frozenset({sp(g, ("1", "2")), sp(g, ("2", "3"))} | tail),
    }
    assert set(reps) == expected


def test_minimal_join_representations_one_block():
    p = sp(XYZ, ("x", "y", "z"))
    reps = set(minimal_join_representations(p))
    pairs = [sp(XYZ, ("x", "y")), sp(XYZ, ("y", "z")), sp(XYZ, ("x", "z"))]
    expected = {
        frozenset({a, b}) for a, b in combinations(pairs, 2)
    }
    assert reps == expected


def test_minimal_join_representations_irreducible_is_itself():
    p = sp(XYZ, ("x",))
    assert minimal_join_representations(p) == [frozenset({p})]


def test_minimal_join_representations_brute_force_n3():
    for p in enumerate_subpartitions(XYZ):
        assert set(minimal_join_representations(p)) == brute_minimal_join_representations(p)


def test_big_block_has_multiple_representations():
    rng = random.Random(7)
    found = 0
    g = ground(5)
    for _ in range(50):
        p = rand_subpartition(rng, g)
        if any(len(b) >= 3 for b in p.blocks):
            found += 1
            assert len(minimal_join_representations(p)) >= 2
    assert found > 0


def test_minimal_join_representations_guard():
    g = GroundSet(tuple("abcdefg"))
    p = SubPartition(g, (tuple("abcdefg"),))
    with pytest.raises(SizeGuardExceeded):
        minimal_join_representations(p)


# --- atoms ---------------------------------------------------------------------


def test_atoms_and_non_atomistic():
    all3 = enumerate_subpartitions(XYZ)
    zero = SubPartition.empty(XYZ)
    atoms = [
        p
        for p in all3
        if p != zero and not any(q != zero and q != p and q.refines(p) for q in all3)
    ]
    assert set(atoms) == {sp(XYZ, ("x",)), sp(XYZ, ("y",)), sp(XYZ, ("z",))}
    # a doubleton is join-irreducible but not a join of atoms
    doubleton = sp(XYZ, ("x", "y"))
    for k in range(len(atoms) + 1):
        for combo in combinations(atoms, k):
            assert join_all(XYZ, combo) != doubleton


# --- pullback --------------------------------------------------------------------


def test_pullback_identity():
    p = sp(XYZ, ("x", "y"))
    assert pullback(p, Surjection.identity(XYZ)) == p


def test_pullback_merging_map():
    z = GroundSet(("z1", "z2", "z3"))
    xy = GroundSet(("x", "y"))
    phi = Surjection(z, xy, {"z1": "x", "z2": "x", "z3": "y"})
    p = sp(xy, ("x", "y"))
    assert pullback(p, phi) == sp(z, ("z1", "z2", "z3"))
    assert pullback(SubPartition.empty(xy), phi) == SubPartition.empty(z)


def test_pullback_ground_mismatch():
    phi = Surjection.identity(XYZ)
    with pytest.raises(GroundSetMismatch):
        pullback(sp(GroundSet(("x", "y")), ("x",)), phi)


def test_surjection_validation():
    xy = GroundSet(("x", "y"))
    with pytest.raises(ValidationError):
        Surjection(XYZ, xy, {"x": "x", "y": "x", "z": "x"})  # not surjective
    with pytest.raises(ValidationError):
        Surjection(XYZ, xy, {"x": "x", "y": "y"})  # not total


# --- enumeration ----------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_subpartitions(GroundSet(("x",)))) == 2
    assert len(enumerate_subpartitions(GroundSet(("x", "y")))) == 5
    all3 = enumerate_subpartitions(XYZ)
    assert len(all3) == 15
    assert len(set(all3)) == 15


def test_enumerate_guard():
    with pytest.raises(SizeGuardExceeded):
        enumerate_subpartitions(ground(6))


# --- canonical form ---------------------------------------------------------------


def test_is_partition_predicate():
    assert sp(XYZ, ("x",), ("y",), ("z",)).is_partition()
    assert sp(XYZ, ("x", "y", "z")).is_partition()
    assert not sp(XYZ, ("x", "y")).is_partition()
    assert not SubPartition.empty(XYZ).is_partition()


def test_canonical_form_and_validation():
    assert sp(XYZ, ("y", "x")) == sp(XYZ, ("x", "y"))
    assert sp(XYZ, ("z",), ("x",)).blocks == (("x",), ("z",))
    with pytest.raises(ValidationError):
        sp(XYZ, ())
    with pytest.raises(ValidationError):
        sp(XYZ, ("x",), ("x", "y"))
    with pytest.raises(ValidationError):
        sp(XYZ, ("w",))
    with pytest.raises(ValidationError):
        GroundSet(())
    with pytest.raises(ValidationError):
        GroundSet(("x", "x"))


def test_built_subpartitions_need_no_normalization():
    """The values built past the constructor's checks (`join_all`, `join`,
    the values of `single_linkage`, `singletons`, `one_block` and `empty`)
    equal, field for field, what the checking constructor makes of their
    blocks; grounds whose string order differs from their canonical order
    included."""
    rng = random.Random(71)
    for _ in range(150):
        g = ground(rng.randint(1, 7))
        if rng.random() < 0.5:
            g = GroundSet(tuple(rng.sample(g.elements, len(g))))
        parts = [rand_subpartition(rng, g) for _ in range(rng.randint(0, 4))]
        built = [SubPartition.empty(g), SubPartition.singletons(g), SubPartition.one_block(g)]
        built.append(join_all(g, parts))
        built += [p.join(q) for p in parts for q in parts]
        built += single_linkage(g, rand_metric(rng, g)).values
        for p in built:
            q = SubPartition(p.ground, p.blocks)
            assert (p.ground, p.blocks) == (q.ground, q.blocks), p
            assert type(p.blocks) is tuple and all(type(b) is tuple for b in p.blocks), p
