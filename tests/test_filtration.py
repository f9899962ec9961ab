"""Filtrations and tripod distances, including the interval-indexed form."""

from fractions import Fraction
from itertools import combinations
import random
import re

import pytest

from stairdist import (
    EmptySimplex,
    GroundSet,
    GroundSetMismatch,
    INF,
    IntFiltration,
    NEG_INF,
    NotOnePoint,
    RFiltration,
    Surjection,
    Ultrametric,
    ValidationError,
    birth,
    bottleneck_distance,
    full,
    gromov_hausdorff_ultrametrics,
    h0_barcode,
    hausdorff,
    one_point_tripod,
    pullback_filtration,
    staircase,
    support,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
    validate_filtration,
)
from stairdist import filtration
from stairdist.compare import enumerate_correspondences
from stairdist.filtration import Simplex, _image_items
from stairdist.staircase import Staircase
from conftest import (
    full_r_filtration,
    ground,
    rand_fraction,
    rand_int_filtration,
    rand_r_filtration,
)
from test_compare import grown_items, named, named_grounds, rows_of, unpruned_min_max
from test_staircase import subset_by_walk

F = Fraction


def fs(*xs):
    return frozenset(xs)


def tripod_cost_r(f, g):
    """The birth discrepancy of an image pair (A, B), by name."""

    def cost(a, b):
        ba, bb = birth(f, a), birth(g, b)
        if ba == INF and bb == INF:
            return F(0)
        return INF if (ba == INF) != (bb == INF) else abs(ba - bb)

    return cost


def tripod_cost_int(f, g):
    """The support-staircase Hausdorff distance of an image pair, by name."""

    def cost(a, b):
        return hausdorff(support(f, a), support(g, b))

    return cost


def oracle_tripod_r(f, g, guard=12):
    """Literal subset enumeration over each correspondence."""
    return _oracle_tripod(f, g, tripod_cost_r(f, g), guard)


def oracle_tripod_int(f, g, guard=12):
    """Literal subset enumeration with support-staircase costs."""
    return _oracle_tripod(f, g, tripod_cost_int(f, g), guard)


def _realizable_pairs(pairs):
    """The image pairs (pi_X S, pi_Y S) of the nonempty sub-relations S of
    the correspondence, each once, in order of first appearance: the
    tripod items of a correspondence, by name.  A minimal cover has at most
    |X| + |Y| - 1 pairs, so this walks at most 2^(|X| + |Y| - 1) subsets."""
    seen = set()
    for k in range(1, len(pairs) + 1):
        for sub in combinations(pairs, k):
            item = frozenset(x for x, _ in sub), frozenset(y for _, y in sub)
            if item not in seen:
                seen.add(item)
                yield item


def unpruned_tripod_r(f, g, guard=12):
    """The line-indexed tripod distance through the unpruned twin."""
    return unpruned_min_max(f.ground, g.ground, _realizable_pairs, tripod_cost_r(f, g), guard)


def unpruned_tripod_int(f, g, guard=12):
    """The interval-indexed tripod distance through the unpruned twin."""
    return unpruned_min_max(f.ground, g.ground, _realizable_pairs, tripod_cost_int(f, g), guard)


def _oracle_tripod(f, g, cost, guard):
    best = INF
    for rel in enumerate_correspondences(f.ground, g.ground, guard):
        worst = F(0)
        for k in range(1, len(rel) + 1):
            for sigma in combinations(rel, k):
                a = fs(*(x for x, _ in sigma))
                b = fs(*(y for _, y in sigma))
                worst = max(worst, cost(a, b))
        best = min(best, worst)
    return best


# --- validation / birth ---------------------------------------------------------


def test_validate_examples():
    g = GroundSet(("a",))
    ok = RFiltration(g, {fs("a"): F(0)})
    assert validate_filtration(ok) is None

    g2 = GroundSet(("a", "b"))
    late_vertex = RFiltration(
        g2, {fs("a"): F(0), fs("b"): F(3), fs("a", "b"): F(1)}
    )
    assert "born" in validate_filtration(late_vertex)

    missing_face = RFiltration(g2, {fs("a"): F(0), fs("a", "b"): F(1)})
    assert "absent" in validate_filtration(missing_face)


def test_r_filtration_refuses_infinite_births():
    g = GroundSet(("a", "b"))
    for b in (INF, NEG_INF):
        with pytest.raises(ValidationError, match=r"\['a'\]"):
            RFiltration(g, {fs("a"): b, fs("b"): F(0)})


def test_vietoris_rips_is_valid():
    g = ground(3)
    d = {("a", "b"): F(1), ("a", "c"): F(2), ("b", "c"): F(3)}
    births = {fs(v): F(0) for v in g}
    for (u, v), t in d.items():
        births[fs(u, v)] = t
    births[fs("a", "b", "c")] = max(d.values())
    vr = RFiltration(g, births)
    assert validate_filtration(vr) is None


def test_birth_examples():
    g = GroundSet(("a", "b"))
    f = RFiltration(g, {fs("a"): F(0), fs("b"): F(1), fs("a", "b"): F(2)})
    assert birth(f, fs("a")) == 0
    assert birth(f, fs("a", "b")) == 2
    assert birth(f, fs("b")) <= birth(f, fs("a", "b"))
    assert birth(f, Simplex({"a"})) == 0
    with pytest.raises(EmptySimplex):
        birth(f, fs())
    with pytest.raises(GroundSetMismatch):
        birth(f, fs("zz"))


def test_int_filtration_validation():
    g = GroundSet(("a", "b"))
    vfull = full()
    e = staircase([(F(0), F(1))])
    ok = IntFiltration(g, {fs("a"): vfull, fs("b"): vfull, fs("a", "b"): e})
    assert validate_filtration(ok) is None
    bad = IntFiltration(g, {fs("a"): e, fs("b"): vfull, fs("a", "b"): vfull})
    assert validate_filtration(bad) is not None


def test_int_filtration_refuses_a_support_that_is_not_a_staircase():
    with pytest.raises(ValidationError, match=r"simplex \['a'\]"):
        IntFiltration(GroundSet(("a",)), {fs("a"): 3})


def fraction_validate(f: RFiltration):
    """The Fraction twin of `validate_filtration` on a line-indexed
    filtration: one face set and one Fraction comparison per (simplex,
    face)."""
    for s, b in f.births.items():
        if len(s) == 1:
            continue
        for v in s:
            face = s - {v}
            if face not in f.births:
                return f"face {sorted(face)} of simplex {sorted(s)} is absent"
            if not f.births[face] <= b:
                return (
                    f"face {sorted(face)} born at {f.births[face]} after its "
                    f"coface {sorted(s)} born at {b}"
                )
    return None


def broken_r_copies(rng, f: RFiltration):
    """f, then for a face of some stored simplex: f with that face born
    after the simplex, f with it born with its first coface (still valid),
    f with another such face dropped, and f with some simplex born before
    all of its faces (so the order of its vertices decides the report)."""
    faces = [(s - {v}, s) for s in f.births if len(s) > 1 for v in s]
    if not faces:
        return [f]
    (face, s), (gone, _), (_, early_s) = rng.choice(faces), rng.choice(faces), rng.choice(faces)
    late, equal, early = dict(f.births), dict(f.births), dict(f.births)
    late[face] = f.births[s] + rand_fraction(rng, lo=0, hi=2) + F(1, 4)
    equal[face] = min(b for t, b in f.births.items() if face < t)
    dropped = {t: b for t, b in f.births.items() if t != gone}
    early[early_s] = min(f.births[early_s - {v}] for v in early_s) - F(1, 3)
    return [f, *[RFiltration(f.ground, h) for h in (late, equal, dropped, early)]]


def test_validate_r_matches_the_fraction_twin():
    """The mask-and-int face check reports exactly what one Fraction
    comparison per (simplex, face) reports, None included, on valid random
    line-indexed filtrations and on copies with a late face, a face born
    with its first coface, an absent face and a simplex born before all of
    its faces."""
    rng = random.Random(37)
    reports = []
    for _ in range(80):
        g = ground(rng.randint(1, 5))
        if rng.random() < 0.5:
            f = full_r_filtration(rng, g)
        else:
            f = rand_r_filtration(rng, g, edge_prob=rng.random(), tri_prob=rng.choice((0, 0.5, 1)))
        copies = broken_r_copies(rng, f)
        got = [validate_filtration(h) for h in copies]
        assert got == [fraction_validate(h) for h in copies]
        assert got[0] is None
        if len(got) > 1:
            assert got[1] and got[2] is None and got[3] and got[4]
        reports += got[1:]
    assert any("absent" in r for r in reports if r)
    assert any("after its coface" in r for r in reports if r)
    assert any(r and re.search(r"simplex \[[^]]*,[^]]*,[^]]*\]", r) for r in reports)  # a triangle


def test_validate_r_reads_a_ground_out_of_sorted_order():
    """Over grounds whose canonical order, which numbers the bits of the
    vertex masks, is the reverse of the sorted one, the face check still
    reports what the Fraction twin reports."""
    rng = random.Random(41)
    for _ in range(40):
        g = GroundSet(ground(rng.randint(2, 5)).elements[::-1])
        f = rand_r_filtration(rng, g, edge_prob=rng.random(), tri_prob=rng.choice((0, 0.5, 1)))
        copies = broken_r_copies(rng, f)
        assert [validate_filtration(h) for h in copies] == [fraction_validate(h) for h in copies]


def per_face_validate(f: IntFiltration):
    """The per-face twin of `validate_filtration` on an interval-indexed
    filtration: one containment per (simplex, face) by the walk twin of
    `staircase._contained`, each on the pair's own scale."""
    for s, u in f.supports.items():
        if len(s) == 1:
            continue
        for v in s:
            face = s - {v}
            if not subset_by_walk(u, support(f, face)):
                return (
                    f"support of simplex {sorted(s)} is not contained in the "
                    f"support of its face {sorted(face)}"
                )
    return None


def shrunk(u, d):
    """A staircase inside u: every generator moved (l - d, r + d)."""
    return staircase((l - d, r + d) for l, r in u.gens)


def broken_copies(rng, f: IntFiltration):
    """f, f with one face's support swapped for a smaller staircase, and f
    with one face dropped (a face of some stored simplex in each)."""
    faces = [s - {v} for s in f.supports if len(s) > 1 for v in s]
    out = [f]
    if faces:
        face, gone = rng.choice(faces), rng.choice(faces)
        swapped = dict(f.supports)
        swapped[face] = shrunk(f.supports[face], rand_fraction(rng, lo=0, hi=2) + F(1, 4))
        dropped = {s: u for s, u in f.supports.items() if s != gone}
        out += [IntFiltration(f.ground, swapped), IntFiltration(f.ground, dropped)]
    return out


def test_validate_int_matches_per_face_twin():
    """One scale for all supports and `_contained` report exactly what one
    walk-twin containment per (simplex, face) reports, None included, on
    valid random filtrations and on broken copies of them."""
    rng = random.Random(29)
    reports = []
    for _ in range(80):
        f = rand_int_filtration(
            rng, ground(rng.randint(1, 5)), tri_prob=rng.choice((0, 0.5, 1))
        )
        copies = broken_copies(rng, f)
        got = [validate_filtration(h) for h in copies]
        assert got == [per_face_validate(h) for h in copies]
        assert got[0] is None
        reports += got[1:]
    assert None in reports and len(set(reports)) > 10
    assert any(r and re.search(r"simplex \[[^]]*,[^]]*,[^]]*\]", r) for r in reports)  # a triangle


def test_validate_int_puts_each_support_on_the_scale_once(monkeypatch):
    """Each stored support is converted once, whatever the number of faces
    checked against it."""
    converted = []
    on = filtration.on_scale

    def recording(gens, scale):
        converted.append(id(gens))
        return on(gens, scale)

    monkeypatch.setattr(filtration, "on_scale", recording)
    rng = random.Random(31)
    for n in range(1, 7):
        f = rand_int_filtration(rng, ground(n), edge_prob=1, tri_prob=1)
        converted.clear()
        assert validate_filtration(f) is None
        assert sorted(converted) == sorted([id(u.gens) for u in f.supports.values()])
    # the last filtration checks more faces than it stores supports
    assert sum(len(s) for s in f.supports if len(s) > 1) > len(f.supports)


# --- pullback ---------------------------------------------------------------------


def test_pullback_identity():
    rng = random.Random(83)
    f = rand_r_filtration(rng, ground(3))
    assert pullback_filtration(f, Surjection.identity(f.ground)) == f


def test_pullback_merged_vertices():
    x = GroundSet(("x",))
    z = GroundSet(("z1", "z2"))
    phi = Surjection(z, x, {"z1": "x", "z2": "x"})
    f = RFiltration(x, {fs("x"): F(3)})
    pulled = pullback_filtration(f, phi)
    assert birth(pulled, fs("z1", "z2")) == 3  # image is the single vertex
    assert birth(pulled, fs("z1")) == 3
    assert validate_filtration(pulled) is None


def test_pullback_birth_formula_random():
    rng = random.Random(89)
    for _ in range(15):
        x = ground(rng.randint(1, 3))
        znames = tuple(f"z{i}" for i in range(len(x) + rng.randint(0, 2)))
        z = GroundSet(znames)
        mapping = {}
        for i, zz in enumerate(znames):
            mapping[zz] = x.elements[i] if i < len(x) else rng.choice(x.elements)
        phi = Surjection(z, x, mapping)
        f = rand_r_filtration(rng, x)
        pulled = pullback_filtration(f, phi)
        assert validate_filtration(pulled) is None
        for k in range(1, len(znames) + 1):
            for sigma in combinations(znames, k):
                image = fs(*(phi(zz) for zz in sigma))
                assert birth(pulled, fs(*sigma)) == birth(f, image)


# --- line-indexed tripod distance ----------------------------------------------


def test_tripod_identity_zero():
    rng = random.Random(97)
    f = rand_r_filtration(rng, ground(3))
    assert tripod_distance_r(f, f) == 0


def test_tripod_time_shift():
    rng = random.Random(101)
    for _ in range(8):
        f = rand_r_filtration(rng, ground(rng.randint(1, 3)))
        c = abs(rand_fraction(rng, lo=0, hi=5)) + F(1, 3)
        shifted = RFiltration(f.ground, {s: b + c for s, b in f.births.items()})
        assert tripod_distance_r(f, shifted) == c == oracle_tripod_r(f, shifted)


def test_tripod_single_vertices():
    f = RFiltration(GroundSet(("p",)), {fs("p"): F(0)})
    g = RFiltration(GroundSet(("q",)), {fs("q"): F(5)})
    assert tripod_distance_r(f, g) == 5


def test_tripod_matches_subset_enumeration_oracle():
    rng = random.Random(103)
    for _ in range(10):
        f = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=0.5)
        g = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=0.5)
        assert tripod_distance_r(f, g) == oracle_tripod_r(f, g)


def test_tripod_with_triangles_matches_oracle_at_finite_values():
    """Complete 1-skeleta with 2-simplices make unequal vertex counts
    comparable, so a good share of the distances is finite."""
    rng = random.Random(307)
    finite = 0
    for _ in range(12):
        f = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=1.0, tri_prob=0.7)
        g = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=1.0, tri_prob=0.7)
        assert validate_filtration(f) is None and validate_filtration(g) is None
        d = tripod_distance_r(f, g)
        assert d == oracle_tripod_r(f, g)
        finite += d != INF
    assert finite >= 6


def rips(rng, g):
    """A random metric on g, distances in [1, 2] (so every triangle
    inequality holds), as the matrix value that GH reads (an `Ultrametric`,
    whose constructor does not check the ultra-triangle inequality), and
    its full Vietoris-Rips filtration: each vertex born at 0, every other
    simplex at its diameter."""
    n = len(g)
    d = [[F(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = F(rng.randint(8, 16), 8)
    births = {}
    for k in range(1, n + 1):
        for ix in combinations(range(n), k):
            s = Simplex([g.elements[i] for i in ix])
            births[s] = max([d[i][j] for i, j in combinations(ix, 2)], default=F(0))
    return Ultrametric(g, d), RFiltration(g, births)


def test_tripod_chain_on_rips_filtrations():
    """bottleneck(h0(R_X), h0(R_Y)) <= tripod_distance_r(R_X, R_Y)
    <= 2 * gromov_hausdorff_ultrametrics(d_X, d_Y) on the full Rips
    filtrations R of seeded metrics d, in both argument orders, within the
    guard.  The left bound is tripod stability: a tripod distance of eps
    makes the persistent homology of the two filtrations eps-interleaved,
    and the bottleneck distance of H0 barcodes is the interleaving distance
    of their modules.  The right bound is Rips stability: the tripod
    distance between Rips filtrations is at most twice the GH distance,
    which is half the smallest distortion (`gromov_hausdorff_ultrametrics`
    reads a plain metric too), while the diameters of related simplices
    differ by up to the whole distortion, hence the factor of 2."""
    rng = random.Random(173)
    strict = past_gh = 0
    for nx, ny in [(1, 3), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4)] * 3:
        gx, gy = named_grounds(nx, ny)
        (dx, fx), (dy, fy) = rips(rng, gx), rips(rng, gy)
        for (da, fa), (db, fb) in [((dx, fx), (dy, fy)), ((dy, fy), (dx, fx))]:
            low = bottleneck_distance(h0_barcode(fa), h0_barcode(fb))
            t = tripod_distance_r(fa, fb)
            high = 2 * gromov_hausdorff_ultrametrics(da, db)
            assert low <= t <= high, (nx, ny)
            strict += low < t
            past_gh += 2 * t > high
    # the chain is not read off equal values, and the factor of 2 is needed
    assert strict > 10 and past_gh > 10


def test_tripod_metric_properties():
    rng = random.Random(107)
    for _ in range(8):
        f, g, h = (rand_r_filtration(rng, ground(rng.randint(1, 3))) for _ in range(3))
        dfg, dgf = tripod_distance_r(f, g), tripod_distance_r(g, f)
        assert dfg == dgf
        assert tripod_distance_r(f, h) <= dfg + tripod_distance_r(g, h)


def test_h0_lower_bound():
    rng = random.Random(109)
    for _ in range(12):
        f = rand_r_filtration(rng, ground(rng.randint(1, 3)))
        g = rand_r_filtration(rng, ground(rng.randint(1, 3)))
        lower = bottleneck_distance(h0_barcode(f), h0_barcode(g))
        assert lower <= tripod_distance_r(f, g)


# --- interval-indexed tripod distance --------------------------------------------


def test_tripod_int_identity():
    rng = random.Random(113)
    f = rand_int_filtration(rng, ground(2))
    assert tripod_distance_int(f, f) == 0


def test_tripod_int_full_supports():
    f = IntFiltration(GroundSet(("a",)), {fs("a"): full()})
    g = IntFiltration(GroundSet(("b",)), {fs("b"): full()})
    assert tripod_distance_int(f, g) == 0


def derived_two_vertex_instance(delta=F(1)):
    """Two always-present vertices whose edge appears only on intervals
    reaching past +-delta, against an always-present single point."""
    g2 = GroundSet(("x1", "x2"))
    edge = staircase([(-delta, NEG_INF), (INF, delta)])
    f = IntFiltration(
        g2, {fs("x1"): full(), fs("x2"): full(), fs("x1", "x2"): edge}
    )
    pt = IntFiltration(GroundSet(("p",)), {fs("p"): full()})
    return f, pt, edge


def test_tripod_int_two_vertex_instance():
    f, pt, edge = derived_two_vertex_instance()
    assert tripod_distance_int(f, pt) == 1
    assert one_point_tripod(f, pt) == 1
    assert hausdorff(edge, full()) == 1


def test_one_point_tripod():
    f, pt, _ = derived_two_vertex_instance()
    assert one_point_tripod(pt, pt) == 0
    lonely = IntFiltration(
        GroundSet(("u", "v")), {fs("u"): full(), fs("v"): full()}
    )
    # the pair {u, v} has empty support against the full point support
    assert one_point_tripod(lonely, pt) == INF
    with pytest.raises(NotOnePoint):
        one_point_tripod(pt, lonely)


def test_tripod_int_matches_subset_enumeration_oracle():
    rng = random.Random(211)
    seen_inf = seen_finite = 0
    for _ in range(8):
        f = rand_int_filtration(rng, ground(rng.randint(1, 2)))
        g = rand_int_filtration(rng, ground(rng.randint(1, 2)))
        d = tripod_distance_int(f, g)
        assert d == oracle_tripod_int(f, g)
        if d == INF:
            seen_inf += 1
        else:
            seen_finite += 1
    assert seen_inf + seen_finite == 8


def test_tripod_int_with_triangles_matches_oracle_at_finite_values():
    """Pinned tails keep every pair of supports at finite distance, and
    2-simplices over the intersection of their edges' supports make unequal
    vertex counts comparable."""
    rng = random.Random(307)
    finite = 0
    for _ in range(8):
        f, g = (
            rand_int_filtration(rng, ground(rng.randint(1, n)), edge_prob=1.0,
                                tri_prob=0.7, pinned=True)
            for n in (3, 2)
        )
        assert validate_filtration(f) is None and validate_filtration(g) is None
        d = tripod_distance_int(f, g)
        assert d == oracle_tripod_int(f, g)
        finite += d != INF
    assert finite >= 5


def test_one_point_matches_general_route():
    rng = random.Random(127)
    pt = IntFiltration(GroundSet(("p",)), {fs("p"): full()})
    for _ in range(10):
        f = rand_int_filtration(rng, ground(rng.randint(1, 3)))
        assert one_point_tripod(f, pt) == tripod_distance_int(f, pt)


def one_point_tripod_by_subsets(f, g):
    """The worst support distance to the point over every nonempty vertex
    subset, stored or absent: 2^|X| Hausdorff calls."""
    star = support(g, Simplex(g.ground.elements))
    worst = F(0)
    for k in range(1, len(f.ground) + 1):
        for a in combinations(f.ground.elements, k):
            worst = max(worst, hausdorff(support(f, fs(*a)), star))
    return worst


def test_one_point_tripod_matches_subset_loop():
    rng = random.Random(149)
    seen = set()
    for _ in range(40):
        f = rand_int_filtration(
            rng, ground(rng.randint(1, 4)), edge_prob=rng.choice((0.5, 1.0)),
            tri_prob=rng.choice((0.0, 1.0)), pinned=rng.random() < 0.5,
        )
        g = rand_int_filtration(rng, ground(1), pinned=rng.random() < 0.5)
        d = one_point_tripod(f, g)
        assert d == one_point_tripod_by_subsets(f, g)
        seen.add(d == INF)
    assert seen == {False, True}
    # every subset stored: no absent (empty) support takes part
    f, pt, _ = derived_two_vertex_instance()
    assert len(f.supports) == 3
    assert one_point_tripod(f, pt) == one_point_tripod_by_subsets(f, pt) == 1


def test_one_point_tripod_on_many_vertices_reads_only_stored_simplices():
    g40 = ground(40)
    f = IntFiltration(g40, {fs(x): full() for x in g40.elements[:3]})
    pt = IntFiltration(GroundSet(("p",)), {fs("p"): full()})
    assert one_point_tripod(f, pt) == INF  # the absent vertices
    empty_pt = IntFiltration(GroundSet(("p",)), {})
    assert one_point_tripod(f, empty_pt) == INF  # the stored full supports


def test_int_encoding_matches_birth_formula():
    rng = random.Random(131)
    for _ in range(10):
        f = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=0.5)
        g = rand_r_filtration(rng, ground(rng.randint(1, 3)), edge_prob=0.5)
        assert tripod_distance_r(f, g) == tripod_distance_int(
            to_int_indexed(f), to_int_indexed(g)
        )


def test_support_of_absent_simplex_is_empty():
    f, pt, _ = derived_two_vertex_instance()
    assert support(f, fs("x1", "x2")) is not None
    assert support(pt, fs("p")).is_full()
    lonely = IntFiltration(GroundSet(("u",)), {})
    assert support(lonely, fs("u")).is_empty()


def test_support_lookup_builds_no_staircase(monkeypatch):
    f, _, _ = derived_two_vertex_instance()
    built = []
    init = Staircase.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Staircase, "__post_init__", counting_init)
    assert support(f, fs("x1", "x2")) is f.supports[fs("x1", "x2")]
    assert support(IntFiltration(GroundSet(("u",)), {}), fs("u")).is_empty()
    assert built == []


def covered_subset_pairs(rel):
    """(A, B) over all nonempty subsets A of X and B of Y whose restricted
    relation R & (A x B) still covers both."""

    def subsets(es):
        es = sorted(es)
        return [frozenset(c) for k in range(1, len(es) + 1) for c in combinations(es, k)]

    return {
        (a, b)
        for a in subsets({x for x, _ in rel})
        for b in subsets({y for _, y in rel})
        if all(any((x, y) in rel for y in b) for x in a)
        and all(any((x, y) in rel for x in a) for y in b)
    }


def test_realizable_pairs_are_the_covered_subset_pairs():
    """The images grown row by row, as the search grows them along a cover,
    and the twin's images of sub-relations, on every correspondence
    (minimal or not), against the subset-pair cover filter, up to 2 x 3 and
    3 x 2; each image is grown once."""
    for nx, ny in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]:
        x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
        for rel in enumerate_correspondences(x, y):
            covered = covered_subset_pairs(set(rel))
            grown = named(grown_items(_image_items, rows_of(rel, x, y)), x, y)
            assert set(grown) == covered
            assert len(grown) == len(set(grown))
            items = list(_realizable_pairs(rel))
            assert len(items) == len(set(items))
            assert set(items) == covered
