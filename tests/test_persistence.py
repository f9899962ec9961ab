"""Barcodes: rank, sublevel staircases, erosion, elder-rule H0, bottleneck."""

from fractions import Fraction
import random

import pytest

from stairdist import (
    EmptyInterval,
    GroundSet,
    INF,
    InvalidFiltration,
    RFiltration,
    barcode,
    bottleneck_distance,
    contains,
    erosion_distance,
    full,
    h0_barcode,
    hausdorff,
    rank,
    staircase,
    sublevel_staircase,
)
import stairdist.persistence as persistence
from stairdist.oracle import oracle_hausdorff
from stairdist.staircase import INT
from stairdist.persistence import _deletion_cost, _match_cost, _perfect_matching_exists
from conftest import rand_barcode, rand_fraction, rand_r_filtration, ground

F = Fraction


def oracle_erosion(b1, b2):
    """Per-grade Hausdorff distances through the candidate-scan oracle."""
    best = F(0)
    for n in range(max(len(b1), len(b2))):
        d = oracle_hausdorff(sublevel_staircase(b1, n), sublevel_staircase(b2, n))
        best = max(best, d)
    return best


def _pick(lo, hi):
    """Some rational strictly inside (lo, hi)."""
    if lo != -INF and hi != INF:
        return (lo + hi) / 2
    if lo != -INF:
        return lo + 1
    if hi != INF:
        return hi - 1
    return F(0)


def rank_interleaved(b1, b2, eps):
    """Direct interleaving of the two rank functions, no staircases: each
    rank at the eps-thickened interval must not exceed the other's rank at
    the original interval, for every interval.  Checked on cell interiors
    of the grid refined by all endpoints and their eps-shifts."""
    a_coords = sorted(
        {p for p, _ in b1 + b2} | {p + eps for p, _ in b1 + b2} | {-INF, INF}
    )
    b_coords = sorted(
        {q for _, q in b1 + b2 if q != INF}
        | {q - eps for _, q in b1 + b2 if q != INF}
        | {-INF, INF}
    )
    for alo, ahi in zip(a_coords, a_coords[1:]):
        for blo, bhi in zip(b_coords, b_coords[1:]):
            if not alo < bhi:
                continue
            a = _pick(alo, min(ahi, bhi))
            b = _pick(max(blo, a), bhi)
            if rank(b2, a - eps, b + eps) > rank(b1, a, b):
                return False
            if rank(b1, a - eps, b + eps) > rank(b2, a, b):
                return False
    return True


def oracle_erosion_direct(b1, b2):
    """Erosion via the defining rank-interleaving predicate over the
    candidate set of endpoint differences and their halves."""
    from stairdist.oracle import candidate_epsilons, first_admissible

    coords = [p for p, _ in b1 + b2] + [q for _, q in b1 + b2 if q != INF]
    cands = candidate_epsilons(coords)
    return first_admissible(cands, lambda e: rank_interleaved(b1, b2, e))


def oracle_bottleneck(b1, b2):
    """Minimum over all partial matchings of the worst per-bar cost."""
    best = INF

    def rec(i, used, cost):
        nonlocal best
        if cost >= best:
            return
        if i == len(b1):
            total = cost
            for j, q in enumerate(b2):
                if j not in used:
                    total = max(total, _deletion_cost(q))
                    if total >= best:
                        return
            best = min(best, total)
            return
        rec(i + 1, used, max(cost, _deletion_cost(b1[i])))
        for j, q in enumerate(b2):
            if j not in used:
                rec(i + 1, used | {j}, max(cost, _match_cost(b1[i], q)))

    rec(0, frozenset(), F(0))
    return best


# --- rank ------------------------------------------------------------------


def test_rank_examples():
    assert rank((), F(0), F(1)) == 0
    one = barcode([(F(0), F(2))])
    assert rank(one, F(0), F(2)) == 1
    assert rank(one, F(-1), F(2)) == 0
    two = barcode([(F(0), F(2)), (F(0), F(2))])
    assert rank(two, F(1), F(2)) == 2
    with pytest.raises(EmptyInterval):
        rank(one, F(1), F(1))


def test_rank_infinite_death():
    b = barcode([(F(0), INF)])
    assert rank(b, F(5), F(100)) == 1


# --- sublevel staircases -----------------------------------------------------


def test_sublevel_examples():
    assert hausdorff(sublevel_staircase((), 0), full()) == 0
    one = barcode([(F(1), F(4))])
    assert sublevel_staircase(one, 0).gens == ((F(1), -INF), (INF, F(4)))
    assert hausdorff(sublevel_staircase(one, 1), full()) == 0
    assert hausdorff(sublevel_staircase(one, 7), full()) == 0


def test_sublevel_agrees_with_pointwise_rank():
    rng = random.Random(61)
    for _ in range(30):
        bars = rand_barcode(rng)
        n = rng.randint(0, max(1, len(bars)))
        u = sublevel_staircase(bars, n)
        for _ in range(20):
            a = rand_fraction(rng, dens=(7,))
            b = a + abs(rand_fraction(rng, lo=1, hi=8, dens=(11,)))
            # denominators 7/11 keep samples off every grid line
            assert contains(u, (a, b)) == (rank(bars, a, b) <= n)


# --- erosion -------------------------------------------------------------------


def test_erosion_examples():
    b1 = barcode([(F(0), F(2))])
    b2 = barcode([(F(1), F(3))])
    assert erosion_distance(b1, b1) == 0
    assert erosion_distance(b1, b2) == 1 == oracle_erosion(b1, b2)
    p, q = F(1), F(4)
    single = barcode([(p, q)])
    assert erosion_distance((), single) == (q - p) / 2 == oracle_erosion((), single)


def test_erosion_matches_direct_rank_interleaving():
    """Dual route with no shared machinery: the staircase-decomposed
    erosion equals the candidate scan of the literal rank-function
    interleaving predicate."""
    rng = random.Random(211)
    seen_inf = seen_finite = 0
    for _ in range(60):
        b1, b2 = rand_barcode(rng, 4), rand_barcode(rng, 4)
        d = erosion_distance(b1, b2)
        assert d == oracle_erosion_direct(b1, b2)
        if d == INF:
            seen_inf += 1
        elif d > 0:
            seen_finite += 1
    assert seen_inf > 0 and seen_finite > 10


def grid_sublevel(bars, n):
    """The n-th sublevel staircase cell by cell: on the grid refined by all
    births (a-axis) and finite deaths (b-axis) the rank is constant on each
    open cell meeting a < b, and every cell of rank <= n offers its
    upper-left corner."""
    acoords = [-INF] + sorted({p for p, _ in bars}) + [INF]
    bcoords = [-INF] + sorted({q for _, q in bars if q != INF}) + [INF]
    corners = []
    for alo, ahi in zip(acoords, acoords[1:]):
        for blo, bhi in zip(bcoords, bcoords[1:]):
            if not alo < bhi:  # cell misses the a < b half-plane
                continue
            a = _pick(alo, min(ahi, bhi))
            b = _pick(max(blo, a), bhi)
            if rank(bars, a, b) <= n:
                corners.append((ahi, blo))
    return staircase(corners, INT)


def rand_tied_barcode(rng, max_bars):
    """Bars on a coarse grid: tied births and deaths, zero-length bars and
    infinite deaths, in no particular order."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        p = F(rng.randint(-3, 3), rng.choice((1, 2)))
        r = rng.random()
        bars.append((p, INF if r < 0.2 else p if r < 0.3 else p + rng.randint(1, 4)))
    return tuple(bars)


def test_strip_sweep_matches_grid_twin():
    rng = random.Random(71)
    for i in range(300):
        bars = rand_tied_barcode(rng, 7) if i % 2 else rand_barcode(rng, 6)
        levels = persistence._sublevels(bars, len(bars) + 2)
        for n in range(len(bars) + 2):
            twin = grid_sublevel(bars, n)
            assert levels[n].gens == twin.gens
            assert sublevel_staircase(bars, n).gens == twin.gens


def test_each_grade_has_at_most_one_generator_per_strip(monkeypatch):
    """Erosion builds one staircase per grade per barcode, from at most
    (distinct births + 1) generators."""
    built = []

    def counting_staircase(gens, ambient):
        gens = list(gens)
        built.append(len(gens))
        return staircase(gens, ambient)

    monkeypatch.setattr(persistence, "staircase", counting_staircase)
    rng = random.Random(73)
    for _ in range(40):
        b1, b2 = rand_tied_barcode(rng, 8), rand_tied_barcode(rng, 8)
        built.clear()
        erosion_distance(b1, b2)
        grades = max(len(b1), len(b2))
        assert len(built) == 2 * grades
        strips1 = len({p for p, _ in b1}) + 1
        strips2 = len({p for p, _ in b2}) + 1
        assert all(k <= strips1 for k in built[:grades])
        assert all(k <= strips2 for k in built[grades:])


def test_sublevel_staircase_builds_only_its_grade(monkeypatch):
    """One grade asked, one staircase built, from at most (distinct births
    + 1) generators, at every grade of a 40-bar barcode and beyond it; it
    equals that grade of the all-grades sweep."""
    built = []

    def counting_staircase(gens, ambient):
        gens = list(gens)
        built.append(len(gens))
        return staircase(gens, ambient)

    rng = random.Random(79)
    bars = barcode((b, b + rand_fraction(rng, lo=0, hi=6)) for b in
                   (rand_fraction(rng) for _ in range(40)))
    expected = persistence._sublevels(bars, 42)  # every grade, one sweep
    monkeypatch.setattr(persistence, "staircase", counting_staircase)
    strips = len({p for p, _ in bars}) + 1
    for n in range(42):
        built.clear()
        assert sublevel_staircase(bars, n) == expected[n]
        assert len(built) == 1 and built[0] <= strips


def test_erosion_is_extended_pseudometric():
    rng = random.Random(67)
    for _ in range(25):
        a, b, c = (rand_barcode(rng, 4) for _ in range(3))
        assert erosion_distance(a, a) == 0
        assert erosion_distance(a, b) == erosion_distance(b, a)
        assert erosion_distance(a, c) <= erosion_distance(a, b) + erosion_distance(b, c)


def test_erosion_can_vanish_on_distinct_barcodes():
    # same rank function, different multisets is impossible for closed bars,
    # but reordering/duplicated data must not matter
    b = barcode([(F(0), F(2)), (F(0), F(2))])
    assert erosion_distance(b, barcode(reversed(list(b)))) == 0


def test_erosion_infinite_on_unbounded_mismatch():
    assert erosion_distance(barcode([(F(0), INF)]), ()) == INF


# --- H0 --------------------------------------------------------------------------


def vertex_edge_filtration(births, edges):
    names = sorted(births)
    g = GroundSet(tuple(names))
    simplices = {frozenset({v}): births[v] for v in names}
    for (u, v), t in edges.items():
        simplices[frozenset({u, v})] = t
    return RFiltration(g, simplices)


def test_h0_examples():
    f = vertex_edge_filtration({"a": F(0)}, {})
    assert h0_barcode(f) == barcode([(F(0), INF)])
    f = vertex_edge_filtration({"a": F(0), "b": F(0)}, {("a", "b"): F(1)})
    assert h0_barcode(f) == barcode([(F(0), F(1)), (F(0), INF)])
    f = vertex_edge_filtration(
        {"a": F(0), "b": F(0), "c": F(0)},
        {("a", "b"): F(1), ("b", "c"): F(2)},
    )
    assert h0_barcode(f) == barcode([(F(0), F(1)), (F(0), F(2)), (F(0), INF)])


def test_h0_elder_rule_tie_break_deterministic():
    f1 = vertex_edge_filtration(
        {"a": F(0), "b": F(0)}, {("a", "b"): F(2)}
    )
    f2 = RFiltration(
        f1.ground,
        dict(reversed(list(f1.births.items()))),
    )
    assert h0_barcode(f1) == h0_barcode(f2)


def test_h0_rejects_invalid():
    g = GroundSet(("a", "b"))
    bad = RFiltration(g, {frozenset({"a", "b"}): F(0), frozenset({"a"}): F(1),
                          frozenset({"b"}): F(0)})
    with pytest.raises(InvalidFiltration):
        h0_barcode(bad)


def test_h0_component_count_matches_union_find(monkeypatch=None):
    rng = random.Random(71)
    for _ in range(20):
        f = rand_r_filtration(rng, ground(rng.randint(1, 5)))
        bars = h0_barcode(f)
        names = f.ground.elements
        # brute count of components in the final graph
        parent = {v: v for v in names}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for s in f.births:
            if len(s) == 2:
                u, v = sorted(s)
                parent[find(u)] = find(v)
        comps = len({find(v) for v in names})
        assert sum(1 for _, d in bars if d == INF) == comps
        assert len(bars) == len(names)  # every vertex creates exactly one bar


# --- bottleneck --------------------------------------------------------------------


def test_bottleneck_examples():
    b1 = barcode([(F(0), F(2))])
    b2 = barcode([(F(1), F(3))])
    assert bottleneck_distance(b1, b1) == 0
    assert bottleneck_distance(b1, b2) == 1
    assert bottleneck_distance(
        barcode([(F(0), INF)]), barcode([(F(3), INF)])
    ) == 3
    assert bottleneck_distance(barcode([(F(0), INF)]), ()) == INF
    assert bottleneck_distance(b1, ()) == 1  # deletion at half-length


def test_bottleneck_matches_brute_force():
    rng = random.Random(73)
    seen_inf = 0
    for _ in range(60):
        b1, b2 = rand_barcode(rng, 4), rand_barcode(rng, 4)
        d = bottleneck_distance(b1, b2)
        if d == INF:
            seen_inf += 1
        assert d == oracle_bottleneck(b1, b2)
    assert seen_inf > 0


def test_matching_survives_long_augmenting_paths():
    """The last left node's only right is taken, and freeing it shifts every
    earlier match by one: a 5000-step augmenting path, which recursion
    could not follow."""
    n = 5000
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    assert _perfect_matching_exists(adj, n)
    assert not _perfect_matching_exists(adj + [[n - 1]], n)


def test_erosion_below_bottleneck():
    rng = random.Random(79)
    for _ in range(40):
        b1, b2 = rand_barcode(rng), rand_barcode(rng)
        assert erosion_distance(b1, b2) <= bottleneck_distance(b1, b2)


def test_barcode_validation():
    from stairdist import ValidationError

    with pytest.raises(ValidationError):
        barcode([(F(2), F(1))])
    assert barcode([(F(1), F(1))]) == ((F(1), F(1)),)  # zero-length is fine
