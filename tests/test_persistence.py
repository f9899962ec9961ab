"""Barcodes: rank, sublevel staircases, erosion, elder-rule H0, bottleneck."""

import random
import time

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
    interleaving_distance,
    rank,
    single_linkage,
    staircase,
    sublevel_staircase,
)
import stairdist.persistence as persistence
from stairdist.staircase import INT
from stairdist.persistence import _perfect_matching_exists
from stairdist.rat import is_finite
from conftest import (
    F,
    ground,
    rand_barcode,
    rand_fraction,
    rand_metric,
    rand_r_filtration,
    rand_tied_barcode,
)
from twins import (
    _deletion_cost,
    _match_cost,
    _pick,
    essential,
    oracle_bottleneck,
    oracle_erosion,
    oracle_erosion_direct,
)
from twins import rank_interleaved  # perfbench/referees.py reads it from this module


def _bottleneck_feasible(costs, dels1, dels2, eps):
    """Partial matching with per-pair cost <= eps and all unmatched bars
    deletable at cost <= eps, via the standard diagonal-augmented perfect
    matching.  costs[i][j] is the cost of matching bar i of the first
    barcode to bar j of the second; dels1 and dels2 are deletion costs."""
    n1, n2 = len(dels1), len(dels2)
    # left: bars of b1 then diagonal slots for b2; right: bars of b2 then
    # diagonal slots for b1
    adj = []
    for i, row_costs in enumerate(costs):
        row = [j for j, c in enumerate(row_costs) if c <= eps]
        if dels1[i] <= eps:
            row.append(n2 + i)
        adj.append(row)
    for j, d in enumerate(dels2):
        row = list(range(n2, n2 + n1))  # diagonal-to-diagonal is free
        if d <= eps:
            row.insert(0, j)
        adj.append(row)
    return _perfect_matching_exists(adj, n1 + n2)


def diagonal_candidates(b1, b2):
    """The finite candidate set: 0, every finite pair cost and every finite
    half-length, ascending, with the referee's costs and deletion costs."""
    costs = [[_match_cost(p, q) for q in b2] for p in b1]
    dels1 = [_deletion_cost(p) for p in b1]
    dels2 = [_deletion_cost(q) for q in b2]
    cands = {F(0)}
    cands.update(c for row in costs for c in row if is_finite(c))
    cands.update(c for c in dels1 + dels2 if is_finite(c))
    return sorted(cands), costs, dels1, dels2


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
    # any iterable of bars, read before n is capped at the bar count
    for n in (1, 7):
        got = sublevel_staircase(iter([(0, 1), (0, 2)]), n)
        assert got == sublevel_staircase(((0, 1), (0, 2)), n)


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


def test_strip_sweep_matches_grid_twin():
    rng = random.Random(71)
    for i in range(300):
        bars = rand_tied_barcode(rng, 7) if i % 2 else rand_barcode(rng, 6)
        levels = persistence._sublevels(barcode(bars), len(bars) + 2)
        for n in range(len(bars) + 2):
            twin = grid_sublevel(bars, n)
            assert levels[n] == twin.gens
            assert sublevel_staircase(bars, n).gens == twin.gens


def counting_sublevels(monkeypatch):
    """Record the length of every generator list that `_sublevels` returns."""
    built = []
    sublevels = persistence._sublevels

    def counting(bars, grades, first=0):
        levels = sublevels(bars, grades, first)
        built.extend(len(gens) for gens in levels)
        return levels

    monkeypatch.setattr(persistence, "_sublevels", counting)
    return built


def test_each_grade_has_at_most_one_generator_per_strip(monkeypatch):
    """Erosion sweeps one generator list per grade per barcode, of at most
    (distinct births + 1) generators; with unequal counts of infinite bars
    it answers INF and sweeps none.  The draws meet both cases, and more
    than 40 of them sweep."""
    built = counting_sublevels(monkeypatch)
    rng = random.Random(73)
    decided = 0
    for _ in range(160):
        b1, b2 = rand_tied_barcode(rng, 8), rand_tied_barcode(rng, 8)
        built.clear()
        got = erosion_distance(b1, b2)
        if essential(b1) != essential(b2):
            assert got == INF and built == []
            decided += 1
            continue
        grades = max(len(b1), len(b2))
        assert len(built) == 2 * grades
        strips1 = len({p for p, _ in b1}) + 1
        strips2 = len({p for p, _ in b2}) + 1
        assert all(k <= strips1 for k in built[:grades])
        assert all(k <= strips2 for k in built[grades:])
    assert 0 < decided < 160 - 40


def test_erosion_decides_unequal_infinite_counts_up_front(monkeypatch):
    """Erosion agrees with `oracle_erosion`.  With unequal counts of
    infinite bars it answers INF with no `_sublevels` call, and otherwise
    it sweeps each barcode once; the draws meet both cases."""
    swept = []
    sublevels = persistence._sublevels
    monkeypatch.setattr(persistence, "_sublevels", lambda *a: swept.append(a) or sublevels(*a))
    rng = random.Random(89)
    decided = 0
    for i in range(200):
        b1, b2 = (rand_tied_barcode(rng, 6) if i % 2 else rand_barcode(rng, 5) for _ in "12")
        swept.clear()
        got = erosion_distance(b1, b2)
        unequal = essential(b1) != essential(b2)
        assert len(swept) == (0 if unequal else 2)
        assert got == oracle_erosion(b1, b2)
        if unequal:
            assert got == INF
        decided += unequal
    assert 0 < decided < 200


def test_sublevel_staircase_builds_only_its_grade(monkeypatch):
    """One grade asked, one generator list swept, of at most (distinct
    births + 1) generators, at every grade of a 40-bar barcode and beyond
    it; it equals that grade of the all-grades sweep."""
    rng = random.Random(79)
    bars = barcode((b, b + rand_fraction(rng, lo=0, hi=6)) for b in
                   (rand_fraction(rng) for _ in range(40)))
    expected = persistence._sublevels(bars, 42)  # every grade, one sweep
    built = counting_sublevels(monkeypatch)
    strips = len({p for p, _ in bars}) + 1
    for n in range(42):
        built.clear()
        assert sublevel_staircase(bars, n).gens == expected[n]
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


def rand_mixed_barcode(rng, max_bars):
    """Bars with denominators 1-4 mixed, zero-length bars, tied births and
    deaths, and infinite deaths."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        p = F(rng.randint(-8, 8), rng.randint(1, 4))
        r = rng.random()
        if r < 0.2:
            bars.append((p, INF))
        elif r < 0.3:
            bars.append((p, p))
        else:
            bars.append((p, p + F(rng.randint(1, 12), rng.randint(1, 4))))
    if bars and rng.random() < 0.3:
        bars.append(rng.choice(bars))  # an exact tie
    return barcode(bars)


def test_reduced_feasibility_matches_diagonal_referee():
    """At every candidate eps of the finite candidate set, the essential
    check plus the two covering searches on B1 x B2 decide feasibility as
    the diagonal-augmented perfect matching does; the distance is the first
    feasible candidate, or INF when none is."""
    rng = random.Random(97)
    seen_inf = seen_mixed = 0
    for _ in range(300):
        b1, b2 = rand_mixed_barcode(rng, 6), rand_mixed_barcode(rng, 6)
        cands, costs, dels1, dels2 = diagonal_candidates(b1, b2)
        scale, (e1, f1), (e2, f2) = persistence._on_common_scale(b1, b2)
        ess = persistence._essential_cost(e1, e2)
        first = INF
        for eps in cands:
            scaled = eps * scale
            assert scaled.denominator == 1
            reduced = ess <= scaled and persistence._finite_feasible(f1, f2, int(scaled))
            assert reduced == _bottleneck_feasible(costs, dels1, dels2, eps), (b1, b2, eps)
            if reduced and first == INF:
                first = eps
        d = bottleneck_distance(b1, b2)
        assert d == first and type(d) is type(first)
        seen_inf += d == INF
        seen_mixed += len({x.denominator for bar in b1 + b2 for x in bar if is_finite(x)}) > 2
    assert seen_inf > 10 and seen_mixed > 100


def test_bottleneck_essential_bars():
    """Infinite bars match in sorted order of birth; unequal infinite
    counts are INF; int and raw-pair inputs answer as their Fraction
    forms."""
    rng = random.Random(101)
    for _ in range(100):
        k = rng.randint(0, 6)
        births1 = [rand_fraction(rng) for _ in range(k)]
        births2 = [rand_fraction(rng) for _ in range(k)]
        ess1 = [(b, INF) for b in births1]
        ess2 = [(b, INF) for b in births2]
        want = max(
            (abs(p - q) for p, q in zip(sorted(births1), sorted(births2))), default=F(0)
        )
        d = bottleneck_distance(ess1, ess2)  # raw and unsorted
        assert d == want and type(d) is F
        assert bottleneck_distance(barcode(ess1), barcode(ess2)) == want
        assert bottleneck_distance(ess1 + [(F(0), INF)], ess2) == INF
        assert bottleneck_distance(ess1, ess2 + [(F(0), INF)]) == INF

    for _ in range(100):
        raw1 = [(p, rng.choice((INF, p + rng.randint(0, 6))))
                for p in (rng.randint(-5, 5) for _ in range(rng.randint(0, 5)))]
        raw2 = [(p, rng.choice((INF, p + rng.randint(0, 6))))
                for p in (rng.randint(-5, 5) for _ in range(rng.randint(0, 5)))]
        frac1 = [(F(p), d if d == INF else F(d)) for p, d in raw1]
        frac2 = [(F(p), d if d == INF else F(d)) for p, d in raw2]
        d = bottleneck_distance(raw1, raw2)
        assert d == bottleneck_distance(barcode(frac1), barcode(frac2))
        assert type(d) is type(bottleneck_distance(barcode(frac1), barcode(frac2)))


def shifted_chain(rng, nbars, shift):
    """Bars of length 7 at spacing 2, jittered by eighths and moved right by
    ``shift``: every bar's cheapest partner in the other chain is its
    neighbour's, so augmenting paths run the whole chain."""
    starts = (2 * i + shift + F(rng.randint(0, 3), 8) for i in range(nbars))
    return barcode((b, b + 7) for b in starts)


def test_bottleneck_large_shifted_chains():
    """1500 bars a side return an exact answer, with no Python limit hit,
    in under 30 s."""
    rng = random.Random(1500)
    b1, b2 = shifted_chain(rng, 1500, F(0)), shifted_chain(rng, 1500, F(1))
    t0 = time.perf_counter()
    d = bottleneck_distance(b1, b2)
    elapsed = time.perf_counter() - t0
    assert type(d) is F and 0 < d <= F(7, 2)
    assert elapsed < 30, f"1500-bar bottleneck took {elapsed:.1f}s"


def test_bottleneck_growth_band():
    """Bottleneck cost on shifted chains grows no faster than c * n^2 (4x
    band): 400 bars must stay within 4 * (400 / 50)^2 times 50 bars."""
    rng = random.Random(1717)

    def batch_time(n):
        pairs = [(shifted_chain(rng, n, F(0)), shifted_chain(rng, n, F(1))) for _ in range(3)]
        best = INF
        for _ in range(3):
            t0 = time.perf_counter()
            for b1, b2 in pairs:
                bottleneck_distance(b1, b2)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = batch_time(50), batch_time(400)
    band = 4 * (400 / 50) ** 2 * small
    assert large <= band, f"400 bars took {large:.4f}s, band allows {band:.4f}s"


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
    # an infinite birth is refused, also where a distance reads raw pairs
    for bars in ([(-INF, F(1))], [(-INF, INF)], [(INF, INF)]):
        with pytest.raises(ValidationError):
            barcode(bars)
    with pytest.raises(ValidationError):
        bottleneck_distance(((-INF, 1),), ((0, 1),))
    with pytest.raises(ValidationError):
        erosion_distance(((-INF, 1),), ((0, 1),))


def test_h0_bottleneck_is_at_most_d_F_of_single_linkage():
    """bottleneck(h0(R1), h0(R2)) <= d_F(SL d1, SL d2), with R the
    1-skeleton filtration of d (each vertex born at 0, each edge at its
    dissimilarity) and SL `single_linkage`, at n = 2 to 12 and n = 40.
    Elder-rule H0 is a functor of the dendrogram: an eps-interleaving of
    the dendrograms eps-interleaves the H0 modules, whose interleaving
    distance is the bottleneck distance (isometry theorem; Chazal et al.,
    "Proximity of persistence modules and their diagrams", 2009).  Both
    sides use the sup norm on bar ends, and an unmatched bar costs half
    its length."""
    rng = random.Random(227)
    strict = 0
    for n in [*range(2, 13)] * 2 + [40] * 2:
        g = ground(n)
        d1, d2 = rand_metric(rng, g), rand_metric(rng, g)
        h0 = [h0_barcode(RFiltration(g, {
            **{frozenset({x}): 0 for x in g.elements},
            **{frozenset({g.elements[i], g.elements[j]}): d[i][j]
               for i in range(n) for j in range(i + 1, n)},
        })) for d in (d1, d2)]
        low = bottleneck_distance(*h0)
        d_F = interleaving_distance(single_linkage(g, d1), single_linkage(g, d2))
        assert low <= d_F, n
        strict += low < d_F
    assert strict > 10
