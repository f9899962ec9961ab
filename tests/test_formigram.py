"""Formigrams: loop example, smoothing flow, cosheaf code, SLHC, dendrograms."""

from fractions import Fraction
import random
import time

import pytest
from hypothesis import given, strategies as st

from stairdist import (
    Formigram,
    GroundSet,
    GroundSetMismatch,
    INF,
    InvalidMetric,
    NEG_INF,
    NegativeEpsilon,
    NotADendrogram,
    SubPartition,
    Surjection,
    ValidationError,
    cosheaf_code,
    evaluate_cosheaf,
    formigrams_equal,
    hausdorff,
    interleaving_distance,
    is_dendrogram,
    normalized,
    pointwise_refines,
    pullback_formigram,
    single_linkage,
    smooth,
    staircase,
    ultrametric,
    validate,
)
from stairdist.formigram import CosheafTable, all_pair_keys
from stairdist.lattice import find
from stairdist.oracle import reconstruct
from conftest import (
    ground,
    rand_dendrogram,
    rand_formigram,
    rand_formigram_pair,
    rand_fraction,
    rand_metric,
    rand_subpartition,
)

F = Fraction
DELTA = F(3, 2)
XY = GroundSet(("x", "y"))
MERGED = SubPartition(XY, (("x", "y"),))
SPLIT = SubPartition(XY, (("x",), ("y",)))

THETA = Formigram.constant(MERGED)
THETA_PRIME = Formigram(XY, (-DELTA, DELTA), (MERGED, MERGED, SPLIT, MERGED, MERGED))


def fs(*xs):
    return frozenset(xs)


# --- validation / evaluation ---------------------------------------------------


def test_validate_examples():
    assert validate(THETA) is None
    assert validate(THETA_PRIME) is None
    bad = Formigram(XY, (-DELTA, DELTA), (MERGED, SPLIT, SPLIT, MERGED, MERGED))
    msg = validate(bad)
    assert msg is not None and "#0" in msg


def test_evaluate_examples():
    assert THETA_PRIME.evaluate(F(0)) == SPLIT
    assert THETA_PRIME.evaluate(DELTA) == MERGED
    assert THETA_PRIME.evaluate(-DELTA) == MERGED
    assert THETA_PRIME.evaluate(F(100)) == MERGED
    assert THETA.evaluate(F(-37)) == MERGED


def test_structural_validation():
    with pytest.raises(Exception):
        Formigram(XY, (F(1), F(1)), (MERGED,) * 5)  # not strictly increasing
    with pytest.raises(Exception):
        Formigram(XY, (F(1),), (MERGED,))  # wrong value count


# --- smoothing -----------------------------------------------------------------


def test_smooth_loop_facts():
    assert smooth(THETA_PRIME, F(0)) is THETA_PRIME
    for eps in (F(1, 2), F(1), DELTA - F(1, 100)):
        assert smooth(THETA_PRIME, eps).evaluate(F(0)) == SPLIT
    assert formigrams_equal(smooth(THETA_PRIME, DELTA), THETA)
    assert formigrams_equal(smooth(THETA_PRIME, DELTA + F(5)), THETA)
    with pytest.raises(NegativeEpsilon):
        smooth(THETA, F(-1))
    for f in (THETA, THETA_PRIME):
        with pytest.raises(ValidationError, match="eps"):
            smooth(f, INF)


def test_smooth_critical_points_shift():
    eps = F(1, 3)
    out = smooth(THETA_PRIME, eps)
    allowed = {t + d for t in THETA_PRIME.crit for d in (eps, -eps)}
    assert set(out.crit) <= allowed


@given(st.integers(0, 10**6), st.fractions(0, 3, max_denominator=6),
       st.fractions(0, 3, max_denominator=6))
def test_smooth_is_a_flow(seed, a, b):
    rng = random.Random(seed)
    f = rand_formigram(rng, ground(3), max_crit=3)
    assert validate(f) is None
    sa = smooth(f, a)
    assert validate(sa) is None
    assert formigrams_equal(smooth(sa, b), smooth(f, a + b))
    assert pointwise_refines(f, sa)


def pointwise_join(f1, f2):
    """The pointwise join of two formigrams over the merged critical set."""
    crits = sorted(set(f1.crit) | set(f2.crit))

    def at(t):
        return f1.evaluate(t).join(f2.evaluate(t))

    if not crits:
        return Formigram(f1.ground, (), (at(F(0)),))
    values = [at(crits[0] - 1)]
    for k, c in enumerate(crits):
        values.append(at(c))
        mid = (c + crits[k + 1]) / 2 if k + 1 < len(crits) else c + 1
        values.append(at(mid))
    return Formigram(f1.ground, tuple(crits), tuple(values))


@given(st.integers(0, 10**6), st.fractions(0, 3, max_denominator=6))
def test_smooth_monotone(seed, eps):
    rng = random.Random(seed)
    g = ground(3)
    f1 = rand_formigram(rng, g, max_crit=3)
    f2 = rand_formigram(rng, g, max_crit=3)
    lifted = pointwise_join(f1, f2)
    assert pointwise_refines(f1, lifted)
    assert pointwise_refines(smooth(f1, eps), smooth(lifted, eps))


def test_smooth_distance_bound():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_formigram(rng, ground(3), max_crit=4)
        eps = F(rng.randint(0, 8), 4)
        assert interleaving_distance(f, smooth(f, eps)) <= eps


# --- cosheaf table / evaluation -------------------------------------------------


def test_cosheaf_table_constant():
    t = CosheafTable(THETA)
    assert t.num_pieces == 1
    assert t.cell(0, 0) == MERGED


def test_cosheaf_table_loop():
    t = CosheafTable(THETA_PRIME)
    assert t.cell(2, 2) == SPLIT  # the open middle piece alone
    assert t.cell(1, 2) == MERGED  # touching the left critical point
    assert t.cell(0, 4) == MERGED  # full range
    assert t.cell(0, t.num_pieces - 1) == THETA_PRIME.values[0].join(
        THETA_PRIME.values[2]
    ).join(THETA_PRIME.values[4])


def test_evaluate_cosheaf_examples():
    assert evaluate_cosheaf(THETA_PRIME, (F(-1), F(1))) == SPLIT
    assert evaluate_cosheaf(THETA_PRIME, (-2 * DELTA, F(0))) == MERGED
    assert evaluate_cosheaf(THETA_PRIME, (F(-100), F(100))) == MERGED
    assert evaluate_cosheaf(THETA, (F(0), F(1, 10))) == MERGED
    from stairdist import EmptyInterval

    with pytest.raises(EmptyInterval):
        evaluate_cosheaf(THETA, (F(1), F(1)))


def test_evaluate_cosheaf_open_interval_excludes_endpoints():
    # (a, b) with a at a critical point must not see the point value
    f = Formigram(XY, (F(0),), (SPLIT, MERGED, SPLIT))
    assert evaluate_cosheaf(f, (F(0), F(1))) == SPLIT
    assert evaluate_cosheaf(f, (F(-1), F(0))) == SPLIT
    assert evaluate_cosheaf(f, (F(-1), F(1, 100))) == MERGED


# --- cosheaf code ---------------------------------------------------------------


def test_evaluate_cosheaf_with_precomputed_table():
    rng = random.Random(223)
    for _ in range(10):
        f = rand_formigram(rng, ground(3), max_crit=4)
        table = CosheafTable(f)
        for _ in range(8):
            a = F(rng.randint(-30, 30), 7)
            b = a + F(rng.randint(1, 20), 7)
            # the run of pieces the open interval meets: odd (critical point)
            # end pieces are not inside (a, b)
            i, j = f._piece_of(a), f._piece_of(b)
            i, j = i + i % 2, j - j % 2
            assert table.cell(i, j) == evaluate_cosheaf(f, (a, b))


def _reach_left(f, i):
    """Largest a-coordinate (closed) of intervals whose first piece is <= i."""
    if i % 2 == 1:
        return f.crit[(i - 1) // 2]
    k = i // 2
    return f.crit[k] if k < len(f.crit) else INF


def _reach_right(f, j):
    """Smallest b-coordinate (closed) of intervals whose last piece is >= j."""
    if j % 2 == 1:
        return f.crit[(j - 1) // 2]
    k = j // 2
    return f.crit[k - 1] if k >= 1 else NEG_INF


def referee_cosheaf_code(f):
    """The run-join-table sweep: for each key, a monotone two-pointer walk
    over the table cells finds the first run i..j from each start piece i
    that merges the pair."""
    table = CosheafTable(f)
    p = f.num_pieces
    out = {}
    for key in all_pair_keys(f.ground):
        x, y = (min(key), max(key))  # a singleton key: same_block(x, x) is x in cell
        gens = []
        j = 0
        for i in range(p):
            if j < i:
                j = i
            while j < p and not table.cell(i, j).same_block(x, y):
                j += 1
            if j == p:
                break
            gens.append((_reach_left(f, i), _reach_right(f, j)))
        out[key] = staircase(gens)
    return out


def test_cosheaf_code_matches_table_sweep():
    """The one-pass cosheaf code equals, key by key and in key order, the
    sweep over the run-join table that it replaced, on constant
    formigrams, empty unbounded pieces and absent elements included."""
    rng = random.Random(229)
    seen = {"constant": 0, "empty outer": 0, "absent element": 0}
    for _ in range(150):
        g = ground(rng.randint(1, 5))
        f = rand_formigram(rng, g, max_crit=rng.choice((0, 2, 5)))
        if rng.random() < 0.3:  # an empty unbounded piece
            values = list(f.values)
            values[rng.choice((0, -1))] = SubPartition.empty(g)
            f = Formigram(g, f.crit, tuple(values))
        code, expected = cosheaf_code(f), referee_cosheaf_code(f)
        assert list(code) == list(expected)
        for key in code:
            assert code[key].gens == expected[key].gens, (f, key)
        seen["constant"] += not f.crit
        seen["empty outer"] += not (f.values[0].blocks and f.values[-1].blocks)
        seen["absent element"] += any(code[fs(x)].is_empty() for x in g)
    assert min(seen.values()) >= 10, seen


def test_cosheaf_code_growth_band():
    """Cosheaf code cost grows no faster than c * n m (n + m) (4x band) for
    n elements and m critical points: the unit is the build at (10, 10);
    (10, 40) and (40, 10) must stay within 4 * unit * n m (n + m), 40x the
    base at both.  Growth cubic in n or in m would be 64x and fail."""
    rng = random.Random(1414)

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
            cosheaf_code(f)
            best = min(best, time.perf_counter() - t0)
        return best

    unit = build_time(10, 10) / (10 * 10 * 20)
    for n, m in ((10, 40), (40, 10)):
        t = build_time(n, m)
        band = 4 * unit * n * m * (n + m)
        assert t <= band, (
            f"cosheaf code at (n={n}, m={m}) took {t:.4f}s, band allows {band:.4f}s"
        )


def test_cosheaf_code_constant_full():
    code = cosheaf_code(THETA)
    assert code[fs("x", "y")].is_full()
    assert code[fs("x")].is_full()


def test_cosheaf_code_loop():
    code = cosheaf_code(THETA_PRIME)
    assert code[fs("x", "y")].gens == ((-DELTA, NEG_INF), (INF, DELTA))
    # always-present singleton staircases cover everything
    for key in (fs("x"), fs("y")):
        assert hausdorff(code[key], staircase([(INF, NEG_INF)])) == 0


def test_cosheaf_code_absent_pair_empty():
    code = cosheaf_code(Formigram.constant(SPLIT))
    assert code[fs("x", "y")].is_empty()
    assert code[fs("x")].is_full()


# --- interleaving distance -------------------------------------------------------


def test_interleaving_distance_loop():
    assert interleaving_distance(THETA, THETA_PRIME) == DELTA
    assert interleaving_distance(THETA, THETA) == 0
    assert interleaving_distance(THETA_PRIME, THETA_PRIME) == 0


def test_interleaving_distance_infinite():
    late = Formigram(XY, (F(0), F(1)), (SPLIT, MERGED, MERGED, MERGED, SPLIT))
    assert interleaving_distance(THETA, late) == INF


def test_interleaving_distance_ground_mismatch():
    other = Formigram.constant(SubPartition(ground(2), (("a", "b"),)))
    with pytest.raises(GroundSetMismatch):
        interleaving_distance(THETA, other)


def test_interleaving_distance_is_extended_metric():
    rng = random.Random(219)
    for _ in range(20):
        g = ground(rng.randint(1, 3))
        f1, _ = rand_formigram_pair(rng, g, max_crit=3)
        f2, f3 = rand_formigram_pair(rng, g, max_crit=3)
        d12 = interleaving_distance(f1, f2)
        assert d12 == interleaving_distance(f2, f1)
        assert interleaving_distance(f1, f3) <= d12 + interleaving_distance(f2, f3)
        assert interleaving_distance(f1, f1) == 0


def test_distance_zero_implies_equal():
    rng = random.Random(41)
    positives = 0
    for _ in range(40):
        g = ground(3)
        f1 = rand_formigram(rng, g, max_crit=3)
        f2 = rand_formigram(rng, g, max_crit=3)
        d = interleaving_distance(f1, f2)
        if d == 0:
            assert formigrams_equal(f1, f2)
        if not formigrams_equal(f1, f2):
            assert d > 0
            positives += 1
    assert positives > 0


def test_reconstruction_from_code():
    rng = random.Random(43)
    for _ in range(30):
        g = ground(rng.randint(1, 4))
        f = rand_formigram(rng, g, max_crit=4)
        code = cosheaf_code(f)
        # sample open intervals with endpoints away from every critical value
        for _ in range(5):
            a = rand_fraction_noncritical(rng, f)
            b = a + F(rng.randint(1, 8), 7)
            while b in f.crit:
                b += F(1, 7)
            assert reconstruct(code, g, (a, b)) == evaluate_cosheaf(f, (a, b))


def rand_fraction_noncritical(rng, f):
    while True:
        x = F(rng.randint(-40, 40), 7)
        if x not in f.crit:
            return x


# --- single linkage / dendrograms / ultrametrics ---------------------------------


def test_single_linkage_one_point():
    g = GroundSet(("p",))
    f = single_linkage(g, [[F(0)]])
    assert is_dendrogram(f) is None
    assert f.evaluate(F(0)) == SubPartition.one_block(g)
    assert f.evaluate(F(-1, 2)) == SubPartition.empty(g)


def test_single_linkage_two_points():
    f = single_linkage(XY, [[F(0), F(2)], [F(2), F(0)]])
    assert f.evaluate(F(1)) == SPLIT
    assert f.evaluate(F(2)) == MERGED
    assert f.evaluate(F(3)) == MERGED
    u = ultrametric(f)
    assert u("x", "y") == 2 and u("x", "x") == 0


def test_single_linkage_chaining():
    g = GroundSet(("a", "b", "c"))
    d = [[F(0), F(1), F(5)], [F(1), F(0), F(2)], [F(5), F(2), F(0)]]
    f = single_linkage(g, d)
    assert is_dendrogram(f) is None
    u = ultrametric(f)
    assert u("a", "b") == 1
    assert u("b", "c") == 2
    assert u("a", "c") == 2  # chaining, not the direct distance 5
    assert u.violations() == []


def test_single_linkage_matches_brute_transitive_closure():
    rng = random.Random(47)
    for _ in range(25):
        g = ground(rng.randint(1, 5))
        d = rand_metric(rng, g)
        f = single_linkage(g, d)
        assert is_dendrogram(f) is None
        u = ultrametric(f)
        assert u.violations() == []
        n = len(g)
        for i in range(n):
            for j in range(n):
                x, y = g.elements[i], g.elements[j]
                assert u(x, y) == brute_merge_time(d, i, j)


def single_linkage_rescan(ground_set, d):
    """Reference single linkage: at every distinct distance t, rescan all
    pairs and unite those at distance <= t; emit the partition when t
    merged anything."""
    n = len(ground_set)
    thresholds = sorted({d[i][j] for i in range(n) for j in range(i + 1, n)})
    parent = list(range(n))
    crit = [F(0)]
    start = SubPartition.singletons(ground_set)
    values = [SubPartition.empty(ground_set), start, start]
    for t in thresholds:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                if d[i][j] <= t:
                    ri, rj = find(parent, i), find(parent, j)
                    if ri != rj:
                        parent[ri] = rj
                        changed = True
        if changed:
            part = SubPartition.from_forest(ground_set, parent, range(n))
            crit.append(t)
            values.extend((part, part))
    return Formigram(ground_set, tuple(crit), tuple(values))


def test_single_linkage_matches_rescan_with_ties():
    rng = random.Random(53)
    for _ in range(60):
        g = ground(rng.randint(1, 8))
        n = len(g)
        d = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                # few distinct values, so most thresholds carry tied edges
                d[i][j] = d[j][i] = F(rng.randint(1, 4), rng.choice((1, 2)))
        f, ref = single_linkage(g, d), single_linkage_rescan(g, d)
        assert (f.crit, f.values) == (ref.crit, ref.values)


def brute_merge_time(d, i, j):
    n = len(d)
    candidates = sorted({d[a][b] for a in range(n) for b in range(n)})
    for t in candidates:
        seen, stack = {i}, [i]
        while stack:
            cur = stack.pop()
            for nxt in range(n):
                if nxt not in seen and d[cur][nxt] <= t:
                    seen.add(nxt)
                    stack.append(nxt)
        if j in seen:
            return t
    raise AssertionError("never merged")


def test_invalid_metrics():
    with pytest.raises(InvalidMetric):
        single_linkage(XY, [[F(0), F(1)], [F(2), F(0)]])  # asymmetric
    with pytest.raises(InvalidMetric):
        single_linkage(XY, [[F(1), F(1)], [F(1), F(0)]])  # nonzero diagonal
    with pytest.raises(InvalidMetric):
        single_linkage(XY, [[F(0), F(0)], [F(0), F(0)]])  # zero off-diagonal


def test_ultrametric_requires_dendrogram():
    with pytest.raises(NotADendrogram):
        ultrametric(THETA_PRIME)


def ultrametric_scan(f):
    """Reference merge times: for every pair, scan the critical points in
    order for the first point value in which the pair shares a block."""
    n = len(f.ground)
    entries = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x, y = f.ground.elements[i], f.ground.elements[j]
            for k, t in enumerate(f.crit):
                if f.values[2 * k + 1].same_block(x, y):
                    entries[i][j] = entries[j][i] = t
                    break
            else:
                raise AssertionError(f"{x} and {y} never merge")
    return tuple([tuple(row) for row in entries])


def has_idle_crit(f):
    return any(f.values[2 * k] == f.values[2 * k + 1] for k in range(1, len(f.crit)))


def test_ultrametric_matches_same_block_scan():
    """The one-union-find walk against the scan, entry by entry, on tied
    metrics, on metrics with pairwise coprime denominators and on
    dendrograms built directly, with idle critical points."""
    rng = random.Random(59)
    seen = {"tied": 0, "coprime": 0, "built": 0, "idle": 0}
    for _ in range(150):
        g = ground(rng.randint(1, 6))
        n = len(g)
        kind = rng.choice(("tied", "coprime", "built"))
        if kind == "built":
            f = rand_dendrogram(rng, g, dens=rng.choice(((1, 2), (3, 7, 11, 13))))
        else:
            d = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = (
                        F(rng.randint(1, 3), rng.choice((1, 2))) if kind == "tied"
                        else rand_fraction(rng, lo=1, hi=4, dens=(3, 7, 11, 13))
                    )
            f = single_linkage(g, d)
        u = ultrametric(f)
        assert u.entries == ultrametric_scan(f), f
        assert all(type(x) is Fraction for row in u.entries for x in row)
        seen[kind] += 1
        seen["idle"] += has_idle_crit(f)
    assert min(seen.values()) >= 10, seen


def test_ultrametric_trusts_its_own_matrix(monkeypatch):
    """`ultrametric` sends no entry back through `rat`, and its result
    equals the constructor's over the scan's matrix, Fraction entries
    included."""
    from stairdist import formigram
    from stairdist.formigram import Ultrametric

    rng = random.Random(61)
    fs_ = [single_linkage(g, rand_metric(rng, g)) for g in (ground(n) for n in range(1, 7))]
    read = []
    monkeypatch.setattr(formigram, "rat", lambda x: read.append(x) or x)
    us = [ultrametric(f) for f in fs_]
    assert read == []
    monkeypatch.undo()
    for f, u in zip(fs_, us):
        assert all(type(x) is Fraction for row in u.entries for x in row)
        assert u.entries == ultrametric_scan(f)
        assert u == Ultrametric(f.ground, ultrametric_scan(f))


def test_ultrametric_idle_critical_points():
    g = GroundSet(("a", "b", "c"))
    apart = SubPartition.singletons(g)
    ab = SubPartition(g, (("a", "b"), ("c",)))
    one = SubPartition.one_block(g)
    values = (SubPartition.empty(g), apart, apart, apart, apart, ab, ab, ab, ab, one, one)
    f = Formigram(g, (F(0), F(1, 3), F(3, 7), F(5, 11), F(1)), values)
    u = ultrametric(f)
    assert u.entries == ultrametric_scan(f)
    assert u("a", "b") == F(3, 7) and u("a", "c") == u("b", "c") == F(1)


def test_ultrametric_growth_band(monkeypatch):
    """The walk makes no `same_block` call and one `find` per block member
    of each point value: at most 2 (m n + n^2) calls for n elements and m
    critical points, at n = 8, 16 and 32.  A scan of every pair against
    every critical point would make n^2 m / 2 queries and leave the band
    at n = 32."""
    from stairdist import formigram

    def refuse(*_):
        raise AssertionError("ultrametric called same_block")

    calls = 0

    def counting_find(parent, x):
        nonlocal calls
        calls += 1
        return find(parent, x)

    rng = random.Random(61)
    cases = []
    for n in (8, 16, 32):
        f = rand_dendrogram(rng, GroundSet(tuple(f"v{i}" for i in range(n))), max_crit=2 * n)
        cases.append((n, f, ultrametric_scan(f)))
    monkeypatch.setattr(SubPartition, "same_block", refuse)
    monkeypatch.setattr(formigram, "find", counting_find)
    for n, f, expected in cases:
        m = len(f.crit)
        calls = 0
        assert ultrametric(f).entries == expected
        assert calls <= 2 * (m * n + n * n), (n, m, calls)


def test_dendrogram_distance_is_ultrametric_sup_difference():
    rng = random.Random(53)
    for _ in range(15):
        g = ground(rng.randint(2, 4))
        d1, d2 = rand_metric(rng, g), rand_metric(rng, g)
        f1, f2 = single_linkage(g, d1), single_linkage(g, d2)
        u1, u2 = ultrametric(f1), ultrametric(f2)
        expected = max(
            abs(u1(x, y) - u2(x, y)) for x in g.elements for y in g.elements
        )
        assert interleaving_distance(f1, f2) == expected


# --- pullback ---------------------------------------------------------------------


def test_pullback_formigram():
    assert pullback_formigram(THETA_PRIME, Surjection.identity(XY)) == THETA_PRIME
    z = GroundSet(("z1", "z2", "z3"))
    phi = Surjection(z, XY, {"z1": "x", "z2": "x", "z3": "y"})
    pulled = pullback_formigram(THETA, phi)
    assert formigrams_equal(
        pulled, Formigram.constant(SubPartition(z, (("z1", "z2", "z3"),)))
    )
    empty_f = Formigram.constant(SubPartition.empty(XY))
    assert pullback_formigram(empty_f, phi).values[0] == SubPartition.empty(z)


def test_normalized_drops_redundant_points():
    f = Formigram(XY, (F(0),), (MERGED, MERGED, MERGED))
    assert normalized(f) == THETA
    spike = Formigram(XY, (F(0),), (SPLIT, MERGED, SPLIT))
    assert normalized(spike) == spike  # genuine spike stays
