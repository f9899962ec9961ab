"""Exactness at the boundaries: int coordinates are read as Fractions,
inexact floats are refused, every finite answer is a Fraction, and the
integer kernel stays exact when the common scale is a wide int."""

from fractions import Fraction
from itertools import count
import math
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from stairdist import (
    INF,
    NEG_INF,
    Formigram,
    GridClustering,
    GroundSet,
    IntFiltration,
    InvalidMetric,
    RFiltration,
    SubPartition,
    Ultrametric,
    ValidationError,
    barcode,
    bottleneck_distance,
    empty,
    erosion_distance,
    full,
    grid_interleaving_distance,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    hausdorff,
    interleaving_distance,
    one_point_tripod,
    pointwise_refines,
    profile,
    single_linkage,
    smooth,
    staircase,
    sublevel_staircase,
    subset,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
    ultrametric,
)
from stairdist.oracle import oracle_formigram_distance, oracle_grid_distance, oracle_hausdorff
from stairdist.rat import common_scale, rat
from stairdist.staircase import Staircase, _g
from conftest import (
    ground,
    rand_barcode,
    rand_formigram,
    rand_formigram_pair,
    rand_grid_pair,
    rand_metric,
    rand_r_filtration,
    union_staircase,
)
from test_staircase import common_kinks

F = Fraction


def is_exact(x) -> bool:
    """A Fraction, or one of the two infinities."""
    return type(x) is Fraction or (type(x) is float and math.isinf(x))


# --- int and float inputs ---------------------------------------------------------


def test_rat_reads_ints_and_refuses_other_floats():
    assert rat(3) == F(3) and type(rat(3)) is Fraction
    half = F(1, 2)
    assert rat(half) is half and rat(INF) is INF and rat(NEG_INF) is NEG_INF
    for bad in (0.5, 2.0, float("nan"), "1/2", None):
        with pytest.raises(ValueError):
            rat(bad)


def same(a, b) -> bool:
    return repr(a) == repr(b) and type(a) is type(b)


def test_int_coordinates_give_the_fraction_answers():
    a, b = staircase([(0, 1)]), staircase([(2, 1)])
    fa, fb = staircase([(F(0), F(1))]), staircase([(F(2), F(1))])
    assert a == fa and b == fb
    assert same(hausdorff(a, b), hausdorff(fa, fb)) and hausdorff(a, b) == 2
    assert subset(a, b) and not subset(b, a)
    assert same(profile(staircase([(1, 2)])), profile(staircase([(F(1), F(2))])))
    assert set(profile(staircase([(1, 2)])).slopes) == {F(0), F(1)}
    mixed = staircase([(INF, 3), (-2, NEG_INF)], "plane")
    assert all(is_exact(x) for g in mixed.gens for x in g)

    assert same(bottleneck_distance(barcode([(0, 1)]), barcode([])), F(1, 2))
    assert same(erosion_distance(barcode([(0, 4)]), barcode([(0, 2)])), F(2))
    assert barcode([(0, INF)]) == barcode([(F(0), INF)])

    xy = GroundSet(("x", "y"))
    u1, u2 = (ultrametric(single_linkage(xy, [[0, t], [t, 0]])) for t in (1, 2))
    assert u1.entries == ((F(0), F(1)), (F(1), F(0)))
    assert all(type(x) is Fraction for row in u1.entries for x in row)
    assert same(gromov_hausdorff_ultrametrics(u1, u2), F(1, 2))

    g1, g2 = GroundSet(("a",)), GroundSet(("b",))
    f, g = RFiltration(g1, {frozenset("a"): 0}), RFiltration(g2, {frozenset("b"): 3})
    assert same(tripod_distance_r(f, g), F(3))


def test_distances_read_raw_int_bars():
    """Raw, unsorted int tuples give the answers of their canonical
    barcodes: infinite deaths stay infinite, finite ints stay finite."""
    assert same(bottleneck_distance(((0, 1),), ()), F(1, 2))
    assert same(erosion_distance(((0, 4),), ((0, 2),)), F(2))
    raw1, raw2 = ((3, 5), (0, INF), (1, 2), (0, 4)), ((2, 3), (0, 6), (1, INF))
    b1, b2 = barcode(raw1), barcode(raw2)
    assert same(bottleneck_distance(raw1, raw2), bottleneck_distance(b1, b2))
    assert same(erosion_distance(raw1, raw2), erosion_distance(b1, b2))
    for n in range(len(raw1) + 1):
        assert sublevel_staircase(raw1, n) == sublevel_staircase(b1, n)
    with pytest.raises(ValueError):
        bottleneck_distance(((0, 0.5),), ())


def test_wide_int_crits_and_cuts_are_read_exactly():
    """Int critical points and grid cuts are read as Fractions, so the
    midpoint of two ints above 2**53 is exact rather than a float that
    rounds onto one of them; an infinite one is refused."""
    t = 2**60
    xy = GroundSet(("x", "y"))
    S, M = SubPartition(xy, (("x",), ("y",))), SubPartition(xy, (("x", "y"),))
    answers = []
    for lo, hi in ((t, t + 1), (F(t), F(t + 1))):
        f, g = Formigram(xy, (lo, hi), (S, M, S, M, S)), Formigram(xy, (lo, hi), (S, M, M, M, S))
        assert all(type(c) is Fraction for c in f.crit)
        a = GridClustering(xy, (lo, hi), (), ((S, M, M),))
        b = GridClustering(xy, (lo, hi), (), ((S, S, M),))
        assert all(type(c) is Fraction for c in a.x_cuts)
        answers.append((
            pointwise_refines(g, f), pointwise_refines(f, g),
            oracle_formigram_distance(f, g), interleaving_distance(f, g), smooth(f, 1),
            oracle_grid_distance(a, b), grid_interleaving_distance(a, b),
        ))
    assert same(answers[0], answers[1])
    assert answers[0][:4] == (False, True, F(1, 2), F(1, 2))
    assert answers[0][5:] == (F(1), F(1))
    for crit in ((INF,), (0, NEG_INF)):
        with pytest.raises(ValidationError, match="finite"):
            Formigram(xy, crit, (S,) * (2 * len(crit) + 1))
    with pytest.raises(ValidationError, match="finite"):
        GridClustering(xy, (), (INF,), ((S,), (S,)))
    with pytest.raises(ValueError):
        Formigram(xy, (0.5,), (S, S, S))


def test_inexact_floats_are_refused():
    for flag in (True, False):
        with pytest.raises(ValueError):
            rat(flag)
    with pytest.raises(ValueError):
        staircase([(0.5, F(1))])
    with pytest.raises(ValueError):
        staircase([(F(0), 1.5)], "plane")
    with pytest.raises(ValueError):
        barcode([(F(0), 0.5)])
    with pytest.raises(ValueError):
        RFiltration(GroundSet(("a",)), {frozenset("a"): 0.25})
    xy = GroundSet(("x", "y"))
    with pytest.raises(ValueError):
        single_linkage(xy, [[0, 0.5], [0.5, 0]])
    with pytest.raises(InvalidMetric, match="not a finite metric"):
        single_linkage(xy, [[0, INF], [INF, 0]])


XY = GroundSet(("x", "y"))


def test_ultrametric_reads_int_entries_as_fractions():
    """GH between int-entry ultrametrics is a Fraction, not the float of an
    int halved, and a half entry is not turned into a float either."""
    one, two = Ultrametric(XY, ((0, 1), (1, 0))), Ultrametric(XY, ((0, 2), (2, 0)))
    assert all(type(x) is Fraction for row in one.entries for x in row)
    assert same(gromov_hausdorff_ultrametrics(one, two), F(1, 2))
    half = Ultrametric(XY, ((0, F(1, 2)), (F(1, 2), 0)))
    assert same(gromov_hausdorff_ultrametrics(half, two), F(3, 4))


def test_ultrametric_refuses_an_inexact_float():
    with pytest.raises(ValueError):
        Ultrametric(XY, ((0, 0.5), (0.5, 0)))


def test_ultrametric_refuses_an_infinite_entry():
    """The one matrix reader of `single_linkage` and `Ultrametric` raises
    InvalidMetric, which is a ValidationError."""
    assert issubclass(InvalidMetric, ValidationError)
    with pytest.raises(InvalidMetric, match="finite"):
        Ultrametric(XY, ((0, INF), (INF, 0)))


@pytest.mark.parametrize("rows", [((0, 1),), ((0, 1), (1,)), ((0, 1, 2), (1, 0, 2))])
def test_ultrametric_refuses_a_matrix_of_the_wrong_shape(rows):
    with pytest.raises(ValidationError, match="2x2"):
        Ultrametric(XY, rows)


@pytest.mark.parametrize(
    "rows, what",
    [
        (((0, 1), (5, 0)), "symmetric"),
        (((0, 5), (1, 0)), "symmetric"),
        (((3, 1), (1, 0)), "diagonal"),
    ],
)
def test_ultrametric_refuses_an_asymmetric_matrix_or_a_nonzero_diagonal(rows, what):
    """Each of these was read: GH against ((0, 1), (1, 0)) was 0, 2 and 3/2,
    depending on which triangle and which diagonal entry a cost read."""
    with pytest.raises(InvalidMetric, match=what):
        Ultrametric(XY, rows)


# --- no engine returns a float other than +-inf -----------------------------------


def rand_exact_staircase(rng, ambient):
    """Half-integer corners, some below the diagonal so that the clamp is
    hit, infinite legs, and now and then the full or the empty staircase."""
    roll = rng.random()
    if roll < 0.08:
        return full(ambient)
    if roll < 0.14:
        return empty(ambient)
    gens = []
    for _ in range(rng.randint(1, 5)):
        l = F(rng.randint(-8, 8), 2)
        r = l + F(rng.randint(-4, 4), 2)  # r < l hits the diagonal when clamped
        gens.append((l, r))
    if rng.random() < 0.5:
        gens.append((INF, F(rng.randint(-8, 8), 2)))
    if rng.random() < 0.5:
        gens.append((F(rng.randint(-8, 8), 2), NEG_INF))
    return staircase(gens, ambient)


def rand_exact_int_filtration(rng, n):
    """Edges carry random supports; each vertex the union of its own and
    its edges' supports, so every face contains its cofaces."""
    g = ground(n)
    edges = {frozenset(p): rand_exact_staircase(rng, "int")
             for p in ((x, y) for i, x in enumerate(g) for y in g.elements[i + 1:])}
    supports = {s: u for s, u in edges.items() if not u.is_empty()}
    for x in g:
        acc = rand_exact_staircase(rng, "int")
        for e, u in edges.items():
            if x in e:
                acc = union_staircase(acc, u)
        if not acc.is_empty():
            supports[frozenset({x})] = acc
    return IntFiltration(g, supports)


def test_no_engine_returns_an_inexact_float():
    rng = random.Random(61)
    answers = []
    for ambient in ("int", "plane"):
        for _ in range(150):
            u, v = rand_exact_staircase(rng, ambient), rand_exact_staircase(rng, ambient)
            answers.append(hausdorff(u, v))
            prof = profile(u)
            answers += [*prof.breakpoints, *prof.values, *prof.slopes]
    for _ in range(30):
        answers.append(interleaving_distance(*rand_formigram_pair(rng, ground(rng.randint(1, 3)))))
        answers.append(grid_interleaving_distance(*rand_grid_pair(rng, ground(rng.randint(1, 3)))))
        b1, b2 = rand_barcode(rng, 5), rand_barcode(rng, 5)
        answers += [erosion_distance(b1, b2), bottleneck_distance(b1, b2)]
    for _ in range(12):
        fx, fy = (rand_formigram(rng, ground(rng.randint(1, 3)), 2) for _ in range(2))
        answers.append(gromov_hausdorff_formigrams(fx, fy))
        ux, uy = (ultrametric(single_linkage(g, rand_metric(rng, g)))
                  for g in (ground(rng.randint(1, 3)), ground(rng.randint(1, 3))))
        answers.append(gromov_hausdorff_ultrametrics(ux, uy))
        f, g = (rand_r_filtration(rng, ground(rng.randint(1, 3))) for _ in range(2))
        answers.append(tripod_distance_r(f, g))
        f, g = (rand_exact_int_filtration(rng, rng.randint(1, 2)) for _ in range(2))
        answers.append(tripod_distance_int(f, g))
        answers.append(one_point_tripod(f, rand_exact_int_filtration(rng, 1)))
    bad = [x for x in answers if not is_exact(x)]
    assert not bad, bad[:5]
    finite = [x for x in answers if type(x) is Fraction]
    assert any(x.denominator == 4 for x in finite)  # a clamp halved a half
    assert len(finite) > len(answers) // 2


def test_searches_answer_a_fraction_zero_and_a_float_infinity():
    """The searches compare ints on a scale, but an all-zero answer is
    Fraction(0), not the int 0, and an infinite one the float INF."""
    xy = SubPartition(XY, (("x", "y"),))
    one = Formigram.constant(xy)
    apart = Formigram.constant(SubPartition(XY, (("x",), ("y",))))
    assert same(gromov_hausdorff_formigrams(one, one), F(0))
    assert same(gromov_hausdorff_formigrams(one, apart), INF)
    u = Ultrametric(XY, ((0, 1), (1, 0)))
    assert same(gromov_hausdorff_ultrametrics(u, u), F(0))
    edge = RFiltration(XY, {frozenset("x"): 0, frozenset("y"): 0, frozenset("xy"): 1})
    dots = RFiltration(XY, {frozenset("x"): 0, frozenset("y"): 0})
    assert same(tripod_distance_r(edge, edge), F(0))
    assert same(tripod_distance_r(edge, dots), INF)
    assert same(tripod_distance_int(to_int_indexed(edge), to_int_indexed(edge)), F(0))
    assert same(tripod_distance_int(to_int_indexed(edge), to_int_indexed(dots)), INF)


# --- wide ints ---------------------------------------------------------------------


def primes():
    for n in count(2):
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            yield n


def coprime_antichain(k, dens, rng, ambient):
    """k generators at l = i + 1/p, r = i + shift + 1/q, every p and q a
    fresh prime, plus the two infinite legs: pairwise coprime
    denominators, so the common scale is a product of about 2k primes."""
    shift = rng.randint(-2, 2)
    gens = [(i + F(1, next(dens)), i + shift + F(1, next(dens))) for i in range(k)]
    gens += [(INF, k + shift + F(1, next(dens))), (F(-1, next(dens)) - 1, NEG_INF)]
    return Staircase(ambient, tuple(gens))


def profile_route(u, v):
    """What hausdorff and subset answer, read off _g at the walk's
    breakpoints, taken back through the scale, with the tails from unit
    steps."""
    cs = common_kinks(u, v)
    diff = [_g(u, c) - _g(v, c) for c in [cs[0] - 1, *cs, cs[-1] + 1]]
    lo, hi = diff[1] - diff[0], diff[-1] - diff[-2]
    dist = INF if lo or hi else max(map(abs, diff))
    contained = all(d >= 0 for d in diff[1:-1]) and lo <= 0 and hi >= 0
    return dist, contained


@pytest.mark.parametrize("ambient", ["int", "plane"])
def test_wide_scale_agrees_with_oracle_and_reference(ambient):
    rng = random.Random(67)
    dens = primes()
    for k in (1, 3, 10, 40):
        u, v = (coprime_antichain(k, dens, rng, ambient) for _ in range(2))
        scale = common_scale(u.gens, v.gens)
        assert scale.bit_length() > 16 * k  # 4k + 4 distinct primes
        d = hausdorff(u, v)
        assert type(d) is Fraction
        assert d == oracle_hausdorff(u, v)
        dist, contained = profile_route(u, v)
        assert d == dist
        assert subset(u, v) == contained
        assert subset(v, u) == profile_route(v, u)[1]
        assert subset(u, u) and hausdorff(u, u) == 0


def test_answer_digest_is_pinned():
    """The bit-for-bit gate: one hash over every engine's answers, with
    their types, on the seed-0 instances of `scripts/answer_digest.py`.  The
    pin changes only with a stated reason."""
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "answer_digest.py"), "--seed", "0"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == (
        "seed 0: 3271 answers sha256 "
        "5e6ca84ac01871684dd67055f98e9497e97347b24044bc65114a1e4aba85f9db\n"
    )


def test_answer_digest_needs_the_standard_library_alone():
    """The digest imports the tests' builders, but not hypothesis or pytest:
    it runs with no site-packages (`python -S`) and prints the pinned
    seed-3 line, so it can be checked on any local Python."""
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", str(root / "scripts" / "answer_digest.py"), "--seed", "3"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == (
        "seed 3: 3210 answers sha256 "
        "31d3a487e15cfdb132aeef3ff50b7616b92703b74886d8fc496d1e31faea1ef1\n"
    )


def test_hypothesis_profile_is_loaded_under_pytest():
    """`conftest.pytest_configure` loads the suite's profile: 60 examples a
    property, no deadline."""
    from hypothesis import settings

    assert settings.default.max_examples == 60
    assert settings.default.deadline is None
