"""Correspondence searches: GH distances and plane-indexed clusterings."""

from collections import Counter
from fractions import Fraction
import random

import pytest

from stairdist import (
    Formigram,
    GridClustering,
    GroundSet,
    GroundSetMismatch,
    INF,
    SizeGuardExceeded,
    SubPartition,
    Surjection,
    ValidationError,
    enumerate_correspondences,
    grid_interleaving_distance,
    grid_upper_set,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    interleaving_distance,
    pullback_formigram,
    single_linkage,
    ultrametric,
)
from stairdist.compare import _minimal_covers
from stairdist.rat import NEG_INF
from stairdist.staircase import PLANE, plane_generator, staircase
from stairdist.filtration import RFiltration, to_int_indexed, tripod_distance_int, tripod_distance_r
from stairdist.formigram import Ultrametric, all_pair_keys
from stairdist.oracle import grid_interleaved, oracle_grid_distance
from conftest import (
    ground,
    rand_formigram,
    rand_grid,
    rand_grid_pair,
    rand_merged_tail_formigram,
    rand_metric,
)

F = Fraction


def fs(*xs):
    return frozenset(xs)


def oracle_gh_via_pullbacks(fx, fy, guard=12):
    """The definitional route: half the best pullback interleaving distance
    over all correspondences, with the relation itself as the apex."""
    best = INF
    for rel in enumerate_correspondences(fx.ground, fy.ground, guard):
        znames = tuple(f"{x}|{y}" for x, y in rel)
        z = GroundSet(znames)
        phi_x = Surjection(z, fx.ground, {f"{x}|{y}": x for x, y in rel})
        phi_y = Surjection(z, fy.ground, {f"{x}|{y}": y for x, y in rel})
        d = interleaving_distance(
            pullback_formigram(fx, phi_x), pullback_formigram(fy, phi_y)
        )
        best = min(best, d)
    return best / 2


# --- correspondences -------------------------------------------------------------


def test_correspondence_counts():
    one = GroundSet(("a",))
    two = GroundSet(("x", "y"))
    assert len(list(enumerate_correspondences(one, GroundSet(("b",))))) == 1
    assert len(list(enumerate_correspondences(two, one))) == 1
    rels = list(enumerate_correspondences(two, GroundSet(("u", "v"))))
    assert len(rels) == 7
    assert len(set(rels)) == 7
    for rel in rels:
        assert {x for x, _ in rel} == {"x", "y"}
        assert {y for _, y in rel} == {"u", "v"}


def test_correspondence_guard():
    with pytest.raises(SizeGuardExceeded):
        list(enumerate_correspondences(ground(4), ground(4)))
    # every search over correspondences keeps the default guard at 4 x 4
    f4 = Formigram.constant(SubPartition.one_block(ground(4)))
    with pytest.raises(SizeGuardExceeded):
        gromov_hausdorff_formigrams(f4, f4)
    u4 = ultrametric(single_linkage(ground(4), rand_metric(random.Random(3), ground(4))))
    with pytest.raises(SizeGuardExceeded):
        gromov_hausdorff_ultrametrics(u4, u4)
    r4 = RFiltration(ground(4), {fs(x): F(0) for x in ground(4)})
    with pytest.raises(SizeGuardExceeded):
        tripod_distance_r(r4, r4)
    i4 = to_int_indexed(r4)
    with pytest.raises(SizeGuardExceeded):
        tripod_distance_int(i4, i4)


def is_minimal_cover(rel, x, y):
    """A correspondence of x and y in which every pair has an end of
    degree one."""
    dx = Counter(a for a, _ in rel)
    dy = Counter(b for _, b in rel)
    return set(dx) == set(x.elements) and set(dy) == set(y.elements) and all(
        dx[a] == 1 or dy[b] == 1 for a, b in rel
    )


@pytest.mark.parametrize(
    "nx, ny, count", [(1, 1, 1), (2, 2, 2), (2, 5, 30), (5, 2, 30), (3, 4, 48), (2, 6, 62)]
)
def test_minimal_cover_counts(nx, ny, count):
    x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
    rels = list(_minimal_covers(x, y))
    assert len(rels) == len(set(rels)) == count
    assert all(is_minimal_cover(rel, x, y) for rel in rels)


def test_minimal_covers_are_the_minimal_correspondences():
    """Every shape up to the default guard: the generator yields exactly the
    minimal covers among all correspondences, each once and in the same
    order."""
    for nx in range(1, 13):
        for ny in range(1, 12 // nx + 1):
            x, y = ground(nx), GroundSet(tuple(f"y{i}" for i in range(ny)))
            rels = list(_minimal_covers(x, y))
            assert len(rels) == len(set(rels))
            assert rels == [
                rel for rel in enumerate_correspondences(x, y) if is_minimal_cover(rel, x, y)
            ]


def test_minimal_covers_guard_is_checked_up_front():
    with pytest.raises(SizeGuardExceeded):
        _minimal_covers(ground(4), ground(4))
    assert len(list(_minimal_covers(ground(4), ground(4), guard=16))) > 0


def test_minimal_covers_walk_long_ground_sets():
    """One choice per element of X, far past the recursion limit."""
    x, y = GroundSet(tuple(f"x{i:04d}" for i in range(1200))), GroundSet(("y",))
    rels = list(_minimal_covers(x, y, guard=5000))
    assert rels == [tuple((a, "y") for a in x.elements)]


# --- Gromov-Hausdorff between formigrams ------------------------------------------


def make_loop_pair(delta=F(3, 2)):
    xy = GroundSet(("x", "y"))
    merged = SubPartition(xy, (("x", "y"),))
    split = SubPartition(xy, (("x",), ("y",)))
    theta = Formigram.constant(merged)
    theta_p = Formigram(xy, (-delta, delta), (merged, merged, split, merged, merged))
    return theta, theta_p


def test_gh_identity_and_loop_value():
    theta, theta_p = make_loop_pair()
    assert gromov_hausdorff_formigrams(theta, theta) == 0
    d = gromov_hausdorff_formigrams(theta, theta_p)
    assert d == F(3, 4) == oracle_gh_via_pullbacks(theta, theta_p)


def test_gh_upper_bounded_by_interleaving():
    rng = random.Random(137)
    for _ in range(10):
        g = ground(rng.randint(1, 3))
        f1 = rand_formigram(rng, g, max_crit=3)
        f2 = rand_formigram(rng, g, max_crit=3)
        assert 2 * gromov_hausdorff_formigrams(f1, f2) <= interleaving_distance(f1, f2)


def test_gh_structural_route_matches_pullback_route():
    rng = random.Random(139)
    for i in range(8):
        make = rand_formigram if i % 2 else rand_merged_tail_formigram
        fx = make(rng, ground(rng.randint(1, 3)), max_crit=2)
        fy = make(rng, ground(rng.randint(1, 3)), max_crit=2)
        assert gromov_hausdorff_formigrams(fx, fy) == oracle_gh_via_pullbacks(fx, fy)


def test_gh_metric_properties():
    rng = random.Random(149)
    for _ in range(6):
        f1 = rand_formigram(rng, ground(2), max_crit=2)
        f2 = rand_formigram(rng, ground(2), max_crit=2)
        f3 = rand_formigram(rng, ground(2), max_crit=2)
        d12 = gromov_hausdorff_formigrams(f1, f2)
        assert d12 == gromov_hausdorff_formigrams(f2, f1)
        assert gromov_hausdorff_formigrams(f1, f3) <= d12 + gromov_hausdorff_formigrams(
            f2, f3
        )


# --- GH between ultrametric spaces -------------------------------------------------


def test_gh_ultrametric_examples():
    two_a = Ultrametric(ground(2), ((F(0), F(2)), (F(2), F(0))))
    two_b = Ultrametric(ground(2), ((F(0), F(4)), (F(4), F(0))))
    assert gromov_hausdorff_ultrametrics(two_a, two_a) == 0
    assert gromov_hausdorff_ultrametrics(two_a, two_b) == 1


def test_gh_dendrograms_equal_gh_ultrametrics():
    rng = random.Random(151)
    for _ in range(8):
        gx, gy = ground(rng.randint(1, 3)), ground(rng.randint(1, 3))
        fx = single_linkage(gx, rand_metric(rng, gx))
        fy = single_linkage(gy, rand_metric(rng, gy))
        assert gromov_hausdorff_formigrams(fx, fy) == gromov_hausdorff_ultrametrics(
            ultrametric(fx), ultrametric(fy)
        )


# --- grid clusterings ---------------------------------------------------------------


def two_point_grids():
    g = GroundSet(("x", "y"))
    merged = SubPartition(g, (("x", "y"),))
    split = SubPartition(g, (("x",), ("y",)))
    f = GridClustering(g, (F(0),), (F(0),), ((split, split), (split, merged)))
    shifted = GridClustering(g, (F(1),), (F(1),), ((split, split), (split, merged)))
    never = GridClustering(g, (F(0),), (F(0),), ((split, split), (split, split)))
    return g, f, shifted, never


def test_grid_upper_set_examples():
    g, f, _, never = two_point_grids()
    merged = SubPartition(g, (("x", "y"),))
    constant = GridClustering(g, (), (), ((merged,),))
    assert grid_upper_set(constant, fs("x", "y")).is_full()
    u = grid_upper_set(f, fs("x", "y"))
    assert u.gens == ((F(0), F(0)),)  # the quadrant above (0, 0)
    assert grid_upper_set(never, fs("x", "y")).is_empty()
    with pytest.raises(GroundSetMismatch):
        grid_upper_set(f, fs("zz"))


def referee_grid_upper_set(f, key):
    """The all-cells scan: every merging cell offers its corner, and
    normalization keeps the minimal ones."""
    x, y = (min(key), max(key))
    gens = []
    for r, row in enumerate(f.cells):
        for c, val in enumerate(row):
            if val.same_block(x, y):
                corner = (
                    f.x_cuts[c - 1] if c >= 1 else NEG_INF,
                    f.y_cuts[r - 1] if r >= 1 else NEG_INF,
                )
                gens.append(plane_generator(corner))
    return staircase(gens, PLANE)


def rand_edged_grid(rng, g):
    """A random order-preserving grid whose lowest rows and leftmost
    columns may be empty and whose highest rows and rightmost columns may
    be one block (each edge band 0 to 2 wide)."""
    f = rand_grid(rng, g)
    cells = [list(row) for row in f.cells]
    nrow, ncol = len(cells), len(cells[0])
    nothing, one = SubPartition.empty(g), SubPartition.one_block(g)
    low, left, high, right = (rng.randint(0, 2) for _ in range(4))
    for r in range(nrow):
        for c in range(ncol):
            if r < low or c < left:
                cells[r][c] = nothing
            if r >= nrow - high or c >= ncol - right:
                cells[r][c] = one
    return GridClustering(g, f.x_cuts, f.y_cuts, tuple(tuple(row) for row in cells))


def test_grid_upper_set_matches_all_cells_scan():
    rng = random.Random(163)
    for _ in range(200):
        g = ground(rng.randint(1, 4))
        f = rand_edged_grid(rng, g)
        for key in all_pair_keys(g):
            assert grid_upper_set(f, key).gens == referee_grid_upper_set(f, key).gens, (f, key)


def test_grid_distance_examples():
    g, f, shifted, never = two_point_grids()
    assert grid_interleaving_distance(f, f) == 0
    assert grid_interleaving_distance(f, shifted) == 1
    assert grid_interleaving_distance(f, never) == INF
    assert grid_interleaved(f, shifted, F(1))
    assert not grid_interleaved(f, shifted, F(1, 2))


def test_grid_validation():
    g = GroundSet(("x", "y"))
    merged = SubPartition(g, (("x", "y"),))
    split = SubPartition(g, (("x",), ("y",)))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0),), (F(0),), ((merged, split), (split, split)))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0), F(0)), (), ((split, split, split),))
    with pytest.raises(ValidationError):
        GridClustering(g, (F(0),), (), ((split,),))


def test_grid_value_on_cut_lines_uses_upper_right():
    g, f, _, _ = two_point_grids()
    merged = SubPartition(g, (("x", "y"),))
    assert f.value_at((F(0), F(0))) == merged
    assert f.value_at((F(-1, 100), F(0))) != merged


def test_grid_oracle_agreement():
    rng = random.Random(157)
    seen_inf = seen_finite = 0
    for _ in range(25):
        g = ground(rng.randint(1, 3))
        f1, f2 = rand_grid_pair(rng, g)
        d = grid_interleaving_distance(f1, f2)
        if d == INF:
            seen_inf += 1
        else:
            seen_finite += 1
        assert d == oracle_grid_distance(f1, f2)
    assert seen_inf > 0 and seen_finite > 5


def test_grid_ground_mismatch():
    _, f, _, _ = two_point_grids()
    g3 = ground(3)
    other = GridClustering(g3, (), (), ((SubPartition.empty(g3),),))
    with pytest.raises(GroundSetMismatch):
        grid_interleaving_distance(f, other)
