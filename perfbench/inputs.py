"""Seeded input generators owned by the benchmark.

Each ``*_spec`` function draws a plain-data description of one input from a
``random.Random``: tuples of names, ``Fraction`` coordinates, ``math.inf``
and block lists.  Each ``build_*`` function turns a spec into fresh library
objects.  Nothing here imports the test suite, so an edit to
``tests/conftest.py`` cannot change a workload, and the library only ever
sees the built objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from stairdist.compare import GridClustering
from stairdist.filtration import IntFiltration, RFiltration
from stairdist.formigram import Formigram
from stairdist.lattice import GroundSet, SubPartition
from stairdist.persistence import barcode
from stairdist.staircase import INT, Staircase

F = Fraction


def names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def random_blocks(rng, ground, absent: float, nlabels: int):
    """A random subpartition as block lists: each element is left out with
    probability `absent`, otherwise put in one of `nlabels` blocks."""
    blocks: dict[int, list[str]] = {}
    for x in ground:
        if rng.random() < absent:
            continue
        blocks.setdefault(rng.randrange(nlabels), []).append(x)
    return tuple(tuple(b) for b in blocks.values())


def join_blocks(ground, *parts):
    """Join of block lists (finest common coarsening), by a plain union-find
    that does not call the library."""
    parent: dict[str, str] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in parts:
        for blk in blocks:
            for x in blk:
                parent.setdefault(x, x)
            for x in blk[1:]:
                parent[find(x)] = find(blk[0])
    comps: dict[str, list[str]] = {}
    for x in ground:
        if x in parent:
            comps.setdefault(find(x), []).append(x)
    return tuple(tuple(c) for c in comps.values())


# --- formigrams and grids ----------------------------------------------------


def formigram_spec(rng, ground, m: int, one_outer: bool):
    """A locally maximal formigram with exactly m critical points on the
    half-integer grid.  With `one_outer` both unbounded pieces (and so the
    first and last critical values) are the one-block partition."""
    crit = tuple(sorted(F(c, 2) for c in rng.sample(range(-4 * m, 4 * m + 1), m)))
    nlabels = max(2, len(ground) // 3)
    intervals = [random_blocks(rng, ground, 0.2, nlabels) for _ in range(m + 1)]
    if one_outer:
        intervals[0] = intervals[-1] = (tuple(ground),)
    values = [intervals[0]]
    for k in range(m):
        point = join_blocks(ground, intervals[k], intervals[k + 1])
        if rng.random() < 0.3:
            point = join_blocks(ground, point, random_blocks(rng, ground, 0.2, nlabels))
        values += [point, intervals[k + 1]]
    return (tuple(ground), crit, tuple(values))


def build_formigram(spec) -> Formigram:
    ground, crit, values = spec
    g = GroundSet(ground)
    return Formigram(g, crit, tuple(SubPartition(g, v) for v in values))


def grid_spec(rng, ground, ncuts: int):
    """A boxed plane clustering: empty on the unbounded bottom and left
    strips, one block in the top-right cell, order-preserving in between."""
    xs = tuple(sorted(F(c, 2) for c in rng.sample(range(-20, 21), ncuts)))
    ys = tuple(sorted(F(c, 2) for c in rng.sample(range(-20, 21), ncuts)))
    nlabels = max(2, len(ground) // 2)
    cells = [[()] * (ncuts + 1) for _ in range(ncuts + 1)]
    for r in range(1, ncuts + 1):
        for c in range(1, ncuts + 1):
            cells[r][c] = join_blocks(
                ground,
                random_blocks(rng, ground, 0.6, nlabels),
                cells[r - 1][c],
                cells[r][c - 1],
            )
    cells[-1][-1] = (tuple(ground),)
    return (tuple(ground), xs, ys, tuple(tuple(row) for row in cells))


def build_grid(spec) -> GridClustering:
    ground, xs, ys, cells = spec
    g = GroundSet(ground)
    return GridClustering(
        g, xs, ys, tuple(tuple(SubPartition(g, v) for v in row) for row in cells)
    )


# --- barcodes and metrics ----------------------------------------------------


def random_bars_spec(rng, nbars: int, ninf: int):
    """`nbars` bars on the quarter-integer grid, the first `ninf` of them
    infinite."""
    bars = []
    for i in range(nbars):
        b = F(rng.randint(0, 160), 4)
        bars.append((b, inf) if i < ninf else (b, b + F(rng.randint(1, 80), 4)))
    return tuple(bars)


def chain_bars_spec(rng, nbars: int, ninf: int, shift: Fraction):
    """Overlapping bars of equal length at a regular spacing, jittered and
    moved right by `shift`; two chains with different shifts make every
    bar's cheapest partner its neighbour's, so augmenting paths run the
    whole chain."""
    bars = []
    for i in range(nbars):
        b = 2 * i + shift + F(rng.randint(0, 3), 8)
        bars.append((b, inf) if i < ninf else (b, b + 7))
    return tuple(bars)


def build_barcode(spec):
    return barcode(spec)


def metric_spec(rng, n: int):
    """Random metric on n points: distances in [1, 2] on a 1/256 grid, so
    every triangle inequality holds."""
    d = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = F(rng.randint(256, 512), 256)
    return tuple(tuple(row) for row in d)


def build_metric(spec):
    return [list(row) for row in spec]


# --- filtrations ---------------------------------------------------------------


def all_simplices(ground):
    out = []
    for mask in range(1, 1 << len(ground)):
        out.append(frozenset(x for i, x in enumerate(ground) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def vr_filtration_spec(rng, ground):
    """Vietoris-Rips filtration of a random metric with every simplex of the
    full simplex present: vertices born at 0, a simplex at its diameter."""
    d = metric_spec(rng, len(ground))
    idx = {x: i for i, x in enumerate(ground)}
    births = []
    for s in all_simplices(ground):
        pts = sorted(idx[x] for x in s)
        diam = max((d[i][j] for i in pts for j in pts if i < j), default=F(0))
        births.append((tuple(sorted(s)), diam))
    return (tuple(ground), tuple(births))


def build_r_filtration(spec) -> RFiltration:
    ground, births = spec
    return RFiltration(GroundSet(ground), {frozenset(s): b for s, b in births})


def pinned_gens(rng, nfinite: int):
    """An antichain of nfinite + 2 generators: a vertical tail (l0, -inf),
    finite corners with l and r both increasing, and a horizontal tail
    (inf, r_top).  No generator dominates another, so normalization keeps
    them all; the two tails fix the asymptotic slopes, so distances between
    two such staircases stay finite."""
    ls = sorted(F(x, 4) for x in rng.sample(range(-40, 0), nfinite + 1))
    rs = sorted(F(x, 4) for x in rng.sample(range(1, 41), nfinite + 1))
    return [(ls[0], -inf)] + list(zip(ls[1:], rs[:-1])) + [(inf, rs[-1])]


def int_filtration_spec(rng, ground, base):
    """Interval-indexed filtration over the full simplex: every support is
    the staircase generated by `base` shrunk by the simplex's Vietoris-Rips
    diameter, generator (l, r) going to (l - d, r + d), so supports shrink
    as simplices grow."""
    _, births = vr_filtration_spec(rng, ground)
    return (
        tuple(ground),
        tuple((s, tuple((l - d, r + d) for l, r in base)) for s, d in births),
    )


def build_int_filtration(spec) -> IntFiltration:
    ground, supports = spec
    return IntFiltration(
        GroundSet(ground), {frozenset(s): Staircase(INT, g) for s, g in supports}
    )
