"""Shared random-instance builders.

Every randomized test draws from `random.Random` with a fixed seed, so each
run draws the same instances and a failure reproduces; the property tests
run `DRAWS` draws each, their amounts from `amounts`, which draws the ends
of the range first.  What imports these builders (`tests/twins.py`,
`scripts/answer_digest.py` and `scripts/oracle_sweep.py`) needs the
standard library alone.  A builder that only one test module reads stays
in that module.
"""

from fractions import Fraction
from itertools import combinations, product
import random

from stairdist import (
    INF,
    NEG_INF,
    Formigram,
    GridClustering,
    GroundSet,
    IntFiltration,
    RFiltration,
    Staircase,
    SubPartition,
    barcode,
    single_linkage,
    staircase,
)

F = Fraction


def fs(*xs):
    return frozenset(xs)


def ground(n: int) -> GroundSet:
    """n distinct names whose string order is their index order: a to y,
    then za to zy, zza to zzy and so on."""
    letters = "abcdefghijklmnopqrstuvwxy"
    return GroundSet(tuple("z" * (i // 25) + letters[i % 25] for i in range(n)))


def rand_fraction(rng: random.Random, lo=-6, hi=6, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


DRAWS = 60  # draws of each property test


def amounts(rng: random.Random, k: int, hi, max_den: int) -> list[tuple[Fraction, ...]]:
    """DRAWS tuples of k amounts in [0, hi] with denominators up to
    max_den: every tuple of the ends 0 and hi first, then random ones."""
    ends = list(product((F(0), F(hi)), repeat=k))
    dens = range(1, max_den + 1)
    return ends + [
        tuple([rand_fraction(rng, 0, hi, dens) for _ in range(k)])
        for _ in range(DRAWS - len(ends))
    ]


def rand_subpartition(rng: random.Random, g: GroundSet) -> SubPartition:
    blocks: dict[int, list[str]] = {}
    nlabels = len(g) + 1
    for x in g:
        label = rng.randrange(nlabels + 1)
        if label == nlabels:
            continue  # absent
        blocks.setdefault(label, []).append(x)
    return SubPartition(g, tuple(tuple(b) for b in blocks.values()))


def rand_formigram(rng: random.Random, g: GroundSet, max_crit=5) -> Formigram:
    m = rng.randint(0, max_crit)
    crit = sorted({rand_fraction(rng) for _ in range(m)})
    m = len(crit)
    intervals = [rand_subpartition(rng, g) for _ in range(m + 1)]
    values = [intervals[0]]
    for k in range(m):
        point = intervals[k].join(intervals[k + 1])
        if rng.random() < 0.3:
            point = point.join(rand_subpartition(rng, g))
        values.append(point)
        values.append(intervals[k + 1])
    return Formigram(g, tuple(crit), tuple(values))


def rand_free_formigram(rng: random.Random, g: GroundSet, max_crit=5) -> Formigram:
    """Random formigram whose 2m + 1 values are drawn independently, so in
    general it is not locally maximal."""
    crit = sorted({rand_fraction(rng) for _ in range(rng.randint(0, max_crit))})
    values = [rand_subpartition(rng, g) for _ in range(2 * len(crit) + 1)]
    return Formigram(g, tuple(crit), tuple(values))


def rand_formigram_pair(rng: random.Random, g: GroundSet, max_crit=5):
    """Two formigrams over g; half the time the outer interval values are
    matched, which forces every pair's merge staircases to share tail
    behavior and so biases the sample toward finite distances."""
    f1 = rand_formigram(rng, g, max_crit)
    f2 = rand_formigram(rng, g, max_crit)
    if rng.random() < 0.5:
        vals = list(f2.values)
        vals[0] = f1.values[0]
        vals[-1] = f1.values[-1]
        if len(vals) > 1:
            vals[1] = vals[1].join(vals[0])
            vals[-2] = vals[-2].join(vals[-1])
        f2 = Formigram(g, f2.crit, tuple(vals))
    return f1, f2


def rand_merged_tail_formigram(rng: random.Random, g: GroundSet, max_crit=5) -> Formigram:
    """Random formigram whose outer values are the one-block partition, so
    any two of them (even over different grounds) stay at finite distance."""
    f = rand_formigram(rng, g, max_crit)
    one = SubPartition.one_block(g)
    vals = list(f.values)
    vals[0] = one
    vals[-1] = one
    if len(vals) > 1:
        vals[1] = one
        vals[-2] = vals[-2].join(one)
    return Formigram(g, f.crit, tuple(vals))


def rand_metric(rng: random.Random, g: GroundSet) -> list[list[Fraction]]:
    n = len(g)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rand_fraction(rng, lo=1, hi=8, dens=(1, 2, 4))
    return d


def rand_dendrogram(
    rng: random.Random, g: GroundSet, max_crit=6, dens=(1, 2, 3)
) -> Formigram:
    """A dendrogram built directly, not through single linkage: a partition
    at 0, then coarsenings at increasing times.  A critical point may be
    idle (nothing merges), and one may merge several blocks at once, in
    one or two groups (ties); a last one joins whatever is still apart."""
    blocks = [[x] for x in g]
    t = Fraction(0)
    crit, values = [], [SubPartition.empty(g)]
    for k in range(rng.randint(1, max_crit)):
        if k:
            den = rng.choice(dens)
            t += Fraction(rng.randint(1, 2 * den), den)
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 2)):
                if len(blocks) > 1:
                    chosen = set(rng.sample(range(len(blocks)), rng.randint(2, min(3, len(blocks)))))
                    merged = [x for i in chosen for x in blocks[i]]
                    blocks = [b for i, b in enumerate(blocks) if i not in chosen] + [merged]
        part = SubPartition(g, tuple([tuple(b) for b in blocks]))
        crit.append(t)
        values += [part, part]
    if len(blocks) > 1:
        one = SubPartition.one_block(g)
        crit.append(t + 1)
        values += [one, one]
    return Formigram(g, tuple(crit), tuple(values))


def rand_staircase(rng: random.Random, ambient="int", max_gens=5) -> Staircase:
    gens = []
    for _ in range(rng.randint(0, max_gens)):
        roll = rng.random()
        l = INF if roll < 0.2 else rand_fraction(rng)
        r = NEG_INF if roll > 0.8 else rand_fraction(rng)
        gens.append((l, r))
    return staircase(gens, ambient)


def rand_staircase_pair(rng: random.Random, ambient="int", max_gens=5):
    """Half the time both staircases carry a horizontal and a vertical tail
    generator, which matches their asymptotic slopes and makes the distance
    finite; otherwise fully independent draws."""
    if rng.random() < 0.5:
        return (
            rand_staircase(rng, ambient, max_gens),
            rand_staircase(rng, ambient, max_gens),
        )

    def pinned():
        gens = [(INF, rand_fraction(rng)), (rand_fraction(rng), NEG_INF)]
        for _ in range(rng.randint(0, max_gens - 2)):
            gens.append((rand_fraction(rng), rand_fraction(rng)))
        return staircase(gens, ambient)

    return pinned(), pinned()


def rand_barcode(rng: random.Random, max_bars=5):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        b = rand_fraction(rng)
        if rng.random() < 0.2:
            bars.append((b, INF))
        else:
            bars.append((b, b + abs(rand_fraction(rng, lo=0, hi=6))))
    return barcode(bars)


def rand_grid(rng: random.Random, g: GroundSet, max_cuts=4) -> GridClustering:
    x_cuts = tuple(sorted({rand_fraction(rng) for _ in range(rng.randint(0, max_cuts))}))
    y_cuts = tuple(sorted({rand_fraction(rng) for _ in range(rng.randint(0, max_cuts))}))
    nrow, ncol = len(y_cuts) + 1, len(x_cuts) + 1
    cells = [[None] * ncol for _ in range(nrow)]
    for r in range(nrow):
        for c in range(ncol):
            v = rand_subpartition(rng, g)
            if r > 0:
                v = v.join(cells[r - 1][c])
            if c > 0:
                v = v.join(cells[r][c - 1])
            cells[r][c] = v
    return GridClustering(g, x_cuts, y_cuts, tuple(tuple(row) for row in cells))


def rand_grid_pair(rng: random.Random, g: GroundSet, max_cuts=4):
    """Half the time both clusterings are 'boxed': empty on the unbounded
    bottom/left strips and fully merged from the top-right cell on, which
    pins every merge staircase to finite corners and makes the interleaving
    distance finite."""
    if rng.random() < 0.5:
        return rand_grid(rng, g, max_cuts), rand_grid(rng, g, max_cuts)

    def boxed():
        f = rand_grid(rng, g, max_cuts)
        while not (f.x_cuts and f.y_cuts):
            f = rand_grid(rng, g, max_cuts)
        nothing = SubPartition.empty(g)
        cells = [list(row) for row in f.cells]
        for c in range(len(cells[0])):
            cells[0][c] = nothing
        for r in range(len(cells)):
            cells[r][0] = nothing
        cells[-1][-1] = SubPartition.one_block(g)
        return GridClustering(g, f.x_cuts, f.y_cuts, tuple(tuple(r) for r in cells))

    return boxed(), boxed()


def _triangles(g: GroundSet, present, rng: random.Random, tri_prob):
    """The 2-simplices of g whose three edges are all present, each kept
    with probability tri_prob (no draws at all when tri_prob is 0)."""
    if not tri_prob:
        return []
    out = []
    for tri in map(frozenset, combinations(g.elements, 3)):
        faces = [tri - {v} for v in tri]
        if all(e in present for e in faces) and rng.random() < tri_prob:
            out.append((tri, faces))
    return out


def rand_r_filtration(
    rng: random.Random, g: GroundSet, edge_prob=0.7, tri_prob=0.0
) -> RFiltration:
    """Random vertex and edge births; with tri_prob > 0 also 2-simplices,
    each born no earlier than its edges."""
    births = {}
    for x in g:
        births[frozenset({x})] = rand_fraction(rng, lo=0, hi=4)
    elems = list(g.elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if rng.random() < edge_prob:
                e = frozenset({elems[i], elems[j]})
                base = max(births[frozenset({v})] for v in e)
                births[e] = base + abs(rand_fraction(rng, lo=0, hi=4))
    for tri, faces in _triangles(g, births, rng, tri_prob):
        births[tri] = max(births[e] for e in faces) + abs(rand_fraction(rng, lo=0, hi=4))
    return RFiltration(g, births)


def full_r_filtration(rng: random.Random, g: GroundSet) -> RFiltration:
    """Every simplex present, each born no earlier than its faces, so that
    distances between different vertex counts can be finite."""
    births = {}
    for k in range(1, len(g) + 1):
        for s in map(frozenset, combinations(g.elements, k)):
            base = max((births[s - {v}] for v in s if k > 1), default=Fraction(0))
            births[s] = base + abs(rand_fraction(rng, lo=0, hi=4))
    return RFiltration(g, births)


def union_staircase(u: Staircase, v: Staircase) -> Staircase:
    return Staircase(u.ambient, u.gens + v.gens)


def rand_int_filtration(
    rng: random.Random, g: GroundSet, edge_prob=0.7, tri_prob=0.0, pinned=False
) -> IntFiltration:
    """Edges get random supports; vertices get at least the union of their
    cofaces' supports, keeping the filtration monotone.

    With tri_prob > 0 a 2-simplex over three present edges is supported on
    the intersection of their supports, generated by the corner-wise meets
    (min l, max r) over every choice of one generator per edge.  With pinned, every drawn support also
    carries a horizontal and a vertical tail generator, so any two supports
    are at finite Hausdorff distance."""

    def draw():
        u = rand_staircase(rng, "int")
        if pinned:
            tails = staircase([(INF, rand_fraction(rng)), (rand_fraction(rng), NEG_INF)])
            u = union_staircase(u, tails)
        return u

    supports = {}
    elems = list(g.elements)
    edges = []
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if rng.random() < edge_prob:
                e = frozenset({elems[i], elems[j]})
                supports[e] = draw()
                edges.append(e)
    for x in g:
        v = frozenset({x})
        acc = draw()
        for e in edges:
            if x in e:
                acc = union_staircase(acc, supports[e])
        supports[v] = acc
    supports = {s: u for s, u in supports.items() if not u.is_empty()}
    for tri, faces in _triangles(g, supports, rng, tri_prob):
        supports[tri] = staircase(
            (min(l for l, _ in picks), max(r for _, r in picks))
            for picks in product(*(supports[e].gens for e in faces))
        )
    return IntFiltration(g, supports)


def named_grounds(nx, ny):
    return tuple(GroundSet(tuple(f"{c}{i}" for i in range(n))) for c, n in (("x", nx), ("y", ny)))


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


def rand_partition(rng, g):
    blocks = {}
    for x in g:
        blocks.setdefault(rng.randrange(len(g)), []).append(x)
    return SubPartition(g, tuple(map(tuple, blocks.values())))


def dendrogram_mutant(rng, g):
    """A dendrogram built directly, or single linkage's, with at most one
    mutation: the critical points shifted off 0 or gone, a value before 0,
    a point value apart from its right value, a point value (with its
    right value) that misses an element or is any partition, or the last
    critical point dropped."""
    if rng.random() < 0.5:
        f = rand_dendrogram(rng, g)
    else:
        f = single_linkage(g, rand_metric(rng, g))
    crit, values = list(f.crit), list(f.values)
    k = rng.randrange(len(crit))
    kind = rng.randrange(7)
    if kind == 0:
        if rng.random() < 0.2:
            crit, values = [], values[:1]
        else:
            shift = rand_fraction(rng, lo=-2, hi=2) or F(1)
            crit = [t + shift for t in crit]
    elif kind == 1:
        values[0] = rand_subpartition(rng, g)
    elif kind == 2:
        values[2 * k + 2] = rand_subpartition(rng, g)
    elif kind == 3 and len(g) > 1:
        x = rng.choice(g.elements)
        blocks = [tuple(y for y in blk if y != x) for blk in values[2 * k + 1].blocks]
        values[2 * k + 1] = values[2 * k + 2] = SubPartition(g, tuple(b for b in blocks if b))
    elif kind == 4:
        values[2 * k + 1] = values[2 * k + 2] = rand_partition(rng, g)
    elif kind == 5 and len(crit) > 1:
        crit, values = crit[:-1], values[:-2]
    return Formigram(g, tuple(crit), tuple(values))


def rand_tied_barcode(rng, max_bars):
    """Bars on a coarse grid: tied births and deaths, zero-length bars and
    infinite deaths, in no particular order."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        p = F(rng.randint(-3, 3), rng.choice((1, 2)))
        r = rng.random()
        bars.append((p, INF if r < 0.2 else p if r < 0.3 else p + rng.randint(1, 4)))
    return tuple(bars)


def moved(u, t):
    """u with every finite coordinate moved by t: a translation along the
    diagonal, which keeps both ambients' order and the clamp, and so every
    containment."""
    return Staircase(u.ambient, tuple([
        tuple([x if isinstance(x, float) else x + t for x in g]) for g in u.gens
    ]))
