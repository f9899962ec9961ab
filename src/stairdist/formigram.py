"""Formigrams: piecewise-constant subpartition-valued maps on the line.

A formigram is stored by its critical points t_1 < ... < t_m and the 2m+1
values v_0, f(t_1), v_1, ..., f(t_m), v_m taken on the alternating open
intervals and critical points.  Local maximality (v_{k-1} <= f(t_k) >= v_k)
makes the induced map on open intervals well behaved; the constructor checks
structure only, `validate` reports maximality violations.

The interleaving distance is computed by decomposing a formigram into its
pair/singleton merge staircases (the cosheaf code) and taking the largest
staircase Hausdorff distance.  The code is built in one pass: from each
start piece one union-find grows to the right and records the first piece
that merges each pair (or shows each element), which gives every
staircase's generators already sorted; for n elements and m critical
points that is O(m n (m + n)).  `CosheafTable`, the O(m^2) table of joins
of consecutive runs of pieces, stays as a public reference object and is
not used by the code.

Dendrograms run on one integer scale: `single_linkage` sorts and groups
int edges, and `ultrametric` reads every merge time from one union-find
walk over the point values; `Fraction` appears only in the critical points
and the ultrametric entries.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from operator import itemgetter

from .errors import (
    EmptyInterval,
    GroundSetMismatch,
    InvalidMetric,
    NegativeEpsilon,
    NotADendrogram,
    ValidationError,
)
from .lattice import GroundSet, SubPartition, Surjection, find, join_all, pullback
from .lattice import _check_same_ground
from .rat import (
    INF,
    NEG_INF,
    RatX,
    common_scale,
    increasing_rats,
    is_finite,
    rat,
    rows_on_scale,
)
from .staircase import INT, Staircase, _antichain, hausdorff

PairKey = frozenset  # frozenset({x}) or frozenset({x, y})


@dataclass(frozen=True)
class Formigram:
    """Critical points are read by ``rat.increasing_rats`` (finite and
    strictly increasing, else ValidationError); 2m + 1 values are needed
    (else ValidationError), each on the formigram's ground (else
    GroundSetMismatch)."""

    ground: GroundSet
    crit: tuple[Fraction, ...]
    values: tuple[SubPartition, ...]

    def __post_init__(self):
        object.__setattr__(self, "crit", increasing_rats(self.crit, "critical points"))
        m = len(self.crit)
        if len(self.values) != 2 * m + 1:
            raise ValidationError(
                f"need {2 * m + 1} values for {m} critical points, got {len(self.values)}"
            )
        for v in self.values:
            _check_same_ground(self, v)

    @classmethod
    def constant(cls, value: SubPartition) -> "Formigram":
        return cls(value.ground, (), (value,))

    @property
    def num_pieces(self) -> int:
        return 2 * len(self.crit) + 1

    def _piece_of(self, t: Fraction) -> int:
        """Index of the piece containing t (odd = critical point)."""
        k = bisect_left(self.crit, t)
        if k < len(self.crit) and self.crit[k] == t:
            return 2 * k + 1
        return 2 * k

    def evaluate(self, t: Fraction) -> SubPartition:
        return self.values[self._piece_of(t)]


def validate(f: Formigram) -> str | None:
    """None if locally maximal at every critical point, else a message
    naming the first violating critical index."""
    for k, t in enumerate(f.crit):
        point = f.values[2 * k + 1]
        if not f.values[2 * k].refines(point):
            return f"not locally maximal at critical point #{k} (t = {t}): left value exceeds point value"
        if not f.values[2 * k + 2].refines(point):
            return f"not locally maximal at critical point #{k} (t = {t}): right value exceeds point value"
    return None


def normalized(f: Formigram) -> Formigram:
    """Drop critical points whose removal does not change the function."""
    crit: list[Fraction] = []
    values: list[SubPartition] = [f.values[0]]
    for k, t in enumerate(f.crit):
        point, right = f.values[2 * k + 1], f.values[2 * k + 2]
        if point == values[-1] == right:
            continue
        crit.append(t)
        values.append(point)
        values.append(right)
    return Formigram(f.ground, tuple(crit), tuple(values))


def formigrams_equal(f: Formigram, g: Formigram) -> bool:
    """Equality as functions on the line."""
    return normalized(f) == normalized(g)


def _sample_points(*fs: Formigram) -> list[Fraction]:
    """Finitely many t covering every piece of all the given formigrams."""
    crits = sorted({t for f in fs for t in f.crit})
    if not crits:
        return [Fraction(0)]
    pts = [crits[0] - 1]
    for t0, t1 in zip(crits, crits[1:]):
        pts.append(t0)
        pts.append((t0 + t1) / 2)
    pts.append(crits[-1])
    pts.append(crits[-1] + 1)
    return pts


def pointwise_refines(f: Formigram, g: Formigram) -> bool:
    """f(t) <= g(t) for every t."""
    _check_same_ground(f, g)
    return all(f.evaluate(t).refines(g.evaluate(t)) for t in _sample_points(f, g))


def smooth(f: Formigram, eps: Fraction) -> Formigram:
    """Flow the formigram: t -> join of f over [t - eps, t + eps].

    The result is again a formigram with critical points among
    {t_i - eps, t_i + eps}; smoothing by a then b equals smoothing by a+b.
    eps is read through ``rat``; a negative eps raises NegativeEpsilon and
    an infinite one ValidationError.
    """
    eps = rat(eps)
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps} < 0")
    if not is_finite(eps):
        raise ValidationError(f"eps must be finite, got {eps}")
    if eps == 0 or not f.crit:
        return f
    cand = sorted({t + d for t in f.crit for d in (eps, -eps)})
    values = [f.values[0]]
    for k, c in enumerate(cand):
        mid = (c + cand[k + 1]) / 2 if k + 1 < len(cand) else c + 1
        for t in (c, mid):
            # join over the closed window [t - eps, t + eps]
            i, j = f._piece_of(t - eps), f._piece_of(t + eps)
            values.append(join_all(f.ground, f.values[i:j + 1]))
    return normalized(Formigram(f.ground, tuple(cand), tuple(values)))


def pullback_formigram(f: Formigram, phi: Surjection) -> Formigram:
    """Pointwise pullback along a surjection onto f's ground set."""
    if phi.target != f.ground:
        raise GroundSetMismatch("surjection target must equal the formigram ground")
    return Formigram(phi.source, f.crit, tuple([pullback(v, phi) for v in f.values]))


class CosheafTable:
    """All joins of consecutive runs of pieces: cell(i, j) = v_i \\/ ... \\/ v_j.

    Built row by row with cell(i, j) = cell(i, j-1) \\/ v_j, i.e. O(P^2)
    single joins for P pieces.
    """

    def __init__(self, f: Formigram):
        self.formigram = f
        p = f.num_pieces
        self._rows: list[list[SubPartition]] = []
        for i in range(p):
            row = [f.values[i]]
            for j in range(i + 1, p):
                row.append(row[-1].join(f.values[j]))
            self._rows.append(row)

    @property
    def num_pieces(self) -> int:
        return self.formigram.num_pieces

    def cell(self, i: int, j: int) -> SubPartition:
        if not 0 <= i <= j < self.num_pieces:
            raise IndexError(f"cell ({i}, {j}) outside 0 <= i <= j < {self.num_pieces}")
        return self._rows[i][j - i]


def evaluate_cosheaf(f: Formigram, interval: tuple[Fraction, Fraction]) -> SubPartition:
    """Join of f over the nonempty open interval (a, b)."""
    a, b = interval
    if not a < b:
        raise EmptyInterval(f"({a}, {b}) is not a nonempty open interval")
    # a critical point at either end lies outside the open interval
    i, j = f._piece_of(a), f._piece_of(b)
    return join_all(f.ground, f.values[i + i % 2:j - j % 2 + 1])


def all_pair_keys(ground: GroundSet) -> list[PairKey]:
    return [frozenset(p) for p in combinations_with_replacement(ground.elements, 2)]


def cosheaf_code(f: Formigram) -> dict[PairKey, Staircase]:
    """Merge staircase per unordered pair (singletons included).

    The staircase of {x, x'} is the closed set of intervals I on which x and
    x' share a block of the induced join (on which x is present, for a
    singleton key).  A run of pieces i..j that first merges the pair gives
    the generator (t_{i // 2}, t_{(j - 1) // 2}), where index m reads INF
    and index -1 reads NEG_INF.

    For each start piece i one union-find over the ground indices grows
    across pieces i, i + 1, ...: when two components merge at piece j,
    every pair across them is noted with (i // 2, (j - 1) // 2), and an
    element's singleton key is noted where the element first appears.  A
    pair's first merging piece does not decrease with i, so each key's
    index pairs arrive sorted in both coordinates, and dropping an entry
    whose left or right index equals its neighbour's leaves the antichain,
    which `_code` reads into one shared Staircase per distinct index list,
    keys in the order of `all_pair_keys`.  For n elements and m critical
    points this is O(m n (m + n)): O(m) starts, each reading O(m n) block
    members and noting O(n^2) pairs.
    """
    elements = f.ground.elements
    index = f.ground.index
    n = len(elements)
    pieces = [[[index[x] for x in blk] for blk in v.blocks] for v in f.values]
    # runs[a][b] and runs[b][a] are one list: the pair's (left, right) indices
    runs: list[list[list]] = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            runs[a][b] = runs[b][a] = []

    def note(run, left, right):
        if run and run[-1][1] == right:
            run[-1] = (left, right)
        elif not run or run[-1][0] != left:
            run.append((left, right))

    for i in range(len(pieces)):
        left = i // 2
        parent = list(range(n))
        members = [[a] for a in range(n)]
        present: set[int] = set()
        unions = 0
        for j in range(i, len(pieces)):
            right = (j - 1) // 2
            for blk in pieces[j]:
                for a in blk:
                    if a not in present:
                        present.add(a)
                        note(runs[a][a], left, right)
                r0 = find(parent, blk[0])
                for a in blk[1:]:
                    ra = find(parent, a)
                    if ra == r0:
                        continue
                    for x in members[ra]:
                        row = runs[x]
                        for y in members[r0]:
                            note(row[y], left, right)
                    if len(members[ra]) > len(members[r0]):
                        ra, r0 = r0, ra
                    parent[ra] = r0
                    members[r0] += members[ra]
                    unions += 1
            if unions == n - 1 and len(present) == n:
                break  # one block of everything: no later piece adds a run
    return _code(
        combinations_with_replacement(elements, 2),
        lambda x, y: tuple(runs[index[x]][index[y]]),
        INT, (*f.crit, INF), (*f.crit, NEG_INF),  # index -1 reads NEG_INF on the right
    )


def _code(pairs, run, ambient: str, lefts, rights) -> dict[PairKey, Staircase]:
    """{frozenset((x, y)): staircase} for the element pairs (x, y), in
    their order, from `run(x, y)`: the (i, j) index pairs of the normalized
    antichain sorted by l, whose generators are (lefts[i], rights[j]).  Keys
    with equal runs share one (frozen) Staircase, built without the
    normalizing sweep (`_antichain`).  `cosheaf_code` and the grid code of
    `compare` both build through it."""
    shared: dict[tuple, Staircase] = {}
    out: dict[PairKey, Staircase] = {}
    for x, y in pairs:
        ij = run(x, y)
        u = shared.get(ij)
        if u is None:
            u = shared[ij] = _antichain(ambient, tuple([(lefts[i], rights[j]) for i, j in ij]))
        out[frozenset((x, y))] = u
    return out


def interleaving_distance_with_witness(
    f: Formigram, g: Formigram
) -> tuple[RatX, PairKey]:
    """Largest pairwise staircase Hausdorff distance, with an attaining pair."""
    _check_same_ground(f, g)
    code_f = cosheaf_code(f)
    code_g = cosheaf_code(g)
    best: RatX = Fraction(0)
    witness = frozenset({f.ground.elements[0]})
    for key in code_f:
        d = hausdorff(code_f[key], code_g[key])
        if d > best:
            best, witness = d, key
    return best, witness


def interleaving_distance(f: Formigram, g: Formigram) -> RatX:
    """The formigram interleaving distance (exact; INF when no interleaving
    exists)."""
    return interleaving_distance_with_witness(f, g)[0]


# ---------------------------------------------------------------------------
# dendrograms


def is_dendrogram(f: Formigram) -> str | None:
    """None if f is a dendrogram (empty before 0, partitions from 0 on,
    monotone, eventually one block, right-continuous); else a message."""
    if not f.crit or f.crit[0] != 0:
        return "first critical point must be 0"
    if f.values[0].blocks != ():
        return "value before time 0 must be the empty subpartition"
    for k in range(len(f.crit)):
        point, right = f.values[2 * k + 1], f.values[2 * k + 2]
        if point != right:
            return f"not right-continuous at critical point #{k}"
        if not point.is_partition():
            return f"value at critical point #{k} is not a partition of the ground set"
        if k >= 1 and not f.values[2 * k].refines(point):
            return f"not monotone at critical point #{k}"
    if len(f.values[-1].blocks) != 1:
        return "final value must be the one-block partition"
    return None


@dataclass(frozen=True)
class Ultrametric:
    """Symmetric matrix with a zero diagonal over a ground set satisfying
    the ultra-triangle inequality (checked by `violations`, not the
    constructor).  The entries are read by `_read_matrix`."""

    ground: GroundSet
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        entries = _read_matrix(self.ground, self.entries)[0]
        object.__setattr__(self, "entries", tuple([tuple(row) for row in entries]))

    def __call__(self, x: str, y: str) -> Fraction:
        i, j = self.ground.index[x], self.ground.index[y]
        return self.entries[i][j]

    def violations(self) -> list[tuple[str, str, str]]:
        out = []
        for x in self.ground:
            for y in self.ground:
                for z in self.ground:
                    if self(x, z) > max(self(x, y), self(y, z)):
                        out.append((x, y, z))
        return out


def _read_matrix(ground: GroundSet, rows) -> tuple[list[list[Fraction]], list[list[int]], int]:
    """rows as a finite symmetric n x n matrix with a zero diagonal over
    ground, both as read and on one integer scale S: (d, S * d, S).  The
    entries are read through ``rat``: an inexact float raises ValueError,
    anything else that breaks these rules InvalidMetric."""
    n = len(ground)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InvalidMetric(f"need a {n}x{n} matrix")
    d = [[rat(x) for x in row] for row in rows]
    if not all(is_finite(x) for row in d for x in row):
        raise InvalidMetric("not a finite metric: an entry is infinite")
    scale = common_scale(d)
    on = rows_on_scale(d, scale)
    for i, row in enumerate(on):
        if row[i]:
            raise InvalidMetric("diagonal must be zero")
        for j in range(i):
            if row[j] != on[j][i]:
                raise InvalidMetric("matrix must be symmetric")
    return d, on, scale


def _check_metric(ground: GroundSet, d) -> tuple[list[list[int]], int]:
    """d on one integer scale S, as (S * d, S), if `_read_matrix` reads it
    and every off-diagonal distance is positive; InvalidMetric otherwise."""
    _, d, scale = _read_matrix(ground, d)
    for i, row in enumerate(d):
        for x in row[i + 1:]:
            if x <= 0:
                raise InvalidMetric("off-diagonal distances must be positive")
    return d, scale


def single_linkage(ground: GroundSet, d: list[list[Fraction]]) -> Formigram:
    """Single-linkage dendrogram: at scale t, blocks are the components of
    the 'distance <= t' graph (transitive closure of the threshold relation).

    Kruskal on one integer scale S: the (S * distance, i, j) edges are
    sorted once as ints and united in order; after the last edge of each
    distinct weight the partition is emitted, with the weight over S as its
    critical point, if that weight merged anything.  O(n^2 log n)."""
    d, scale = _check_metric(ground, d)
    n = len(ground)
    edges = sorted([(d[i][j], i, j) for i in range(n) for j in range(i + 1, n)])
    parent = list(range(n))
    crit: list[Fraction] = [Fraction(0)]
    start = SubPartition.singletons(ground)
    values: list[SubPartition] = [SubPartition.empty(ground), start, start]
    for t, same_weight in groupby(edges, key=itemgetter(0)):
        changed = False
        for _, i, j in same_weight:
            ri, rj = find(parent, i), find(parent, j)
            if ri != rj:
                parent[ri] = rj
                changed = True
        if changed:
            part = SubPartition.from_forest(ground, parent, range(n))
            crit.append(Fraction(t, scale))
            values.append(part)
            values.append(part)
    return Formigram(ground, tuple(crit), tuple(values))


def ultrametric(f: Formigram) -> Ultrametric:
    """Merge-time matrix u(x, x') = min{t : x, x' share a block of f(t)}.

    A dendrogram's point values only coarsen, so one union-find over the
    ground indices walks them in order: when two components first share a
    block of the value at critical point k, every pair across them merges
    at t_k.  For n elements and m critical points that is O(m n) `find`
    calls and O(n^2) entries written."""
    problem = is_dendrogram(f)
    if problem is not None:
        raise NotADendrogram(problem)
    index = f.ground.index
    n = len(index)
    entries = [[Fraction(0)] * n for _ in range(n)]
    parent = list(range(n))
    members = [[a] for a in range(n)]
    for k, t in enumerate(f.crit):
        for blk in f.values[2 * k + 1].blocks:
            r0 = find(parent, index[blk[0]])
            for x in blk[1:]:
                ra = find(parent, index[x])
                if ra == r0:
                    continue
                for a in members[ra]:
                    row = entries[a]
                    for b in members[r0]:
                        row[b] = entries[b][a] = t
                if len(members[ra]) > len(members[r0]):
                    ra, r0 = r0, ra
                parent[ra] = r0
                members[r0] += members[ra]
    # the walk wrote a finite symmetric Fraction matrix with a zero
    # diagonal, so the result skips the constructor's reading and checks
    u = object.__new__(Ultrametric)
    object.__setattr__(u, "ground", f.ground)
    object.__setattr__(u, "entries", tuple([tuple(row) for row in entries]))
    return u
