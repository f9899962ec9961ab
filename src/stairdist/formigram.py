"""Formigrams: piecewise-constant subpartition-valued maps on the line.

A formigram is stored by its critical points t_1 < ... < t_m and the 2m+1
values v_0, f(t_1), v_1, ..., f(t_m), v_m taken on the alternating open
intervals and critical points.  Local maximality (v_{k-1} <= f(t_k) >= v_k)
makes the induced map on open intervals well behaved; the constructor checks
structure only, `validate` reports maximality violations.

The interleaving distance is computed by decomposing a formigram into its
pair/singleton merge staircases (the cosheaf code) and taking the largest
staircase Hausdorff distance.  The code is built in one pass: from each
open-interval piece one union-find grows to the right and records the
first piece that merges each pair (or shows each element), which gives every
staircase's generators already sorted; for n elements and m critical
points that is O(m n (m + n)).  `CosheafTable`, the O(m^2) table of joins
of consecutive runs of pieces, stays as a public reference object and is
not used by the code.

The distance is infinite exactly when some key's two staircases lie
infinitely far apart, and a staircase shows that in its tails.  Along the
flow lines its profile has left-tail slope 1/2 iff the key is merged in
v_0 (a generator with right end NEG_INF), right-tail slope 1/2 iff merged
in v_m (a generator with left end INF), and is empty iff not merged in the
join of all values; the key's two profiles stay a bounded distance apart
iff its membership agrees in all three (merged meaning present, for a
singleton key).  Two values differ iff some key's membership does, so
`interleaving_distance` answers INF for unequal outer values before any
code is built.  A difference in the join alone is left to the walk over
the codes: checking the joins up front costs every finite pair two more
joins.  The witness has one route, that walk:
`interleaving_distance_with_witness` always builds both codes and names
the first key in code order that attains the largest distance, INF
included.

Dendrograms run on one integer scale.  `single_linkage` reads each matrix
entry once (`_read_matrix`, through `rat.rows_on_scale`), takes a minimum
spanning tree by an O(n^2) Prim scan of the int matrix (Gower and Ross:
single linkage is read off that tree) and unites its n - 1 edges, sorted,
one weight group at a time; each partition is the blocks kept per root,
canonical by construction (`lattice._built`), so it costs
2 (n - 1) `find` calls in all.  `ultrametric` reads every merge time from
one union-find walk over the point values, O(m n) `find` calls, and the
same walk checks that its input is a dendrogram, so it owns that rule and
`is_dendrogram` returns its message.  Both build their result past its
constructor's re-checks, through the same door.  `Fraction` appears only
in the critical points and the ultrametric entries.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import (
    EmptyInterval,
    GroundSetMismatch,
    InvalidMetric,
    NegativeEpsilon,
    NotADendrogram,
    ValidationError,
)
from .lattice import GroundSet, SubPartition, Surjection, find, join_all, pullback
from .lattice import _built, _check_same_ground
from .rat import INF, NEG_INF, RatX, fmt_rat, increasing_rats, is_finite, rat, rows_on_scale
from .staircase import INT, Staircase, hausdorff

PairKey = frozenset  # frozenset({x}) or frozenset({x, y})


@dataclass(frozen=True)
class Formigram:
    """Critical points are read by ``rat.increasing_rats`` (finite and
    strictly increasing, else ValidationError); 2m + 1 values are needed
    (else ValidationError), each on the formigram's ground (else
    GroundSetMismatch).  Both are stored as tuples, so equal values compare
    equal and hash alike whatever sequence they came in."""

    ground: GroundSet
    crit: tuple[Fraction, ...]
    values: tuple[SubPartition, ...]

    def __post_init__(self):
        object.__setattr__(self, "crit", increasing_rats(self.crit, "critical points"))
        object.__setattr__(self, "values", tuple(self.values))
        m = len(self.crit)
        if len(self.values) != 2 * m + 1:
            raise ValidationError(
                f"need {2 * m + 1} values for {m} critical points, got {len(self.values)}"
            )
        for v in self.values:
            _check_same_ground(self.ground, v.ground)

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
        for side, v in (("left", f.values[2 * k]), ("right", f.values[2 * k + 2])):
            if not v.refines(point):
                return (
                    f"not locally maximal at critical point #{k} (t = {fmt_rat(t)}): "
                    f"{side} value exceeds point value"
                )
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
    _check_same_ground(f.ground, g.ground)
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
        raise NegativeEpsilon(f"eps = {fmt_rat(eps)} < 0")
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
        raise EmptyInterval(f"({fmt_rat(a)}, {fmt_rat(b)}) is not a nonempty open interval")
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

    For each interval piece i (even i; a run from the critical point after
    it has the same left index and merges no earlier) one union-find over
    the ground indices grows across pieces i, i + 1, ...: when two
    components merge at piece j, every pair across them is noted with
    (i // 2, (j - 1) // 2).  An element that first appears (presence is a
    list of flags and a count) joins its block's tree at once and is
    crossed with that tree, itself included, so its singleton key is noted
    with its pairs, by the one inline update of a run.  Each start has its
    own left index, and a pair's first merging piece does not decrease
    with i, so each key's index pairs arrive sorted in both coordinates,
    and an entry replaced by the next one when their right indices agree
    leaves the antichain, which `_code` reads into one shared Staircase
    per distinct index list, keys in the order of `all_pair_keys`.  For n elements and m critical points this
    is O(m n (m + n)): m + 1 starts, each reading O(m n) block members and
    noting O(n^2) pairs.
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
    # a start at critical point k (piece 2k + 1) shares left index k with
    # the start at piece 2k, whose runs hold one piece more and so merge
    # every pair no later: its notes would change no run, so it is skipped
    for i in range(0, len(pieces), 2):
        left = i // 2
        parent = list(range(n))
        members = [[a] for a in range(n)]
        present = [False] * n
        shown = unions = 0
        for j in range(i, len(pieces)):
            right = (j - 1) // 2
            lr = (left, right)
            for blk in pieces[j]:
                r0 = find(parent, blk[0])
                for a in blk:
                    if present[a]:
                        ra = find(parent, a)
                        if ra == r0:
                            continue
                        xs = members[ra]
                    else:  # alone until now: a joins r0's tree, and meets itself too
                        present[a] = True
                        shown += 1
                        if a != r0:
                            parent[a] = r0
                            members[r0].append(a)
                            unions += 1
                        ra, xs = r0, (a,)
                    for x in xs:
                        row = runs[x]
                        for y in members[r0]:
                            run = row[y]
                            if run and run[-1][1] == right:
                                run[-1] = lr
                            else:
                                run.append(lr)
                    if ra != r0:
                        if len(xs) > len(members[r0]):
                            ra, r0 = r0, ra
                        parent[ra] = r0
                        members[r0] += members[ra]
                        unions += 1
            if unions == n - 1 and shown == n:
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
    normalizing sweep (`lattice._built`).  `cosheaf_code` and the grid code of
    `compare` both build through it."""
    shared: dict[tuple, Staircase] = {}
    out: dict[PairKey, Staircase] = {}
    for x, y in pairs:
        ij = run(x, y)
        u = shared.get(ij)
        if u is None:
            gens = tuple([(lefts[i], rights[j]) for i, j in ij])
            u = shared[ij] = _built(Staircase, ambient=ambient, gens=gens)
        out[frozenset((x, y))] = u
    return out


def interleaving_distance_with_witness(
    f: Formigram, g: Formigram
) -> tuple[RatX, PairKey]:
    """Largest pairwise staircase Hausdorff distance, with the first
    attaining pair key in code order, INF included: both codes are built
    and every key's pair of staircases meets in one `hausdorff` call."""
    _check_same_ground(f.ground, g.ground)
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
    exists).  Unequal first or last values give INF before any code is
    built; otherwise the value of `interleaving_distance_with_witness`."""
    _check_same_ground(f.ground, g.ground)
    if f.values[0] != g.values[0] or f.values[-1] != g.values[-1]:
        return INF
    return interleaving_distance_with_witness(f, g)[0]


# ---------------------------------------------------------------------------
# dendrograms


def is_dendrogram(f: Formigram) -> str | None:
    """None if f is a dendrogram (empty before 0, partitions from 0 on,
    monotone, eventually one block, right-continuous); else the message
    of the first check that fails.  The checks run in `ultrametric`'s one
    union-find walk, O(m n) `find` calls, which owns the rule; this
    returns the message it raises NotADendrogram with."""
    try:
        ultrametric(f)
    except NotADendrogram as e:
        return str(e)
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
    ground, both as read and on one integer scale S: (d, S * d, S).
    `rows_on_scale` reads each entry once: an inexact float raises
    ValueError, and anything else that breaks these rules InvalidMetric (an
    infinity only once every entry has passed ``rat``); the diagonal and
    the symmetry are checked on the ints, row by row."""
    n = len(ground)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InvalidMetric(f"need a {n}x{n} matrix")
    try:
        d, on, scale = rows_on_scale(rows)
    except OverflowError:  # an infinity, the one entry with no ratio
        raise InvalidMetric("not a finite metric: an entry is infinite") from None
    for i, row in enumerate(on):
        if row[i]:
            raise InvalidMetric("diagonal must be zero")
        for j in range(i):
            if row[j] != on[j][i]:
                raise InvalidMetric("matrix must be symmetric")
    return d, on, scale


def single_linkage(ground: GroundSet, d: list[list[Fraction]]) -> Formigram:
    """Single-linkage dendrogram: at scale t, blocks are the components of
    the 'distance <= t' graph (transitive closure of the threshold relation).

    The matrix is read by `_read_matrix`; an off-diagonal distance that is
    not positive then raises InvalidMetric.  Those components are the
    components of a minimum spanning tree's edges of weight <= t, so a
    Prim scan of the int matrix, O(n^2), finds the n - 1 tree edges, and
    only they are sorted.  They are united one weight group at a time, and
    after each group the partition is emitted, with the weight over S as
    its critical point: every tree edge merges two blocks, so each distinct
    weight gives one critical point.  Each root is its block's least index
    and keeps the block's names in ground order, in a dict whose order is
    that of the roots, so the partition is the dict's values, canonical by
    construction: 2 (n - 1) `find` calls in all."""
    _, d, scale = _read_matrix(ground, d)
    n = len(d)
    # best[p]: the least distance from rest[p] to the tree; via[p]: its end there
    rest, best, via = list(range(1, n)), d[0][1:], [0] * (n - 1)
    edges = []
    while rest:
        p = best.index(min(best))
        v = rest.pop(p)
        edges.append((best.pop(p), via.pop(p), v))
        row = d[v]
        for p, w in enumerate(rest):
            if row[w] < best[p]:
                best[p], via[p] = row[w], v
    edges.sort()
    # a tree edge of least weight has the least off-diagonal distance
    if edges and edges[0][0] <= 0:
        raise InvalidMetric("off-diagonal distances must be positive")
    index = ground.index
    parent = list(range(n))
    blocks = {i: (x,) for i, x in enumerate(ground.elements)}
    crit: list[Fraction] = [Fraction(0)]
    start = SubPartition.singletons(ground)
    values: list[SubPartition] = [SubPartition.empty(ground), start, start]
    for k, (t, a, b) in enumerate(edges):
        ra, rb = find(parent, a), find(parent, b)
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        blocks[ra] = tuple(sorted(blocks[ra] + blocks.pop(rb), key=index.__getitem__))
        if k + 1 == len(edges) or edges[k + 1][0] != t:
            part = _built(SubPartition, ground=ground, blocks=tuple(blocks.values()))
            crit.append(Fraction(t, scale))
            values += (part, part)
    return _built(Formigram, ground=ground, crit=tuple(crit), values=tuple(values))


def ultrametric(f: Formigram) -> Ultrametric:
    """Merge-time matrix u(x, x') = min{t : x, x' share a block of f(t)},
    for a dendrogram f; NotADendrogram otherwise.

    One union-find over the ground indices walks the point values in
    order: when two components first share a block of the value at
    critical point k, every pair across them merges at t_k.  The walk
    checks the dendrogram as it goes, message by message in this order:
    before it, that the first critical point is 0 and the value before it
    empty; at each critical point k, before uniting, that the point value
    equals the value after it (right-continuous) and that its block sizes
    sum to n (a partition); after uniting, that the forest has as many
    components as the point value has blocks, which holds exactly when the
    forest's partition, point k - 1, refines it (monotone); after the
    walk, that the last value has one block.  For n elements and m
    critical points that is O(m n) `find` calls and O(n^2) entries
    written, with no `refines` call."""
    crit, values = f.crit, f.values
    if not crit or crit[0] != 0:
        raise NotADendrogram("first critical point must be 0")
    if values[0].blocks != ():
        raise NotADendrogram("value before time 0 must be the empty subpartition")
    index = f.ground.index
    n = len(index)
    entries = [[Fraction(0)] * n for _ in range(n)]
    parent = list(range(n))
    members = [[a] for a in range(n)]
    components = n
    for k, t in enumerate(crit):
        point = values[2 * k + 1]
        if point != values[2 * k + 2]:
            raise NotADendrogram(f"not right-continuous at critical point #{k}")
        if sum(map(len, point.blocks)) != n:
            raise NotADendrogram(
                f"value at critical point #{k} is not a partition of the ground set"
            )
        for blk in point.blocks:
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
                components -= 1
        if components != len(point.blocks):
            raise NotADendrogram(f"not monotone at critical point #{k}")
    if len(values[-1].blocks) != 1:
        raise NotADendrogram("final value must be the one-block partition")
    # the walk wrote a finite symmetric Fraction matrix with a zero diagonal
    return _built(Ultrametric, ground=f.ground, entries=tuple([tuple(row) for row in entries]))

