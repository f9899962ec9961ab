"""The lattice of subpartitions of a finite ground set.

A subpartition is a partition of a subset of the ground set, ordered by
refinement (P <= Q iff every block of P sits inside a block of Q).  The empty
subpartition is the zero element and the one-block partition the unit.  A
join of any number of parts is one union-find pass over all their blocks
(`join_all`); meets intersect blocks pairwise.  A value the library builds
valid by design skips its constructor's checks through one door,
`_built`: the empty, discrete and one-block partitions and the union-find
reads of `join_all` and `single_linkage`, and the package's staircases,
formigrams and ultrametrics built that way too; meets, and values from
outside, are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .errors import GroundSetMismatch, SizeGuardExceeded, ValidationError

MIN_REPS_GUARD = 6
ENUMERATION_GUARD = 5


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of distinct element names; the order is canonical."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValidationError("ground set must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("ground set element names must be distinct")
        object.__setattr__(self, "elements", tuple(self.elements))

    @cached_property
    def index(self) -> Mapping[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)


def find(parent, x):
    """Root of x in a union-find forest stored as a list or dict of parents
    (a root is its own parent), halving the path on the way up.  The one
    union-find of the library: joins, spanning trees, single linkage, the
    cosheaf code, ``ultrametric`` and the elder rule read it."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _check_same_ground(g: GroundSet, h: GroundSet):
    """The one same-ground check (lattice operations, the d_F and grid
    distances, ``pointwise_refines`` and the value checks of Formigram and
    GridClustering), given the two ground sets: GroundSetMismatch naming
    both."""
    if g != h:
        raise GroundSetMismatch(f"ground sets differ: {g.elements} vs {h.elements}")


@dataclass(frozen=True)
class SubPartition:
    """A partition of a subset of `ground`, in canonical block order.

    Canonical form: members of each block sorted by ground index, blocks
    sorted by their smallest member index.  Structural equality of canonical
    forms decides lattice equality.
    """

    ground: GroundSet
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        idx = self.ground.index
        seen = set()
        canon = []
        for blk in self.blocks:
            if not blk:
                raise ValidationError("empty block in subpartition")
            for x in blk:
                if x not in idx:
                    raise ValidationError(f"block element {x!r} not in ground set")
                if x in seen:
                    raise ValidationError(f"element {x!r} appears in two blocks")
                seen.add(x)
            canon.append(tuple(sorted(blk, key=idx.__getitem__)))
        canon.sort(key=lambda b: idx[b[0]])
        object.__setattr__(self, "blocks", tuple(canon))

    @classmethod
    def empty(cls, ground: GroundSet) -> "SubPartition":
        return _built(cls, ground=ground, blocks=())

    @classmethod
    def singletons(cls, ground: GroundSet) -> "SubPartition":
        return _built(cls, ground=ground, blocks=tuple([(x,) for x in ground.elements]))

    @classmethod
    def one_block(cls, ground: GroundSet) -> "SubPartition":
        return _built(cls, ground=ground, blocks=(ground.elements,))

    @cached_property
    def block_index(self) -> Mapping[str, int]:
        """Element name -> index of its block (absent elements missing)."""
        return {x: i for i, blk in enumerate(self.blocks) for x in blk}

    @cached_property
    def underlying(self) -> frozenset[str]:
        return frozenset(self.block_index)

    def same_block(self, x: str, y: str) -> bool:
        bi = self.block_index
        i = bi.get(x)
        return i is not None and i == bi.get(y)

    def __contains__(self, x: str) -> bool:
        return x in self.block_index

    def is_partition(self) -> bool:
        return len(self.underlying) == len(self.ground)

    def refines(self, other: "SubPartition") -> bool:
        """True iff every block of self is contained in a block of other."""
        _check_same_ground(self.ground, other.ground)
        bi = other.block_index
        for blk in self.blocks:
            j = bi.get(blk[0])
            if j is None:
                return False
            if any(bi.get(x) != j for x in blk[1:]):
                return False
        return True

    def __le__(self, other: "SubPartition") -> bool:
        return self.refines(other)

    def __ge__(self, other: "SubPartition") -> bool:
        return other.refines(self)

    def join(self, other: "SubPartition") -> "SubPartition":
        """Finest common coarsening: the two-part `join_all`, O(members) finds."""
        return join_all(self.ground, (self, other))

    def meet(self, other: "SubPartition") -> "SubPartition":
        """Coarsest common refinement: nonempty pairwise block intersections."""
        _check_same_ground(self.ground, other.ground)
        out = []
        for b1 in self.blocks:
            s1 = set(b1)
            for b2 in other.blocks:
                inter = s1.intersection(b2)
                if inter:
                    out.append(tuple(inter))
        return SubPartition(self.ground, tuple(out))

    def __str__(self) -> str:
        return "{" + " | ".join(",".join(b) for b in self.blocks) + "}"


def join_all(ground: GroundSet, parts: Iterable[SubPartition]) -> SubPartition:
    """Finest common coarsening of the parts, in one pass: each block adds a
    star of edges (its first member to each other one) to one union-find
    over the ground indices, so the pass makes O(total block members) `find`
    calls however many parts there are, and `_from_forest` reads the trees
    back over the members seen, in ascending order.  Each part's ground is
    checked against `ground`.  No parts give the empty subpartition."""
    idx = ground.index
    parent = list(range(len(idx)))
    members = set()
    for part in parts:
        _check_same_ground(ground, part.ground)
        for blk in part.blocks:
            i0 = idx[blk[0]]
            members.add(i0)
            r0 = find(parent, i0)
            for x in blk[1:]:
                i = idx[x]
                members.add(i)
                r = find(parent, i)
                if r != r0:
                    parent[r] = r0
    return _from_forest(ground, parent, sorted(members))


def _built(cls, **fields):
    """An instance of the frozen dataclass cls on fields its caller built
    valid by design, past the constructor's reading, checks and sorts:
    one ``__dict__`` update, O(1).  The one door past the value
    constructors.  Through it go the canonical subpartitions of `empty`,
    `singletons`, `one_block`, `_from_forest` and `single_linkage` (blocks
    nonempty, disjoint, on the ground, members in ground order, blocks in
    the order of their first members), the normalized antichains of the
    cosheaf and grid codes and of the sublevel sweep (sorted by l, of
    Fractions and infinities on their own sides), and `single_linkage`'s
    Formigram and `ultrametric`'s Ultrametric."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _from_forest(ground: GroundSet, parent: list[int], members: Iterable[int]) -> SubPartition:
    """Blocks are the union-find trees over the ground indices `members`,
    each block listed from its first member on.  Its caller, `join_all`,
    passes ascending, distinct indices, so each block's members come in
    ground order and the blocks in the order of their first members: the
    value is canonical by construction and goes through `_built`.
    Private, since another order would break that."""
    comps: dict[int, list[str]] = {}
    elements = ground.elements
    for i in members:
        comps.setdefault(find(parent, i), []).append(elements[i])
    return _built(SubPartition, ground=ground, blocks=tuple([tuple(c) for c in comps.values()]))


def is_join_irreducible(p: SubPartition) -> bool:
    """A subpartition is join-irreducible iff it is one singleton or one
    doubleton block."""
    return len(p.blocks) == 1 and len(p.blocks[0]) <= 2


def irreducible_parts(p: SubPartition) -> list[SubPartition]:
    """All singleton blocks {x} for present x and doubletons {x,x'} for
    merged pairs; their join recovers p."""
    out = []
    for x in p.ground:
        if x in p:
            out.append(SubPartition(p.ground, ((x,),)))
    for blk in p.blocks:
        for x, y in combinations(blk, 2):
            out.append(SubPartition(p.ground, ((x, y),)))
    return out


def _spanning_trees(block: tuple[str, ...]) -> Iterator[frozenset[frozenset[str]]]:
    """All spanning trees of the complete graph on `block`, as edge sets."""
    k = len(block)
    edges = list(combinations(block, 2))
    for tree in combinations(edges, k - 1):
        parent = {x: x for x in block}
        acyclic = True
        for u, v in tree:
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            yield frozenset(frozenset(e) for e in tree)


def minimal_join_representations(
    p: SubPartition, guard: int = MIN_REPS_GUARD
) -> list[frozenset[SubPartition]]:
    """All minimal irredundant representations of p as joins of irreducibles.

    An irredundant representation uses, per block, either the forced
    singleton (blocks of size 1) or a set of doubletons forming a spanning
    tree of the block: any extra edge or any covered singleton is redundant,
    and dropping a tree edge strictly shrinks the join.  Trees of one block
    all have the same edge count, so no representation join-refines another;
    every irredundant representation is therefore minimal, and they are
    exactly the products of spanning-tree choices.
    """
    if len(p.underlying) > guard:
        raise SizeGuardExceeded(
            f"underlying set has {len(p.underlying)} elements (guard {guard})"
        )
    per_block: list[list[frozenset[SubPartition]]] = []
    for blk in p.blocks:
        if len(blk) == 1:
            per_block.append([frozenset([SubPartition(p.ground, (blk,))])])
        else:
            choices = []
            for tree in _spanning_trees(blk):
                choices.append(
                    frozenset(
                        SubPartition(p.ground, (tuple(sorted(e)),)) for e in tree
                    )
                )
            per_block.append(choices)
    reps = [frozenset()]
    for choices in per_block:
        reps = [r | c for r in reps for c in choices]
    return reps


@dataclass(frozen=True)
class Surjection:
    """A total surjective map between ground sets, source -> target."""

    source: GroundSet
    target: GroundSet
    map: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        if set(self.map) != set(self.source.elements):
            raise ValidationError("map must be total on the source ground set")
        img = set(self.map.values())
        if not img.issubset(set(self.target.elements)):
            raise ValidationError("map image must lie in the target ground set")
        if img != set(self.target.elements):
            raise ValidationError("map must be surjective onto the target")
        object.__setattr__(self, "map", dict(self.map))

    @classmethod
    def identity(cls, ground: GroundSet) -> "Surjection":
        return cls(ground, ground, {x: x for x in ground})

    def __call__(self, x: str) -> str:
        return self.map[x]

    @cached_property
    def fibers(self) -> Mapping[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {x: [] for x in self.target}
        for z in self.source:
            out[self.map[z]].append(z)
        return {x: tuple(zs) for x, zs in out.items()}


def pullback(p: SubPartition, phi: Surjection) -> SubPartition:
    """Preimage subpartition: blocks are phi^{-1}(B) for blocks B of p."""
    if phi.target != p.ground:
        raise GroundSetMismatch("surjection target must equal the subpartition ground")
    blocks = []
    for blk in p.blocks:
        pre = tuple([z for x in blk for z in phi.fibers[x]])
        blocks.append(pre)
    return SubPartition(phi.source, tuple(blocks))


def enumerate_subpartitions(
    ground: GroundSet, guard: int = ENUMERATION_GUARD
) -> list[SubPartition]:
    """Every subpartition of the ground set, exactly once.

    Each element is either absent, joins an existing block, or opens a new
    block; there are 15 subpartitions of a 3-set.
    """
    if len(ground) > guard:
        raise SizeGuardExceeded(f"|X| = {len(ground)} exceeds guard {guard}")
    out: list[SubPartition] = []

    def rec(i: int, blocks: list[list[str]]):
        if i == len(ground):
            out.append(SubPartition(ground, tuple([tuple(b) for b in blocks])))
            return
        x = ground.elements[i]
        rec(i + 1, blocks)  # absent
        for b in blocks:
            b.append(x)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out
