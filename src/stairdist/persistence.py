"""Barcodes, rank functions and their staircase distances.

A bar is a closed interval [birth, death] (death may be +inf) counted with
multiplicity.  The rank at (a, b) counts bars containing [a, b]; the n-th
sublevel staircase is the closed region where the rank stays <= n, and the
erosion distance is the largest Hausdorff distance between matching
sublevel staircases.  All grades of a barcode come from one sweep over the
strips between consecutive births, each strip giving one generator per
grade.  Degree-0 persistence of a line-indexed filtration is computed by
the elder rule, and the bottleneck distance by bipartite matching
feasibility over the finite candidate set.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from fractions import Fraction
from operator import itemgetter

from .errors import EmptyInterval, InvalidFiltration, ValidationError
from .filtration import RFiltration, validate_filtration
from .lattice import find
from .rat import INF, NEG_INF, RatX, is_finite, rat
from .staircase import INT, Staircase, hausdorff, staircase

Bar = tuple[Fraction, RatX]
Barcode = tuple[Bar, ...]  # as built by barcode(); the distances accept raw pairs


def barcode(bars) -> Barcode:
    """Canonical (sorted) barcode from an iterable of (birth, death)."""
    out = []
    for b, d in bars:
        b, d = rat(b), rat(d)
        if not b <= d:
            raise ValidationError(f"bar [{b}, {d}] has birth after death")
        out.append((b, d))
    return tuple(sorted(out))


def rank(bars: Barcode, a: Fraction, b: Fraction) -> int:
    """Number of bars [p, q] with p <= a and b <= q."""
    if not a < b:
        raise EmptyInterval(f"need a < b, got ({a}, {b})")
    return sum(1 for p, q in bars if p <= a and b <= q)


def _sublevels(bars: Barcode, grades: int, first: int = 0) -> list[Staircase]:
    """The sublevel staircases of grades first .. grades - 1, by one sweep
    over the births.

    On the strip alo < a < ahi between consecutive distinct births (with
    -inf and +inf at the ends) the live bars are those born at or before
    alo, and the rank at (a, b) counts the live deaths >= b.  So the rank
    is at most n exactly above D, the (n + 1)-th largest live death (-inf
    when fewer than n + 1 bars are live), and the strip yields the single
    generator (ahi, max(D, floor)), none when D = +inf.  floor, the largest
    finite death <= alo, lifts the corner as far as the region allows:
    what it cuts off has a < b < floor <= alo, and the earlier strips cover
    that, since the rank only drops as a decreases.  Each grade gets at
    most (distinct births + 1) generators: O(B (grades - first)) for the
    sweep, O(B^2) element moves for the sorted inserts, and one O(B log B)
    normalization per grade collected.  ``bars`` may be raw (birth, death)
    pairs: they are read through ``barcode`` first.
    """
    bars = barcode(bars)
    deaths = sorted({d for _, d in bars if is_finite(d)})
    by_birth = iter(sorted(bars, key=itemgetter(0)))
    nxt = next(by_birth, None)
    live: list[RatX] = []  # deaths of the bars born at or before alo, ascending
    gens: list[list] = [[] for _ in range(first, grades)]
    alo: RatX = NEG_INF
    for ahi in [*sorted({b for b, _ in bars}), INF]:
        k = bisect_right(deaths, alo)
        floor = deaths[k - 1] if k else NEG_INF
        for n, out in enumerate(gens, first):
            d = live[-n - 1] if n < len(live) else NEG_INF
            if d != INF:
                out.append((ahi, max(d, floor)))
        while nxt is not None and nxt[0] == ahi:
            insort(live, nxt[1])
            nxt = next(by_birth, None)
        alo = ahi
    return [staircase(g, INT) for g in gens]


def sublevel_staircase(bars: Barcode, n: int) -> Staircase:
    """Closure of the region where the rank is at most n.

    Read from the strip sweep of ``_sublevels``, which collects grade n
    only: at most one generator per strip between consecutive distinct
    births, and one normalization.  Grades from B up are all the same
    region, so n is capped at B.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    n = min(n, len(bars))
    return _sublevels(bars, n + 1, n)[0]


def erosion_distance(b1: Barcode, b2: Barcode) -> RatX:
    """max over grades n of the Hausdorff distance between the n-th
    sublevel staircases; beyond the larger bar count both are full.  Each
    barcode is swept once for all its grades; raw (birth, death) pairs are
    read through ``barcode``."""
    grades = max(len(b1), len(b2))
    best: RatX = Fraction(0)
    for u, v in zip(_sublevels(b1, grades), _sublevels(b2, grades)):
        d = hausdorff(u, v)
        if d > best:
            best = d
    return best


def h0_barcode(f: RFiltration) -> Barcode:
    """Degree-0 persistence by the elder rule.

    Vertices create components at their births; edges, in birth order,
    merge the younger component (larger (birth, vertex-index) creation
    record) into the older one, killing it.  Survivors live forever.
    """
    problem = validate_filtration(f)
    if problem is not None:
        raise InvalidFiltration(problem)
    idx = f.ground.index
    verts = sorted(
        (s for s in f.births if len(s) == 1), key=lambda s: idx[next(iter(s))]
    )
    record = {}  # root vertex -> (birth, vertex index)
    parent = {}
    for s in verts:
        v = next(iter(s))
        parent[v] = v
        record[v] = (f.births[s], idx[v])

    edges = sorted(
        (s for s in f.births if len(s) == 2),
        key=lambda s: (f.births[s], sorted(idx[v] for v in s)),
    )
    bars = []
    for s in edges:
        u, v = s
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            continue
        if record[ru] > record[rv]:
            ru, rv = rv, ru
        bars.append((record[rv][0], f.births[s]))  # the younger dies
        parent[rv] = ru
    for v in parent:
        if find(parent, v) == v:
            bars.append((record[v][0], INF))
    return barcode(bars)


def _match_cost(p: Bar, q: Bar) -> RatX:
    if is_finite(p[1]) != is_finite(q[1]):
        return INF
    dd = Fraction(0) if not is_finite(p[1]) else abs(p[1] - q[1])
    return max(abs(p[0] - q[0]), dd)


def _deletion_cost(p: Bar) -> RatX:
    return (p[1] - p[0]) / 2 if is_finite(p[1]) else INF


def _perfect_matching_exists(adj: list[list[int]], nright: int) -> bool:
    """Kuhn's augmenting paths; adj maps each left node to allowed rights.

    Each search is a depth-first walk on an explicit stack of (left node,
    its untried rights), so path length is bounded by memory, not by the
    recursion limit.  ``via[d]`` is the right node that frame d went
    through to reach frame d + 1.
    """
    match_r = [-1] * nright
    for root in range(len(adj)):
        seen: set[int] = set()
        stack = [(root, iter(adj[root]))]
        via: list[int] = []
        while stack:
            for j in stack[-1][1]:
                if j not in seen:
                    break
            else:  # dead end: back up one step
                stack.pop()
                if via:
                    via.pop()
                continue
            seen.add(j)
            via.append(j)
            if match_r[j] == -1:  # free right node: flip the path
                for (i, _), jj in zip(stack, via):
                    match_r[jj] = i
                break
            stack.append((match_r[j], iter(adj[match_r[j]])))
        else:
            return False
    return True


def _bottleneck_feasible(
    costs: list[list[RatX]], dels1: list[RatX], dels2: list[RatX], eps: RatX
) -> bool:
    """Partial matching with per-pair cost <= eps and all unmatched bars
    deletable at cost <= eps, via the standard diagonal-augmented perfect
    matching.  costs[i][j] is the cost of matching bar i of the first
    barcode to bar j of the second; dels1 and dels2 are deletion costs."""
    n1, n2 = len(dels1), len(dels2)
    # left: bars of b1 then diagonal slots for b2; right: bars of b2 then
    # diagonal slots for b1
    adj: list[list[int]] = []
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


def bottleneck_distance(b1: Barcode, b2: Barcode) -> RatX:
    """Exact bottleneck distance.

    The optimum lies in the finite set of pairwise matching costs and
    half-lengths; binary search that set with matching feasibility.  The
    costs are computed once and shared by every feasibility test.  Raw
    (birth, death) pairs are read through ``barcode`` first.
    """
    b1, b2 = barcode(b1), barcode(b2)
    costs = [[_match_cost(p, q) for q in b2] for p in b1]
    dels1 = [_deletion_cost(p) for p in b1]
    dels2 = [_deletion_cost(q) for q in b2]
    cands: set[RatX] = {Fraction(0)}
    cands.update(c for row in costs for c in row if is_finite(c))
    cands.update(c for c in dels1 + dels2 if is_finite(c))
    ordered = sorted(cands)
    lo, hi = 0, len(ordered)  # first feasible index, if any
    while lo < hi:
        mid = (lo + hi) // 2
        if _bottleneck_feasible(costs, dels1, dels2, ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo] if lo < len(ordered) else INF
