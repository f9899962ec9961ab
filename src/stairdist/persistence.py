"""Barcodes, rank functions and their staircase distances.

A bar is a closed interval [birth, death] (death may be +inf) counted with
multiplicity.  The rank at (a, b) counts bars containing [a, b]; the n-th
sublevel staircase is the closed region where the rank stays <= n, and the
erosion distance is the largest Hausdorff distance between matching
sublevel staircases.  One sweep over the strips between births emits each
grade's normalized antichain; erosion sweeps on the bars' integer scale
and joins the grades by ``staircase._gaps``.  With k' < k bars of
infinite death, the grade-k' staircases are infinitely far apart: once a
passes every birth and b every finite death, the rank at (a, b) is k' for
the first barcode, whose region reaches out there, and at least k for the
second, whose region keeps a below the last birth of its infinite bars.
So unequal counts decide INF before any scale is taken or any grade
swept, as they do for the bottleneck distance (``_essential_cost``).
Degree-0 persistence of a line-indexed filtration is computed by the
elder rule.  The bottleneck distance is the smallest integer eps, on a
common scale of the coordinates, at which two covering searches on the
B1 x B2 threshold graph succeed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from .errors import EmptyInterval, InvalidFiltration, ValidationError
from .filtration import RFiltration, validate_filtration
from .lattice import _built, find
from .rat import INF, NEG_INF, RatX, common_scale, fmt_rat, from_scale, is_finite, on_scale, rat
from .staircase import INT, Staircase, _gaps

Bar = tuple[Fraction, RatX]
Barcode = tuple[Bar, ...]  # as built by barcode(); the distances accept raw pairs


def barcode(bars) -> Barcode:
    """Canonical (sorted) barcode from an iterable of (birth, death): every
    birth finite and at most its death."""
    out = []
    for b, d in bars:
        b, d = rat(b), rat(d)
        if not is_finite(b):
            raise ValidationError(f"bar [{fmt_rat(b)}, {fmt_rat(d)}] has an infinite birth")
        if not b <= d:
            raise ValidationError(f"bar [{fmt_rat(b)}, {fmt_rat(d)}] has birth after death")
        out.append((b, d))
    return tuple(sorted(out))


def rank(bars: Barcode, a: Fraction, b: Fraction) -> int:
    """Number of bars [p, q] with p <= a and b <= q."""
    if not a < b:
        raise EmptyInterval(f"need a < b, got ({fmt_rat(a)}, {fmt_rat(b)})")
    return sum(1 for p, q in bars if p <= a and b <= q)


def _sublevels(bars, grades: int, first: int = 0) -> list[tuple]:
    """The normalized generators of the sublevel staircases of grades first
    .. grades - 1 of bars read by ``barcode`` (and maybe ``on_scale``).

    On the strip alo < a < ahi between consecutive distinct births (with
    -inf and +inf at the ends) the live bars are those born at or before
    alo, and the rank at (a, b) counts the live deaths >= b.  So the rank
    is at most n exactly above D, the (n + 1)-th largest live death (-inf
    when fewer than n + 1 bars are live), and the strip yields the single
    generator (ahi, max(D, floor)), none when D = +inf.  floor, the largest
    finite death <= alo, lifts the corner as far as the region allows:
    what it cuts off has a < b < floor <= alo, and the earlier strips cover
    that, since the rank only drops as a decreases.  r = max(D, floor)
    never falls along the sweep, so an equal r lets the later, larger l
    replace the last generator, and the rest is the normalized antichain.
    Each grade gets at most (distinct births + 1) generators: O(B (grades -
    first)) for the sweep, O(B^2) element moves for the sorted inserts.
    """
    deaths = sorted({d for _, d in bars if d != INF})
    by_birth = iter(bars)  # barcode() sorts them by birth
    nxt = next(by_birth, None)
    live: list = []  # deaths of the bars born at or before alo, ascending
    gens: list[list] = [[] for _ in range(first, grades)]
    alo = NEG_INF
    for ahi in [*sorted({b for b, _ in bars}), INF]:
        k = bisect_right(deaths, alo)
        floor = deaths[k - 1] if k else NEG_INF
        for n, out in enumerate(gens, first):
            d = live[-n - 1] if n < len(live) else NEG_INF
            if d != INF:
                r = max(d, floor)
                if out and out[-1][1] == r:
                    out.pop()
                out.append((ahi, r))
        while nxt is not None and nxt[0] == ahi:
            insort(live, nxt[1])
            nxt = next(by_birth, None)
        alo = ahi
    return [tuple(g) for g in gens]


def sublevel_staircase(bars: Barcode, n: int) -> Staircase:
    """Closure of the region where the rank is at most n.

    Read from the strip sweep of ``_sublevels``, which collects grade n
    only: at most one generator per strip between consecutive distinct
    births, already normalized.  Grades from B up are all the same region,
    so n is capped at B.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bars = barcode(bars)
    n = min(n, len(bars))
    return _built(Staircase, ambient=INT, gens=_sublevels(bars, n + 1, n)[0])


def erosion_distance(b1: Barcode, b2: Barcode) -> RatX:
    """max over grades n of the Hausdorff distance between the n-th
    sublevel staircases; beyond the larger bar count both are full.  Each
    barcode is read (``barcode``); unequal counts of bars of infinite
    death give INF at once, with no grade swept.  Otherwise each is put
    on their common scale S and swept once for all its grades; the answer
    is the largest ``_gaps`` over S."""
    b1, b2 = barcode(b1), barcode(b2)
    if sum(not is_finite(d) for _, d in b1) != sum(not is_finite(d) for _, d in b2):
        return INF
    scale, grades = common_scale(b1, b2), max(len(b1), len(b2))
    levels = [_sublevels(on_scale(b, scale), grades) for b in (b1, b2)]
    return from_scale(max(map(_gaps(), *levels), default=0), scale)


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


def _on_common_scale(b1: Barcode, b2: Barcode):
    """S = 2 lcm of every finite denominator of b1 and b2, and each barcode
    on it as (essential births, (finite births, finite deaths)), all ints
    and ascending by birth, as ``barcode`` sorts them.  At S every pair cost
    and every half-length (d - b) S / 2 is an int."""
    scale = common_scale(b1, b2)

    def split(bars):
        ess, births, deaths = [], [], []
        for b, d in on_scale(bars, scale):
            if d == INF:
                ess.append(b)
            else:
                births.append(b)
                deaths.append(d)
        return ess, (births, deaths)

    return scale, split(b1), split(b2)


def _essential_cost(e1: list[int], e2: list[int]) -> int | float:
    """Bars with infinite deaths match only each other, and on a line the
    sorted matching is optimal: max |b_i - b'_i| over the sorted births,
    or INF when the counts differ."""
    if len(e1) != len(e2):
        return INF
    return max((abs(p - q) for p, q in zip(e1, e2)), default=0)


def _covers(need, other, eps: int) -> bool:
    """Whether one matching of threshold edges covers every bar of
    ``need`` that cannot be deleted at eps (length > 2 eps).  Both sides are
    (births, deaths) ascending by birth, so the partners of a bar within eps
    in birth form one window of ``other``, found by bisection and then
    filtered by death."""
    births, deaths = other
    adj = [
        [
            j
            for j in range(bisect_left(births, b - eps), bisect_right(births, b + eps))
            if abs(deaths[j] - d) <= eps
        ]
        for b, d in zip(*need)
        if d - b > 2 * eps
    ]
    return _perfect_matching_exists(adj, len(births))


def _finite_feasible(f1, f2, eps: int) -> bool:
    """A partial matching of the finite bars with every pair within eps and
    every unmatched bar deletable at eps.  By Mendelsohn-Dulmage such a
    matching exists iff one matching covers the non-deletable bars of f1
    and another covers those of f2: the two combine into one."""
    return _covers(f1, f2, eps) and _covers(f2, f1, eps)


def bottleneck_distance(b1: Barcode, b2: Barcode) -> RatX:
    """Exact bottleneck distance.

    Essential bars give the lower end of the search (``_essential_cost``).
    The finite bars are put on the integer scale S of
    ``_on_common_scale``, where every pair cost and every half-length is an
    int, so feasibility can only change at an int and the smallest feasible
    int eps is the exact answer eps / S.  Binary search runs between the
    essential part and the largest half-length D, where deleting every
    finite bar is feasible; each step is two covering searches
    (``_finite_feasible``) on the B1 x B2 threshold graph, with no diagonal
    nodes.  With n bars a side this is O(n^2 log(S D)) threshold filtering
    plus the Kuhn searches, at most O(n^3) each.  Raw (birth, death) pairs
    are read through ``barcode`` first.
    """
    b1, b2 = barcode(b1), barcode(b2)
    scale, (e1, f1), (e2, f2) = _on_common_scale(b1, b2)
    lo = _essential_cost(e1, e2)
    if lo == INF:
        return INF
    longest = max((d - b for f in (f1, f2) for b, d in zip(*f)), default=0)
    hi = max(lo, longest // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _finite_feasible(f1, f2, mid):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, scale)
