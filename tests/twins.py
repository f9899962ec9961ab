"""The reference twins: each fast route of the library restated the slow,
definitional way, which the tests, `scripts/oracle_sweep.py` and the
benchmark's referees check it against.

Only twins that more than one reader needs live here, with the helpers
they call; a twin that one test module alone reads stays in that module.
This module imports the standard library, `stairdist` and `conftest`
alone, so the sweep runs with no site-packages (`python -S`), and pytest
does not collect it.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import lcm

from stairdist import (
    INF,
    NEG_INF,
    Formigram,
    GroundSet,
    IntFiltration,
    Staircase,
    SubPartition,
    Surjection,
    birth,
    cosheaf_code,
    enumerate_correspondences,
    enumerate_subpartitions,
    gromov_hausdorff_formigrams,
    gromov_hausdorff_ultrametrics,
    hausdorff,
    interleaving_distance,
    pullback_formigram,
    rank,
    single_linkage,
    sublevel_staircase,
    support,
    to_int_indexed,
    tripod_distance_int,
    tripod_distance_r,
    ultrametric,
)
from stairdist.filtration import Simplex
from stairdist.lattice import find
from stairdist.oracle import oracle_hausdorff
from stairdist.rat import common_scale, is_finite
from stairdist.staircase import _is_full, _merged_breaks, _on, _scale, _walk
from conftest import (
    F,
    fs,
    full_r_filtration,
    named_grounds,
    rand_formigram,
    rand_int_filtration,
    rand_merged_tail_formigram,
    rand_metric,
)


# --- Gromov-Hausdorff and the unpruned correspondence search ----------------------


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


def _key_pairs(rel):
    """Pair keys ({x1, x2}, {y1, y2}) of every two related pairs: the GH
    items of a correspondence, by name."""
    for (x1, y1), (x2, y2) in combinations_with_replacement(rel, 2):
        yield frozenset({x1, x2}), frozenset({y1, y2})


def unpruned_min_max(x, y, items, cost, guard=12):
    """The unpruned twin of `min_max_over_correspondences`: every minimal
    cover in turn, listed by brute force (`minimal_covers`), its items by
    name from `items(rel)`, `cost` once per distinct item.  A cover is
    abandoned as soon as its worst item reaches the best value so far, and
    the search stops at 0."""
    memo = {}
    best = INF
    for rel in minimal_covers(x, y, guard):
        worst = F(0)
        for item in items(rel):
            c = memo.get(item)
            if c is None:
                c = memo[item] = cost(*item)
            if c > worst:
                worst = c
                if worst >= best:
                    break
        if worst < best:
            best = worst
            if best == 0:
                break
    return best


def gh_cost_formigrams(fx, fy):
    """The merge-staircase mismatch of a pair of keys, by name."""
    code_x, code_y = cosheaf_code(fx), cosheaf_code(fy)

    def cost(kx, ky):
        return hausdorff(code_x[kx], code_y[ky])

    return cost


def gh_cost_ultrametrics(ux, uy):
    """The distortion of a pair of keys, by name."""

    def cost(kx, ky):
        return abs(ux(min(kx), max(kx)) - uy(min(ky), max(ky)))

    return cost


def unpruned_gh_formigrams(fx, fy, guard=12):
    """GH between formigrams through the unpruned twin, on Fraction costs."""
    cost = gh_cost_formigrams(fx, fy)
    return unpruned_min_max(fx.ground, fy.ground, _key_pairs, cost, guard) / 2


def unpruned_gh_ultrametrics(ux, uy, guard=12):
    """GH between ultrametrics through the unpruned twin, on Fraction costs."""
    cost = gh_cost_ultrametrics(ux, uy)
    return unpruned_min_max(ux.ground, uy.ground, _key_pairs, cost, guard) / 2


def _names(elements, mask):
    """The element set of a mask: bit k stands for elements[k]."""
    return frozenset([e for k, e in enumerate(elements) if mask >> k & 1])


def split(item, nx):
    """A packed item of a search with nx elements in X as (x-mask, y-mask):
    x bits below bit nx, y bits from bit nx up."""
    return item & ((1 << nx) - 1), item >> nx


def grown_items(grow, rows):
    """The packed items `grow` adds over the rows N(xs[i]) of a relation
    (bitmasks over y, handed to `grow` in item coordinates, as the search
    does), from the last row to the first, in order."""
    nx = len(rows)
    state, out = (), []
    for i in reversed(range(nx)):
        state, new = grow(state, i, rows[i] << nx)
        out += new
    return out


@cache
def minimal_covers(x, y, guard=12):
    """Every minimal cover of x and y by brute force, as named pairs: the
    correspondences in which every pair has an end of degree one, in the
    order of `enumerate_correspondences`.  Cached per shape and names, as
    the twins list the same covers again and again."""
    return tuple([
        rel for rel in enumerate_correspondences(x, y, guard) if is_minimal_cover(rel, x, y)
    ])


def rows_of(rel, x, y):
    return tuple([
        sum(1 << k for k, b in enumerate(y.elements) if (a, b) in rel) for a in x.elements
    ])


def named(items, x, y):
    """Packed items as pairs of element sets."""
    pairs = [split(item, len(x)) for item in items]
    return [(_names(x.elements, mx), _names(y.elements, my)) for mx, my in pairs]


def is_minimal_cover(rel, x, y):
    """A correspondence of x and y in which every pair has an end of
    degree one."""
    dx = Counter(a for a, _ in rel)
    dy = Counter(b for _, b in rel)
    return set(dx) == set(x.elements) and set(dy) == set(y.elements) and all(
        dx[a] == 1 or dy[b] == 1 for a, b in rel
    )


def search_inputs(rng, nx, ny, grounds=named_grounds):
    """One random pair of inputs of each searched kind over the nx and ny
    elements of `grounds(nx, ny)`, with the public search and its unpruned
    twin: (kind, search, twin, a, b)."""
    gx, gy = grounds(nx, ny)
    make = rand_formigram if rng.random() < 0.5 else rand_merged_tail_formigram
    yield (
        "gh_formigrams", gromov_hausdorff_formigrams, unpruned_gh_formigrams,
        make(rng, gx, max_crit=2), make(rng, gy, max_crit=2),
    )
    yield (
        "gh_ultrametrics", gromov_hausdorff_ultrametrics, unpruned_gh_ultrametrics,
        *[ultrametric(single_linkage(g, rand_metric(rng, g))) for g in (gx, gy)],
    )
    yield (
        "tripod_r", tripod_distance_r, unpruned_tripod_r,
        full_r_filtration(rng, gx), full_r_filtration(rng, gy),
    )
    if rng.random() < 0.5:
        ix, iy = (to_int_indexed(full_r_filtration(rng, g)) for g in (gx, gy))
    else:
        ix, iy = (rand_int_filtration(rng, g, pinned=True) for g in (gx, gy))
    yield "tripod_int", tripod_distance_int, unpruned_tripod_int, ix, iy


# --- tripod distances and filtration validation -----------------------------------


def tripod_cost_r(f, g):
    """The birth discrepancy of an image pair (A, B), by name."""

    def cost(a, b):
        ba, bb = birth(f, a), birth(g, b)
        if ba == INF and bb == INF:
            return F(0)
        return INF if (ba == INF) != (bb == INF) else abs(ba - bb)

    return cost


def tripod_cost_int(f, g):
    """The support-staircase Hausdorff distance of an image pair, by name."""

    def cost(a, b):
        return hausdorff(support(f, a), support(g, b))

    return cost


def oracle_tripod_r(f, g, guard=12):
    """Literal subset enumeration over each correspondence."""
    return _oracle_tripod(f, g, tripod_cost_r(f, g), guard)


def oracle_tripod_int(f, g, guard=12):
    """Literal subset enumeration with support-staircase costs."""
    return _oracle_tripod(f, g, tripod_cost_int(f, g), guard)


def _realizable_pairs(pairs):
    """The image pairs (pi_X S, pi_Y S) of the nonempty sub-relations S of
    the correspondence, each once, in order of first appearance: the
    tripod items of a correspondence, by name.  A minimal cover has at most
    |X| + |Y| - 1 pairs, so this walks at most 2^(|X| + |Y| - 1) subsets."""
    seen = set()
    for k in range(1, len(pairs) + 1):
        for sub in combinations(pairs, k):
            item = frozenset(x for x, _ in sub), frozenset(y for _, y in sub)
            if item not in seen:
                seen.add(item)
                yield item


def unpruned_tripod_r(f, g, guard=12):
    """The line-indexed tripod distance through the unpruned twin."""
    return unpruned_min_max(f.ground, g.ground, _realizable_pairs, tripod_cost_r(f, g), guard)


def unpruned_tripod_int(f, g, guard=12):
    """The interval-indexed tripod distance through the unpruned twin."""
    return unpruned_min_max(f.ground, g.ground, _realizable_pairs, tripod_cost_int(f, g), guard)


def _oracle_tripod(f, g, cost, guard):
    best = INF
    for rel in enumerate_correspondences(f.ground, g.ground, guard):
        worst = F(0)
        for k in range(1, len(rel) + 1):
            for sigma in combinations(rel, k):
                a = fs(*(x for x, _ in sigma))
                b = fs(*(y for _, y in sigma))
                worst = max(worst, cost(a, b))
        best = min(best, worst)
    return best


def per_face_validate(f: IntFiltration):
    """The per-face twin of `validate_filtration` on an interval-indexed
    filtration: one containment per (simplex, face) by the walk twin of
    `staircase._contained`, each on the pair's own scale."""
    for s, u in f.supports.items():
        if len(s) == 1:
            continue
        for v in s:
            face = s - {v}
            if not subset_by_walk(u, support(f, face)):
                return (
                    f"support of simplex {sorted(s)} is not contained in the "
                    f"support of its face {sorted(face)}"
                )
    return None


def one_point_tripod_by_subsets(f, g):
    """The worst support distance to the point over every nonempty vertex
    subset, stored or absent: 2^|X| Hausdorff calls."""
    star = support(g, Simplex(g.ground.elements))
    worst = F(0)
    for k in range(1, len(f.ground) + 1):
        for a in combinations(f.ground.elements, k):
            worst = max(worst, hausdorff(support(f, fs(*a)), star))
    return worst


# --- formigrams, single linkage and dendrograms -----------------------------------


def d_F_by_every_key(f, g):
    """d_F with its witness by the definition: both cosheaf codes, one
    `hausdorff` per pair key in code order, the first attaining key."""
    code_f, code_g = cosheaf_code(f), cosheaf_code(g)
    best, witness = F(0), fs(f.ground.elements[0])
    for key in code_f:
        d = hausdorff(code_f[key], code_g[key])
        if d > best:
            best, witness = d, key
    return best, witness


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
            comps = {}
            for i in range(n):
                comps.setdefault(find(parent, i), []).append(ground_set.elements[i])
            part = SubPartition(ground_set, tuple(map(tuple, comps.values())))
            crit.append(t)
            values.extend((part, part))
    return Formigram(ground_set, tuple(crit), tuple(values))


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


def is_dendrogram_twin(f):
    """The dendrogram rule stated on the values, by `refines` and
    `is_partition`, check by check in the order of `is_dendrogram`'s
    messages: the twin of `ultrametric`'s walk."""
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


# --- the subpartition lattice -----------------------------------------------------


def brute_least_upper_bound(*parts):
    everything = enumerate_subpartitions(parts[0].ground)
    ubs = [s for s in everything if all(p.refines(s) for p in parts)]
    least = [s for s in ubs if all(s.refines(t) for t in ubs)]
    assert len(least) == 1, "join must be the unique minimum upper bound"
    return least[0]


def brute_greatest_lower_bound(p, q):
    everything = enumerate_subpartitions(p.ground)
    lbs = [s for s in everything if s.refines(p) and s.refines(q)]
    greatest = [s for s in lbs if all(t.refines(s) for t in lbs)]
    assert len(greatest) == 1, "meet must be the unique maximum lower bound"
    return greatest[0]


# --- barcodes: erosion and bottleneck ---------------------------------------------


def oracle_erosion(b1, b2):
    """Per-grade Hausdorff distances through the candidate-scan oracle."""
    best = F(0)
    for n in range(max(len(b1), len(b2))):
        d = oracle_hausdorff(sublevel_staircase(b1, n), sublevel_staircase(b2, n))
        best = max(best, d)
    return best


def _pick(lo, hi):
    """Some rational strictly inside (lo, hi)."""
    if lo != -INF and hi != INF:
        return (lo + hi) / 2
    if lo != -INF:
        return lo + 1
    if hi != INF:
        return hi - 1
    return F(0)


def rank_interleaved(b1, b2, eps):
    """Direct interleaving of the two rank functions, no staircases: each
    rank at the eps-thickened interval must not exceed the other's rank at
    the original interval, for every interval.  Checked on cell interiors
    of the grid refined by all endpoints and their eps-shifts."""
    a_coords = sorted(
        {p for p, _ in b1 + b2} | {p + eps for p, _ in b1 + b2} | {-INF, INF}
    )
    b_coords = sorted(
        {q for _, q in b1 + b2 if q != INF}
        | {q - eps for _, q in b1 + b2 if q != INF}
        | {-INF, INF}
    )
    for alo, ahi in zip(a_coords, a_coords[1:]):
        for blo, bhi in zip(b_coords, b_coords[1:]):
            if not alo < bhi:
                continue
            a = _pick(alo, min(ahi, bhi))
            b = _pick(max(blo, a), bhi)
            if rank(b2, a - eps, b + eps) > rank(b1, a, b):
                return False
            if rank(b1, a - eps, b + eps) > rank(b2, a, b):
                return False
    return True


def oracle_erosion_direct(b1, b2):
    """Erosion via the defining rank-interleaving predicate over the
    candidate set of endpoint differences and their halves."""
    from stairdist.oracle import candidate_epsilons, first_admissible

    coords = [p for p, _ in b1 + b2] + [q for _, q in b1 + b2 if q != INF]
    cands = candidate_epsilons(coords)
    return first_admissible(cands, lambda e: rank_interleaved(b1, b2, e))


def _match_cost(p, q):
    if is_finite(p[1]) != is_finite(q[1]):
        return INF
    dd = F(0) if not is_finite(p[1]) else abs(p[1] - q[1])
    return max(abs(p[0] - q[0]), dd)


def _deletion_cost(p):
    return (p[1] - p[0]) / 2 if is_finite(p[1]) else INF


def oracle_bottleneck(b1, b2):
    """Minimum over all partial matchings of the worst per-bar cost."""
    best = INF

    def rec(i, used, cost):
        nonlocal best
        if cost >= best:
            return
        if i == len(b1):
            total = cost
            for j, q in enumerate(b2):
                if j not in used:
                    total = max(total, _deletion_cost(q))
                    if total >= best:
                        return
            best = min(best, total)
            return
        rec(i + 1, used, max(cost, _deletion_cost(b1[i])))
        for j, q in enumerate(b2):
            if j not in used:
                rec(i + 1, used | {j}, max(cost, _match_cost(b1[i], q)))

    rec(0, frozenset(), F(0))
    return best


def essential(bars) -> int:
    """The number of bars of infinite death."""
    return sum(d == INF for _, d in bars)


# --- staircases: the rescanning profile and containment ---------------------------


def _g(u: Staircase, c: Fraction):
    """Entry height of the staircase on the flow line a + b = c.

    +inf for the empty staircase; -inf only for the full plane.  Rescans
    every generator: the reference that ``_walk`` and ``profile`` are
    tested against.
    """
    if not u.gens:
        return INF
    best = INF
    for l, r in u.gens:
        t = max(r, NEG_INF if l == INF else c - l)
        if u.clamped:
            t = max(t, c / 2)
        if t < best:
            best = t
    return best


def common_kinks(u, v):
    """The merged candidate kinks of u and v, taken back from their common
    scale as Fractions."""
    scale = common_scale(u.gens, v.gens)
    return [F(c, scale) for c in _merged_breaks(_on(u, scale)[1], _on(v, scale)[1])]


def plane_subset_by_generators(u, v):
    """u inside v in the plane, from the generators alone: a corner region
    lies in a finite union of corner regions iff it lies in one of them
    (its corner must, or with an infinite coordinate its unbounded edge
    must, and each region is an up-set of the flipped product order).  The
    diagonal clamp breaks this on intervals (see the covering example)."""
    return all(any(l <= l2 and r >= r2 for l2, r2 in v.gens) for l, r in u.gens)


def walked(a, b, clamped):
    """Whether `_walk` reads the pair of sides: neither is empty nor, in
    the plane, the full plane, the sides whose profile is a constant
    infinity."""
    return all(s[0] and (clamped or not _is_full(s[0])) for s in (a, b))


def contained_by_walk(a, b, clamped):
    """The walk twin of `_contained`: u inside v for a = ``_on(u, S)`` and
    b = ``_on(v, S)``, read off g_u - g_v at the merged kinks and past both
    ends (`_walk`), where it must be >= 0 and must not fall in either tail.
    A profile that is a constant infinity (g_u = +inf for an empty u,
    g_v = -inf for the full plane v, and so on) is read without a walk.
    O((k_u + k_v) log(k_u + k_v)) int operations."""
    if a[0] == b[0] or not a[0] or not clamped and _is_full(b[0]):
        return True  # the same set, g_u = +inf or g_v = -inf
    if not walked(a, b, clamped):
        return False  # g_v = +inf or g_u = -inf, against a finite profile
    d = _walk(a, b, clamped)
    return d[1] <= d[0] and d[-1] >= d[-2] and min(d) >= 0


def subset_by_walk(u, v):
    """`subset` by the walk twin, on the common scale of u and v."""
    scale = lcm(_scale(u), _scale(v))
    return contained_by_walk(_on(u, scale), _on(v, scale), u.clamped)
