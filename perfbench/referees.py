"""Reference checks for every timed answer, run outside the timed region.

Most checks are certificates: the library's answer d must be the smallest
candidate epsilon at which a monotone interleaving predicate holds, so the
predicate must hold at d and fail at the candidate just below it (for
d = inf, fail at the largest candidate).  That is the binary search the
brute-force twins run, reduced to the two evaluations that decide it.

* d_F and grid d_I: the predicates and candidate sets of ``stairdist.oracle``.
* Erosion: the rank-interleaving predicate and candidate set of the test
  suite's ``oracle_erosion_direct``, imported read-only.
* Gromov-Hausdorff between formigrams: the definitional route of the test
  suite's ``oracle_gh_via_pullbacks`` (pullbacks along the relation, as the
  apex), certified with the oracle's smoothing predicate over minimal
  correspondences only.  The pullback distance only grows when the relation
  grows, and every correspondence contains a minimal one, so the minimum is
  the same; the benchmark's tests check this against the imported twin,
  which costs minutes per case at |X|*|Y| = 12.
* Tripod: the literal subset enumeration of ``oracle_tripod_r`` /
  ``oracle_tripod_int``, over minimal correspondences, with memoized costs.
* Gromov-Hausdorff between ultrametrics: the smallest distortion, over
  minimal correspondences.
* Bottleneck: a thresholded-matching certificate on networkx's
  Hopcroft-Karp.  The exponential test twin cannot run at 30+ bars.
* Single linkage + ultrametric: minimax path lengths (Floyd-Warshall).
* CLI: the JSON document must equal the library's answer on the same
  inputs, with exit code 0.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import inf
from pathlib import Path

from stairdist import compare, formigram, io_json, lattice, oracle, persistence
from stairdist.filtration import birth, support
from stairdist.lattice import GroundSet, Surjection
from stairdist.rat import fmt_rat
from stairdist.staircase import INT, Staircase, hausdorff

from . import inputs as gen


def import_twins(tests_dir: Path):
    """The test-suite reference functions, imported without changing them."""
    if str(tests_dir) not in sys.path:
        sys.path.insert(0, str(tests_dir))
    import test_compare
    import test_filtration
    import test_persistence

    return test_compare, test_filtration, test_persistence


def minimal_correspondences(xs, ys):
    """Relations covering both sides in which every pair has an end of
    degree one, i.e. the covers from which no pair can be dropped."""
    cells = [(a, b) for a in xs for b in ys]
    for mask in range(1, 1 << len(cells)):
        rel = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        dx = Counter(a for a, _ in rel)
        dy = Counter(b for _, b in rel)
        if len(dx) == len(xs) and len(dy) == len(ys) and all(
            dx[a] == 1 or dy[b] == 1 for a, b in rel
        ):
            yield tuple(rel)


def certify(cands, holds, d) -> bool:
    """d is the smallest of the sorted candidates at which the monotone
    predicate `holds`, or inf when it holds at none."""
    if d == inf:
        return not holds(cands[-1])
    if d not in cands:
        return False
    k = cands.index(d)
    return holds(d) and (k == 0 or not holds(cands[k - 1]))


def interleaving_certificate(f, g, d) -> bool:
    cands = oracle.candidate_epsilons(list(f.crit) + list(g.crit))
    return certify(cands, lambda e: oracle.formigram_interleaved(f, g, e), d)


def grid_certificate(f, g, d) -> bool:
    cands = sorted(
        set(oracle.candidate_epsilons(list(f.x_cuts) + list(g.x_cuts)))
        | set(oracle.candidate_epsilons(list(f.y_cuts) + list(g.y_cuts)))
    )
    return certify(cands, lambda e: oracle.grid_interleaved(f, g, e), d)


def erosion_certificate(twin, b1, b2, d) -> bool:
    coords = [p for p, _ in b1 + b2] + [q for _, q in b1 + b2 if q != inf]
    cands = oracle.candidate_epsilons(coords)
    return certify(cands, lambda e: twin.rank_interleaved(b1, b2, e), d)


def surjections(fx, fy, rel):
    """The relation itself as the apex, with its projections to both sides."""
    z = GroundSet(tuple(f"{x}|{y}" for x, y in rel))
    return (Surjection(z, fx.ground, {f"{x}|{y}": x for x, y in rel}),
            Surjection(z, fy.ground, {f"{x}|{y}": y for x, y in rel}))


def gh_formigrams_certificate(fx, fy, d) -> bool:
    """2d is the smallest pullback interleaving distance over minimal
    correspondences: no pullback pair is interleaved at the candidate just
    below 2d, and one pair is at 2d.

    The pullbacks are interleaved at eps when each is pointwise below the
    other's eps-smoothing.  Pulling back along a surjection commutes with
    joins, so the smoothing of a pullback is the pullback of the smoothing,
    and each side is smoothed once per eps rather than once per relation."""
    rels = [surjections(fx, fy, rel)
            for rel in minimal_correspondences(fx.ground.elements, fy.ground.elements)]

    def some_pair_interleaved(eps):
        sx, sy = formigram.smooth(fx, eps), formigram.smooth(fy, eps)
        pull = formigram.pullback_formigram
        return any(
            formigram.pointwise_refines(pull(fx, px), pull(sy, py))
            and formigram.pointwise_refines(pull(fy, py), pull(sx, px))
            for px, py in rels
        )

    cands = oracle.candidate_epsilons(list(fx.crit) + list(fy.crit))
    below = cands[-1] if d == inf else max((c for c in cands if c < 2 * d), default=None)
    if below is not None and some_pair_interleaved(below):
        return False
    return d == inf or (2 * d in cands and some_pair_interleaved(2 * d))


def gh_ultrametrics_reference(ux, uy):
    """Half the smallest distortion over minimal correspondences."""
    best = inf
    for rel in minimal_correspondences(ux.ground.elements, uy.ground.elements):
        worst = max(abs(ux(x1, x2) - uy(y1, y2)) for x1, y1 in rel for x2, y2 in rel)
        best = min(best, worst)
    return best / 2


def tripod_reference(f, g, cost):
    """Worst cost over the images of every nonempty sub-relation, minimized
    over minimal correspondences.  `cost` is pure, so it is memoized."""
    cost = cache(cost)
    best = inf
    for rel in minimal_correspondences(f.ground.elements, g.ground.elements):
        worst = Fraction(0)
        for k in range(1, len(rel) + 1):
            for sigma in combinations(rel, k):
                a = frozenset(x for x, _ in sigma)
                b = frozenset(y for _, y in sigma)
                worst = max(worst, cost(a, b))
        best = min(best, worst)
    return best


def tripod_r_reference(f, g):
    def cost(a, b):
        ba, bb = birth(f, a), birth(g, b)
        if ba == inf and bb == inf:
            return Fraction(0)
        return inf if (ba == inf) != (bb == inf) else abs(ba - bb)

    return tripod_reference(f, g, cost)


def tripod_int_reference(f, g):
    return tripod_reference(f, g, lambda a, b: hausdorff(support(f, a), support(g, b)))


def minimax_ultrametric(d):
    """Single-linkage ultrametric as minimax path lengths."""
    n = len(d)
    u = [list(row) for row in d]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = max(u[i][k], u[k][j])
                if via < u[i][j]:
                    u[i][j] = via
    return tuple(tuple(row) for row in u)


def _bar_cost(p, q):
    if (p[1] == inf) != (q[1] == inf):
        return inf
    return max(abs(p[0] - q[0]), Fraction(0) if p[1] == inf else abs(p[1] - q[1]))


def _half_length(p):
    return inf if p[1] == inf else (p[1] - p[0]) / 2


def bottleneck_feasible(b1, b2, eps) -> bool:
    """A partial matching with every matched pair and every unmatched bar
    within eps, as a perfect matching of the diagonal-augmented graph."""
    import networkx as nx

    g = nx.Graph()
    left = [("a", i) for i in range(len(b1))] + [("a*", j) for j in range(len(b2))]
    right = [("b", j) for j in range(len(b2))] + [("b*", i) for i in range(len(b1))]
    g.add_nodes_from(left)
    g.add_nodes_from(right)
    for i, p in enumerate(b1):
        for j, q in enumerate(b2):
            if _bar_cost(p, q) <= eps:
                g.add_edge(("a", i), ("b", j))
            g.add_edge(("a*", j), ("b*", i))
        if _half_length(p) <= eps:
            g.add_edge(("a", i), ("b*", i))
    for j, q in enumerate(b2):
        if _half_length(q) <= eps:
            g.add_edge(("a*", j), ("b", j))
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
    return len(matching) == 2 * len(left)


def bottleneck_certificate(b1, b2, d) -> bool:
    """d is the bottleneck distance: feasible at d, infeasible at the next
    lower candidate (or, for d = inf, at the largest finite one)."""
    cands = {Fraction(0)}
    cands.update(c for p in b1 for q in b2 if (c := _bar_cost(p, q)) != inf)
    cands.update(c for p in (*b1, *b2) if (c := _half_length(p)) != inf)
    return certify(sorted(cands), lambda e: bottleneck_feasible(b1, b2, e), d)


# --- CLI -----------------------------------------------------------------------


def _subpartition(spec):
    ground, blocks = spec
    return lattice.SubPartition(GroundSet(ground), blocks)


def _distance(d):
    return {"distance": fmt_rat(d)}


def cli_expected(expect):
    """The JSON document the CLI must print, from library calls on objects
    built straight from the specs."""
    head = expect[0]
    if head == "lattice":
        op, a = expect[1], _subpartition(expect[2])
        if op in ("join", "meet", "refines"):
            b = _subpartition(expect[3])
            if op == "refines":
                return {"refines": a.refines(b)}
            return io_json.subpartition_to_json(a.join(b) if op == "join" else a.meet(b))
        if op == "parts":
            return {"ground": list(a.ground.elements),
                    "parts": [io_json.subpartition_to_json(p, with_ground=False)
                              for p in lattice.irreducible_parts(a)]}
        reps = lattice.minimal_join_representations(a)
        return {"ground": list(a.ground.elements),
                "representations": sorted(
                    sorted(io_json.subpartition_to_json(p, with_ground=False) for p in rep)
                    for rep in reps)}
    if head == "formigram":
        op, f = expect[1], gen.build_formigram(expect[2])
        if op == "validate":
            return {"ok": True} if formigram.validate(f) is None else None
        if op == "smooth":
            return io_json.formigram_to_json(formigram.smooth(f, expect[3]))
        if op == "code":
            code = formigram.cosheaf_code(f)
            return {"ground": list(f.ground.elements),
                    "code": [{"pair": sorted(k), "staircase": io_json.staircase_to_json(code[k])}
                             for k in sorted(code, key=sorted)]}
        g = gen.build_formigram(expect[3])
        if op == "df":
            return _distance(formigram.interleaving_distance(f, g))
        return _distance(compare.gromov_hausdorff_formigrams(f, g))
    if head == "dendro":
        op = expect[1]
        if op == "slhc":
            return io_json.formigram_to_json(
                formigram.single_linkage(GroundSet(expect[2]), gen.build_metric(expect[3])))
        if op == "ultrametric":
            return io_json.ultrametric_to_json(formigram.ultrametric(gen.build_formigram(expect[2])))
        return _distance(compare.gromov_hausdorff_formigrams(
            gen.build_formigram(expect[2]), gen.build_formigram(expect[3])))
    if head in ("erosion", "bottleneck"):
        fn = persistence.erosion_distance if head == "erosion" else persistence.bottleneck_distance
        return _distance(fn(gen.build_barcode(expect[1]), gen.build_barcode(expect[2])))
    if head == "h0":
        return io_json.barcode_to_json(persistence.h0_barcode(gen.build_r_filtration(expect[1])))
    if head == "tripod":
        from stairdist import filtration

        if expect[1] == "r":
            return _distance(filtration.tripod_distance_r(
                gen.build_r_filtration(expect[2]), gen.build_r_filtration(expect[3])))
        return _distance(filtration.tripod_distance_int(
            gen.build_int_filtration(expect[2]), gen.build_int_filtration(expect[3])))
    if head == "clustering":
        return _distance(compare.grid_interleaving_distance(
            gen.build_grid(expect[1]), gen.build_grid(expect[2])))
    if head == "staircase":
        u = Staircase(INT, expect[2])
        if expect[1] == "profile":
            return io_json.profile_to_json(u)
        return _distance(hausdorff(u, Staircase(INT, expect[3])))
    raise ValueError(f"no CLI reference for {head!r}")


class Referee:
    """Checks the answers for one pool of cases, computing each case's
    reference once."""

    def __init__(self, cases, tests_dir: Path):
        self.cases = cases
        self.tests_dir = tests_dir
        self._refs: dict[int, object] = {}
        self._verdicts: dict[tuple[int, str], bool] = {}
        self._twins = None

    def twins(self):
        if self._twins is None:
            self._twins = import_twins(self.tests_dir)
        return self._twins

    def reference(self, case):
        """The expected answer of a case whose kind has a reference value."""
        kind, spec = case.kind, case.spec
        if kind == "single_linkage+ultrametric":
            return minimax_ultrametric(spec[1])
        if kind == "gh_ultrametrics":
            return gh_ultrametrics_reference(*case.build(spec))
        if kind == "tripod_r":
            return (None, None), tripod_r_reference(*case.build(spec))
        if kind == "tripod_int":
            return (None, None), tripod_int_reference(*case.build(spec))
        if kind.startswith("cli."):
            return 0, json.loads(json.dumps(cli_expected(spec[1])))
        raise ValueError(f"no reference for kind {kind!r}")

    def _check(self, index, answer) -> bool:
        case = self.cases[index]
        kind = case.kind
        if kind.startswith("d_F."):
            return interleaving_certificate(*case.build(case.spec), answer)
        if kind == "grid":
            return grid_certificate(*case.build(case.spec), answer)
        if kind == "erosion":
            return erosion_certificate(self.twins()[2], *case.build(case.spec), answer)
        if kind == "gh_formigrams":
            return gh_formigrams_certificate(*case.build(case.spec), answer)
        if kind.startswith("bottleneck."):
            return bottleneck_certificate(*case.build(case.spec), answer)
        if index not in self._refs:
            self._refs[index] = self.reference(case)
        ref = self._refs[index]
        if kind.startswith("cli."):
            code, out = answer
            try:
                return (code, json.loads(out)) == ref
            except json.JSONDecodeError:
                return False
        return answer == ref

    def verify(self, index, answer) -> bool:
        key = (index, repr(answer))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(index, answer)
        return self._verdicts[key]

    def count_failures(self, outcomes) -> int:
        """Outcomes are (case index, answer, error); an error or an answer
        that differs from the reference is a failure."""
        return sum(
            1 for index, answer, error in outcomes
            if error is not None or not self.verify(index, answer)
        )
