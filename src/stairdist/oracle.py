"""Brute-force reference routes used by the test suite.

Every optimized distance in the library is certified against a direct
scan of the defining interleaving predicate over a finite candidate set of
epsilon values.  The candidate sets contain all absolute differences of the
relevant critical coordinates *and their halves*: profile pieces have
slopes 0, 1/2 and 1 only, so at any kink the two active line equations
agree, which pins every achievable distance to a coordinate difference or
(via the diagonal clamp, slope 1/2) half of one.  Predicates are monotone
in epsilon (the flow axioms), so the smallest admissible candidate is found
by binary search; a densification check (inserting midpoints) guards the
completeness claim in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyInterval, StairdistError
from .compare import GridClustering
from .formigram import (
    Formigram,
    interleaving_distance_with_witness,
    pointwise_refines,
    smooth,
)
from .lattice import SubPartition, _check_same_ground, join_all
from .rat import INF, RatX, fmt_rat, is_finite
from .staircase import Staircase, contains, upper_set_interleaved


def candidate_epsilons(values: Iterable[Fraction]) -> list[Fraction]:
    """All |differences| of the given coordinates, their halves, and 0."""
    vals = sorted(set(values))
    out = {Fraction(0)}
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            d = b - a
            out.add(d)
            out.add(d / 2)
    return sorted(out)


def first_admissible(cands: list[Fraction], predicate) -> RatX:
    """Smallest candidate where a monotone predicate holds, else INF."""
    lo, hi = 0, len(cands)
    while lo < hi:
        mid = (lo + hi) // 2
        if predicate(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo] if lo < len(cands) else INF


def formigram_interleaved(f: Formigram, g: Formigram, eps: Fraction) -> bool:
    """Direct interleaving predicate through smoothing: each formigram is
    pointwise below the other's eps-smoothing (`pointwise_refines` checks
    the ground sets)."""
    return pointwise_refines(f, smooth(g, eps)) and pointwise_refines(g, smooth(f, eps))


def oracle_formigram_distance(f: Formigram, g: Formigram) -> RatX:
    """Infimum of the direct interleaving predicate over the candidate set
    built from both critical-point lists."""
    cands = candidate_epsilons(list(f.crit) + list(g.crit))
    return first_admissible(cands, lambda e: formigram_interleaved(f, g, e))


def oracle_hausdorff(u: Staircase, v: Staircase) -> RatX:
    """Hausdorff distance as the infimum of the upper-set interleaving
    predicate over generator-coordinate candidates."""
    coords = [c for g in (*u.gens, *v.gens) for c in g if is_finite(c)]
    cands = candidate_epsilons(coords)
    return first_admissible(cands, lambda e: upper_set_interleaved(u, v, e))


def reconstruct(
    code: dict[frozenset, Staircase], ground, interval: tuple[Fraction, Fraction]
) -> SubPartition:
    """Rebuild the value of the induced interval map as the join of the
    singleton/doubleton parts whose staircase contains the interval."""
    a, b = interval
    if not a < b:
        raise EmptyInterval(f"({fmt_rat(a)}, {fmt_rat(b)}) is not a nonempty open interval")
    parts = []
    for key, u in code.items():
        if contains(u, (a, b)):
            parts.append(SubPartition(ground, (tuple(sorted(key)),)))
    return join_all(ground, parts)


@dataclass(frozen=True)
class PartsReport:
    engine: RatX
    oracle: RatX
    witness: frozenset

    @property
    def equal(self) -> bool:
        return self.engine == self.oracle


def parts_equality_check(f: Formigram, g: Formigram) -> PartsReport:
    """Certify that the staircase-decomposition distance agrees with the
    direct smoothing-interleaving infimum; raises on disagreement."""
    engine, witness = interleaving_distance_with_witness(f, g)
    direct = oracle_formigram_distance(f, g)
    report = PartsReport(engine, direct, witness)
    if not report.equal:
        raise StairdistError(
            f"decomposed distance {fmt_rat(engine)} != direct infimum {fmt_rat(direct)} "
            f"(witness pair {sorted(witness)})"
        )
    return report


def grid_interleaved(f: GridClustering, g: GridClustering, eps: Fraction) -> bool:
    """Direct diagonal-flow interleaving predicate for grid clusterings,
    checked on the interiors of the refined cells (cut-line values follow
    from their upper-right cells)."""
    _check_same_ground(f.ground, g.ground)

    def samples(cuts_f, cuts_g):
        cs = sorted(set(cuts_f) | {c - eps for c in cuts_g})
        if not cs:
            return [Fraction(0)]
        pts = [cs[0] - 1]
        for a, b in zip(cs, cs[1:]):
            pts.append((a + b) / 2)
        pts.append(cs[-1] + 1)
        return pts

    def le_shifted(p, q):
        xs = samples(p.x_cuts, q.x_cuts)
        ys = samples(p.y_cuts, q.y_cuts)
        return all(
            p.value_at((x, y)).refines(q.value_at((x + eps, y + eps)))
            for x in xs
            for y in ys
        )

    return le_shifted(f, g) and le_shifted(g, f)


def oracle_grid_distance(f: GridClustering, g: GridClustering) -> RatX:
    """Infimum of the direct predicate over per-axis cut-coordinate
    candidates."""
    cands = sorted(
        set(candidate_epsilons(list(f.x_cuts) + list(g.x_cuts)))
        | set(candidate_epsilons(list(f.y_cuts) + list(g.y_cuts)))
    )
    return first_admissible(cands, lambda e: grid_interleaved(f, g, e))