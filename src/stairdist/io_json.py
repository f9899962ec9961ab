"""JSON codecs for every value the CLI reads or writes, and the writers of
the documents the CLI prints.

Numbers travel as canonical strings "p/q" (integers without "/1") or
"inf"/"-inf"; raw JSON integers are accepted on input.  The readers check
the shape of a document, and each value's constructor its rules (such as
a finite metric entry or birth, or a known ambient).  Every emitted object
re-parses to an equal value, unless a number has more digits than Python's
int-to-str limit: it is written in full and refused on input.
"""

from __future__ import annotations

from fractions import Fraction

from .compare import GridClustering
from .errors import ValidationError
from .filtration import IntFiltration, RFiltration, Simplex
from .formigram import Formigram, Ultrametric
from .lattice import GroundSet, SubPartition
from .persistence import barcode
from .rat import fmt_rat, parse_rat
from .staircase import Staircase, profile


def _rat(obj):
    try:
        return parse_rat(obj)
    except ValueError as e:
        raise ValidationError(f"bad number {obj!r}: {e}") from None


def _require(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"missing key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise ValidationError(f"key {key!r} must be a {kind.__name__}")
    return val


def _rows(obj, key):
    rows = _require(obj, key, list)
    if not all(isinstance(row, list) for row in rows):
        raise ValidationError(f"each row of {key!r} must be a list")
    return rows


def _names(obj, what: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ValidationError(f"{what} must be a list of strings")
    return obj


def ground_from_json(names) -> GroundSet:
    return GroundSet(tuple(_names(names, "ground set")))


def subpartition_from_json(obj, ground: GroundSet | None = None) -> SubPartition:
    if isinstance(obj, dict):
        if "ground" in obj:
            ground = ground_from_json(obj["ground"])
        blocks = _require(obj, "blocks", list)
    else:
        blocks = obj
    if ground is None:
        raise ValidationError("subpartition needs a ground set")
    if not isinstance(blocks, list):
        raise ValidationError("blocks must be a list of lists")
    return SubPartition(ground, tuple([tuple(_names(b, "each block")) for b in blocks]))


def subpartition_to_json(p: SubPartition, with_ground: bool = True):
    blocks = [list(b) for b in p.blocks]
    if not with_ground:
        return blocks
    return {"ground": list(p.ground.elements), "blocks": blocks}


def parts_to_json(ground: GroundSet, parts):
    """The join-irreducible parts of a subpartition of ground."""
    return {
        "ground": list(ground.elements),
        "parts": [subpartition_to_json(p, with_ground=False) for p in parts],
    }


def representations_to_json(ground: GroundSet, reps):
    """Minimal join representations over ground, each one's parts sorted
    and then the representations sorted, so that the order is canonical."""
    return {
        "ground": list(ground.elements),
        "representations": sorted(
            sorted(subpartition_to_json(p, with_ground=False) for p in rep) for rep in reps
        ),
    }


def _pairs(obj, key, what: str) -> list[tuple[Fraction, Fraction]]:
    """The list at obj[key] as pairs of numbers; what is the error for an
    entry that is not a two-element list."""
    out = []
    for pair in _require(obj, key, list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(what)
        out.append((_rat(pair[0]), _rat(pair[1])))
    return out


def staircase_from_json(obj) -> Staircase:
    ambient = _require(obj, "ambient", str)
    pairs = _pairs(obj, "generators", "each generator must be a [l, r] pair")
    return Staircase(ambient, tuple(pairs))


def staircase_to_json(u: Staircase):
    return {
        "ambient": u.ambient,
        "generators": [[fmt_rat(l), fmt_rat(r)] for l, r in u.gens],
    }


def profile_to_json(u: Staircase):
    prof = profile(u)
    if prof.empty:
        return {"empty": True, "breakpoints": [], "pieces": []}
    if not prof.breakpoints:  # only the full plane has no breakpoint
        return {"full_plane": True, "breakpoints": [], "pieces": []}
    pieces = []
    for i, slope in enumerate(prof.slopes):
        piece = {"slope": fmt_rat(slope)}
        piece["value_at_left"] = fmt_rat(prof.values[i - 1]) if i >= 1 else None
        pieces.append(piece)
    return {
        "breakpoints": [fmt_rat(c) for c in prof.breakpoints],
        "pieces": pieces,
    }


def formigram_from_json(obj) -> Formigram:
    ground = ground_from_json(_require(obj, "ground", list))
    crit = tuple([_rat(t) for t in _require(obj, "crit", list)])
    values = tuple([
        subpartition_from_json(v, ground) for v in _require(obj, "values", list)
    ])
    return Formigram(ground, crit, values)


def formigram_to_json(f: Formigram):
    return {
        "ground": list(f.ground.elements),
        "crit": [fmt_rat(t) for t in f.crit],
        "values": [subpartition_to_json(v, with_ground=False) for v in f.values],
    }


def code_to_json(ground: GroundSet, code):
    """A cosheaf code {key: merge staircase} over ground, keys in sorted order."""
    return {
        "ground": list(ground.elements),
        "code": [
            {"pair": sorted(key), "staircase": staircase_to_json(code[key])}
            for key in sorted(code, key=sorted)
        ],
    }


def metric_from_json(obj) -> tuple[GroundSet, list[list[Fraction]]]:
    ground = ground_from_json(_require(obj, "points", list))
    rows = _rows(obj, "d")
    d = [[_rat(x) for x in row] for row in rows]
    return ground, d


def ultrametric_to_json(u: Ultrametric):
    return {
        "points": list(u.ground.elements),
        "u": [[fmt_rat(x) for x in row] for row in u.entries],
    }


def grid_from_json(obj) -> GridClustering:
    ground = ground_from_json(_require(obj, "ground", list))
    x_cuts = tuple([_rat(c) for c in _require(obj, "x_cuts", list)])
    y_cuts = tuple([_rat(c) for c in _require(obj, "y_cuts", list)])
    rows = _rows(obj, "cells")
    cells = tuple([
        tuple([subpartition_from_json(v, ground) for v in row]) for row in rows
    ])
    return GridClustering(ground, x_cuts, y_cuts, cells)


def grid_to_json(g: GridClustering):
    return {
        "ground": list(g.ground.elements),
        "x_cuts": [fmt_rat(c) for c in g.x_cuts],
        "y_cuts": [fmt_rat(c) for c in g.y_cuts],
        "cells": [
            [subpartition_to_json(v, with_ground=False) for v in row]
            for row in g.cells
        ],
    }


def _simplices(obj, key, kind, read):
    """The vertex set and {simplex: read(entry[key])} of a filtration
    document; a simplex naming a vertex twice, or listed twice, is refused."""
    ground = ground_from_json(_require(obj, "vertices", list))
    values = {}
    for entry in _require(obj, "simplices", list):
        verts = _names(_require(entry, "verts"), "simplex vertices")
        s = Simplex(verts)
        if len(s) != len(verts):
            raise ValidationError(f"simplex {verts} names a vertex twice")
        if s in values:
            raise ValidationError(f"simplex {sorted(s)} is listed twice")
        values[s] = read(_require(entry, key, kind))
    return ground, values


def r_filtration_from_json(obj) -> RFiltration:
    return RFiltration(*_simplices(obj, "birth", None, _rat))


def r_filtration_to_json(f: RFiltration):
    return {
        "vertices": list(f.ground.elements),
        "simplices": [
            {"verts": sorted(s), "birth": fmt_rat(f.births[s])}
            for s in f.simplices()
        ],
    }


def int_filtration_from_json(obj) -> IntFiltration:
    return IntFiltration(*_simplices(obj, "support", dict, staircase_from_json))


def int_filtration_to_json(f: IntFiltration):
    return {
        "vertices": list(f.ground.elements),
        "simplices": [
            {"verts": sorted(s), "support": staircase_to_json(f.supports[s])}
            for s in f.simplices()
        ],
    }


def barcode_from_json(obj):
    return barcode(_pairs(obj, "bars", "each bar must be a [birth, death] pair"))


def barcode_to_json(bars):
    return {"bars": [[fmt_rat(b), fmt_rat(d)] for b, d in bars]}


def distance_to_json(d):
    return {"distance": fmt_rat(d)}
