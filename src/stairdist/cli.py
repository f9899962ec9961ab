"""Command-line front end.

Reads JSON inputs (``-`` for stdin), dispatches to the library, writes one
JSON document (or a text rendering with ``--format text``) to stdout.
Diagnostics go to stderr.  Exit codes: 0 success, 2 parse/validation
failure, 3 ground-set/ambient mismatch, 4 size guard exceeded.

One table, ``OPS``, maps each (command, op) to its runner, the number of
input files it reads and the options it reads; the parser is built from it,
and any other number of files or an option the op does not read is refused.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compare, filtration, formigram, io_json, lattice, persistence
from .errors import AmbientMismatch, GroundSetMismatch, SizeGuardExceeded
from .errors import StairdistError, ValidationError
from .rat import parse_rat
from .staircase import hausdorff as staircase_hausdorff

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_GUARD = 4


def _refuse_float(text: str):
    raise ValidationError(f"number {text} is not exact; write it as a string \"p/q\"")


def _load(path: str):
    """The JSON document at path, refusing float literals (1e309 would read as inf)."""
    try:
        if path == "-":
            return json.load(sys.stdin, parse_float=_refuse_float)
        with open(path) as fh:
            return json.load(fh, parse_float=_refuse_float)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: not valid JSON ({e})") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None


def _emit(doc, fmt: str):
    if fmt == "json":
        print(json.dumps(doc))
        return

    def render(obj, indent=""):
        if isinstance(obj, dict):
            return "\n".join(
                f"{indent}{k}: " + render(v, indent + "  ").lstrip()
                if not isinstance(v, (dict, list))
                else f"{indent}{k}:\n" + render(v, indent + "  ")
                for k, v in obj.items()
            )
        if isinstance(obj, list):
            return "\n".join(f"{indent}- {json.dumps(v)}" for v in obj)
        return f"{indent}{obj}"

    print(render(doc))


def _guard(args, default=compare.CORRESPONDENCE_GUARD):
    if args.max_size is not None and args.max_size != default:
        print(
            f"warning: size guard overridden to {args.max_size}; "
            "exhaustive searches grow exponentially",
            file=sys.stderr,
        )
    return args.max_size if args.max_size is not None else default


# --- runners: each takes the parsed arguments and returns the JSON document ---


def _read(kind: str, path: str):
    """The input at path, read by io_json's `<kind>_from_json`."""
    return getattr(io_json, f"{kind}_from_json")(_load(path))


def _lookup(name: str):
    """The function `module.attr` (or `attr` of this module), looked up when a
    runner runs rather than at import, so that a name rebound later is followed."""
    owner, _, attr = name.rpartition(".")
    return getattr(globals()[owner], attr) if owner else globals()[attr]


def _one(kind, fn):
    """The op fn on the one input, read as `kind`."""
    return lambda args: fn(_read(kind, args.a))


def _two(kind, fn, guarded=False):
    """The op fn on the two inputs, read as `kind`, the size guard third if guarded."""

    def run(args):
        a, b = _read(kind, args.a), _read(kind, args.b)
        return fn(a, b, _guard(args)) if guarded else fn(a, b)

    return run


def _distance(kind, dist, guarded=False):
    """The distance named `dist` between the two inputs, read as `kind`."""
    return _two(kind, lambda *ab: io_json.distance_to_json(_lookup(dist)(*ab)), guarded)


def _parts(a):
    return {
        "ground": list(a.ground.elements),
        "parts": [
            io_json.subpartition_to_json(p, with_ground=False)
            for p in lattice.irreducible_parts(a)
        ],
    }


def _min_reps(args):
    a = _read("subpartition", args.a)
    reps = lattice.minimal_join_representations(a, guard=_guard(args, lattice.MIN_REPS_GUARD))
    canon = sorted(
        sorted(io_json.subpartition_to_json(p, with_ground=False) for p in rep)
        for rep in reps
    )
    return {"ground": list(a.ground.elements), "representations": canon}


def _validate(f):
    problem = formigram.validate(f)
    if problem is not None:
        raise ValidationError(problem)
    return {"ok": True}


def _smooth(args):
    a = _read("formigram", args.a)
    if args.epsilon is None:
        raise ValidationError("smooth requires --epsilon")
    return io_json.formigram_to_json(formigram.smooth(a, parse_rat(args.epsilon)))


def _code(f):
    code = formigram.cosheaf_code(f)
    return {
        "ground": list(f.ground.elements),
        "code": [
            {"pair": sorted(key), "staircase": io_json.staircase_to_json(code[key])}
            for key in sorted(code, key=lambda k: sorted(k))
        ],
    }


_SUB = "subpartition"
_GH = _distance("formigram", "compare.gromov_hausdorff_formigrams", guarded=True)
_MAX = ("--max-size",)

_HELP = {
    "lattice": "subpartition lattice operations",
    "formigram": "formigram operations and distances",
    "dendro": "dendrogram pipelines",
    "erosion": "erosion distance between barcodes",
    "bottleneck": "bottleneck distance between barcodes",
    "h0": "degree-0 barcode of a filtration",
    "tripod": "tripod distance between filtrations",
    "clustering": "plane-indexed clustering distances",
    "staircase": "staircase geometry",
}

# (command, op) -> (runner, input files, options read).  The op of tripod is
# its --indexing; erosion, bottleneck and h0 have none.
OPS = {
    ("lattice", "join"): (_two(_SUB, lambda a, b: io_json.subpartition_to_json(a.join(b))), 2, ()),
    ("lattice", "meet"): (_two(_SUB, lambda a, b: io_json.subpartition_to_json(a.meet(b))), 2, ()),
    ("lattice", "refines"): (_two(_SUB, lambda a, b: {"refines": a.refines(b)}), 2, ()),
    ("lattice", "parts"): (_one(_SUB, _parts), 1, ()),
    ("lattice", "min-reps"): (_min_reps, 1, _MAX),
    ("formigram", "validate"): (_one("formigram", _validate), 1, ()),
    ("formigram", "smooth"): (_smooth, 1, ("--epsilon",)),
    ("formigram", "code"): (_one("formigram", _code), 1, ()),
    ("formigram", "df"): (_distance("formigram", "formigram.interleaving_distance"), 2, ()),
    ("formigram", "dgh"): (_GH, 2, _MAX),
    ("dendro", "slhc"): (_one("metric", lambda m: io_json.formigram_to_json(
        formigram.single_linkage(*m))), 1, ()),
    ("dendro", "ultrametric"): (_one("formigram", lambda f: io_json.ultrametric_to_json(
        formigram.ultrametric(f))), 1, ()),
    ("dendro", "gh"): (_GH, 2, _MAX),
    ("erosion", None): (_distance("barcode", "persistence.erosion_distance"), 2, ()),
    ("bottleneck", None): (_distance("barcode", "persistence.bottleneck_distance"), 2, ()),
    ("h0", None): (_one("r_filtration", lambda f: io_json.barcode_to_json(
        persistence.h0_barcode(f))), 1, ()),
    ("tripod", "r"): (_distance("r_filtration", "filtration.tripod_distance_r", True), 2, _MAX),
    ("tripod", "int"): (
        _distance("int_filtration", "filtration.tripod_distance_int", True), 2, _MAX),
    ("clustering", "di"): (_distance("grid", "compare.grid_interleaving_distance"), 2, ()),
    ("staircase", "hausdorff"): (_distance("staircase", "staircase_hausdorff"), 2, ()),
    ("staircase", "profile"): (_one("staircase", lambda s: io_json.profile_to_json(s)), 1, ()),
}
_OPTIONS = {"--epsilon": None, "--max-size": int}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stairdist",
        description="Exact staircase-based distances for clusterings, "
        "barcodes and filtrations.",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)
    for command, text in _HELP.items():
        entries = {op: spec for (c, op), spec in OPS.items() if c == command}
        p = sub.add_parser(command, help=text)
        if command == "tripod":
            p.add_argument("--indexing", dest="op", choices=tuple(entries), required=True)
        elif None not in entries:
            p.add_argument("op", choices=tuple(entries))
        p.add_argument("a")
        files = {n for _, n, _ in entries.values()}
        if 2 in files:
            p.add_argument("b", nargs="?" if 1 in files else None)
        for option, kind in _OPTIONS.items():
            if any(option in read for _, _, read in entries.values()):
                p.add_argument(option, type=kind, default=None)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    op = getattr(args, "op", None)
    run, files, read = OPS[args.command, op]
    try:
        given = 1 if getattr(args, "b", None) is None else 2
        if given != files:
            raise ValidationError(
                f"{op} takes {('one input file', 'two input files')[files - 1]}, got {given}"
            )
        for option in _OPTIONS:
            if getattr(args, option[2:].replace("-", "_"), None) is not None and option not in read:
                raise ValidationError(f"{op} does not take {option}")
        doc = run(args)
    except (StairdistError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (GroundSetMismatch, AmbientMismatch)):
            return EXIT_MISMATCH
        return EXIT_GUARD if isinstance(e, SizeGuardExceeded) else EXIT_INVALID
    _emit(doc, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
