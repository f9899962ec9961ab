"""Command-line front end.

Reads JSON inputs (``-`` for stdin), dispatches to the library, writes one
JSON document (or a text rendering with ``--format text``) to stdout.
Diagnostics go to stderr.  Exit codes: 0 success, 2 parse/validation
failure, 3 ground-set/ambient mismatch, 4 size guard exceeded.

One table, ``OPS``, gives each (command, op) its input kind, its number of
input files, the options it reads and its op, a plain function of the
inputs in file order and then of each option's value.  The parser is built
from the table; ``main`` alone reads the parsed arguments, refuses any other
number of files or an option the op does not read, reads the files and
options (an error names which) and calls the op.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import compare, filtration, formigram, io_json, lattice, persistence
from .errors import AmbientMismatch, GroundSetMismatch, SizeGuardExceeded
from .errors import StairdistError, ValidationError
from .rat import parse_rat, within_digit_limit
from .staircase import hausdorff as staircase_hausdorff

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_GUARD = 4


def _refuse_inexact(text: str):
    raise ValidationError(f'number {text} is not exact; write numbers as strings "p/q" or "inf"')


def _load(path: str):
    """The JSON document at path, its integers read by parse_rat; a float
    literal (1e309 would read as inf), NaN or +-Infinity is refused."""
    hooks = dict(parse_int=parse_rat, parse_float=_refuse_inexact, parse_constant=_refuse_inexact)
    try:
        if path == "-":
            return json.load(sys.stdin, **hooks)
        with open(path) as fh:
            return json.load(fh, **hooks)
    except OSError as e:
        raise ValidationError(f"cannot read it: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"not valid JSON ({e})") from None
    except RecursionError:
        raise ValidationError("JSON nested too deeply") from None


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


def _guard(max_size, default=compare.CORRESPONDENCE_GUARD):
    if max_size is not None and max_size != default:
        print(
            f"warning: size guard overridden to {max_size}; "
            "exhaustive searches grow exponentially",
            file=sys.stderr,
        )
    return default if max_size is None else max_size


def _size(text: str) -> int:
    """A --max-size value: an int >= 0 (a negative guard is an invalid option)."""
    n = int(within_digit_limit(text))
    if n < 0:
        raise ValidationError(f"{n} < 0")
    return n


def _named(name: str, read, *args):
    """read(*args); an error names `name`, the file or the option read."""
    try:
        return read(*args)
    except StairdistError as e:
        raise type(e)(f"{name}: {e}") from None
    except ValueError as e:
        raise ValidationError(f"{name}: {e}") from None


def _read(kind: str, path: str):
    """The input at path, read by io_json's `<kind>_from_json`; an error
    names the file."""
    return _named(path, lambda: getattr(io_json, f"{kind}_from_json")(_load(path)))


def _lookup(name: str):
    """The function `module.attr` (or `attr` of this module), looked up when an
    op runs rather than at import, so that a name rebound later is followed."""
    owner, _, attr = name.rpartition(".")
    return getattr(globals()[owner], attr) if owner else globals()[attr]


# --- ops: each takes the inputs in file order, then the value of each option
# it reads, and returns the JSON document ---


def _distance(dist):
    """The op giving the distance named `dist` between the two inputs (every
    distance op is one); an op that reads --max-size passes the size guard
    third."""
    return lambda a, b, *max_size: io_json.distance_to_json(
        _lookup(dist)(a, b, *[_guard(m) for m in max_size])
    )


def _min_reps(a, max_size):
    reps = lattice.minimal_join_representations(a, guard=_guard(max_size, lattice.MIN_REPS_GUARD))
    return io_json.representations_to_json(a.ground, reps)


def _validate(f):
    problem = formigram.validate(f)
    if problem is not None:
        raise ValidationError(problem)
    return {"ok": True}


def _smooth(f, epsilon):
    if epsilon is None:
        raise ValidationError("smooth requires --epsilon")
    return io_json.formigram_to_json(formigram.smooth(f, epsilon))


_SUB = "subpartition"
_MAX = ("--max-size",)
_GH = ("formigram", 2, _MAX, _distance("compare.gromov_hausdorff_formigrams"))

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

# (command, op) -> (input kind, input files, options read, op).  The op of
# tripod is its --indexing; erosion, bottleneck and h0 have none.
OPS = {
    ("lattice", "join"): (_SUB, 2, (), lambda a, b: io_json.subpartition_to_json(a.join(b))),
    ("lattice", "meet"): (_SUB, 2, (), lambda a, b: io_json.subpartition_to_json(a.meet(b))),
    ("lattice", "refines"): (_SUB, 2, (), lambda a, b: {"refines": a.refines(b)}),
    ("lattice", "parts"): (_SUB, 1, (), lambda a: io_json.parts_to_json(
        a.ground, lattice.irreducible_parts(a))),
    ("lattice", "min-reps"): (_SUB, 1, _MAX, _min_reps),
    ("formigram", "validate"): ("formigram", 1, (), _validate),
    ("formigram", "smooth"): ("formigram", 1, ("--epsilon",), _smooth),
    ("formigram", "code"): ("formigram", 1, (), lambda f: io_json.code_to_json(
        f.ground, formigram.cosheaf_code(f))),
    ("formigram", "df"): ("formigram", 2, (), _distance("formigram.interleaving_distance")),
    ("formigram", "dgh"): _GH,
    ("dendro", "slhc"): ("metric", 1, (), lambda m: io_json.formigram_to_json(
        formigram.single_linkage(*m))),
    ("dendro", "ultrametric"): ("formigram", 1, (), lambda f: io_json.ultrametric_to_json(
        formigram.ultrametric(f))),
    ("dendro", "gh"): _GH,
    ("erosion", None): ("barcode", 2, (), _distance("persistence.erosion_distance")),
    ("bottleneck", None): ("barcode", 2, (), _distance("persistence.bottleneck_distance")),
    ("h0", None): ("r_filtration", 1, (), lambda f: io_json.barcode_to_json(
        persistence.h0_barcode(f))),
    ("tripod", "r"): ("r_filtration", 2, _MAX, _distance("filtration.tripod_distance_r")),
    ("tripod", "int"): ("int_filtration", 2, _MAX, _distance("filtration.tripod_distance_int")),
    ("clustering", "di"): ("grid", 2, (), _distance("compare.grid_interleaving_distance")),
    ("staircase", "hausdorff"): ("staircase", 2, (), _distance("staircase_hausdorff")),
    ("staircase", "profile"): ("staircase", 1, (), lambda s: io_json.profile_to_json(s)),
}
# the reader of each option's text (an option not given reads None)
_OPTIONS = {"--epsilon": parse_rat, "--max-size": _size}
_NEGATIVE = re.compile(r"-\.?\d|-inf$")


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
        # argparse takes only -1 and -1.5 for values; -1/2 and -inf are values too
        p._negative_number_matcher = _NEGATIVE
        if command == "tripod":
            p.add_argument("--indexing", dest="op", choices=tuple(entries), required=True)
        elif None not in entries:
            p.add_argument("op", choices=tuple(entries))
        p.add_argument("a")
        files = {n for _, n, _, _ in entries.values()}
        if 2 in files:
            p.add_argument("b", nargs="?" if 1 in files else None)
        for option in _OPTIONS:
            if any(option in read for _, _, read, _ in entries.values()):
                p.add_argument(option, default=None)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    op = getattr(args, "op", None)
    kind, files, read, run = OPS[args.command, op]
    paths = [args.a] if getattr(args, "b", None) is None else [args.a, args.b]
    values = {option: getattr(args, option[2:].replace("-", "_"), None) for option in _OPTIONS}
    try:
        if len(paths) != files:
            raise ValidationError(
                f"{op} takes {('one input file', 'two input files')[files - 1]}, got {len(paths)}"
            )
        for option, value in values.items():
            if value is not None and option not in read:
                raise ValidationError(f"{op} does not take {option}")
        doc = run(
            *[_read(kind, path) for path in paths],
            *[None if values[o] is None else _named(o, _OPTIONS[o], values[o]) for o in read],
        )
    except (StairdistError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (GroundSetMismatch, AmbientMismatch)):
            return EXIT_MISMATCH
        return EXIT_GUARD if isinstance(e, SizeGuardExceeded) else EXIT_INVALID
    _emit(doc, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
