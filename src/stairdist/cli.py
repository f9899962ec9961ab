"""Command-line front end.

Reads JSON inputs (``-`` for stdin), dispatches to the library, writes one
JSON document (or a text rendering with ``--format text``) to stdout.
Diagnostics go to stderr.  Exit codes: 0 success, 2 parse/validation
failure, 3 ground-set/ambient mismatch, 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compare, filtration, formigram, lattice, persistence
from .staircase import hausdorff as staircase_hausdorff
from .errors import (
    AmbientMismatch,
    GroundSetMismatch,
    SizeGuardExceeded,
    StairdistError,
    ValidationError,
)
from . import io_json
from .rat import parse_rat

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_GUARD = 4


def _refuse_float(text: str):
    raise ValidationError(f"number {text} is not exact; write it as a string \"p/q\"")


def _load(path: str):
    """The JSON document at path; a float literal (1e309 would read as inf)
    is refused."""
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


def _run_lattice(args):
    a = io_json.subpartition_from_json(_load(args.a))
    if args.op in ("join", "meet", "refines"):
        b = io_json.subpartition_from_json(_load(args.b))
        if args.op == "join":
            return io_json.subpartition_to_json(a.join(b))
        if args.op == "meet":
            return io_json.subpartition_to_json(a.meet(b))
        return {"refines": a.refines(b)}
    if args.op == "parts":
        parts = lattice.irreducible_parts(a)
        return {
            "ground": list(a.ground.elements),
            "parts": [io_json.subpartition_to_json(p, with_ground=False) for p in parts],
        }
    reps = lattice.minimal_join_representations(a, guard=_guard(args, lattice.MIN_REPS_GUARD))
    canon = sorted(
        sorted(io_json.subpartition_to_json(p, with_ground=False) for p in rep)
        for rep in reps
    )
    return {"ground": list(a.ground.elements), "representations": canon}


def _run_formigram(args):
    a = io_json.formigram_from_json(_load(args.a))
    if args.op == "validate":
        problem = formigram.validate(a)
        if problem is not None:
            raise ValidationError(problem)
        return {"ok": True}
    if args.op == "smooth":
        if args.epsilon is None:
            raise ValidationError("smooth requires --epsilon")
        eps = parse_rat(args.epsilon, allow_infinite=False)
        return io_json.formigram_to_json(formigram.smooth(a, eps))
    if args.op == "code":
        code = formigram.cosheaf_code(a)
        return {
            "ground": list(a.ground.elements),
            "code": [
                {
                    "pair": sorted(key),
                    "staircase": io_json.staircase_to_json(code[key]),
                }
                for key in sorted(code, key=lambda k: sorted(k))
            ],
        }
    b = io_json.formigram_from_json(_load(args.b))
    if args.op == "df":
        return io_json.distance_to_json(formigram.interleaving_distance(a, b))
    return io_json.distance_to_json(
        compare.gromov_hausdorff_formigrams(a, b, guard=_guard(args))
    )


def _run_dendro(args):
    if args.op == "slhc":
        ground, d = io_json.metric_from_json(_load(args.a))
        return io_json.formigram_to_json(formigram.single_linkage(ground, d))
    a = io_json.formigram_from_json(_load(args.a))
    if args.op == "ultrametric":
        return io_json.ultrametric_to_json(formigram.ultrametric(a))
    b = io_json.formigram_from_json(_load(args.b))
    return io_json.distance_to_json(
        compare.gromov_hausdorff_formigrams(a, b, guard=_guard(args))
    )


def _run_tripod(args):
    guard = _guard(args)
    if args.indexing == "r":
        a = io_json.r_filtration_from_json(_load(args.a))
        b = io_json.r_filtration_from_json(_load(args.b))
        return io_json.distance_to_json(filtration.tripod_distance_r(a, b, guard))
    a = io_json.int_filtration_from_json(_load(args.a))
    b = io_json.int_filtration_from_json(_load(args.b))
    return io_json.distance_to_json(filtration.tripod_distance_int(a, b, guard))


def _run_staircase(args):
    a = io_json.staircase_from_json(_load(args.a))
    if args.op == "profile":
        return io_json.profile_to_json(a)
    b = io_json.staircase_from_json(_load(args.b))
    return io_json.distance_to_json(staircase_hausdorff(a, b))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stairdist",
        description="Exact staircase-based distances for clusterings, "
        "barcodes and filtrations.",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="subpartition lattice operations")
    p.add_argument("op", choices=("join", "meet", "refines", "parts", "min-reps"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(run=_run_lattice, two_inputs=("join", "meet", "refines"))

    p = sub.add_parser("formigram", help="formigram operations and distances")
    p.add_argument("op", choices=("validate", "smooth", "code", "df", "dgh"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(run=_run_formigram, two_inputs=("df", "dgh"))

    p = sub.add_parser("dendro", help="dendrogram pipelines")
    p.add_argument("op", choices=("slhc", "ultrametric", "gh"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(run=_run_dendro, two_inputs=("gh",))

    p = sub.add_parser("erosion", help="erosion distance between barcodes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(
        run=lambda a: io_json.distance_to_json(
            persistence.erosion_distance(
                io_json.barcode_from_json(_load(a.a)),
                io_json.barcode_from_json(_load(a.b)),
            )
        )
    )

    p = sub.add_parser("bottleneck", help="bottleneck distance between barcodes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(
        run=lambda a: io_json.distance_to_json(
            persistence.bottleneck_distance(
                io_json.barcode_from_json(_load(a.a)),
                io_json.barcode_from_json(_load(a.b)),
            )
        )
    )

    p = sub.add_parser("h0", help="degree-0 barcode of a filtration")
    p.add_argument("a")
    p.set_defaults(
        run=lambda a: io_json.barcode_to_json(
            persistence.h0_barcode(io_json.r_filtration_from_json(_load(a.a)))
        )
    )

    p = sub.add_parser("tripod", help="tripod distance between filtrations")
    p.add_argument("--indexing", choices=("r", "int"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(run=_run_tripod)

    p = sub.add_parser("clustering", help="plane-indexed clustering distances")
    p.add_argument("op", choices=("di",))
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(
        run=lambda a: io_json.distance_to_json(
            compare.grid_interleaving_distance(
                io_json.grid_from_json(_load(a.a)), io_json.grid_from_json(_load(a.b))
            )
        )
    )

    p = sub.add_parser("staircase", help="staircase geometry")
    p.add_argument("op", choices=("hausdorff", "profile"))
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.set_defaults(run=_run_staircase, two_inputs=("hausdorff",))

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    two = getattr(args, "two_inputs", ())
    try:
        if getattr(args, "op", None) in two and args.b is None:
            raise ValidationError(f"{args.op} needs two input files")
        doc = args.run(args)
    except (ValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (GroundSetMismatch, AmbientMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except SizeGuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    except StairdistError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    _emit(doc, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
