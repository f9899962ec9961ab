"""CLI: subcommand dispatch, round-trips, deterministic output, exit codes."""

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from stairdist import cli, io_json
from stairdist.errors import ValidationError
from stairdist.formigram import Formigram
from stairdist.rat import INF, fmt_rat
from stairdist.staircase import Staircase, hausdorff

F = Fraction

LOOP_THETA = {"ground": ["x", "y"], "crit": [], "values": [[["x", "y"]]]}
LOOP_THETA_PRIME = {
    "ground": ["x", "y"],
    "crit": ["-3/2", "3/2"],
    "values": [
        [["x", "y"]],
        [["x", "y"]],
        [["x"], ["y"]],
        [["x", "y"]],
        [["x", "y"]],
    ],
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_formigram_df_loop(tmp_path, capsys):
    a = write(tmp_path, "a.json", LOOP_THETA)
    b = write(tmp_path, "b.json", LOOP_THETA_PRIME)
    assert run_json(capsys, "formigram", "df", a, b) == {"distance": "3/2"}
    assert run_json(capsys, "formigram", "dgh", a, b) == {"distance": "3/4"}


def test_lattice_join_identity(tmp_path, capsys):
    doc = {"ground": ["x", "y", "z"], "blocks": [["x", "y"]]}
    a = write(tmp_path, "a.json", doc)
    out = run_json(capsys, "lattice", "join", a, a)
    assert out == doc
    assert run_json(capsys, "lattice", "refines", a, a) == {"refines": True}


def test_lattice_min_reps(tmp_path, capsys):
    doc = {"ground": ["x", "y", "z"], "blocks": [["x", "y", "z"]]}
    a = write(tmp_path, "a.json", doc)
    out = run_json(capsys, "lattice", "min-reps", a)
    assert len(out["representations"]) == 3
    for rep in out["representations"]:
        assert len(rep) == 2


def test_erosion_and_bottleneck(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"bars": [["0", "2"]]})
    b = write(tmp_path, "b.json", {"bars": [["1", "3"]]})
    assert run_json(capsys, "erosion", a, b) == {"distance": "1"}
    assert run_json(capsys, "bottleneck", a, b) == {"distance": "1"}


def test_h0_roundtrip(tmp_path, capsys):
    filt = {
        "vertices": ["a", "b"],
        "simplices": [
            {"verts": ["a"], "birth": 0},
            {"verts": ["b"], "birth": 0},
            {"verts": ["a", "b"], "birth": "1"},
        ],
    }
    a = write(tmp_path, "f.json", filt)
    out = run_json(capsys, "h0", a)
    assert out == {"bars": [["0", "1"], ["0", "inf"]]}
    assert io_json.barcode_from_json(out) == io_json.barcode_from_json(
        json.loads(json.dumps(out))
    )


def test_dendro_pipeline(tmp_path, capsys):
    metric = {"points": ["a", "b", "c"], "d": [["0", "1", "5"], ["1", "0", "2"], ["5", "2", "0"]]}
    m = write(tmp_path, "m.json", metric)
    dendro = run_json(capsys, "dendro", "slhc", m)
    assert dendro["crit"] == ["0", "1", "2"]
    d = write(tmp_path, "d.json", dendro)
    um = run_json(capsys, "dendro", "ultrametric", d)
    assert um["u"][0][2] == "2"
    gh = run_json(capsys, "dendro", "gh", d, d)
    assert gh == {"distance": "0"}


def test_tripod_cli(tmp_path, capsys):
    fa = {
        "vertices": ["a"],
        "simplices": [{"verts": ["a"], "birth": "0"}],
    }
    fb = {
        "vertices": ["b"],
        "simplices": [{"verts": ["b"], "birth": "5"}],
    }
    a = write(tmp_path, "a.json", fa)
    b = write(tmp_path, "b.json", fb)
    assert run_json(capsys, "tripod", "--indexing", "r", a, b) == {"distance": "5"}

    ia = {
        "vertices": ["a"],
        "simplices": [
            {"verts": ["a"], "support": {"ambient": "int", "generators": [["inf", "-inf"]]}}
        ],
    }
    ib = {
        "vertices": ["b"],
        "simplices": [
            {"verts": ["b"], "support": {"ambient": "int", "generators": [["inf", "0"]]}}
        ],
    }
    a2 = write(tmp_path, "ia.json", ia)
    b2 = write(tmp_path, "ib.json", ib)
    out = run_json(capsys, "tripod", "--indexing", "int", a2, b2)
    assert out == {"distance": "inf"}


def test_clustering_cli(tmp_path, capsys):
    split = [["x"], ["y"]]
    merged = [["x", "y"]]
    fa = {
        "ground": ["x", "y"],
        "x_cuts": ["0"],
        "y_cuts": ["0"],
        "cells": [[split, split], [split, merged]],
    }
    fb = dict(fa, x_cuts=["1"], y_cuts=["1"])
    a = write(tmp_path, "a.json", fa)
    b = write(tmp_path, "b.json", fb)
    assert run_json(capsys, "clustering", "di", a, b) == {"distance": "1"}


def test_staircase_cli(tmp_path, capsys):
    s1 = {"ambient": "int", "generators": [["-3/2", "-inf"], ["inf", "3/2"]]}
    s2 = {"ambient": "int", "generators": [["inf", "-inf"]]}
    a = write(tmp_path, "a.json", s1)
    b = write(tmp_path, "b.json", s2)
    assert run_json(capsys, "staircase", "hausdorff", a, b) == {"distance": "3/2"}
    prof = run_json(capsys, "staircase", "profile", a)
    assert prof["breakpoints"] == ["-3", "0", "3"]
    assert [p["slope"] for p in prof["pieces"]] == ["1/2", "1", "0", "1/2"]


def test_smooth_roundtrip_and_determinism(tmp_path, capsys):
    b = write(tmp_path, "b.json", LOOP_THETA_PRIME)
    code1, out1, _ = run(capsys, "formigram", "smooth", "--epsilon", "1/2", b)
    code2, out2, _ = run(capsys, "formigram", "smooth", "--epsilon", "1/2", b)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    reparsed = io_json.formigram_from_json(json.loads(out1))
    assert isinstance(reparsed, Formigram)
    assert json.loads(out1) == io_json.formigram_to_json(reparsed)


def test_formigram_validate(tmp_path, capsys):
    good = write(tmp_path, "g.json", LOOP_THETA_PRIME)
    code, out, _ = run(capsys, "formigram", "validate", good)
    assert code == 0 and json.loads(out) == {"ok": True}
    bad_doc = dict(LOOP_THETA_PRIME)
    bad_doc["values"] = [
        [["x", "y"]],
        [["x"], ["y"]],  # point value finer than the left interval
        [["x"], ["y"]],
        [["x", "y"]],
        [["x", "y"]],
    ]
    bad = write(tmp_path, "bad.json", bad_doc)
    code, _, err = run(capsys, "formigram", "validate", bad)
    assert code == 2
    assert "locally maximal" in err


def test_formigram_code_dump(tmp_path, capsys):
    b = write(tmp_path, "b.json", LOOP_THETA_PRIME)
    out = run_json(capsys, "formigram", "code", b)
    entries = {tuple(e["pair"]): e["staircase"] for e in out["code"]}
    assert entries[("x", "y")]["generators"] == [["-3/2", "-inf"], ["inf", "3/2"]]
    assert set(entries) == {("x",), ("x", "y"), ("y",)}


def test_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"ground": ["x", "y"], "blocks": [["x", "q"]]})
    code, _, err = run(capsys, "lattice", "parts", a)
    assert code == 2 and "ground set" in err

    good = write(tmp_path, "g.json", {"ground": ["x", "y"], "blocks": [["x", "y"]]})
    other = write(tmp_path, "o.json", {"ground": ["p", "q"], "blocks": []})
    code, _, err = run(capsys, "lattice", "join", good, other)
    assert code == 3 and "ground sets differ" in err

    big = {"ground": list("abcdefg"), "blocks": [list("abcdefg")]}
    f = write(tmp_path, "big.json", big)
    code, _, err = run(capsys, "lattice", "min-reps", f)
    assert code == 4 and "guard" in err

    code, _, err = run(capsys, "erosion", str(tmp_path / "missing.json"), good)
    assert code == 2

    code, _, err = run(capsys, "lattice", "join", good)
    assert code == 2 and "two input" in err

    # malformed members: a validation failure, never a traceback
    nested = write(tmp_path, "nested.json", {
        "vertices": ["a"], "simplices": [{"verts": [["a"]], "birth": "0"}]})
    code, _, err = run(capsys, "h0", nested)
    assert code == 2 and "simplex vertices" in err
    code, _, err = run(capsys, "tripod", "--indexing", "r", nested, nested)
    assert code == 2 and "simplex vertices" in err
    p = write(tmp_path, "p.json", {"ground": ["x"], "blocks": [[["x"]]]})
    code, _, err = run(capsys, "lattice", "parts", p)
    assert code == 2 and "block" in err
    m = write(tmp_path, "m.json", {"points": ["a", "b"], "d": [1, 2]})
    code, _, err = run(capsys, "dendro", "slhc", m)
    assert code == 2 and "row" in err
    grid = write(tmp_path, "grid.json", {
        "ground": ["x"], "x_cuts": [], "y_cuts": ["0"], "cells": [1, [[["x"]]]]})
    code, _, err = run(capsys, "clustering", "di", grid, grid)
    assert code == 2 and "row" in err

    # unreadable inputs and bad numbers: exit 2 with a message
    loop = write(tmp_path, "loop.json", LOOP_THETA)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    huge = tmp_path / "huge.json"  # 1e309 overflows a float to inf
    huge.write_text('{"bars": [["0", 1e309]]}')
    essential = write(tmp_path, "essential.json", {"bars": [["0", "inf"]]})
    unborn = write(tmp_path, "unborn.json", {"bars": [["-inf", "1"]]})
    flags = write(tmp_path, "flags.json", {"bars": [[False, True]]})  # not 0 and 1
    unit = write(tmp_path, "unit.json", {"bars": [["0", "1"]]})
    flag_crit = write(tmp_path, "flag_crit.json", dict(LOOP_THETA_PRIME, crit=[True, "3/2"]))
    stair = write(tmp_path, "stair.json", {"ambient": "int", "generators": [["0", "0"]]})
    point = write(tmp_path, "point.json", {"points": ["a"], "d": [["0"]]})
    # infinities and ambients refused by the values' constructors
    far = write(tmp_path, "far.json", {"points": ["a", "b"], "d": [["0", "inf"], ["inf", "0"]]})
    never = write(tmp_path, "never.json", {
        "vertices": ["a"], "simplices": [{"verts": ["a"], "birth": "inf"}]})
    disk = write(tmp_path, "disk.json", {"ambient": "disk", "generators": []})
    short_gen = write(tmp_path, "short_gen.json", {"ambient": "int", "generators": [["0"]]})
    short_bar = write(tmp_path, "short_bar.json", {"bars": [["0", "1"], "0"]})
    vertex = write(tmp_path, "vertex.json", {
        "vertices": ["a"], "simplices": [{"verts": ["a"], "birth": "0"}]})
    constants = []  # JSON constants, which json would read as floats
    for i, constant in enumerate(("Infinity", "-Infinity", "NaN")):
        path = tmp_path / f"constant{i}.json"
        path.write_text(f'{{"bars": [["0", {constant}]]}}')
        constants.append((("bottleneck", str(path), essential), "not exact"))
    for argv in [
        ("bottleneck", str(huge), essential),
        ("bottleneck", unborn, essential),
        ("bottleneck", flags, unit),
        ("formigram", "validate", flag_crit),
        ("formigram", "validate", str(tmp_path)),  # a directory
        ("formigram", "validate", str(deep)),
        # an option or a second file the op would not read
        ("formigram", "validate", loop, "--epsilon", "zz"),
        ("formigram", "df", loop, loop, "--max-size", "3"),
        ("formigram", "smooth", loop, loop, "--epsilon", "1/2"),
        ("lattice", "parts", good, "--max-size", "3"),
        ("lattice", "parts", good, good),
        ("staircase", "profile", stair, stair),
        ("dendro", "slhc", point, point),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
    for argv, rule in [
        (("dendro", "slhc", far), "finite metric"),
        (("h0", never), "infinite birth"),
        (("tripod", "--indexing", "r", never, never), "infinite birth"),
        (("formigram", "smooth", loop, "--epsilon", "inf"), "eps"),
        # negative values that argparse would take for unknown options
        (("formigram", "smooth", loop, "--epsilon", "-1/2"), "eps"),
        (("formigram", "smooth", loop, "--epsilon", "-inf"), "eps"),
        (("staircase", "profile", disk), 'ambient must be "int" or "plane"'),
        (("staircase", "profile", short_gen), "each generator must be a [l, r] pair"),
        (("erosion", short_bar, unit), "each bar must be a [birth, death] pair"),
        *constants,
        # an option's reading error names the option
        (("formigram", "smooth", loop, "--epsilon", "1/0"), "--epsilon: zero denominator"),
        (("lattice", "min-reps", good, "--max-size", "zz"), "--max-size: invalid literal"),
        # a negative guard is an invalid option, not a guard exceeded
        (("lattice", "min-reps", good, "--max-size", "-1"), "--max-size: -1 < 0"),
        (("tripod", "--indexing", "r", vertex, vertex, "--max-size", "-1"), "--max-size: -1 < 0"),
        (("formigram", "dgh", loop, loop, "--max-size", "-2"), "--max-size: -2 < 0"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and rule in err
    limit = _limit()
    if limit:  # values past Python's int-to-str limit: no digit is echoed
        digits = "1" * (limit + 700)
        for argv, option in [
            (("lattice", "min-reps", good, "--max-size", digits), "--max-size"),
            (("formigram", "smooth", loop, "--epsilon", digits), "--epsilon"),
        ]:
            code, _, err = run(capsys, *argv)
            assert code == 2 and err == (
                f"error: {option}: a number of {limit + 700} digits is over the "
                f"limit of {limit} digits\n"
            )


def _limit() -> int:
    """Python's int-to-str digit limit; 0, no limit, before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _read_int(text: str) -> int:
    """The int written in decimal text of any length, read in pieces below
    Python's int-to-str limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    n = 0
    for i in range(0, len(digits), 600):
        piece = digits[i:i + 600]
        n = n * 10 ** len(piece) + int(piece)
    return sign * n


def test_long_answers_are_written_in_full(tmp_path, capsys):
    """An exact answer past Python's int-to-str limit is printed in full,
    and the limit itself is left as it is."""
    limit = _limit()
    p, q = 10**2999 + 1, 10**2999 + 3
    a = write(tmp_path, "a.json", {"ambient": "int", "generators": [["inf", f"1/{p}"]]})
    b = write(tmp_path, "b.json", {"ambient": "int", "generators": [["inf", f"1/{q}"]]})
    num, den = run_json(capsys, "staircase", "hausdorff", a, b)["distance"].split("/")
    expected = hausdorff(Staircase("int", ((INF, F(1, p)),)), Staircase("int", ((INF, F(1, q)),)))
    assert expected == F(2, p * q) and F(_read_int(num), _read_int(den)) == expected
    assert len(den) > 4300
    for x in (F(-(10**9000) - 7, 3), F(10**5000 + 1), F(1, 7**8000)):
        text = fmt_rat(x)
        assert F(*map(_read_int, text.split("/"))) == x
    assert _limit() == limit


@pytest.mark.skipif(_limit() == 0, reason="no int-to-str limit is set")
def test_input_numbers_past_the_limit_are_refused(tmp_path, capsys):
    """A number with more digits than the limit exits 2 naming the file and
    the limit, and does not echo its digits."""
    limit = _limit()
    digits = "1" * (limit + 700)
    essential = write(tmp_path, "essential.json", {"bars": [["0", "inf"]]})
    text = write(tmp_path, "text.json", {"bars": [["0", digits]]})
    raw = tmp_path / "raw.json"
    raw.write_text(f'{{"bars": [["0", {digits}]]}}')
    for path in (text, str(raw)):
        code, out, err = run(capsys, "bottleneck", path, essential)
        assert code == 2 and out == "" and err.startswith(f"error: {path}: ")
        assert f"limit of {limit} digits" in err and digits[:50] not in err


@pytest.mark.parametrize("simplices", [
    [{"verts": ["a"], "birth": "0"}, {"verts": ["a", "a"], "birth": "7"}],
    [{"verts": ["a"], "birth": "0"}, {"verts": ["a"], "birth": "7"}],
])
def test_filtration_simplices_are_read_once(tmp_path, capsys, simplices):
    """A simplex naming a vertex twice would collapse onto a smaller one,
    and a simplex listed twice would keep its last birth; both are refused
    by both filtration readers."""
    doc = {"vertices": ["a"], "simplices": simplices}
    with pytest.raises(ValidationError, match="twice"):
        io_json.r_filtration_from_json(doc)
    point = {"ambient": "int", "generators": [["inf", "0"]]}
    supports = [{"verts": e["verts"], "support": point} for e in simplices]
    with pytest.raises(ValidationError, match="twice"):
        io_json.int_filtration_from_json({"vertices": ["a"], "simplices": supports})
    code, out, err = run(capsys, "h0", write(tmp_path, "f.json", doc))
    assert code == 2 and out == "" and err.startswith("error:") and "twice" in err


def test_readme_usage_matches_the_parser():
    """Every `stairdist ...` line of README's CLI block parses, with the
    number of files and the options its op reads, and the lines together
    name every (command, op) of the table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    seen = set()
    for line in block.splitlines():
        words = line.replace("[--max-size N]", "--max-size 8").split()
        assert words[0] == "stairdist", line
        for argv in product(*(w.split("|") for w in words[1:])):
            args = cli.build_parser().parse_args(argv)
            op = getattr(args, "op", None)
            _, files, reads, _ = cli.OPS[args.command, op]
            assert 1 + (getattr(args, "b", None) is not None) == files, line
            options = {w for w in argv if w.startswith("--")} - {"--indexing"}
            assert options <= set(reads), line
            seen.add((args.command, op))
    assert seen == set(cli.OPS)


def test_traced_cli_records_readers_and_engines(tmp_path, capsys):
    """The CLI looks its readers and engines up when it runs, so the span
    tracer, which rebinds module-level names after import, sees every call."""
    from perfbench.tracing import Tracer

    bars = write(tmp_path, "bars.json", {"bars": [["0", "2"]]})
    stair = write(tmp_path, "s.json", {"ambient": "int", "generators": [["inf", "-inf"]]})
    loop = write(tmp_path, "loop.json", LOOP_THETA)
    argvs = [
        ("bottleneck", bars, bars),
        ("erosion", bars, bars),
        ("staircase", "hausdorff", stair, stair),
        ("staircase", "profile", stair),
        ("formigram", "dgh", loop, loop),
        ("dendro", "gh", loop, loop),
    ]
    tracer = Tracer()
    tracer.install()
    seen = []  # the counts each argv adds
    try:
        for argv in argvs:
            before = dict(tracer.counts)
            assert tracer.call("call.cli", cli.main, list(argv)) == 0
            seen.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for argv, counts in zip(argvs, seen):
        assert counts["cli.main.calls"] == 1, argv
        assert counts["io_json.emit.calls"] == 1, argv
    # barcodes and staircases are read by one reader call per file
    assert [c["io_json.parse.calls"] for c in seen[:4]] == [2, 2, 2, 1]
    assert seen[0]["persistence.bottleneck.calls"] == 1
    assert seen[1]["persistence.erosion.calls"] == 1
    assert seen[2]["staircase.hausdorff.calls"] == 1
    assert [c["compare.gromov_hausdorff.calls"] for c in seen[4:]] == [1, 1]


def test_guard_override_warns(tmp_path, capsys):
    big = {"ground": list("abcdefg"), "blocks": [list("abcdefg")]}
    f = write(tmp_path, "big.json", big)
    code, out, err = run(capsys, "lattice", "min-reps", f, "--max-size", "7")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["representations"]


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    a = write(tmp_path, "a.json", {"ground": ["x", "y"], "blocks": [["x", "y"]]})
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"ground": ["x", "y"], "blocks": []}))
    )
    out = run_json(capsys, "lattice", "join", a, "-")
    assert out["blocks"] == [["x", "y"]]


def test_json_roundtrips_all_types():
    import random

    from conftest import (
        ground,
        rand_formigram,
        rand_grid,
        rand_int_filtration,
        rand_r_filtration,
        rand_staircase,
        rand_barcode,
    )

    rng = random.Random(181)
    for _ in range(10):
        g = ground(rng.randint(1, 3))
        f = rand_formigram(rng, g, 3)
        assert io_json.formigram_from_json(
            json.loads(json.dumps(io_json.formigram_to_json(f)))
        ) == f
        u = rand_staircase(rng, rng.choice(("int", "plane")))
        assert io_json.staircase_from_json(
            json.loads(json.dumps(io_json.staircase_to_json(u)))
        ) == u
        grid = rand_grid(rng, g)
        assert io_json.grid_from_json(
            json.loads(json.dumps(io_json.grid_to_json(grid)))
        ) == grid
        rf = rand_r_filtration(rng, g)
        assert io_json.r_filtration_from_json(
            json.loads(json.dumps(io_json.r_filtration_to_json(rf)))
        ) == rf
        intf = rand_int_filtration(rng, g)
        assert io_json.int_filtration_from_json(
            json.loads(json.dumps(io_json.int_filtration_to_json(intf)))
        ) == intf
        bars = rand_barcode(rng)
        assert io_json.barcode_from_json(
            json.loads(json.dumps(io_json.barcode_to_json(bars)))
        ) == bars


def test_text_format(tmp_path, capsys):
    a = write(tmp_path, "a.json", LOOP_THETA)
    b = write(tmp_path, "b.json", LOOP_THETA_PRIME)
    code, out, _ = run(capsys, "--format", "text", "formigram", "df", a, b)
    assert code == 0
    assert "distance" in out and "3/2" in out
