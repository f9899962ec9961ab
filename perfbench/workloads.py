"""The benchmark's workloads, as pools of seeded cases.

A workload is a list of cases in round-robin order over its call kinds, so
every prefix of the closed loop has the same mix of kinds (to within one
call).  A case holds a plain-data spec, a builder that turns the spec into
fresh library objects before every call, and the public call to time.  The
calls look the library functions up through their modules at call time, so
the traced run sees the same rebinding the library's own modules see.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from pathlib import Path
from typing import Callable

from stairdist import cli, compare, filtration, formigram, persistence
from stairdist.lattice import GroundSet
from stairdist.staircase import INT

from . import inputs as gen

WORKLOADS = ("engines", "cli", "interleaving", "barcode-dendro", "correspondence")

# The three workloads whose rounds make up a round of `engines`, and how
# many rounds of each: two, two and one give each about a third of the
# time, and put the median call among the tightly clustered R-indexed
# tripod and single-linkage calls rather than in the gap above them.
ENGINE_PARTS = {"interleaving": 2, "barcode-dendro": 2, "correspondence": 1}

# Rounds (one case of every kind) in a pool.  Every run calls the whole
# pool, pass after pass, so a pool is as large as a p90 or p95 with ten
# cases beyond it needs (call_tail_s) and small enough that every case is called several times
# in a run: 5 to 8 s a pass on `engines` at the seed commit, about 3 s on
# the other engine workloads and 1 s on `cli`, which re-reads its files on
# every call.
POOL_ROUNDS = {
    "engines": 14,
    "cli": 10,
    "interleaving": 34,
    "barcode-dendro": 34,
    "correspondence": 24,
}

# Rounds at the head of the pool that the traced run calls once each.
TRACE_ROUNDS = {
    "engines": 4,
    "interleaving": 20,
    "barcode-dendro": 20,
    "correspondence": 12,
    "cli": 10,
}


@dataclass(frozen=True)
class Case:
    kind: str
    spec: object
    build: Callable[[object], tuple]
    call: Callable[..., object]
    sizes: dict = field(default_factory=dict)


# --- timed calls -------------------------------------------------------------


def call_interleaving(f, g):
    return formigram.interleaving_distance(f, g)


def call_grid(f, g):
    return compare.grid_interleaving_distance(f, g)


def call_erosion(b1, b2):
    return persistence.erosion_distance(b1, b2)


def call_bottleneck(b1, b2):
    return persistence.bottleneck_distance(b1, b2)


def call_dendrogram(ground, d):
    return formigram.ultrametric(formigram.single_linkage(ground, d)).entries


def call_gh_formigrams(fx, fy):
    return compare.gromov_hausdorff_formigrams(fx, fy)


def call_gh_ultrametrics(ux, uy):
    return compare.gromov_hausdorff_ultrametrics(ux, uy)


def call_tripod_r(f, g):
    checks = (filtration.validate_filtration(f), filtration.validate_filtration(g))
    return checks, filtration.tripod_distance_r(f, g)


def call_tripod_int(f, g):
    checks = (filtration.validate_filtration(f), filtration.validate_filtration(g))
    return checks, filtration.tripod_distance_int(f, g)


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# --- builders ------------------------------------------------------------------


def build_pair(one):
    return lambda spec: (one(spec[0]), one(spec[1]))


def build_metric_case(spec):
    ground, d = spec
    return GroundSet(ground), gen.build_metric(d)


def build_ultrametric(spec):
    ground, d = spec
    return formigram.ultrametric(
        formigram.single_linkage(GroundSet(ground), gen.build_metric(d))
    )


def build_argv(spec):
    return (spec[0],)


# --- pools -----------------------------------------------------------------------


def interleaving_cases(rng, rounds):
    """Long pairs (few elements, many critical points), wide pairs (many
    elements, few critical points) and boxed grid pairs.  Even rounds share
    one-block outer values, which keeps the distance finite."""
    cases = []
    for i in range(rounds):
        shared = i % 2 == 0
        for kind, n, m in (("long", 4, 7), ("wide", 10, 3)):
            g = gen.names("x", n)
            spec = (gen.formigram_spec(rng, g, m, shared), gen.formigram_spec(rng, g, m, shared))
            cases.append(Case(f"d_F.{kind}", spec, build_pair(gen.build_formigram),
                              call_interleaving, {"ground": n, "crit": m}))
        g = gen.names("x", 6)
        spec = (gen.grid_spec(rng, g, 5), gen.grid_spec(rng, g, 5))
        cases.append(Case("grid", spec, build_pair(gen.build_grid), call_grid,
                          {"ground": 6, "cuts": 5}))
    return cases


def barcode_dendro_cases(rng, rounds):
    """Erosion pairs, bottleneck pairs (random and shifted chains, equal
    infinite-bar counts on even rounds) and single linkage + ultrametric."""
    cases = []
    for i in range(rounds):
        ninf = (1, 1) if i % 2 == 0 else (1, 2)
        spec = tuple(gen.random_bars_spec(rng, 7, k) for k in ninf)
        cases.append(Case("erosion", spec, build_pair(gen.build_barcode), call_erosion,
                          {"bars": 7}))
        ninf = (2, 2) if i % 4 < 2 else (2, 3)
        if i % 2 == 0:
            spec = tuple(gen.random_bars_spec(rng, 26, k) for k in ninf)
            kind = "bottleneck.random"
        else:
            spec = (gen.chain_bars_spec(rng, 26, ninf[0], Fraction(0)),
                    gen.chain_bars_spec(rng, 26, ninf[1], Fraction(1)))
            kind = "bottleneck.chain"
        cases.append(Case(kind, spec, build_pair(gen.build_barcode), call_bottleneck,
                          {"bars": 26}))
        n = 18
        spec = (gen.names("p", n), gen.metric_spec(rng, n))
        cases.append(Case("single_linkage+ultrametric", spec, build_metric_case,
                          call_dendrogram, {"points": n}))
    return cases


def correspondence_cases(rng, rounds):
    """Gromov-Hausdorff between formigrams (one pair with shared one-block
    outer values, one without) and between single-linkage ultrametrics, and
    both tripod distances, all between a 2-element and a 5-element ground
    set: |X|*|Y| = 10, below the default guard of 12.

    A round holds two ultrametric pairs and two R-indexed tripod pairs: the
    cheapest calls, which cluster tightly, make up four of its seven, so the
    median call falls among the tripod_r calls rather than in the gap
    between them and the widely spread formigram searches."""
    cases = []
    nx, ny = 2, 5
    gx, gy = gen.names("x", nx), gen.names("y", ny)
    shape = {"X": nx, "Y": ny, "XY": nx * ny}
    for _ in range(rounds):
        for shared in (True, False):
            spec = (gen.formigram_spec(rng, gx, 4, shared), gen.formigram_spec(rng, gy, 4, shared))
            cases.append(Case("gh_formigrams", spec, build_pair(gen.build_formigram),
                              call_gh_formigrams, {**shape, "crit": 4}))
        for _ in range(2):
            spec = ((gx, gen.metric_spec(rng, nx)), (gy, gen.metric_spec(rng, ny)))
            cases.append(Case("gh_ultrametrics", spec, build_pair(build_ultrametric),
                              call_gh_ultrametrics, shape))
        for _ in range(2):
            spec = (gen.vr_filtration_spec(rng, gx), gen.vr_filtration_spec(rng, gy))
            cases.append(Case("tripod_r", spec, build_pair(gen.build_r_filtration),
                              call_tripod_r, shape))
        base = gen.pinned_gens(rng, 0)
        spec = (gen.int_filtration_spec(rng, gx, base), gen.int_filtration_spec(rng, gy, base))
        cases.append(Case("tripod_int", spec, build_pair(gen.build_int_filtration),
                          call_tripod_int, shape))
    return cases


# --- CLI round trips -----------------------------------------------------------
#
# Input files are written by this module's own encoder, not by io_json, so
# the CLI's parsing is exercised against an independent emitter.


def rat(x):
    if x == inf:
        return "inf"
    if x == -inf:
        return "-inf"
    return str(x)


def enc_subpartition(ground, blocks):
    return {"ground": list(ground), "blocks": [list(b) for b in blocks]}


def enc_formigram(spec):
    ground, crit, values = spec
    return {"ground": list(ground), "crit": [rat(t) for t in crit],
            "values": [[list(b) for b in v] for v in values]}


def enc_staircase(gens):
    return {"ambient": INT, "generators": [[rat(l), rat(r)] for l, r in gens]}


def enc_barcode(bars):
    return {"bars": [[rat(b), rat(d)] for b, d in bars]}


def enc_metric(ground, d):
    return {"points": list(ground), "d": [[rat(x) for x in row] for row in d]}


def enc_r_filtration(spec):
    ground, births = spec
    return {"vertices": list(ground),
            "simplices": [{"verts": list(s), "birth": rat(b)} for s, b in births]}


def enc_int_filtration(spec):
    ground, supports = spec
    return {"vertices": list(ground),
            "simplices": [{"verts": list(s), "support": enc_staircase(g)} for s, g in supports]}


def enc_grid(spec):
    ground, xs, ys, cells = spec
    return {"ground": list(ground), "x_cuts": [rat(c) for c in xs],
            "y_cuts": [rat(c) for c in ys],
            "cells": [[[list(b) for b in v] for v in row] for row in cells]}


def dendrogram_spec(ground, d):
    """Single-linkage dendrogram of a metric spec as a formigram spec, by a
    Kruskal sweep that does not call the library."""
    comp = {x: {x} for x in ground}
    edges = sorted((d[i][j], i, j) for i in range(len(ground)) for j in range(i + 1, len(ground)))
    singletons = tuple((x,) for x in ground)
    crit, values = [Fraction(0)], [(), singletons, singletons]
    for k, (t, i, j) in enumerate(edges):
        a, b = comp[ground[i]], comp[ground[j]]
        if a is not b:
            a |= b
            for x in b:
                comp[x] = a
        if k + 1 < len(edges) and edges[k + 1][0] == t:
            continue
        blocks = []
        for x in ground:
            c = comp[x]
            if min(c, key=ground.index) == x:
                blocks.append(tuple(y for y in ground if y in c))
        blocks = tuple(blocks)
        if blocks != values[-1]:
            crit.append(t)
            values += [blocks, blocks]
    return (tuple(ground), tuple(crit), tuple(values))


def cli_cases(rng, rounds, workdir: Path):
    """One case per subcommand and round, on small inputs, so parsing,
    dispatch and emitting weigh as much as the engines behind them."""
    cases = []
    counter = iter(range(1 << 30))

    def put(doc):
        path = workdir / f"in{next(counter)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def add(argv, expect, sizes):
        kind = "cli." + " ".join(x for x in expect[:2] if isinstance(x, str))
        cases.append(Case(kind, (tuple(argv), expect), build_argv, call_cli, sizes))

    for _ in range(rounds):
        g5 = gen.names("e", 5)
        a = gen.random_blocks(rng, g5, 0.2, 3)
        b = gen.random_blocks(rng, g5, 0.2, 3)
        pa, pb = put(enc_subpartition(g5, a)), put(enc_subpartition(g5, b))
        lat = {"ground": 5}
        for op in ("join", "meet", "refines"):
            add(["lattice", op, pa, pb], ("lattice", op, (g5, a), (g5, b)), lat)
        c = gen.join_blocks(g5, a, b)
        pc = put(enc_subpartition(g5, c))
        add(["lattice", "parts", pc], ("lattice", "parts", (g5, c)), lat)
        add(["lattice", "min-reps", pc], ("lattice", "min-reps", (g5, c)), lat)

        g3 = gen.names("x", 3)
        f1, f2 = gen.formigram_spec(rng, g3, 3, True), gen.formigram_spec(rng, g3, 3, True)
        p1, p2 = put(enc_formigram(f1)), put(enc_formigram(f2))
        fsz = {"ground": 3, "crit": 3}
        add(["formigram", "validate", p1], ("formigram", "validate", f1), fsz)
        eps = Fraction(rng.randint(1, 8), 4)
        add(["formigram", "smooth", p1, "--epsilon", str(eps)], ("formigram", "smooth", f1, eps), fsz)
        add(["formigram", "code", p1], ("formigram", "code", f1), fsz)
        add(["formigram", "df", p1, p2], ("formigram", "df", f1, f2), fsz)
        gx, gy = gen.names("x", 2), gen.names("y", 2)
        h1, h2 = gen.formigram_spec(rng, gx, 2, True), gen.formigram_spec(rng, gy, 2, True)
        add(["formigram", "dgh", put(enc_formigram(h1)), put(enc_formigram(h2))],
            ("formigram", "dgh", h1, h2), {"XY": 4, "crit": 2})

        gp = gen.names("p", 6)
        d = gen.metric_spec(rng, 6)
        add(["dendro", "slhc", put(enc_metric(gp, d))], ("dendro", "slhc", gp, d), {"points": 6})
        den = dendrogram_spec(gp, d)
        add(["dendro", "ultrametric", put(enc_formigram(den))], ("dendro", "ultrametric", den),
            {"points": 6})
        dx = dendrogram_spec(gx, gen.metric_spec(rng, 2))
        dy = dendrogram_spec(gy, gen.metric_spec(rng, 2))
        add(["dendro", "gh", put(enc_formigram(dx)), put(enc_formigram(dy))],
            ("dendro", "gh", dx, dy), {"XY": 4})

        for op, nbars in (("erosion", 3), ("bottleneck", 6)):
            b1, b2 = gen.random_bars_spec(rng, nbars, 1), gen.random_bars_spec(rng, nbars, 1)
            add([op, put(enc_barcode(b1)), put(enc_barcode(b2))], (op, b1, b2), {"bars": nbars})
        vr = gen.vr_filtration_spec(rng, gen.names("v", 5))
        add(["h0", put(enc_r_filtration(vr))], ("h0", vr), {"vertices": 5})
        r1, r2 = gen.vr_filtration_spec(rng, gx), gen.vr_filtration_spec(rng, gy)
        add(["tripod", "--indexing", "r", put(enc_r_filtration(r1)), put(enc_r_filtration(r2))],
            ("tripod", "r", r1, r2), {"XY": 4})
        base = gen.pinned_gens(rng, 1)
        i1, i2 = gen.int_filtration_spec(rng, gx, base), gen.int_filtration_spec(rng, gy, base)
        add(["tripod", "--indexing", "int", put(enc_int_filtration(i1)),
             put(enc_int_filtration(i2))], ("tripod", "int", i1, i2), {"XY": 4})
        q1, q2 = gen.grid_spec(rng, g3, 2), gen.grid_spec(rng, g3, 2)
        add(["clustering", "di", put(enc_grid(q1)), put(enc_grid(q2))],
            ("clustering", q1, q2), {"ground": 3, "cuts": 2})
        s1, s2 = tuple(gen.pinned_gens(rng, 2)), tuple(gen.pinned_gens(rng, 2))
        ps1 = put(enc_staircase(s1))
        add(["staircase", "hausdorff", ps1, put(enc_staircase(s2))],
            ("staircase", "hausdorff", s1, s2), {"gens": 4})
        add(["staircase", "profile", ps1], ("staircase", "profile", s1), {"gens": 4})
    return cases


# --- entry ---------------------------------------------------------------------


def engine_cases(seed: int, rounds: int) -> list[Case]:
    """Round r of `engines` is the r-th group of ENGINE_PARTS[name] rounds
    of each part's own pool, so the pool is the heads of those pools,
    interleaved round by round."""
    parts = [make_cases(name, seed, rounds=rounds * per) for name, per in ENGINE_PARTS.items()]
    cases = []
    for r in range(rounds):
        for part in parts:
            size = len(part) // rounds
            cases += part[r * size:(r + 1) * size]
    return cases


def make_cases(name: str, seed: int, workdir: Path | None = None,
               rounds: int | None = None) -> list[Case]:
    """The seeded pool of `name`: the same seed gives the same specs."""
    rng = random.Random(f"perfbench:{name}:{seed}")
    rounds = POOL_ROUNDS[name] if rounds is None else rounds
    if name == "engines":
        return engine_cases(seed, rounds)
    if name == "interleaving":
        return interleaving_cases(rng, rounds)
    if name == "barcode-dendro":
        return barcode_dendro_cases(rng, rounds)
    if name == "correspondence":
        return correspondence_cases(rng, rounds)
    if name == "cli":
        if workdir is None:
            raise ValueError("the cli workload needs a directory for its input files")
        return cli_cases(rng, rounds, workdir)
    raise ValueError(f"unknown workload {name!r}")


def size_summary(cases: list[Case]) -> dict:
    """Per kind: the number of cases and the range of every size field."""
    out: dict[str, dict] = {}
    for c in cases:
        entry = out.setdefault(c.kind, {"cases": 0})
        entry["cases"] += 1
        for k, v in c.sizes.items():
            lo, hi = entry.get(k, (v, v))
            entry[k] = (min(lo, v), max(hi, v))
    return {kind: {k: (v if k == "cases" or v[0] != v[1] else v[0]) for k, v in e.items()}
            for kind, e in out.items()}
