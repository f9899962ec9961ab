"""Tests of the benchmark itself: seeding, checking and tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from perfbench import inputs as gen
from perfbench import referees
from perfbench.run import closed_loop
from perfbench.tracing import Tracer
from perfbench.workloads import ENGINE_PARTS, POOL_ROUNDS, WORKLOADS, make_cases

ROOT = Path(__file__).resolve().parents[1]
F = Fraction


@pytest.fixture(scope="module")
def twins():
    return referees.import_twins(ROOT / "tests")


def specs(name, seed, tmp_path):
    return [(c.kind, c.spec) for c in make_cases(name, seed, tmp_path)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first, second = specs(name, 7, a), specs(name, 7, b)
    if name == "cli":  # argv names the files; compare what they hold instead
        assert [s[1][1] for _, s in first] == [s[1][1] for _, s in second]
        assert sorted(p.read_text() for p in a.iterdir()) == sorted(
            p.read_text() for p in b.iterdir())
    else:
        assert first == second


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seed_different_inputs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first, second = specs(name, 7, a), specs(name, 8, b)
    if name == "cli":
        first, second = [s[1] for _, s in first], [s[1] for _, s in second]
    assert first != second


def test_engines_interleaves_the_heads_of_its_parts():
    parts = []
    for name, per in ENGINE_PARTS.items():
        pool = [(c.kind, c.spec) for c in make_cases(name, 4)]
        parts.append((pool, per * len(pool) // POOL_ROUNDS[name]))
    expected = []
    for r in range(POOL_ROUNDS["engines"]):
        for pool, size in parts:
            expected += pool[r * size:(r + 1) * size]
    assert [(c.kind, c.spec) for c in make_cases("engines", 4)] == expected


@pytest.mark.parametrize("name", ("interleaving", "barcode-dendro", "correspondence"))
def test_same_seed_same_answers(name):
    runs = []
    for _ in range(2):
        cases = make_cases(name, 3)
        head = cases[: len(cases) // POOL_ROUNDS[name]]
        _, outcomes = closed_loop(head, range(len(head)))
        runs.append(outcomes)
    assert runs[0] == runs[1]
    assert all(error is None for _, _, error in runs[0])


def test_wrong_answer_is_counted_as_failed(tmp_path):
    for name in WORKLOADS:
        cases = make_cases(name, 5, tmp_path)
        head = cases[: len(cases) // POOL_ROUNDS[name]]
        _, outcomes = closed_loop(head, range(len(head)))
        referee = referees.Referee(head, ROOT / "tests")
        assert referee.count_failures(outcomes) == 0, name
        index, answer, _ = outcomes[0]
        wrong = (1, answer[1]) if name == "cli" else F(-1)
        bad = [(index, wrong, None), (index, answer, "RecursionError: too deep")]
        assert referee.count_failures(outcomes + bad) == 2, name


def small_formigram_pair(rng, nx, ny, m):
    gx, gy = gen.names("x", nx), gen.names("y", ny)
    shared = rng.random() < 0.5
    return (gen.build_formigram(gen.formigram_spec(rng, gx, m, shared)),
            gen.build_formigram(gen.formigram_spec(rng, gy, m, shared)))


def test_minimal_correspondences():
    # minimal edge covers of K_{2,2}: the two perfect matchings, and the
    # four paths of three edges are not minimal
    rels = list(referees.minimal_correspondences(("a", "b"), ("u", "v")))
    assert sorted(rels) == [(("a", "u"), ("b", "v")), (("a", "v"), ("b", "u"))]
    assert len(list(referees.minimal_correspondences(gen.names("x", 3), gen.names("y", 4)))) == 48


def test_gh_certificate_agrees_with_test_twin(twins):
    test_compare = twins[0]
    rng = random.Random(11)
    for nx, ny in ((1, 2), (2, 2), (2, 3)):
        for _ in range(3):
            fx, fy = small_formigram_pair(rng, nx, ny, 2)
            d = test_compare.oracle_gh_via_pullbacks(fx, fy)
            assert referees.gh_formigrams_certificate(fx, fy, d)
            assert not referees.gh_formigrams_certificate(fx, fy, d + F(1, 8) if d != inf else F(1))


def test_tripod_references_agree_with_test_twins(twins):
    test_filtration = twins[1]
    rng = random.Random(12)
    for nx, ny in ((1, 3), (2, 2), (2, 3)):
        gx, gy = gen.names("x", nx), gen.names("y", ny)
        f = gen.build_r_filtration(gen.vr_filtration_spec(rng, gx))
        g = gen.build_r_filtration(gen.vr_filtration_spec(rng, gy))
        assert referees.tripod_r_reference(f, g) == test_filtration.oracle_tripod_r(f, g)
        base = gen.pinned_gens(rng, 2)
        f = gen.build_int_filtration(gen.int_filtration_spec(rng, gx, base))
        g = gen.build_int_filtration(gen.int_filtration_spec(rng, gy, gen.pinned_gens(rng, 1)))
        assert referees.tripod_int_reference(f, g) == test_filtration.oracle_tripod_int(f, g)


def test_barcode_certificates_agree_with_test_twins(twins):
    test_persistence = twins[2]
    rng = random.Random(13)
    for _ in range(6):
        ninf = rng.choice((0, 1))
        b1 = gen.build_barcode(gen.random_bars_spec(rng, 3, ninf))
        b2 = gen.build_barcode(gen.random_bars_spec(rng, 4, rng.choice((ninf, 2))))
        d = test_persistence.oracle_erosion_direct(b1, b2)
        assert referees.erosion_certificate(test_persistence, b1, b2, d)
        d = test_persistence.oracle_bottleneck(b1, b2)
        assert referees.bottleneck_certificate(b1, b2, d)
        if d != inf:
            assert not referees.bottleneck_certificate(b1, b2, d + F(1, 8))


def test_interleaving_certificate_agrees_with_oracle():
    from stairdist.oracle import oracle_formigram_distance

    rng = random.Random(14)
    for _ in range(6):
        g = gen.names("x", 3)
        shared = rng.random() < 0.5
        f1 = gen.build_formigram(gen.formigram_spec(rng, g, 3, shared))
        f2 = gen.build_formigram(gen.formigram_spec(rng, g, 3, shared))
        d = oracle_formigram_distance(f1, f2)
        assert referees.interleaving_certificate(f1, f2, d)
        assert not referees.interleaving_certificate(f1, f2, d + F(1, 8) if d != inf else F(1))


def test_tracer_counts_and_restores():
    import importlib

    from stairdist import compare, formigram

    staircase_module = importlib.import_module("stairdist.staircase")

    originals = (staircase_module.hausdorff, formigram.hausdorff, compare.hausdorff,
                 staircase_module.Staircase.__post_init__)
    cases = make_cases("interleaving", 2)[:3]
    _, plain = closed_loop(cases, range(3))
    tracer = Tracer()
    tracer.install()
    try:
        assert formigram.hausdorff is not originals[1]
        _, traced = closed_loop(cases, range(3), tracer=tracer)
    finally:
        tracer.uninstall()
    assert (staircase_module.hausdorff, formigram.hausdorff, compare.hausdorff,
            staircase_module.Staircase.__post_init__) == originals
    assert traced == plain
    # one Hausdorff distance per pair key (singletons included) of each ground
    pairs = sum(n * (n + 1) // 2 for n in (c.sizes["ground"] for c in cases))
    assert tracer.counts["staircase.hausdorff.calls"] == pairs
    assert tracer.counts["formigram.cosheaf_code.calls"] == 4
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["call.d_F.long", "call.d_F.wide", "call.grid"]
    assert all(s[4] is not None for s in tracer.spans)
    assert sum(tracer.self_s.values()) == pytest.approx(sum(s[2] - s[1] for s in roots))
