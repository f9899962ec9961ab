"""Seeded closed-loop benchmark of stairdist's exact distances.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload engines --seed 1 --seconds 55 --trace 0

One process, one caller: each call waits for the previous one.  The run
builds the workload's seeded pool of inputs and times the public calls in
passes of a closed loop over the whole pool, one pass after another, for
``--seconds``; each case's time is the fastest of its calls.  Fresh input
objects are built before every call, outside its timer.  Every answer is
then checked against its reference.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` then calls each case at the head of the pool twice
more, untraced and traced, and reports the per-layer metrics and the
tracing overhead instead.  The last line of standard output is one JSON
object; a fuller record (seed, git revision, sizes, layer shares) goes to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5

LAYER_METRICS = {
    "lattice.join.calls": "count",
    "lattice.join.self_s": "s",
    "staircase.hausdorff.calls": "count",
    "staircase.hausdorff.self_s": "s",
    "staircase.hausdorff.gens": "count",
    "staircase.normalize.calls": "count",
    "staircase.normalize.self_s": "s",
    "staircase.normalize.kept_ratio": "ratio",
    "staircase.subset.calls": "count",
    "staircase.subset.self_s": "s",
    "formigram.cosheaf_code.calls": "count",
    "formigram.cosheaf_code.self_s": "s",
    "formigram.table.self_s": "s",
    "formigram.table.cells": "count",
    "formigram.single_linkage.self_s": "s",
    "compare.correspondences.yielded": "count",
    "compare.gromov_hausdorff.self_s": "s",
    "compare.grid.self_s": "s",
    "filtration.tripod.self_s": "s",
    "persistence.sublevel_staircase.self_s": "s",
    "persistence.rank.calls": "count",
    "persistence.bottleneck.self_s": "s",
    "io_json.parse.self_s": "s",
    "io_json.emit.self_s": "s",
    "cli.main.self_s": "s",
    "trace.calls": "count",
    "trace.calls_s": "s",
    "trace.untraced_calls_per_s": "1/s",
    "trace.traced_calls_per_s": "1/s",
    "trace.overhead": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_library():
    """Import stairdist from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stairdist" / "__init__.py").is_file():
        raise RuntimeError(f"no stairdist sources under {src}")
    if not (ROOT / "tests" / "test_persistence.py").is_file():
        raise RuntimeError(f"no test suite under {ROOT / 'tests'} (reference twins)")
    sys.path[:0] = [str(src), str(ROOT)]
    import stairdist

    if Path(stairdist.__file__).resolve().parent != (src / "stairdist").resolve():
        raise RuntimeError(f"imported stairdist from {stairdist.__file__}, not {src}")


def git_revision() -> str:
    """HEAD's commit read straight from .git (no subprocess); a checkout
    without .git reports 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload: str, seed: int, workdir: Path):
    """Generate the seeded pool and build the first call's input objects
    (every call builds its own, just before it starts)."""
    from perfbench.workloads import make_cases

    workdir.mkdir(parents=True, exist_ok=True)
    cases = make_cases(workload, seed, workdir)
    cases[0].build(cases[0].spec)
    return cases


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter to the point where it
    could make its first timed call, over several fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(t1 - t0)
    return times


def closed_loop(cases, order, seconds: float | None = None, tracer=None, kept=None):
    """Call cases[i] for each pool index i in `order`, one at a time, until
    `order` runs out or `seconds` have passed.

    Fresh input objects are built before each call, outside its timer.
    Returns per-call times and (case index, answer, error) outcomes; a call
    that raises anything is recorded as an error and the loop goes on.  An
    answer equal to one already kept for its case is replaced by that one,
    so that the memory the run holds does not grow with repeated calls."""
    kept = {} if kept is None else kept
    times, outcomes = [], []
    start = perf_counter()
    for index in order:
        case = cases[index]
        t0 = t1 = perf_counter()
        try:
            args = case.build(case.spec)
            t0 = perf_counter()
            if tracer is None:
                answer = case.call(*args)
            else:
                answer = tracer.call("call." + case.kind, case.call, *args)
            t1 = perf_counter()
            error = None
        except (Exception, SystemExit) as e:
            t1 = perf_counter()
            answer, error = None, f"{type(e).__name__}: {e}"
        times.append(t1 - t0)
        if error is None:
            if index in kept and kept[index] == answer:
                answer = kept[index]
            else:
                kept.setdefault(index, answer)
        outcomes.append((index, answer, error))
        if seconds is not None and t1 - start >= seconds:
            break
    return times, outcomes


def timed_passes(cases, seconds: float):
    """Passes of the closed loop over the whole pool, in pool order and each
    time on fresh objects, until `seconds` have passed.  A case's time is
    the fastest of all its calls: the passes lie seconds apart, so some of
    them miss the bursts in which other tenants of the machine slow every
    call down.

    Returns one time per case reached, the outcome of every call and the
    number of passes begun."""
    kept = {}
    times, outcomes = [], []
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        more, again = closed_loop(cases, range(len(cases)),
                                  max(deadline - perf_counter(), 0.0), kept=kept)
        times += more
        outcomes += again
        passes += 1
    best: dict[int, float] = {}
    for (index, _, _), t in zip(outcomes, times):
        best[index] = min(t, best.get(index, t))
    return list(best.values()), outcomes, passes


def traced_pairs(cases, n: int, tracer):
    """Call each of the first n cases untraced and then traced, back to
    back, so that drifts in the machine's speed cancel out of the tracing
    overhead."""
    base, traced, outcomes = [], [], []
    for index in range(n):
        t, plain = closed_loop(cases, [index])
        tracer.install()
        try:
            tt, seen = closed_loop(cases, [index], tracer=tracer)
        finally:
            tracer.uninstall()
        base += t
        traced += tt
        outcomes += plain + seen
    return base, traced, outcomes


def tail(times: list[float]):
    """The highest nearest-rank percentile with at least ten calls beyond
    it (p50 when there are fewer than ten in all): the percentile, its
    value and the number of calls beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == 50:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def layer_metrics(tracer, traced_times: list[float], untraced_times: list[float]):
    """Per-layer totals over the traced calls, plus the tracing overhead
    against the untraced calls of the same cases."""
    c, s = tracer.counts, tracer.self_s
    values = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = s.get(name[: -len(".self_s")], 0.0)
        elif LAYER_METRICS[name] == "count":
            values[name] = c.get(name, 0)
    offered = c.get("staircase.normalize.offered", 0)
    values["staircase.normalize.kept_ratio"] = (
        c.get("staircase.normalize.kept", 0) / offered if offered else 0.0
    )
    untraced_rate = len(untraced_times) / sum(untraced_times)
    traced_rate = len(traced_times) / sum(traced_times)
    values["trace.calls"] = len(traced_times)
    values["trace.calls_s"] = sum(traced_times)
    values["trace.untraced_calls_per_s"] = untraced_rate
    values["trace.traced_calls_per_s"] = traced_rate
    values["trace.overhead"] = untraced_rate / traced_rate - 1
    return {name: values[name] for name in LAYER_METRICS}


def shares(tracer) -> dict[str, float]:
    """Each span name's self time as a share of all traced call time."""
    total = sum(tracer.self_s.values())
    return {k: v / total for k, v in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])}


def run(args) -> int:
    from perfbench.referees import Referee
    from perfbench.workloads import POOL_ROUNDS, TRACE_ROUNDS, size_summary

    setup_times = measure_setup(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cases = setup(args.workload, args.seed, workdir)
        times, outcomes, passes = timed_passes(cases, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_rate = len(times) / sum(times)
        tracer = None
        if args.trace:
            from perfbench.tracing import Tracer

            per_round = len(cases) // POOL_ROUNDS[args.workload]
            tracer = Tracer()
            base_times, traced_times, traced = traced_pairs(
                cases, TRACE_ROUNDS[args.workload] * per_round, tracer)
            outcomes = outcomes + traced
        failed = Referee(cases, ROOT / "tests").count_failures(outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    p, tail_s, beyond = tail(times)
    end_to_end = {
        "calls_per_s": (untraced_rate, "1/s"),
        "call_p50_s": (statistics.median(times), "s"),
        "call_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "sizes": size_summary(cases),
        "pool_cases": len(cases),
        "cases_timed": len(times),
        "passes": passes,
        "tail_percentile": p,
        "cases_beyond_tail": beyond,
        "setup_probes_s": setup_times,
        "failed_ratio": failed / attempted,
        "errors": sorted({e for _, _, e in outcomes if e is not None})[:10],
    }

    print(f"workload {args.workload}  seed {args.seed}  revision {record['revision']}")
    print(f"sizes {json.dumps(record['sizes'])}")
    print(f"cases {len(times)} of a pool of {len(cases)} timed untraced, each the fastest"
          f" of its calls in {passes} passes")
    print(f"calls_per_s   {untraced_rate:.4f} 1/s")
    print(f"call_p50_s    {end_to_end['call_p50_s'][0]:.6f} s")
    print(f"call_tail_s   {tail_s:.6f} s  (p{p:g}, {beyond} of {len(times)} cases beyond)")
    print(f"failed_ratio  {failed / attempted:.4f} ratio  ({failed} of {attempted} calls)")
    print(f"setup_s       {end_to_end['setup_s'][0]:.4f} s  (median of {len(setup_times)})")
    print(f"peak_rss_mb   {peak_rss_mb:.2f} MB")
    for err in record["errors"]:
        print(f"error: {err}")

    if args.trace:
        metrics = layer_metrics(tracer, traced_times, base_times)
        record["layer_metrics"] = metrics
        record["layer_shares"] = shares(tracer)
        meta = {"workload": args.workload, "seed": args.seed, "revision": record["revision"]}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", meta)
        print(f"traced the first {len(traced_times)} cases of the pool once; totals:")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g} {LAYER_METRICS[name]}")
        print("self-time shares of traced call time:")
        for name, share in record["layer_shares"].items():
            print(f"  {name:40s} {share:7.2%}")
        reported = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    record["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_library()
    except RuntimeError as e:
        return fail(str(e))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
