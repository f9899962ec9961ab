"""In-memory span tracer for the traced run.

The tracer wraps public functions at the boundaries between the library's
modules.  A function is rebound under every name that refers to it in every
``stairdist`` module (``hausdorff`` in ``formigram``, ``compare``,
``persistence``, ``filtration`` and ``cli`` as well as in ``staircase``), and
methods are rebound on their class.  Spans (name, start, end, parent span,
call id) and counts are recorded only inside a timed call, kept in memory
and written out once when the run ends.  ``uninstall`` restores every
original binding, so the reference checks run untraced.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "call")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.call_id: int | None = None
        self.calls = 0
        self._stack: list[list] = []  # [span index, time covered by children]
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _enter(self):
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _leave(self, frame, name, t0, t1):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = t1 - t0
        self.self_s[name] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        self.spans[frame[0]] = (name, t0, t1, parent[0] if parent else None, self.call_id)

    def call(self, name: str, fn, *args):
        """Run one timed call as the root span of a new call id."""
        self.call_id = self.calls
        self.calls += 1
        frame = self._enter()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._leave(frame, name, t0, perf_counter())
            self.call_id = None

    def span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` so each call inside a timed call records a span, counts
        `<name>.calls`, and runs the optional count hooks on its arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.call_id is None:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if before is not None:
                before(tracer.counts, args)
            frame = tracer._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name, t0, perf_counter())
            if after is not None:
                after(tracer.counts, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap `fn` to count calls only (for calls too small and too many to
        time one by one)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.call_id is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counting_iterator(self, name: str, fn):
        """Wrap a function returning an iterator so every item drawn from it
        inside a timed call is counted."""
        tracer = self

        def drain(it):
            for item in it:
                tracer.counts[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return it if tracer.call_id is None else drain(it)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing ----------------------------------------------------------

    def rebind_function(self, orig, wrapper):
        """Point every stairdist module-level name bound to `orig` at `wrapper`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "stairdist" or modname.startswith("stairdist.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def rebind_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        from stairdist import cli, compare, filtration, formigram, io_json, lattice, persistence
        from stairdist.lattice import SubPartition

        # the package exports a function named `staircase`, so fetch the module
        staircase = importlib.import_module("stairdist.staircase")

        def gens(counts, args):
            counts["staircase.hausdorff.gens"] += len(args[0].gens) + len(args[1].gens)

        def offered(counts, args):
            counts["staircase.normalize.offered"] += len(args[0].gens)

        def kept(counts, args):
            counts["staircase.normalize.kept"] += len(args[0].gens)

        def cells(counts, args):
            p = args[1].num_pieces
            counts["formigram.table.cells"] += p * (p + 1) // 2

        self.rebind_method(SubPartition, "join", self.span("lattice.join", SubPartition.join))
        self.rebind_method(SubPartition, "meet", self.span("lattice.meet", SubPartition.meet))
        self.rebind_method(
            SubPartition, "refines", self.span("lattice.refines", SubPartition.refines)
        )
        self.rebind_method(
            staircase.Staircase, "__post_init__",
            self.span("staircase.normalize", staircase.Staircase.__post_init__, offered, kept),
        )
        self.rebind_method(
            formigram.CosheafTable, "__init__",
            self.span("formigram.table", formigram.CosheafTable.__init__, after=cells),
        )
        spans = [
            (lattice.irreducible_parts, "lattice.parts", None),
            (lattice.minimal_join_representations, "lattice.min_reps", None),
            (staircase.hausdorff, "staircase.hausdorff", gens),
            (staircase.subset, "staircase.subset", None),
            (staircase.profile, "staircase.profile", None),
            (formigram.validate, "formigram.validate", None),
            (formigram.smooth, "formigram.smooth", None),
            (formigram.cosheaf_code, "formigram.cosheaf_code", None),
            (formigram.interleaving_distance, "formigram.interleaving_distance", None),
            (formigram.single_linkage, "formigram.single_linkage", None),
            (formigram.ultrametric, "formigram.ultrametric", None),
            (compare.gromov_hausdorff_formigrams, "compare.gromov_hausdorff", None),
            (compare.gromov_hausdorff_ultrametrics, "compare.gromov_hausdorff", None),
            (compare.grid_interleaving_distance, "compare.grid", None),
            (filtration.validate_filtration, "filtration.validate", None),
            (filtration.tripod_distance_r, "filtration.tripod", None),
            (filtration.tripod_distance_int, "filtration.tripod", None),
            (persistence.sublevel_staircase, "persistence.sublevel_staircase", None),
            (persistence.erosion_distance, "persistence.erosion", None),
            (persistence.bottleneck_distance, "persistence.bottleneck", None),
            (persistence.h0_barcode, "persistence.h0", None),
            (cli.main, "cli.main", None),
        ]
        for name, fn in list(vars(io_json).items()):
            if callable(fn) and getattr(fn, "__module__", None) == io_json.__name__:
                if name.endswith("_from_json"):
                    spans.append((fn, "io_json.parse", None))
                elif name.endswith("_to_json"):
                    spans.append((fn, "io_json.emit", None))
        for fn, name, before in spans:
            self.rebind_function(fn, self.span(name, fn, before))
        self.rebind_function(persistence.rank, self.counter("persistence.rank.calls", persistence.rank))
        self.rebind_function(
            compare.enumerate_correspondences,
            self.counting_iterator("compare.correspondences.yielded",
                                   compare.enumerate_correspondences),
        )

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- output --------------------------------------------------------------

    def write(self, path: Path, meta: dict):
        """Write every span, once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": SPAN_FIELDS, "spans": self.spans}, fh)
