"""Span tracing of the bvc layers, applied from outside the package.

`Tracer` wraps the public functions listed in `LAYERS`. The bvc modules
import each other's functions by name (`from .runtime import run`), so a
function is rebound in every loaded `bvc` module whose attribute is that
function; function-local imports (`from .primitives import witness_check`
inside a function body) read the defining module's attribute at call time
and so see the wrapper too. Leaving the `with` block restores every
binding it replaced.

A span holds its name, start and end (`perf_counter_ns`), the index of its
parent span and the record it belongs to. Spans stay in memory until
`write_spans` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

LAYERS = {
    "runtime": ("run",),
    "primitives": (
        "elect_leader_and_bfs",
        "pipelined_aggregate",
        "alternating_bfs",
        "witness_check",
    ),
    "matching": (
        "maximal_matching",
        "select_disjoint_paths",
        "eliminate_short_aug_paths",
        "approx_matching",
    ),
    "konig": ("compute_partition", "koenig_approx_cover", "koenig_exact_cover"),
    "repair": (
        "view_max_degree_aggregate",
        "count_paths",
        "cover_short_paths",
        "repair_matching",
        "det_cover_low_diameter",
    ),
    "clustering": (
        "mpx_partition",
        "shrink_partition",
        "build_cluster_trees",
        "combine_with_clusters",
        "randomized_pipeline",
    ),
    "oracle": ("diameter", "min_vc_oracle"),
    "cli": ("run_one",),
    "graph": ("generate", "read_graph"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    parent: int | None
    record: str | None
    end_ns: int = 0
    rounds: int = 0
    bits: int = 0
    frag_rounds: int = 0
    # Per-function outcome counts: "nodes" for runtime.run (graph.n),
    # "empty" for select_disjoint_paths, "useful" for eliminate_short_aug_paths.
    counts: dict = field(default_factory=dict)


def _round_stats(result):
    """The RoundStats a traced function returned, alone or in a tuple."""
    from bvc.runtime import RoundStats

    if isinstance(result, RoundStats):
        return result
    if isinstance(result, tuple):
        for item in result:
            if isinstance(item, RoundStats):
                return item
    return None


def _outcome_counts(name, args, kwargs, result) -> dict:
    if name == "runtime.run":
        graph = args[1] if len(args) > 1 else kwargs["graph"]
        return {"nodes": graph.n}
    if name == "matching.select_disjoint_paths":
        return {"empty": int(not result[1])}
    if name == "matching.eliminate_short_aug_paths":
        m0 = args[2] if len(args) > 2 else kwargs["m0"]
        return {"useful": int(result[0].size > m0.size)}
    return {}


class Tracer:
    """Context manager that records a span per call of each traced function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.record: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        targets = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"bvc.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                targets[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        try:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "bvc" or mod_name.startswith("bvc.")):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.record
            if name == "cli.run_one":
                seed = args[2] if len(args) > 2 else kwargs["seed"]
                record = self.record = f"{record}/s{seed}"
            span = Span(name, time.perf_counter_ns(), stack[-1] if stack else None, record)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if name == "cli.run_one":
                    self.record = record.rsplit("/", 1)[0]
            stats = _round_stats(result)
            if stats is not None:
                span.rounds = stats.rounds
                span.bits = stats.total_bits
                span.frag_rounds = stats.fragmentation_rounds
            span.counts = _outcome_counts(name, args, kwargs, result)
            return result

        traced.__bvcbench_traced__ = True
        return traced

    def summary(self) -> dict[str, dict]:
        """Per function: calls, inclusive and self seconds, summed RoundStats
        fields and outcome counts. Self time is a span's duration minus the
        durations of its child spans (children never overlap: one thread)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "rounds": 0, "bits": 0, "frag_rounds": 0}
            for name in TRACED
        }
        for i, span in enumerate(self.spans):
            agg = out[span.name]
            dur = span.end_ns - span.start_ns
            agg["calls"] += 1
            agg["s"] += dur / 1e9
            agg["self_s"] += (dur - child_ns[i]) / 1e9
            agg["rounds"] += span.rounds
            agg["bits"] += span.bits
            agg["frag_rounds"] += span.frag_rounds
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out


def write_spans(path, header: dict, tracers: dict[str, Tracer]) -> None:
    """Dump `header` plus each tracer's spans, under its key, as one JSON
    document. A span's parent is an index into the same list."""
    doc = dict(header)
    for key, tracer in tracers.items():
        doc[key] = [
            {
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "record": s.record,
                "rounds": s.rounds,
                "bits": s.bits,
            }
            for s in tracer.spans
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
