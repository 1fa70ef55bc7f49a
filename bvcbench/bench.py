#!/usr/bin/env python3
"""Benchmark of `bvc run`: end-to-end metrics, or per-layer metrics when traced.

    python3 bvcbench/bench.py --workload rand-sparse-400 --seed 1 --seconds 30 --trace 0

Each workload runs in this one process, on one thread, through
`bvc.cli.run_experiment(config)`, which is what `bvc run` executes apart
from argument parsing and JSON output. The package is imported from the
`src/` directory next to this one; nothing is installed.

Set-up imports bvc, generates the workload's graphs from `--seed` with
`bvc.graph.generate`, writes them as graph files and runs one warm-up
experiment; it is repeated and its median reported as `setup_s`. Then
experiments run round-robin over the graphs until `--seconds` have passed.

With `--trace 0` the run prints the end-to-end metrics. With `--trace 1`
untraced and traced passes over the same instances alternate (see
tracer.py), and the run prints the per-layer metrics. Every line but the
last is a human-readable report; the last is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

A record fails when it is not `valid`, when its experiment raised, or when
its cover_size, rounds, total_bits or max_message_bits differ from an
earlier record of the same (graph, seed) in this process, traced or not.
Any failure makes the exit status 1.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bvcbench"

SETUP_REPEATS = 5
# Reference speed: a host on which reference_loop() takes this long.
REF_S = 0.035
TAIL_BEYOND = 10
SIGNATURE = ("cover_size", "rounds", "total_bits", "max_message_bits")


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    na: int
    nb: int
    p: float
    graphs: int
    seeds: int
    eps: float | None = None
    bandwidth: int | None = None

    def describe(self) -> str:
        bw = "default" if self.bandwidth is None else self.bandwidth
        return (
            f"pipeline={self.pipeline} graph=random(na={self.na},nb={self.nb},p={self.p}) "
            f"graphs={self.graphs} seeds_per_graph={self.seeds} eps={self.eps} bandwidth={bw}"
        )


# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rand-sparse-400", "rand-pipeline", 200, 200, 0.012, graphs=12, seeds=2, eps=0.5),
        # Seeds on one graph cost nearly the same, graphs differ: one seed each.
        Workload("exact-sparse-600", "exact", 300, 300, 0.006, graphs=24, seeds=1),
        # det-low-diam is deterministic, so instances differ by graph only.
        Workload(
            "det-floor-300", "det-low-diam", 150, 150, 0.04, graphs=20, seeds=1, eps=0.5, bandwidth=13
        ),
    )
}


@dataclass(frozen=True)
class Instances:
    """The graph files and the first record seed one run works on."""

    paths: tuple[str, ...]
    base_seed: int


def environment(w: Workload, seed: int, trace: int) -> dict:
    graph_seeds, base_seed = draw_seeds(w, seed)
    return {
        "workload": w.name,
        "workload_seed": seed,
        "generator": w.describe(),
        "graph_seeds": list(graph_seeds),
        "record_seeds": list(range(base_seed, base_seed + w.seeds)),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "trace": trace,
    }


def check_sources() -> None:
    if not (SRC / "bvc" / "__init__.py").is_file():
        raise SystemExit(f"bvcbench: no bvc sources under {SRC}")


def import_bvc():
    """Import bvc from this checkout's src/, never from an installed copy."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("bvc.cli")
    if Path(cli.__file__).resolve().parent != SRC / "bvc":
        raise SystemExit(f"bvcbench: imported bvc from {cli.__file__}, not {SRC}")
    return cli


def draw_seeds(w: Workload, seed: int) -> tuple[tuple[int, ...], int]:
    rng = random.Random(f"{w.name}/{seed}")
    graph_seeds = tuple(rng.randrange(1 << 30) for _ in range(w.graphs))
    return graph_seeds, rng.randrange(1 << 20)


def make_instances(w: Workload, seed: int, workdir: Path) -> Instances:
    from bvc.graph import generate, write_graph

    graph_seeds, base_seed = draw_seeds(w, seed)
    paths = []
    for j, gs in enumerate(graph_seeds):
        graph = generate("random", seed=gs, na=w.na, nb=w.nb, p=w.p)
        path = workdir / f"g{j}.txt"
        write_graph(graph, str(path))
        paths.append(str(path))
    return Instances(tuple(paths), base_seed)


def config(w: Workload, path: str, seed: int, repeat: int) -> dict:
    return {
        "pipeline": w.pipeline,
        "graph": path,
        "seed": seed,
        "repeat": repeat,
        "eps": w.eps,
        "bandwidth": w.bandwidth,
    }


class Checker:
    """Counts attempted and failed records and remembers each (graph, seed)'s
    simulated counts, so that any rerun must reproduce them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference: dict[tuple[int, int], tuple] = {}

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, key: tuple[int, int], record: dict) -> bool:
        self.attempted += 1
        if not record.get("valid"):
            self.fail(f"graph {key[0]} seed {key[1]}: record not valid")
            return False
        sig = tuple(record.get(k) for k in SIGNATURE)
        ref = self.reference.setdefault(key, sig)
        if sig != ref:
            self.fail(f"graph {key[0]} seed {key[1]}: {SIGNATURE} {sig} differ from {ref}")
            return False
        return True


def experiment(cli, w: Workload, inst: Instances, j: int, seeds: int, checker: Checker, tracer=None):
    """One run_experiment call on graph j; returns (seconds, valid records)."""
    if tracer is not None:
        tracer.record = f"g{j}"
    t0 = time.perf_counter()
    try:
        records = cli.run_experiment(config(w, inst.paths[j], inst.base_seed, seeds))
    except Exception:  # noqa: BLE001 - a raising experiment is a counted failure
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        checker.attempted += seeds
        checker.fail(f"graph {j}: run_experiment raised", seeds)
        return elapsed, []
    elapsed = time.perf_counter() - t0
    ok = [r for r in records if checker.check((j, r["seed"]), r)]
    return elapsed, ok


def reference_loop() -> int:
    """Fixed interpreter-bound work (calls, dict, set, tuple and heap
    operations, as in the simulator's inner loops) that shares no code with
    bvc. Its time tracks how fast this host runs Python at the moment."""
    adj = {v: tuple((v * 7 + k) % 2000 for k in range(3)) for v in range(2000)}
    total = 0
    for _ in range(12):
        seen, heap = set(), [(0, 0)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in seen:
                continue
            seen.add(v)
            total += d
            for u in adj[v]:
                if u not in seen:
                    heapq.heappush(heap, (d + 1, u))
    return total


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def setup(w: Workload, seed: int, workdir: Path, checker: Checker):
    """Import bvc, then SETUP_REPEATS times generate and write the graphs
    and run one warm-up experiment. Returns the module, the instances, the
    raw set-up times (import plus each repeat) and the same times at
    reference speed, scaled by the reference loops run around each repeat."""
    t0 = time.perf_counter()
    cli = import_bvc()
    import_s = time.perf_counter() - t0
    refs = [reference_s()]
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inst = make_instances(w, seed, workdir)
        experiment(cli, w, inst, 0, 1, checker)
        raw.append(import_s + time.perf_counter() - t0)
        refs.append(reference_s())
        norm.append(raw[-1] * REF_S / statistics.fmean(refs[-2:]))
    return cli, inst, raw, norm


@dataclass
class Tally:
    """Valid records and run_experiment seconds of a run, with the time of a
    `reference_loop` run before and after each experiment."""

    seconds: float = 0.0
    experiments: int = 0
    records: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    # Each record's wall_ms scaled by REF_S / (mean of the reference loops
    # around its experiment): its time at reference speed.
    norm_walls: list = field(default_factory=list)


def timed_experiment(cli, w: Workload, inst: Instances, j: int, checker: Checker, tally: Tally, tracer=None):
    if not tally.refs:
        tally.refs.append(reference_s())
    elapsed, ok = experiment(cli, w, inst, j, w.seeds, checker, tracer)
    tally.refs.append(reference_s())
    scale = REF_S / statistics.fmean(tally.refs[-2:])
    tally.seconds += elapsed
    tally.experiments += 1
    tally.records.extend(ok)
    tally.norm_walls.extend(r["wall_ms"] * scale for r in ok)


def measure(cli, w: Workload, inst: Instances, seconds: float, checker: Checker) -> Tally:
    """Experiments round-robin over the graphs until `seconds` have passed,
    and at least one on each graph."""
    tally = Tally()
    start = time.perf_counter()
    while tally.experiments < len(inst.paths) or time.perf_counter() - start < seconds:
        timed_experiment(cli, w, inst, tally.experiments % len(inst.paths), checker, tally)
    return tally


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile (nearest rank) with at least TAIL_BEYOND
    values above its rank; (percentile, value, values beyond). With too few
    values it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Metrics in print order. Each prints as `name value unit (base counts)`;
    the `listed` ones also go into the final JSON line."""

    def __init__(self):
        self.listed: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, basis: str, listed: bool = True, shown: bool = True) -> None:
        if listed:
            self.listed[name] = {"value": value, "unit": unit}
        if shown:
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{name:<48} {text:>14} {unit:<13} {basis}")


def end_to_end(w: Workload, seed: int, seconds: float, checker: Checker, workdir: Path) -> Report:
    cli, inst, setup_raw, setup_norm = setup(w, seed, workdir, checker)
    tally = measure(cli, w, inst, seconds, checker)
    report = Report()
    report.add(
        "setup_s", statistics.median(setup_norm), "s",
        f"(median of {len(setup_norm)} set-ups at reference speed: "
        f"{', '.join(f'{t:.4f}' for t in setup_norm)} s)",
    )
    report.add(
        "setup_s.raw", statistics.median(setup_raw), "s",
        f"(median of {', '.join(f'{t:.4f}' for t in setup_raw)} s)", listed=False,
    )
    records, n = tally.records, len(tally.records)
    if n == 0:
        return report
    report.add(
        "runs_per_s", n / tally.seconds, "1/s",
        f"({n} records / {tally.seconds:.4f} s of run_experiment, {tally.experiments} experiments)",
        listed=False,
    )
    walls = [r["wall_ms"] for r in records]
    report.add("record_wall_ms.p50", statistics.median(walls), "ms", f"(median of {n} records)", listed=False)
    pct, tail, beyond = tail_percentile(walls)
    report.add(
        "record_wall_ms.tail", tail, "ms", f"(p{pct}; {beyond} of {n} records beyond it)", listed=False
    )
    # The same three at reference speed, which host-speed swings on a
    # shared machine do not move (see README.md).
    ref_scale = statistics.fmean(tally.refs) / REF_S
    report.add(
        "runs_per_s.norm", n / tally.seconds * ref_scale, "1/s",
        f"(runs_per_s x {ref_scale:.4f}: mean of {len(tally.refs)} reference loops / {REF_S:g} s)",
    )
    report.add(
        "record_wall_ms.norm_p50", statistics.median(tally.norm_walls), "ms",
        f"(median of {n} records, each at reference speed)",
    )
    pct, tail, beyond = tail_percentile(tally.norm_walls)
    report.add(
        "record_wall_ms.norm_tail", tail, "ms",
        f"(p{pct}; {beyond} of {n} records beyond it, each at reference speed)",
    )
    # Simulated counts over the first pass: every (graph, seed) once, so
    # they depend on the workload seed only, not on how many records fit.
    records = records[: len(inst.paths) * w.seeds]
    n = len(records)
    report.add("rounds.mean", statistics.fmean(r["rounds"] for r in records), "rounds", f"({n} records)")
    report.add("total_bits.mean", statistics.fmean(r["total_bits"] for r in records), "bits", f"({n} records)")
    ratios = [r["cover_size"] / r["opt"] for r in records]
    report.add("cover_ratio.mean", statistics.fmean(ratios), "ratio", f"(cover_size / opt, {n} records)")
    # The worst of a few dozen records moves with the workload seed's
    # instances, not with the program, so it is printed but not a JSON
    # metric (README.md gives its spread).
    report.add("cover_ratio.max", max(ratios), "ratio", f"(worst of {n} records)", listed=False)
    # Zero whenever the run is correct, so it is not a JSON metric; the JSON
    # line carries the same counts as `failed` and `attempted`.
    report.add(
        "failed_frac", checker.failed / checker.attempted, "ratio",
        f"({checker.failed} / {checker.attempted} records)", listed=False,
    )
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "(ru_maxrss of this process)")
    return report


# Functions every workload calls. Their times go into the JSON line; the
# others' would read zero on the workloads that skip them, so only the
# table shows them. Oracle and CLI calls are one per record and return no
# RoundStats, so only their times are listed.
COMMON_TIMED = {
    "runtime.run",
    "primitives.elect_leader_and_bfs",
    "primitives.pipelined_aggregate",
    "primitives.alternating_bfs",
    "matching.select_disjoint_paths",
    "matching.eliminate_short_aug_paths",
    "oracle.diameter",
    "oracle.min_vc_oracle",
}
NO_STATS = {"oracle.diameter", "oracle.min_vc_oracle", "cli.run_one"}
FRAGMENTING = {"runtime.run", "repair.count_paths"}
PER_CALL = {"graph.generate", "graph.read_graph"}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(w: Workload, seed: int, seconds: float, checker: Checker, workdir: Path):
    """Untraced and traced passes alternate until `seconds` have passed, so
    drift in machine speed hits both alike; the traced passes give the
    per-layer metrics, the pair the tracing overhead."""
    from tracer import TRACED, Tracer

    import_bvc()  # the tracer patches loaded modules
    setup_tracer = Tracer()
    with setup_tracer:
        setup_tracer.record = "setup"
        cli, inst, _, _ = setup(w, seed, workdir, checker)
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    while traced.experiments == 0 or time.perf_counter() - start < seconds:
        for j in range(len(inst.paths)):
            timed_experiment(cli, w, inst, j, checker, plain)
        with tracer:
            for j in range(len(inst.paths)):
                timed_experiment(cli, w, inst, j, checker, traced, tracer)

    report = Report()
    n = max(len(traced.records), 1)
    plain_rate = len(plain.records) / plain.seconds
    traced_rate = len(traced.records) / traced.seconds
    report.add(
        "trace.runs_per_s", traced_rate, "1/s",
        f"({len(traced.records)} records / {traced.seconds:.4f} s of traced run_experiment, "
        f"{traced.experiments // len(inst.paths)} passes)",
    )
    report.add(
        "trace.overhead", ratio(plain_rate, traced_rate), "ratio",
        f"(untraced {plain_rate:.4f}/s over {len(plain.records)} records / traced {traced_rate:.4f}/s)",
    )

    summary = tracer.summary()
    summary["graph.generate"] = setup_tracer.summary()["graph.generate"]
    for name in TRACED:
        agg = summary[name]
        calls, secs, inner = agg["calls"], agg["s"], agg["s"] - agg["self_s"]
        if name in PER_CALL:
            report.add(f"{name}.s", ratio(secs, calls), "s/call", f"({secs:.4f} s / {calls} calls)")
            continue
        # A function this workload never calls prints as one line.
        shown = calls > 0
        if not shown:
            print(f"{name:<48} {'not called':>14}")
        report.add(
            f"{name}.calls", calls / n, "calls/record", f"({calls} calls / {n} records)",
            listed=name not in NO_STATS, shown=shown,
        )
        report.add(
            f"{name}.s", secs / n, "s/record", f"({secs:.4f} s / {n} records)",
            listed=name in COMMON_TIMED, shown=shown,
        )
        report.add(
            f"{name}.self_s", agg["self_s"] / n, "s/record",
            f"({secs:.4f} s inclusive - {inner:.4f} s in child spans, / {n} records)",
            listed=name == "cli.run_one", shown=shown,
        )
        if name not in NO_STATS:
            report.add(
                f"{name}.rounds", agg["rounds"] / n, "rounds/record",
                f"({agg['rounds']} rounds / {n} records)", shown=shown,
            )
            report.add(
                f"{name}.bits", agg["bits"] / n, "bits/record",
                f"({agg['bits']} bits / {n} records)", shown=shown,
            )
        if name in FRAGMENTING:
            report.add(
                f"{name}.frag_rounds", agg["frag_rounds"] / n, "rounds/record",
                f"({agg['frag_rounds']} rounds / {n} records)", shown=shown,
            )

    run = summary["runtime.run"]
    nodes = run.get("nodes", 0)
    report.add("runtime.run.ctx_nodes", nodes / n, "nodes/record", f"({nodes} graph nodes summed over calls / {n} records)")
    report.add(
        "runtime.run.us_per_call", 1e6 * ratio(run["s"], run["calls"]), "us",
        f"({run['s']:.4f} s / {run['calls']} calls)",
    )
    report.add(
        "runtime.run.ns_per_bit", 1e9 * ratio(run["s"], run["bits"]), "ns",
        f"({run['s']:.4f} s / {run['bits']} bits)",
    )
    sel = summary["matching.select_disjoint_paths"]
    empty = sel.get("empty", 0)
    report.add(
        "matching.select_disjoint_paths.empty_frac", ratio(empty, sel["calls"]), "ratio",
        f"({empty} / {sel['calls']} phases found no path)",
    )
    elim = summary["matching.eliminate_short_aug_paths"]
    useful = elim.get("useful", 0)
    report.add(
        "matching.eliminate_short_aug_paths.useful_frac", ratio(useful, elim["calls"]), "ratio",
        f"({useful} / {elim['calls']} calls grew the matching)",
    )
    return report, setup_tracer, tracer


def run(w: Workload, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run: prints the report and the JSON line, returns the
    exit status."""
    env = environment(w, seed, trace)
    print("# " + json.dumps(env))
    workdir = OUT / f"{w.name}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    if trace:
        from tracer import write_spans

        report, setup_tracer, tracer = per_layer(w, seed, seconds, checker, workdir)
        spans_path = workdir / "spans.json"
        write_spans(spans_path, {"env": env}, {"setup": setup_tracer, "measured": tracer})
        print(f"# spans: {spans_path}")
    else:
        report = end_to_end(w, seed, seconds, checker, workdir)
    for reason in checker.reasons:
        print(f"# failed: {reason}")
    correct = checker.failed == 0 and checker.attempted > 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report.listed,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_sources()
    return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
