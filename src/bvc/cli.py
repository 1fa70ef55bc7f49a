"""Experiment driver.

`bvc run` executes a pipeline over one or more seeds on a generated or
loaded graph, validates the result, and emits one JSON record per line.
`bvc verify` replays records and checks that reruns are bit-identical and
the covers still validate. Every record carries enough information
(generator spec or file path, seed, parameters) to be reproduced from
scratch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import oracle
from .clustering import (
    build_cluster_trees,
    mpx_partition,
    randomized_pipeline,
    shrink_partition,
)
from .errors import BvcError, InvalidParam, ProgramFault
from .graph import (
    BipartiteGraph, Matching, SubgraphView, graph_from_spec, read_graph, read_lines,
)
from .konig import koenig_approx_cover, koenig_exact_cover
from .matching import (
    ceil_ratio, eliminate_short_aug_paths, max_useful_k, parse_provider,
)
from .primitives import elect_leader_and_bfs
from .repair import det_cover_low_diameter

PIPELINES = (
    "exact",
    "diameter1",
    "rand-pipeline",
    "det-low-diam",
    "clustering-only",
    "matching-only",
)

CSV_COLUMNS = [
    "pipeline",
    "graph",
    "seed",
    "n",
    "m",
    "D",
    "max_degree",
    "opt",
    "cover_size",
    "valid",
    "rounds",
    "max_message_bits",
    "total_bits",
    "wall_ms",
]

_DEFAULTS = {
    "pipeline": None,
    "graph": None,
    "seed": 0,
    "repeat": 1,
    "eps": 0.5,
    "k": None,
    "lam": None,
    "provider": None,
    "bandwidth": None,
    "no_oracle": False,
}

# Keys that hold numbers; a config file gives them as text.
_TYPED = {"seed": int, "repeat": int, "eps": float, "k": int, "lam": float, "bandwidth": int}


def load_graph(spec: str, bandwidth: int | None = None) -> BipartiteGraph:
    """The graph of a file or gen: spec, with B = `bandwidth` bits per edge
    and round when one is given (the --bandwidth option or config key) and
    its default B otherwise. This is the one place the CLI sets B."""
    graph = graph_from_spec(spec[4:]) if spec.startswith("gen:") else read_graph(spec)
    return graph if bandwidth is None else graph.with_bandwidth(bandwidth)


def _truthy(value) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


def _given(config: dict, key: str, default):
    """config[key], or `default` when it is absent or None. A given zero is
    kept, so the check that owns the value can reject it."""
    value = config.get(key)
    return default if value is None else value


def run_one(config: dict, graph: BipartiteGraph, seed: int) -> dict:
    """Execute one (pipeline, graph, seed) and build its record; `D` is
    left None for run_experiment to fill."""
    pipeline = config["pipeline"]
    view = SubgraphView.whole(graph)
    eps = _given(config, "eps", 0.5)
    if not 0.0 < eps <= 1.0:
        raise InvalidParam("eps must be in (0, 1]")
    use_oracle = not _truthy(config.get("no_oracle"))
    record = {
        "pipeline": pipeline,
        "params": {},
        "graph": config["graph"],
        "n": graph.n,
        "m": graph.m,
        "D": None,
        "max_degree": graph.max_degree,
        "opt": None,
        "cover_size": None,
        "valid": False,
        "rounds": 0,
        "max_message_bits": 0,
        "total_bits": 0,
        "seed": seed,
        "wall_ms": 0.0,
    }
    if config.get("bandwidth") is not None:
        record["params"]["bandwidth"] = graph.bandwidth
    t0 = time.perf_counter()

    extra = {}
    if pipeline == "exact":
        cover, stats = koenig_exact_cover(graph, view, seed=seed)
        record["cover_size"] = cover.size
        valid = cover.is_valid()
    elif pipeline == "diameter1":
        k = config.get("k")
        if k is None:
            k = ceil_ratio(1.0, eps, "eps")
        record["params"].update({"k": k, "eps": eps})
        forest, stats = elect_leader_and_bfs(graph)
        matching, layering, elim_stats = eliminate_short_aug_paths(
            graph, view, Matching([], view), min(k, max_useful_k(graph)), seed=seed, forest=forest
        )
        stats.add_sequential(elim_stats)
        cover, cover_stats = koenig_approx_cover(
            graph, view, matching, k, forest=forest, layering=layering
        )
        stats.add_sequential(cover_stats)
        record["cover_size"] = cover.size
        valid = cover.is_valid() and k * cover.size <= (k + 1) * matching.size
    elif pipeline == "rand-pipeline":
        record["params"]["eps"] = eps
        cover, stats, cluster_set = randomized_pipeline(graph, eps, seed=seed)
        record["cover_size"] = cover.size
        extra["clusters"] = len(cluster_set.clusters())
        extra["max_tree_height"] = cluster_set.max_tree_height
        valid = cover.is_valid() and oracle.clusters_separated(graph, cluster_set)
    elif pipeline == "det-low-diam":
        record["params"]["eps"] = eps
        cover, stats = det_cover_low_diameter(graph, view, eps)
        record["cover_size"] = cover.size
        valid = cover.is_valid()
    elif pipeline == "clustering-only":
        lam = _given(config, "lam", eps / 4.0)
        record["params"]["lam"] = lam
        assignment, parent, stats = mpx_partition(graph, lam, seed=seed)
        cluster_set = shrink_partition(graph, assignment, parent)
        stats.add_sequential(build_cluster_trees(graph, cluster_set))
        extra["clusters"] = len(cluster_set.clusters())
        extra["max_tree_height"] = cluster_set.max_tree_height
        valid = oracle.clusters_separated(graph, cluster_set)
    elif pipeline == "matching-only":
        provider = config.get("provider")
        if not provider:
            provider = "maximal" if config.get("k") is None else f"eliminate:k={config['k']}"
        record["params"]["provider"] = provider
        spec = parse_provider(provider)
        matching, stats = spec.run(graph, view, seed=seed)
        record["cover_size"] = matching.size
        # No augmenting path of length <= 2k - 1; k = 1 is maximality.
        valid = oracle.shortest_aug_path_len(view, matching) >= 2 * spec.k + 1
    else:
        raise InvalidParam(f"unknown pipeline {pipeline!r}")

    record["wall_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
    record["rounds"] = stats.rounds
    record["max_message_bits"] = stats.max_message_bits
    record["total_bits"] = stats.total_bits

    if use_oracle:
        if pipeline == "matching-only":
            record["opt"] = oracle.max_matching_oracle(view).size
            if spec.delta is not None:
                valid = valid and record["cover_size"] >= (1 - spec.delta) * record["opt"] - 1e-9
        elif pipeline != "clustering-only":
            record["opt"] = oracle.min_vc_oracle(view).size
            if pipeline == "exact":
                valid = valid and record["cover_size"] == record["opt"]
            elif pipeline == "det-low-diam":
                valid = valid and record["cover_size"] <= (1 + eps) * record["opt"] + 1e-9
            elif pipeline == "diameter1":
                k = record["params"]["k"]
                valid = valid and k * record["cover_size"] <= (k + 1) * record["opt"]

    record["valid"] = bool(valid)
    record.update(extra)
    return record


def run_experiment(config: dict) -> list[dict]:
    """All (seed) runs for one configuration; records in seed order. The
    graph's diameter `D` is computed once, and only when the oracle runs."""
    if config.get("pipeline") not in PIPELINES:
        raise InvalidParam(f"pipeline must be one of {', '.join(PIPELINES)}")
    if not config.get("graph"):
        raise InvalidParam("a graph file or gen: spec is required")
    repeat = _given(config, "repeat", 1)
    if repeat < 1:
        raise InvalidParam("repeat must be >= 1")
    graph = load_graph(config["graph"], config.get("bandwidth"))
    diameter = None if _truthy(config.get("no_oracle")) else oracle.diameter(graph)
    records = []
    base_seed = _given(config, "seed", 0)
    for i in range(repeat):
        record = run_one(config, graph, base_seed + i)
        record["D"] = diameter
        records.append(record)
    return records


def verify_record(record: dict) -> dict:
    """Re-run a record's configuration and compare byte-for-byte fields.
    A record that is not an object with a pipeline, a graph spec and an
    integer seed, or whose parameters have the wrong type, raises
    InvalidParam."""
    params = record.get("params", {}) if isinstance(record, dict) else None
    if not (
        isinstance(params, dict)
        and {"pipeline", "graph", "seed"} <= record.keys()
        and isinstance(record["graph"], str)
        and type(record["seed"]) is int
    ):
        raise InvalidParam("a record needs a pipeline, a graph spec and an integer seed")
    config = {
        "pipeline": record["pipeline"],
        "graph": record["graph"],
        **{key: params.get(key) for key in ("eps", "k", "lam", "provider", "bandwidth")},
        "no_oracle": record.get("opt") is None,
    }
    for key, kind in _TYPED.items():
        value = config.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, (int, kind))):
            raise InvalidParam(f"record {key} must be {kind.__name__}, got {value!r}")
    graph = load_graph(config["graph"], config["bandwidth"])
    fresh = run_one(config, graph, record["seed"])
    mismatches = {}
    for key in ("cover_size", "rounds", "max_message_bits", "total_bits", "opt"):
        if fresh.get(key) != record.get(key):
            mismatches[key] = {"recorded": record.get(key), "recomputed": fresh.get(key)}
    ok = not mismatches and fresh["valid"]
    return {
        "pipeline": record["pipeline"],
        "graph": record["graph"],
        "seed": record["seed"],
        "pass": ok,
        "valid_rerun": fresh["valid"],
        "mismatches": mismatches,
    }


def _read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(read_lines(path, "config"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise InvalidParam(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def _read_records(path: str) -> list:
    """One JSON record per non-blank line."""
    records = []
    for lineno, line in enumerate(read_lines(path, "record"), 1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise InvalidParam(f"{path}:{lineno}: not a JSON record: {exc}") from exc
    return records


def _merge_config(args) -> dict:
    """Defaults, then the config file, then the command line; numeric keys
    from the file are converted here, once."""
    config = dict(_DEFAULTS)
    if args.config:
        file_conf = _read_config_file(args.config)
        unknown = set(file_conf) - set(_DEFAULTS)
        if unknown:
            raise InvalidParam(f"unknown config keys: {sorted(unknown)}")
        for key, kind in _TYPED.items():
            if key in file_conf:
                try:
                    file_conf[key] = kind(file_conf[key])
                except ValueError:
                    raise InvalidParam(
                        f"{args.config}: {key} must be {kind.__name__}, got {file_conf[key]!r}"
                    ) from None
        config.update(file_conf)
    for key in _DEFAULTS:
        cli_value = getattr(args, key, None)
        if cli_value is not None and cli_value is not False:
            config[key] = cli_value
    return config


def _emit(records, out_path, csv_path):
    lines = [json.dumps(r, sort_keys=True) for r in records]
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            for line in lines:
                print(line)
        if csv_path:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(",".join(CSV_COLUMNS) + "\n")
                for r in records:
                    fh.write(",".join(str(r.get(c, "")) for c in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise InvalidParam(f"cannot write the output: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvc",
        description="Distributed bipartite vertex cover experiments on a "
        "simulated bandwidth-limited synchronous network.",
        epilog="CSV column order: " + ",".join(CSV_COLUMNS),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a pipeline and emit JSON records")
    p_run.add_argument("--pipeline", choices=PIPELINES)
    p_run.add_argument("--graph", help="graph file, or gen:<family>:k=v,... spec")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--repeat", type=int, help="number of consecutive seeds")
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--lam", type=float)
    p_run.add_argument("--provider", help="matching provider for matching-only")
    p_run.add_argument("--bandwidth", type=int, help="bits per edge per round")
    p_run.add_argument("--no-oracle", dest="no_oracle", action="store_true")
    p_run.add_argument("--config", help="key=value defaults file")
    p_run.add_argument("--out", help="JSONL output path (default stdout)")
    p_run.add_argument("--csv", help="also write a CSV projection here")

    p_verify = sub.add_parser("verify", help="replay records and compare")
    p_verify.add_argument("--record", required=True, help="JSONL records file")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _merge_config(args)
            records = run_experiment(config)
            _emit(records, args.out, args.csv)
            return 0 if all(r["valid"] for r in records) else 1
        reports = [verify_record(record) for record in _read_records(args.record)]
        for report in reports:
            print(json.dumps(report, sort_keys=True))
        return 0 if all(r["pass"] for r in reports) else 1
    except BvcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A fault in a node program is a bug in bvc, not in the user's input.
        return 3 if isinstance(exc, ProgramFault) else 2


if __name__ == "__main__":
    sys.exit(main())
