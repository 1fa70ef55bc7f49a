"""Self-tests of the benchmark: python3 -m pytest bvcbench -q"""

from __future__ import annotations

import json
import sys

import pytest

import bench
from tracer import Tracer

TINY = (
    bench.Workload("tiny-rand", "rand-pipeline", 8, 8, 0.3, graphs=2, seeds=2, eps=0.5),
    bench.Workload("tiny-exact", "exact", 8, 8, 0.3, graphs=2, seeds=2),
    bench.Workload("tiny-det", "det-low-diam", 8, 8, 0.3, graphs=2, seeds=1, eps=0.5, bandwidth=8),
)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    bench.import_bvc()


def declared(kind: str) -> dict[str, str]:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_tiny(capsys, w, trace: int):
    status = bench.run(w, seed=3, seconds=0, trace=trace)
    lines = capsys.readouterr().out.splitlines()
    return status, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.pipeline)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, w, trace, kind):
    status, table, result = run_tiny(capsys, w, trace)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = declared(kind)
    want_printed = dict(want, failed_frac="ratio") if trace == 0 else want
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split() for line in table if not line.startswith("#")}
    for name, unit in want_printed.items():
        if name in printed and printed[name][1] != "not":
            assert printed[name][2] == unit, name
        else:
            function = name.rsplit(".", 1)[0]
            assert printed[function][1:3] == ["not", "called"], name


def test_environment_is_in_every_output(capsys):
    _, table, _ = run_tiny(capsys, TINY[0], 0)
    env = json.loads(table[0][2:])
    assert env["workload_seed"] == 3 and env["python"] and env["nproc"] >= 1
    assert "random(na=8,nb=8,p=0.3)" in env["generator"]


def bvc_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "bvc" or name.startswith("bvc.")
        for attr, value in vars(module).items()
    }


def test_tracer_rebinds_by_name_and_restores_everything():
    import bvc.cli
    import bvc.matching
    import bvc.primitives
    from bvc.graph import Matching, SubgraphView, generate

    before = bvc_bindings()
    tracer = Tracer()
    with tracer:
        # Bound by name in other modules, and reached through a
        # function-local import (witness_check once k > 12).
        assert getattr(bvc.matching.run, "__bvcbench_traced__", False)
        assert getattr(bvc.cli.read_graph, "__bvcbench_traced__", False)
        graph = generate("random", seed=1, na=6, nb=6, p=0.4)
        view = SubgraphView.whole(graph)
        bvc.matching.eliminate_short_aug_paths(graph, view, Matching([], view), 14)
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("fails inside the block")

    after = bvc_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(getattr(v, "__bvcbench_traced__", False) for v in after.values())

    names = [s.name for s in tracer.spans]
    assert "primitives.witness_check" in names
    check = names.index("primitives.witness_check")
    assert tracer.spans[tracer.spans[check].parent].name == "matching.eliminate_short_aug_paths"
    summary = tracer.summary()
    assert summary["runtime.run"]["calls"] == names.count("runtime.run") > 0
    assert summary["matching.eliminate_short_aug_paths"]["self_s"] >= 0


def patch_run_one(monkeypatch, change):
    import bvc.cli

    real = bvc.cli.run_one

    def run_one(config, graph, seed):
        return change(real(config, graph, seed), seed)

    monkeypatch.setattr(bvc.cli, "run_one", run_one)


def test_invalid_record_counts_as_failed(capsys, monkeypatch):
    def invalidate(record, seed):
        record["valid"] = record["valid"] and seed % 2 == 0
        return record

    patch_run_one(monkeypatch, invalidate)
    status, table, result = run_tiny(capsys, TINY[1], 0)
    assert status == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    frac = next(line.split() for line in table if line.startswith("failed_frac"))
    assert float(frac[1]) == pytest.approx(result["failed"] / result["attempted"])


def test_raising_experiment_counts_as_failed(capsys, monkeypatch):
    def explode(record, seed):
        raise ValueError("broken pipeline")

    patch_run_one(monkeypatch, explode)
    status, _, result = run_tiny(capsys, TINY[1], 0)
    assert status == 1 and result["failed"] == result["attempted"] > 0
    capsys.readouterr()


def test_traced_counts_must_match_untraced(capsys, monkeypatch):
    import bvc.runtime

    def drift_when_traced(record, seed):
        if getattr(bvc.runtime.run, "__bvcbench_traced__", False):
            record["rounds"] += 1
        return record

    patch_run_one(monkeypatch, drift_when_traced)
    status, table, result = run_tiny(capsys, TINY[0], 1)
    assert status == 1 and result["failed"] > 0
    assert any("differ from" in line for line in table)


def test_tail_percentile_leaves_ten_beyond():
    assert bench.tail_percentile(list(range(1, 41))) == (75, 30, 10)
    assert bench.tail_percentile([5.0, 1.0]) == (100, 5.0, 0)
