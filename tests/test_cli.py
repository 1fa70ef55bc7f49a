import json
from pathlib import Path

import pytest

from bvc import oracle, primitives
from bvc.cli import PIPELINES, load_graph, main, run_experiment, run_one, verify_record
from bvc.errors import InvalidParam
from bvc.graph import Matching, SubgraphView, gen_path, gen_random, write_graph
from bvc.konig import koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths
from bvc.repair import det_cover_low_diameter

# Records written by `bvc run` (commands in README.md); every later
# change to src/ must reproduce them bit-identically.
CORPUS = Path(__file__).parent / "data" / "corpus.jsonl"


def test_run_exact_on_p4(capsys):
    rc = main(["run", "--pipeline", "exact", "--graph", "gen:path:n=4", "--seed", "3"])
    out = capsys.readouterr().out.strip()
    record = json.loads(out)
    assert rc == 0
    assert record["cover_size"] == 2
    assert record["opt"] == 2
    assert record["valid"] is True
    assert record["n"] == 4 and record["m"] == 3 and record["D"] == 3


def test_run_matching_only_eliminate(capsys):
    rc = main(
        ["run", "--pipeline", "matching-only", "--graph", "gen:path:n=4", "--k", "2"]
    )
    record = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert record["cover_size"] == 2
    assert record["params"]["provider"] == "eliminate:k=2"


def test_run_repeat_and_out(tmp_path):
    out = tmp_path / "records.jsonl"
    csv = tmp_path / "records.csv"
    rc = main(
        [
            "run",
            "--pipeline",
            "rand-pipeline",
            "--graph",
            "gen:random:na=12,nb=12,p=0.15",
            "--seed",
            "5",
            "--repeat",
            "3",
            "--eps",
            "0.5",
            "--out",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["seed"] for r in records] == [5, 6, 7]
    header = csv.read_text().splitlines()[0]
    assert header.startswith("pipeline,graph,seed,n,m,D,max_degree,opt,cover_size")


def test_run_from_graph_file(tmp_path):
    g = gen_random(8, 8, 0.3, 2)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    records = run_experiment({"pipeline": "exact", "graph": str(path), "seed": 1})
    assert records[0]["valid"]


def test_clustering_only_fields():
    records = run_experiment(
        {
            "pipeline": "clustering-only",
            "graph": "gen:random:na=10,nb=10,p=0.15",
            "seed": 2,
            "lam": 0.5,
        }
    )
    r = records[0]
    assert r["cover_size"] is None
    assert r["valid"] is True
    assert r["congestion"] in (0, 1)
    assert "max_tree_height" in r


def test_no_oracle_skips_opt():
    records = run_experiment(
        {
            "pipeline": "det-low-diam",
            "graph": "gen:random:na=8,nb=8,p=0.25",
            "seed": 4,
            "eps": 0.5,
            "no_oracle": True,
        }
    )
    assert records[0]["opt"] is None
    assert records[0]["valid"] is True  # validity still checked


def test_config_file_precedence(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("pipeline=exact\ngraph=gen:path:n=4\nseed=9\neps=1.0\n")
    rc = main(["run", "--config", str(conf), "--seed", "12"])
    record = json.loads(capsys.readouterr().out.strip())
    assert rc == 0
    assert record["seed"] == 12  # CLI beats config
    assert record["pipeline"] == "exact"


@pytest.mark.parametrize("key", ["seed", "repeat", "eps", "k", "lam", "bandwidth"])
def test_config_rejects_non_numeric_values(tmp_path, capsys, key):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"pipeline=exact\ngraph=gen:path:n=4\n{key}=abc\n")
    rc = main(["run", "--config", str(conf)])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("pipeline=exact\nbogus=1\n")
    rc = main(["run", "--config", str(conf), "--graph", "gen:path:n=4"])
    assert rc == 2


def test_verify_roundtrip(tmp_path):
    records = run_experiment(
        {
            "pipeline": "diameter1",
            "graph": "gen:random:na=9,nb=9,p=0.2",
            "seed": 7,
            "eps": 0.5,
        }
    )
    report = verify_record(records[0])
    assert report["pass"] is True
    assert report["mismatches"] == {}


def test_verify_catches_tampering(tmp_path):
    records = run_experiment(
        {"pipeline": "exact", "graph": "gen:path:n=6", "seed": 3}
    )
    bad = dict(records[0])
    bad["cover_size"] = bad["cover_size"] + 1
    report = verify_record(bad)
    assert report["pass"] is False
    assert "cover_size" in report["mismatches"]


def test_verify_wrong_seed_mismatch():
    records = run_experiment(
        {
            "pipeline": "rand-pipeline",
            "graph": "gen:random:na=12,nb=12,p=0.15",
            "seed": 2,
            "eps": 0.5,
        }
    )
    tampered = dict(records[0])
    tampered["seed"] = 55
    report = verify_record(tampered)
    # A different seed rarely reproduces the same cover/rounds/bits.
    assert not report["pass"] or tampered["rounds"] == report


def test_verify_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "rec.jsonl"
    main(["run", "--pipeline", "exact", "--graph", "gen:path:n=4", "--out", str(out)])
    rc = main(["verify", "--record", str(out)])
    capsys.readouterr()
    assert rc == 0
    bad = json.loads(out.read_text())
    bad["rounds"] += 7
    out.write_text(json.dumps(bad) + "\n")
    rc = main(["verify", "--record", str(out)])
    capsys.readouterr()
    assert rc == 1


def test_run_experiment_validation():
    with pytest.raises(InvalidParam):
        run_experiment({"pipeline": "warp", "graph": "gen:path:n=4"})
    with pytest.raises(InvalidParam):
        run_experiment({"pipeline": "exact"})


def test_diameter_once_per_graph_and_only_with_oracle(monkeypatch):
    calls = []
    real = oracle.diameter
    monkeypatch.setattr(oracle, "diameter", lambda g: calls.append(g) or real(g))
    config = {"pipeline": "exact", "graph": "gen:path:n=6", "seed": 0, "repeat": 3}
    assert [r["D"] for r in run_experiment(config)] == [5, 5, 5]
    assert len(calls) == 1
    assert [r["D"] for r in run_experiment(dict(config, no_oracle=True))] == [None] * 3
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text", [None, "3 1\n0 1\n1 2\n", "3 1\n0 x\n"], ids=["missing", "trailing", "token"]
)
def test_run_with_bad_graph_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    if text is not None:
        path.write_text(text)
    rc = main(["run", "--pipeline", "exact", "--graph", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "pipeline, extra",
    [(p, []) for p in PIPELINES] + [("matching-only", ["--provider", "eliminate:k=14"])],
    ids=[*PIPELINES, "eliminate-k14"],
)
def test_zero_node_graph_gives_valid_records(tmp_path, capsys, pipeline, extra):
    """A `0 0` file is a degenerate graph, not bad input: every pipeline
    gives a valid record of 0 rounds."""
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    rc = main(["run", "--pipeline", pipeline, "--graph", str(path)] + extra)
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["valid"] is True
    assert (record["n"], record["rounds"], record["total_bits"]) == (0, 0, 0)


def test_bandwidth_below_floor_exits_2(capsys):
    rc = main(["run", "--pipeline", "exact", "--graph", "gen:path:n=40", "--bandwidth", "9"])
    assert rc == 2
    assert "below floor 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pipeline, option",
    [("diameter1", "--eps"), ("diameter1", "--k"), ("clustering-only", "--lam"), ("exact", "--repeat")],
)
def test_zero_parameter_exits_2(capsys, pipeline, option):
    """A zero is a given value, not a missing one: it reaches its check."""
    rc = main(["run", "--pipeline", pipeline, "--graph", "gen:path:n=4", option, "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_det_low_diam_is_seed_independent(capsys):
    """The deterministic pipeline runs unseeded (a draw would fault), so
    every seed gives the same cover and costs."""
    spec = "gen:random:na=12,nb=12,p=0.2"
    rc = main(["run", "--pipeline", "det-low-diam", "--graph", spec, "--repeat", "2"])
    first, second = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rc == 0 and (first["seed"], second["seed"]) == (0, 1)
    for key in ("cover_size", "rounds", "total_bits"):
        assert first[key] == second[key], key


def test_corpus_replays_bit_identically():
    records = [json.loads(line) for line in CORPUS.read_text().splitlines() if line.strip()]
    assert {r["pipeline"] for r in records} == set(PIPELINES)
    for record in records:
        report = verify_record(record)
        assert report["pass"], report
        assert record["D"] == oracle.diameter(load_graph(record["graph"])), record


def test_pipelines_elect_once(monkeypatch):
    """The election depends on the graph alone, so each pipeline root
    elects once and hands the forest to every phase below it."""
    spec = "gen:random:na=12,nb=12,p=0.2"
    g = load_graph(spec)
    view = SubgraphView.whole(g)

    def elections(stats):
        return sum(1 for label, _ in stats.per_phase if label == "elect-bfs")

    _, stats = det_cover_low_diameter(g, view, 0.5)
    assert elections(stats) == 1
    # On this path the exact cover's one elimination (k = 21) reaches the
    # phases beyond d = 15, whose shortest-length checks run over a forest;
    # the elimination elects it, once.
    path = gen_path(40)
    _, stats = koenig_exact_cover(path, SubgraphView.whole(path), seed=0)
    assert elections(stats) == 1

    # CLI records carry no phases, so count the engine runs the election makes.
    phases = []
    engine = primitives.run

    def recording_run(*args, **kwargs):
        phases.append(kwargs.get("phase"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(primitives, "run", recording_run)
    record = run_one({"pipeline": "diameter1", "graph": spec, "k": 14}, g, 0)
    assert record["valid"]
    assert phases.count("elect-bfs") == 1
    # The randomized pipeline's cluster solves run over the clustering's
    # own trees, so it elects nowhere.
    phases.clear()
    record = run_one({"pipeline": "rand-pipeline", "graph": spec, "eps": 0.5}, g, 0)
    monkeypatch.undo()
    assert record["valid"] and record["clusters"] > 0
    assert "class-sizes" in phases and "elect-bfs" not in phases

    # With phases beyond d = 15 (k = 14) the elimination elects only when
    # given no forest.
    forest, elect_stats = primitives.elect_leader_and_bfs(g)
    m_own, _, own_stats = eliminate_short_aug_paths(g, view, Matching([], view), 14, seed=3)
    m_given, _, given_stats = eliminate_short_aug_paths(
        g, view, Matching([], view), 14, seed=3, forest=forest
    )
    assert m_given.edges == m_own.edges
    assert elections(own_stats) == 1 and elections(given_stats) == 0
    assert own_stats.rounds - given_stats.rounds == elect_stats.rounds
    assert own_stats.total_bits - given_stats.total_bits == elect_stats.total_bits
