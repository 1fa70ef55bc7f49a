import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvc import oracle, primitives
from bvc.cli import PIPELINES, load_graph, main, run_experiment, run_one, verify_record
from bvc.errors import InvalidParam, RoundCapExceeded
from bvc.graph import Matching, SubgraphView, gen_path, gen_random, write_graph
from bvc.konig import koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths
from bvc.repair import det_cover_low_diameter
from support import time_limit

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
    "text, message",
    [
        (None, "cannot read graph file"),
        ("3 1\n0 1\n1 2\n", "non-blank lines after the 1 declared edges"),
        ("3 1\n0 x\n", "non-integer token"),
        ("3\n0 1\n", "graph file must start with a line 'n m'"),
        ("3 1\n0\n", "expected an edge line 'u v'"),
        ("2 1\n0 5\n", "file declares n=2 but edges reference 3 nodes"),
    ],
    ids=["missing", "trailing", "token", "header", "edge-line", "n-below-edges"],
)
def test_run_with_bad_graph_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    if text is not None:
        path.write_text(text)
    rc = main(["run", "--pipeline", "exact", "--graph", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_GOOD_RECORD = '{"pipeline": "exact", "graph": "gen:path:n=4", "seed": 0}\n'


@pytest.mark.parametrize(
    "command, content, message",
    [
        (["run", "--config", "{file}"], None, "cannot read config file"),
        (["run", "--config", "{file}"], b"pipeline=exact\ngraph=\xff\n", "cannot read config file"),
        (
            ["run", "--config", "{file}", "--graph", "gen:path:n=4"],
            b"pipeline=exact\nseed 3\n",
            ":2: expected key=value, got 'seed 3'",
        ),
        (["verify", "--record", "{file}"], None, "cannot read record file"),
        (
            ["verify", "--record", "{file}"],
            _GOOD_RECORD.encode() + b"{not json\n",
            ":2: not a JSON record",
        ),
        (
            ["verify", "--record", "{file}"],
            b'{"pipeline": "exact", "seed": 0}\n',
            "a record needs a pipeline, a graph spec and an integer seed",
        ),
        (
            ["verify", "--record", "{file}"],
            _GOOD_RECORD.replace("0}", '"x"}').encode(),
            "a record needs a pipeline, a graph spec and an integer seed",
        ),
        (
            ["verify", "--record", "{file}"],
            _GOOD_RECORD.replace("exact", "nope").encode(),
            "unknown pipeline 'nope'",
        ),
        (
            ["verify", "--record", "{file}"],
            _GOOD_RECORD.replace("0}", '0, "params": {"eps": "0.5"}}').encode(),
            "record eps must be float, got '0.5'",
        ),
        (
            ["run", "--pipeline", "exact", "--graph", "gen:path:n=4", "--out", "{file}/o.jsonl"],
            None,
            "cannot write the output",
        ),
    ],
    ids=[
        "config-missing",
        "config-not-utf8",
        "config-line-without-equals",
        "record-missing",
        "record-not-json",
        "record-without-graph",
        "record-text-seed",
        "record-unknown-pipeline",
        "record-text-eps",
        "out-dir-missing",
    ],
)
def test_bad_cli_files_exit_2(tmp_path, capsys, command, content, message):
    """A file the CLI cannot read, parse or write, or a record it cannot
    replay, ends in an `error:` line that says why and exit status 2,
    never a traceback."""
    path = tmp_path / "file"
    if content is not None:
        path.write_bytes(content)
    rc = main([arg.format(file=path) for arg in command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_program_fault_exits_3(monkeypatch, capsys):
    """Node programs that disagree about a partner are a fault in bvc, not
    in the user's input: `bvc run` exits 3, not 2. A consumed node that
    ends unconsumed keeps its old partner while its new one claims it."""
    import bvc.matching

    real = bvc.matching.run

    def forged(program, *args, **kwargs):
        states, stats = real(program, *args, **kwargs)
        if isinstance(program, bvc.matching.PathSelectProgram):
            st = next(st for st in states.values() if st["consumed"])
            st["consumed"] = False
        return states, stats

    monkeypatch.setattr(bvc.matching, "run", forged)
    rc = main(["run", "--pipeline", "matching-only", "--graph", "gen:path:n=4"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: inconsistent partner outputs")


def test_round_cap_exits_2(monkeypatch, capsys):
    """Of the package errors only a program fault exits 3; a round cap,
    like bad input, exits 2."""
    import bvc.cli

    def capped(config):
        raise RoundCapExceeded("round cap 7 exceeded")

    monkeypatch.setattr(bvc.cli, "run_experiment", capped)
    rc = main(["run", "--pipeline", "exact", "--graph", "gen:path:n=4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: round cap 7 exceeded\n"


@pytest.mark.parametrize("key", ["seed", "foo"])
def test_generator_spec_with_unknown_key_exits_2(capsys, key):
    """A gen: spec key the family does not take is an InvalidParam that
    names it; the graph's seed is not a spec key."""
    rc = main(["run", "--pipeline", "exact", "--graph", f"gen:random:na=5,nb=5,p=0.3,{key}=2"])
    assert rc == 2
    assert f"unknown parameter '{key}'" in capsys.readouterr().err


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


def test_layered_covers_run_a_bfs_only_without_a_check(monkeypatch):
    """The layered cover reads the layering of the check that certified its
    matching: `det-low-diam` (its repair's check) and `diameter1` at k = 9
    (the elimination's empty check at d = 17) run no `partition` BFS.
    `diameter1` at k <= 8 runs no check, so its cover runs exactly one."""
    phases = []
    engine = primitives.run

    def recording_run(*args, **kwargs):
        phases.append(kwargs.get("phase"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(primitives, "run", recording_run)
    for spec in ("gen:random:na=12,nb=12,p=0.2", "gen:random:na=20,nb=20,p=0.1"):
        g = load_graph(spec)
        for seed in (0, 1):
            for config, partitions in (
                ({"eps": 0.5, "pipeline": "det-low-diam"}, 0),
                ({"eps": 0.1, "pipeline": "det-low-diam"}, 0),
                ({"k": 9, "pipeline": "diameter1"}, 0),
                ({"k": 1, "pipeline": "diameter1"}, 1),
                ({"k": 8, "pipeline": "diameter1"}, 1),
            ):
                phases.clear()
                record = run_one(dict(config, graph=spec), g, seed)
                assert record["valid"]
                assert phases.count("partition") == partitions, (spec, seed, config)
                if config.get("k") == 9:
                    assert "witness-check" in phases and "select[d=17]" not in phases
    monkeypatch.undo()


def test_k_beyond_half_n_changes_nothing():
    """k is capped at n//2 + 1 wherever it is used: beyond it no augmenting
    path or layer class is left, so a larger k, or a smaller eps, gives the
    same record instead of thousands of empty rounds."""
    graph = "gen:random:na=30,nb=30,p=0.06"

    def costs(**config):
        (record,) = run_experiment({"graph": graph, "no_oracle": True, **config})
        assert record["valid"]
        return record["cover_size"], record["rounds"], record["total_bits"]

    with time_limit(120):
        assert costs(pipeline="diameter1", k=1000) == costs(pipeline="diameter1", k=31)
        assert costs(pipeline="det-low-diam", eps=0.001) == costs(pipeline="det-low-diam", eps=0.005)


@pytest.mark.parametrize(
    "pipeline, option, value",
    [
        ("diameter1", "--k", "100000000"),
        ("det-low-diam", "--eps", "1e-8"),
        ("det-low-diam", "--eps", "1e-79"),
        ("det-low-diam", "--eps", "1e-300"),
        ("rand-pipeline", "--eps", "1e-300"),
        ("clustering-only", "--lam", "1e-300"),
    ],
)
def test_extreme_parameters_give_valid_records(capsys, pipeline, option, value):
    """A huge k or a tiny eps needs no more rounds than k = n//2 + 1 (for
    det-low-diam k' is capped before it sizes alpha), and a tiny lam
    (sigma * n << 1) draws its shifts by the inverse CDF instead of
    redrawing without end."""
    with time_limit(60):
        rc = main(["run", "--pipeline", pipeline, "--graph", "gen:path:n=6", option, value])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0 and record["valid"]


@pytest.mark.parametrize(
    "pipeline, eps",
    [
        ("diameter1", "1e-320"),
        ("rand-pipeline", "1e-308"),
        ("rand-pipeline", "5e-324"),
        ("det-low-diam", "5e-324"),
    ],
)
def test_eps_too_small_for_k_exits_2(capsys, pipeline, eps):
    """An eps whose k = ceil(c / eps) overflows a float, or whose derived
    lam or accuracy underflows, is an InvalidParam that names eps, not an
    OverflowError or a complaint about a parameter the user never set."""
    with time_limit(60):
        rc = main(["run", "--pipeline", pipeline, "--graph", "gen:path:n=6", "--eps", eps])
    assert rc == 2
    err = capsys.readouterr().err
    assert "is too small" in err and "eps" in err


_JUNK = st.text(alphabet="ax-.e1 ", max_size=4)
_GRAPHS = (
    "gen:path:n=6",
    "gen:complete:na=2,nb=3",
    "gen:random:na=5,nb=6,p=0.3",
    "gen:random:na=8,nb=8,p=0.25",
)
_CONFIG_OPTIONAL = {
    "seed": st.integers(-(10**9), 10**9).map(str),
    "repeat": st.integers(1, 2).map(str),
    "eps": st.floats(0.0, 1.0).map(repr),
    "k": (st.integers(-1, 40) | st.integers(-2, 10**12)).map(str),
    "lam": st.floats(0.0, 1.0).map(repr),
    "provider": st.sampled_from(
        ("maximal", "eliminate:k=3", "eliminate:k=0", "approx:delta=0.3")
        + ("det-approx:delta=1e-300", "approx:delta=5e-324", "approx:k=2", "bogus")
    ),
    "bandwidth": st.integers(6, 40).map(str),
    "no_oracle": st.sampled_from(("true", "false", "1", "0", "")),
}


@st.composite
def _config_files(draw):
    """Config entries, each value in or near its range. About one file in
    ten puts text where a number belongs, one gives eps or lam any float,
    and one names a pipeline or graph that does not exist."""
    required = {"pipeline": st.sampled_from(PIPELINES), "graph": st.sampled_from(_GRAPHS)}
    config = draw(st.fixed_dictionaries(required, optional=_CONFIG_OPTIONAL))
    fault = draw(st.sampled_from((None,) * 7 + ("text", "float", "name")))
    if fault == "text":
        config[draw(st.sampled_from(sorted(config)))] = draw(_JUNK)
    elif fault == "float":
        value = draw(st.floats(allow_nan=True, allow_infinity=True))
        config[draw(st.sampled_from(("eps", "lam")))] = repr(value)
    elif fault == "name":
        key = draw(st.sampled_from(("pipeline", "graph")))
        config[key] = draw(st.sampled_from(("nope", "gen:path:n=0", "missing.txt")))
    return config


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_config_files())
def test_config_files_run_or_exit_2(config):
    """Any `--config` file either runs, every record valid, or exits 2
    with an `error:` line: numbers out of range, text for numbers, unknown
    keys, pipelines, graphs and providers all end in a typed error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.conf"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        out, err = io.StringIO(), io.StringIO()
        with time_limit(30), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", "--config", str(path)])
    if rc == 2:
        assert err.getvalue().startswith("error: ")
    else:
        assert rc == 0
        assert all(json.loads(line)["valid"] for line in out.getvalue().splitlines())
