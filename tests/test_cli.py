"""Command-line surface: formats, exit codes, determinism."""

import argparse
import dataclasses
import hashlib
import io
import json

import pytest

from majority_game import cli, generators, weighted
from majority_game.cli import main
from majority_game.constructions import build_minedge_graph
from majority_game.core import Graph, StrategyError
from majority_game.generators import path_graph, random_tree, star_graph
from majority_game.graphsolver import SolveResult, clear_quotient_cache


@pytest.fixture
def path6_file(tmp_path):
    f = tmp_path / "p6.txt"
    f.write_text(path_graph(6).to_text())
    return str(f)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_weighted_json(capsys):
    code, out = run_cli(capsys, ["solve-weighted", "3,3,7,8,9", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4 and payload["k"] == 5


def test_solve_weighted_json_reports_memo_states(capsys):
    # the memo is shared by the process: empty it so both runs start cold
    states = []
    for _ in range(2):
        weighted.clear()
        code, out = run_cli(capsys, ["solve-weighted", "3,3,7,8,9", "--json"])
        assert code == 0
        states.append(json.loads(out)["memo_states"])
    assert states == [3, 3]
    # (9, 8, 7, 3, 3) is closed by its counting bound; here the bound also cuts
    weighted.clear()
    code, out = run_cli(capsys, ["solve-weighted", "1,2,3,4,5,6,7", "--json"])
    payload = json.loads(out)
    assert (payload["memo_states"], payload["closed_by_bound"], payload["cut_at_bound"]) == (15, 6, 5)


def test_solve_graph_from_file(capsys, path6_file):
    code, out = run_cli(capsys, ["solve-graph", path6_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5 and payload["n"] == 6 and payload["m"] == 5
    assert payload["canonical"] == "path" and payload["table_entries"] > 0
    assert 0 < payload["bound_entries"] < payload["table_entries"]


def test_solve_graph_json_is_the_solve_result(capsys, path6_file):
    code, out = run_cli(capsys, ["solve-graph", path6_file, "--json"])
    assert code == 0
    assert set(json.loads(out)) == {f.name for f in dataclasses.fields(SolveResult)} | {"n", "m"}


def test_solve_graph_json_counts_upper_bound_closings(capsys, tmp_path):
    f = tmp_path / "p15.txt"
    f.write_text(path_graph(15).to_text())
    runs = []
    for _ in range(2):
        code, out = run_cli(capsys, ["solve-graph", str(f), "--json"])
        assert code == 0
        payload = json.loads(out)
        del payload["runtime_ms"]
        runs.append(payload)
    assert runs[0]["value"] == 12 and runs[0]["closed_by_upper"] > 0
    assert (runs[0]["exact_hits"], runs[0]["bound_hits"]) == (7220, 23893)
    assert runs[0] == runs[1]


def test_solve_graph_rejects_unsolvable(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("4 2\n0 1\n2 3\n")
    code, out = run_cli(capsys, ["solve-graph", str(f), "--json"])
    assert code == 2
    assert "error" in json.loads(out)


def test_solve_graph_rejects_malformed_text(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3 1\n0 x\n")
    code, out = run_cli(capsys, ["solve-graph", str(f), "--json"])
    assert code == 2
    assert "'x'" in json.loads(out)["error"]


def test_solve_graph_rejects_oversized_graph(capsys, tmp_path):
    f = tmp_path / "p130.txt"
    f.write_text(path_graph(130).to_text())
    code, out = run_cli(capsys, ["solve-graph", str(f)])
    assert code == 2
    assert out.startswith("error: ") and "n < 128" in out and len(out.splitlines()) == 1


def test_solve_weighted_rejects_bad_token(capsys):
    code, out = run_cli(capsys, ["solve-weighted", "1,x", "--json"])
    assert code == 2
    assert "'x'" in json.loads(out)["error"]


def test_certify_rejects_negative_weight(capsys):
    code, out = run_cli(capsys, ["certify", "3,-1"])
    assert code == 2
    assert out.startswith("error:") and "-1" in out


def test_nondet_cert_rejects_bad_coloring(capsys, tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(path_graph(5).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(f), "RRXRR", "--json"])
    assert code == 2
    assert "RRXRR" in json.loads(out)["error"]


def test_program_fault_keeps_its_traceback(monkeypatch, path6_file):
    # a fault in the program's own adversaries is not reported as bad input
    def fault(args):
        raise StrategyError("adversary fault")

    monkeypatch.setattr(cli, "_cmd_solve_graph", fault)
    with pytest.raises(StrategyError):
        main(["solve-graph", path6_file])


def test_certify_is_sound_and_deterministic(capsys):
    code1, out1 = run_cli(capsys, ["certify", "3,3,7,8,9", "--check"])
    code2, out2 = run_cli(capsys, ["certify", "3,3,7,8,9", "--check"])
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    lines = [json.loads(line) for line in out1.splitlines()]
    assert lines[-1]["sound"] is True
    assert any(rec.get("source") == "SULY1FORMA_I" for rec in lines[:-1])


def test_bounds_output(capsys):
    code, out = run_cli(capsys, ["bounds", "1,2,3,4,5,6,7", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced_colorings"] == 8


def test_generate_and_nondet_table(capsys, tmp_path):
    code, out = run_cli(capsys, ["generate", "path", "5"])
    assert code == 0
    assert out.splitlines()[0] == "5 4"
    mnd = []
    for n in (3, 5, 7):
        code, out = run_cli(capsys, ["generate", "path", str(n)])
        assert code == 0
        f = tmp_path / f"p{n}.txt"
        f.write_text(out)
        code, out = run_cli(capsys, ["nondet", "mnd", str(f)])
        assert code == 0
        mnd.append(out)
    assert mnd == ["m_nd = 1\n", "m_nd = 2\n", "m_nd = 4\n"]


def test_nondet_cert_on_path(capsys, tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(path_graph(5).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(f), "RRBRR", "--json"])
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_nondet_brute_force_on_a_star_and_a_tree(capsys, tmp_path):
    # trees go to the dynamic program, whose reports equal the brute force's
    star = tmp_path / "star5.txt"
    star.write_text(star_graph(5).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(star), "RBRBR", "--json"])
    assert code == 0
    assert json.loads(out) == {"coloring": "RBRBR", "query_set": [[0, 2], [0, 4]],
                               "outcome": "OUTCOME MAJORITY 0", "size": 2}
    star7 = tmp_path / "star7.txt"
    star7.write_text(star_graph(7).to_text())
    code, out = run_cli(capsys, ["nondet", "mnd", str(star7)])
    assert code == 0
    assert out == "m_nd = 4\n"


def test_nondet_cert_rejects_too_many_edges(capsys, tmp_path):
    # a tree goes to the dynamic program, so only a graph with a cycle meets the limit
    f = tmp_path / "star26_cycle.txt"
    f.write_text(Graph.from_edges(26, [*star_graph(26).sorted_edges, (1, 2)]).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(f), "R" * 26])
    assert code == 2
    assert out.startswith("error: ") and "24 edges" in out and len(out.splitlines()) == 1


def test_nondet_cert_on_a_large_star(capsys, tmp_path):
    # a 14-vertex part must outweigh the 12 singletons left beside it
    f = tmp_path / "star26.txt"
    f.write_text(star_graph(26).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(f), "R" * 26, "--json"])
    assert code == 0
    assert json.loads(out)["size"] == 13


def test_nondet_cert_rejects_an_empty_graph(capsys, tmp_path):
    f = tmp_path / "g0.txt"
    f.write_text("0 0\n")
    code, out = run_cli(capsys, ["nondet", "cert", str(f), ""])
    assert code == 2
    assert out.startswith("error: ") and "not determinable" in out and len(out.splitlines()) == 1


def test_nondet_mnd_rejects_too_many_vertices(capsys, tmp_path):
    f = tmp_path / "t18.txt"
    f.write_text(random_tree(18, 1).to_text())
    code, out = run_cli(capsys, ["nondet", "mnd", str(f), "--json"])
    assert code == 2
    assert "n <= 16" in json.loads(out)["error"]


@pytest.mark.parametrize("graph, args, message", [
    (star_graph(5), ["oddpath"], "expects the path 0-1-...-(n-1)"),
    (path_graph(6), ["lefogo2"], "even trees are handled by the plain weight discipline"),
    (path_graph(7), ["lefogo1", "--cover", "0,1,2,3"], "cover too large"),
    (path_graph(7), ["eventrees"], "the construction needs an even number of vertices"),
    (path_graph(7), ["lefogo2", "--p", "0"], "p must be positive"),
    (path_graph(7), ["oddpath", "--vs", "random:x"], "the seed is not an integer"),
    (path_graph(7), ["oddpath", "--vs", "bogus"], "unknown querier 'bogus'"),
])
def test_adversary_rejects_bad_input(capsys, tmp_path, graph, args, message):
    f = tmp_path / "g.txt"
    f.write_text(graph.to_text())
    code, out = run_cli(capsys, ["adversary", args[0], str(f), *args[1:]])
    assert code == 2
    assert out.startswith("error: ") and message in out and out.count("\n") == 1


def test_construct_verify(capsys):
    code, out = run_cli(capsys, ["verify", "minedge", "--n", "8", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["max_queries"] == 7


def test_construct_minedge_prints_the_strategy(capsys):
    code, out = run_cli(capsys, ["construct", "minedge", "8"])
    assert code == 0
    *moves, outcome, trailer = out.splitlines()
    assert 0 < len(moves) <= 7 and all(line.startswith("QUERY ") for line in moves)
    assert outcome.startswith("OUTCOME ")
    assert trailer == f"# {len(moves)} queries vs exact-minimax answers; budget n-b(n) = 7"


def test_generate_minedge_rejects_n_below_two(capsys):
    code, out = run_cli(capsys, ["generate", "minedge", "1"])
    assert code == 2
    assert out == "error: n must be at least 2\n"


@pytest.mark.parametrize("kind, n", [("path", -3), ("star", -1), ("complete", -1), ("random-tree", -2),
                                     ("random-graph", -1), ("free-trees", -1), ("free-trees", 0)])
def test_generate_rejects_too_few_vertices(capsys, kind, n):
    code, out = run_cli(capsys, ["generate", kind, str(n)])
    assert code == 2
    expected = f"free trees need n >= 1, got {n}" if kind == "free-trees" else f"n must be non-negative, got {n}"
    assert out == f"error: {expected}\n"


def test_construct_minedge_rejects_n_below_two(capsys):
    code, out = run_cli(capsys, ["construct", "minedge", "1"])
    assert code == 2
    assert out == "error: n must be at least 2\n"


def test_verify_minedge_rejects_n_below_two(capsys):
    code, out = run_cli(capsys, ["verify", "minedge", "--n", "1", "--json"])
    assert code == 2
    assert json.loads(out) == {"error": "n must be at least 2"}


@pytest.mark.parametrize("argv, message", [
    (["minedge", "/nonexistent.txt", "--n", "6"], "verify minedge builds its own graph"),
    (["minedge", "-"], "verify minedge builds its own graph"),
    (["spanning", "-", "--n", "99"], "verify spanning reads the graph file"),
])
def test_verify_rejects_arguments_its_strategy_does_not_read(capsys, argv, message):
    code, out = run_cli(capsys, ["verify", *argv])
    assert code == 2
    assert out.startswith("error: ") and message in out and out.count("\n") == 1


def test_verify_plain_forms(capsys, monkeypatch, path6_file):
    code, out = run_cli(capsys, ["verify", "minedge"])
    assert (code, out) == (0, "verify minedge within 7: pass (max 7, 30 leaves)\n")
    assert run_cli(capsys, ["verify", "minedge", "--n", "8"]) == (code, out)
    code, out = run_cli(capsys, ["verify", "spanning", path6_file, "--json"])
    assert code == 0 and json.loads(out)["pass"] is True
    monkeypatch.setattr("sys.stdin", io.StringIO(path_graph(6).to_text()))
    code, out = run_cli(capsys, ["verify", "spanning", "--budget", "5"])
    assert code == 0 and out.startswith("verify spanning within 5: pass")


def test_construct_graph_emission(capsys):
    code, out = run_cli(capsys, ["generate", "minedge", "6"])
    assert code == 0
    assert out == build_minedge_graph(6).graph.to_text()


def test_adversary_playback(capsys, path6_file):
    code, out = run_cli(capsys, ["adversary", "treelemma", path6_file, "--vs", "spanning", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["queries"] == 5 and payload["violations"] == []


def test_forced_subcommand(capsys, path6_file):
    # the quotient memo is shared by the process: empty it so both runs start cold
    payloads = []
    for _ in range(2):
        clear_quotient_cache()
        code, out = run_cli(capsys, ["forced", "treelemma", path6_file, "--json"])
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1]
    assert payloads[0]["forced_queries"] == 5 and payloads[0]["quotient_states"] == 14


@pytest.mark.parametrize("kind", list(generators.KINDS))
def test_generate_kinds_are_the_table(capsys, kind):
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    [kind_arg] = [a for a in sub.choices["generate"]._actions if a.dest == "kind"]
    assert kind_arg.choices == list(generators.KINDS)
    code, out = run_cli(capsys, ["generate", kind, "6"])
    assert code == 0
    graphs = [Graph.from_text(text) for text in out.split("\n\n")]
    assert graphs and all(g.n == 6 for g in graphs)


def test_generate_free_trees_stream(capsys):
    code, out = run_cli(capsys, ["generate", "free-trees", "5"])
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3


def test_generate_free_trees_order_is_pinned(capsys):
    """The digest pins both the 551 trees on 12 vertices and their order:
    each class's first level sequence, in the successor walk's order."""
    code, out = run_cli(capsys, ["generate", "free-trees", "12"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "a5f575d6c49f9f1b91e6177d01966e61b0483e261ee7829cb0b3db59d039bbf8"


def test_play_repl(capsys, monkeypatch, tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text(path_graph(2).to_text())
    monkeypatch.setattr("sys.stdin", io.StringIO("0 5\n0 1\n"))
    code, out = run_cli(capsys, ["play", str(f)])
    assert code == 0
    assert "rejected: edge (0, 5) is not in the graph" in out
    assert "QUERY 0 1" in out and "OUTCOME" in out


def test_play_rejects_the_stdin_graph(capsys):
    # play reads its queries on stdin, so the graph cannot come from there
    code, out = run_cli(capsys, ["play", "-"])
    assert code == 2
    assert out.startswith("error: ") and "stdin" in out and len(out.splitlines()) == 1


@pytest.mark.parametrize("cap,code", [("-1", 2), ("0", 0)])
def test_solve_graph_table_cap_must_be_non_negative(capsys, path6_file, cap, code):
    got, out = run_cli(capsys, ["solve-graph", path6_file, "--table-cap", cap, "--json"])
    assert got == code
    assert ("error" in json.loads(out)) == (code == 2)


@pytest.mark.parametrize("p", ["1.5", "-0.5"])
def test_generate_rejects_edge_probability_outside_unit_interval(capsys, p):
    code, out = run_cli(capsys, ["generate", "random-graph", "4", "--p", p])
    assert code == 2
    assert out.startswith("error: ") and len(out.splitlines()) == 1


def test_stdin_graph(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(path_graph(7).to_text()))
    code, out = run_cli(capsys, ["solve-graph", "-", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_run_suite_constructions(capsys):
    code, out = run_cli(capsys, ["run-suite", "constructions", "--json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["ok"] for r in records)
    assert all(r["suite"] == "constructions" for r in records)
    assert all("repro" in r for r in records)
    assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in records)
    # the human-readable report carries no time
    code, out = run_cli(capsys, ["run-suite", "constructions"])
    assert code == 0
    assert out.splitlines() == [
        "suite constructions (seed 0)",
        *(f" [PASS] {r['name']}: {r['detail']}  (repro: {r['repro']})" for r in records),
        f"{len(records)}/{len(records)} checks passed",
    ]
