"""Command-line surface: formats, exit codes, determinism."""

import io
import json

import pytest

from majority_game.cli import main
from majority_game.generators import path_graph


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


def test_solve_graph_from_file(capsys, path6_file):
    code, out = run_cli(capsys, ["solve-graph", path6_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 5 and payload["n"] == 6 and payload["m"] == 5
    assert payload["canonical"] == "path" and payload["table_entries"] > 0


def test_solve_graph_rejects_unsolvable(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("4 2\n0 1\n2 3\n")
    code, out = run_cli(capsys, ["solve-graph", str(f), "--json"])
    assert code == 2
    assert "error" in json.loads(out)


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


def test_generate_and_nondet_table(capsys):
    code, out = run_cli(capsys, ["generate", "path", "5"])
    assert code == 0
    assert out.splitlines()[0] == "5 4"
    code, out = run_cli(capsys, ["nondet", "path-table", "--odd-n", "3..7"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["3", "5", "7"]
    assert [r[1] for r in rows] == ["1", "2", "4"]


def test_nondet_cert_on_path(capsys, tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(path_graph(5).to_text())
    code, out = run_cli(capsys, ["nondet", "cert", str(f), "RRBRR", "--json"])
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_construct_verify(capsys):
    code, out = run_cli(capsys, ["construct", "minedge", "8", "--emit", "verify", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["max_queries"] == 7


def test_construct_graph_emission(capsys):
    code, out = run_cli(capsys, ["construct", "minedge", "6"])
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[0] == "6"


def test_adversary_playback(capsys, path6_file):
    code, out = run_cli(capsys, ["adversary", "treelemma", path6_file, "--vs", "spanning", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["queries"] == 5 and payload["violations"] == []


def test_forced_subcommand(capsys, path6_file):
    code, out = run_cli(capsys, ["forced", "treelemma", path6_file, "--json"])
    assert code == 0
    assert json.loads(out)["forced_queries"] == 5


def test_generate_free_trees_stream(capsys):
    code, out = run_cli(capsys, ["generate", "free-trees", "5"])
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3


def test_play_repl(capsys, monkeypatch, tmp_path):
    f = tmp_path / "p2.txt"
    f.write_text(path_graph(2).to_text())
    monkeypatch.setattr("sys.stdin", io.StringIO("0 5\n0 1\n"))
    code, out = run_cli(capsys, ["play", str(f)])
    assert code == 0
    assert "rejected: edge (0, 5) is not in the graph" in out
    assert "QUERY 0 1" in out and "OUTCOME" in out


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
    assert all("repro" in r for r in records)
