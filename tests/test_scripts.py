"""The scripts under scripts/ run and print what their docstrings promise."""

import importlib.util
from pathlib import Path

from majority_game.bounds import popcount


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_odd_path_table_smoke(capsys):
    assert load_script("odd_path_table").main(["7"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == ["n", "m", "m_nd", "n-m_nd", "nodes", "seconds", "peak_rss_mb"]
    cells = [row.split("\t") for row in rows]
    assert [int(c[0]) for c in cells] == [3, 5, 7]
    assert [int(c[1]) for c in cells] == [n - popcount(n) for n in (3, 5, 7)]
    assert all(int(c[4]) > 0 and float(c[5]) >= 0 and float(c[6]) > 0 for c in cells)
