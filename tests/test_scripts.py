"""The scripts under scripts/ run and print what their docstrings promise."""

import importlib.util
import re
from pathlib import Path

import pytest

from majority_game.bounds import popcount
from majority_game.nondet import MAX_MND_N


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_odd_path_table_smoke(capsys):
    # the odd-path table is search_open_questions' --max-path-n section; the
    # other sections are switched off by bounds below their first n
    argv = ["--max-tree-n", "0", "--max-total", "0", "--max-path-n", "7", "--max-even-n", "0", "--max-mnd-n", "0",
            "--max-verify-n", "0"]
    assert load_script("search_open_questions").main(argv) == 0
    section = capsys.readouterr().out.split("odd paths (n <= 7):\n")[1]
    header, *rows = (line.strip() for line in section.splitlines()[:4])
    assert header.split("\t") == ["n", "m", "m_nd", "n-m_nd", "nodes", "seconds", "peak_rss_mb"]
    cells = [row.split("\t") for row in rows]
    assert [int(c[0]) for c in cells] == [3, 5, 7]
    assert [int(c[1]) for c in cells] == [n - popcount(n) for n in (3, 5, 7)]
    assert [(int(c[2]), int(c[3])) for c in cells] == [(1, 2), (2, 3), (4, 3)]
    # P3 and P5 close at the root, where the weighted bound n - b(n) meets
    # the strategy bound n - 2; P7's bound 4 is below 5
    assert [int(c[4]) for c in cells[:2]] == [0, 0] and int(cells[2][4]) > 0
    assert all(float(c[5]) >= 0 and float(c[6]) > 0 for c in cells)


def test_search_open_questions_smoke(capsys):
    argv = ["--max-tree-n", "7", "--max-total", "6", "--max-path-n", "7", "--max-even-n", "8", "--max-mnd-n", "7",
            "--max-verify-n", "8"]
    assert load_script("search_open_questions").main(argv) == 0
    out = capsys.readouterr().out
    assert "odd paths (n <= 7):\n" in out
    section = out.split("hub construction answer trees (n <= 8):\n")[1]
    rows, stats = zip(*(line.split(" (") for line in section.splitlines()[:5]))
    assert all(re.fullmatch(r"\d+\.\ds, peak RSS [1-9]\d* MB\)", s) for s in stats), stats
    assert list(rows) == [f"  n={n}: pass, {leaves} leaves, max {n - popcount(n)} queries vs n - b(n) = {n - popcount(n)}"
                          for n, leaves in [(4, 5), (5, 5), (6, 11), (7, 11), (8, 30)]]
    section = out.split("m_nd over odd free trees (n <= 7):\n")[1]
    rows = [line.split(" (")[0] for line in section.splitlines()[:3]]
    assert rows == ["  n=3: 1 with m_nd = 1",
                    "  n=5: 2 with m_nd = 2, 1 with m_nd = 3",
                    "  n=7: 11 with m_nd = 4"]
    section = out.split("odd-tree floor search (n <= 7):\n")[1]
    rows, stats = zip(*(line.split(" (") for line in section.splitlines()[:3]))
    assert all(re.fullmatch(r"\d+\.\ds\)", s) for s in stats), stats
    assert list(rows) == ["  n=3: 1 trees, 1 with n - m = 2",
                          "  n=5: 3 trees, 3 with n - m = 2",
                          "  n=7: 11 trees, 7 with n - m = 2, 4 with n - m = 3"]
    section = out.split("even trees against the weight-discipline adversary (n <= 8):\n")[1]
    rows, stats = zip(*(line.split(" (") for line in section.splitlines()[:4]))
    assert list(rows) == [f"  n={n}: {count} trees, none below n - 1, all orders hold"
                          for n, count in [(2, 1), (4, 2), (6, 6), (8, 23)]]
    pattern = r"\d+\.\ds, memo [1-9]\d* states; \d+\.\ds, visited (\d+) states\)"
    visited = [int(re.fullmatch(pattern, s).group(1)) for s in stats]
    assert visited == sorted(visited) and visited[-1] > 0  # one set, shared across n


def test_search_open_questions_rejects_mnd_bound_above_the_limit(capsys):
    # the bound is refused before any section runs, not after m_nd's last n
    argv = ["--max-tree-n", "0", "--max-total", "0", "--max-path-n", "0", "--max-even-n", "0",
            "--max-mnd-n", str(MAX_MND_N + 1), "--max-verify-n", "0"]
    with pytest.raises(SystemExit) as exc:
        load_script("search_open_questions").main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"limited to {MAX_MND_N}" in captured.err
