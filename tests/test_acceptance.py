"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one PASS/FAIL line per criterion check; run with -s or
-rA to see them.  All asserted values are exact integers.
"""

import functools
import io
import re
import shlex
from pathlib import Path

from majority_game import cli, suites

ROOT = Path(__file__).resolve().parents[1]


def _commands(repro):
    """The argument lists of a repro's piped `majority-game` commands."""
    for command in repro.split(" | "):
        program, *argv = shlex.split(command)
        assert program == "majority-game", repro
        yield argv


def _run(records):
    for r in records:
        print(f"ACCEPTANCE {r.name}: {'PASS' if r.ok else 'FAIL'} - {r.detail}")
        for argv in _commands(r.repro):
            cli.build_parser().parse_args(argv)  # a repro that does not parse exits 2 here
    failing = [r for r in records if not r.ok]
    assert not failing, "; ".join(f"{r.name}: {r.detail}" for r in failing)


@functools.cache
def _criterion_9():
    return suites.criterion_9(seed=0)


def test_criterion_01_complete_graphs_and_all_ones():
    _run(suites.criterion_1())


def test_criterion_02_paths_including_p15():
    _run(suites.criterion_2())


def test_criterion_03_even_trees():
    _run(suites.criterion_3())


def test_criterion_04_weighted_paper_values():
    _run(suites.criterion_4())


def test_criterion_05_bound_soundness():
    _run(suites.criterion_5(seed=0))


def test_criterion_06_terminal_relevance_equivalence():
    _run(suites.criterion_6())


def test_criterion_07_adversary_strategies():
    _run(suites.criterion_7(seed=0))


def test_criterion_08_construction():
    _run(suites.criterion_8())


def test_criterion_09_nondeterministic_complexity():
    _run(_criterion_9())


def test_criterion_09_hard_coloring_repro_runs(capsys, monkeypatch):
    [record] = [r for r in _criterion_9() if r.name == "C9 hard coloring lower bound"]
    out = ""
    for argv in _commands(record.repro):
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
    assert out.startswith("certificate size 10: ")


def test_criterion_10_monotonicity():
    _run(suites.criterion_10(seed=0))


def test_readme_commands_parse():
    # every command of README's shell blocks parses, and every script it
    # runs exists; a trailing comment is no part of the command
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [re.sub(r"\s+#.*", "", line) for block in blocks for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("majority-game ")]
    scripts = [line.split()[1] for line in lines if line.startswith("python3 scripts/")]
    assert len(commands) >= 10 and scripts
    for line in commands:
        for argv in _commands(line):
            cli.build_parser().parse_args(argv)  # exits 2 on a command that does not parse
    for script in scripts:
        assert (ROOT / script).is_file(), script
