"""Command-line front end.

Graphs are read from files in the text format "n m" followed by m lines
"u v" (0-indexed); "-" reads from stdin.  Colorings are strings over
{R, B}.  Every subcommand that reports a result takes --json for
machine-readable output; seeds default to 0 and are printed.

The front end restates none of the library's facts: ``solve-graph
--json`` is ``n`` and ``m`` beside the fields of ``graphsolver.SolveResult``,
the suites and their criteria are ``suites.SUITES``, the instance kinds are
``generators.KINDS``, and every ``QUERY u v -> ANSWER`` line is
``core.query_line``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import adversary as adv
from . import bounds, constructions, generators, nondet, suites, weighted
from .bounds import popcount
from .core import Graph, InputError, UnsolvableGraphError, component_weights, query_line
from .graphsolver import Game, forced_queries, play, quotient_cache_info, solve_graph


def _load_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return Graph.from_text(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    out = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            out.append(int(token))
        except ValueError:
            raise InputError(f"{token!r} in {text!r} is not an integer") from None
    return tuple(out)


def _emit(payload, as_json: bool, human: str | None = None) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human if human is not None else payload)


def _cmd_solve_weighted(args) -> int:
    w = _parse_vector(args.vector)
    value = weighted.solve_weighted(w)
    q = weighted.optimal_query(w)
    info = weighted.cache_info()
    payload = {
        "k": len(w),
        "total": sum(w),
        "value": value,
        "first_query": q,
        "memo_states": info["size"],
        "closed_by_bound": info["bound_closed"],
        "cut_at_bound": info["bound_cut"],
    }
    _emit(payload, args.json, f"m{tuple(w)} = {value}  (an optimal first query: {q})")
    return 0


def _cmd_solve_graph(args) -> int:
    graph = _load_graph(args.graph)
    res = solve_graph(graph, canonical=args.canonical, table_cap=args.table_cap)
    payload = {"n": graph.n, "m": len(graph.edges), **dataclasses.asdict(res),
               "runtime_ms": round(res.runtime_ms, 3)}
    _emit(payload, args.json, f"m(G) = {res.value}  [n={graph.n}, m={len(graph.edges)}, "
          f"{res.nodes_expanded} nodes, {res.runtime_ms:.1f} ms, {res.canonical} keys]")
    return 0


def _cmd_bounds(args) -> int:
    w = _parse_vector(args.vector)
    p = bounds.count_balanced(w)
    mu_p = bounds.two_adic_valuation(p)
    cert = bounds.dectree_bound(w)
    payload = {
        "k": len(w),
        "total": sum(w),
        "popcount_total": popcount(sum(w)),
        "balanced_colorings": p,
        "mu_p": "infinite" if mu_p is bounds.MU_INFINITE else mu_p,
        "counting_bound": cert.to_json(),
        "upper_bound": bounds.hardness_upper_bound(w),
    }
    _emit(payload, args.json,
          f"p = {p}, mu(p) = {payload['mu_p']}, counting bound {cert.bound} "
          f"({cert.source.value}), trivial upper bound {payload['upper_bound']}")
    return 0


def _cmd_certify(args) -> int:
    w = _parse_vector(args.vector)
    certs = [bounds.dectree_bound(w)] + bounds.certify_lower_bound(w)
    for c in certs:
        print(json.dumps(c.to_json(), sort_keys=True))
    if args.check:
        m = weighted.solve_weighted(w)
        bad = [c.to_json() for c in certs if c.bound > m]
        print(json.dumps({"exact": m, "sound": not bad, "violations": bad}, sort_keys=True))
        return 0 if not bad else 1
    return 0


_ADVERSARIES = {
    "treelemma": lambda graph, args: adv.TreelemmaAdversary(graph),
    "eventrees": lambda graph, args: adv.ColoringAdversary(adv.eventrees_coloring(graph)),
    "lefogo1": lambda graph, args: adv.Lefogo1Adversary(graph, frozenset(_parse_vector(args.cover))),
    "oddpath": lambda graph, args: adv.OddpathAdversary(graph, stride=args.stride),
    "lefogo2": lambda graph, args: adv.Lefogo2Adversary(graph, p=args.p),
    "exact": lambda graph, args: adv.ExactWeightedAdversary(),
    "same": lambda graph, args: adv.AlwaysSameAdversary(),
}


def _add_adversary_args(p, *name_flags, **name_kw) -> None:
    """The adversary choice plus the options its factories read."""
    p.add_argument(*name_flags, choices=list(_ADVERSARIES), **name_kw)
    p.add_argument("--stride", type=int, choices=[8, 9], default=9)
    p.add_argument("--p", type=int, default=32)
    p.add_argument("--cover", default="0", help="cover vertices for lefogo1, e.g. 0,3")


def _make_querier(kind: str, graph: Graph):
    if kind == "optimal":
        from .graphsolver import optimal_querier

        return optimal_querier(graph)
    if kind == "spanning":
        return adv.spanning_querier(graph)
    if kind.startswith("random:"):
        try:
            seed = int(kind.removeprefix("random:"))
        except ValueError:
            raise InputError(f"querier {kind!r}: the seed is not an integer") from None
        return adv.random_querier(seed)
    raise InputError(f"unknown querier {kind!r} (optimal|spanning|random:<seed>)")


def _cmd_adversary(args) -> int:
    graph = _load_graph(args.graph)
    strategy = _ADVERSARIES[args.name](graph, args)
    querier = _make_querier(args.vs, graph)
    if hasattr(strategy, "discipline_active"):
        report = adv.covering_playback(graph, strategy, querier)
        if not args.json:
            print(report.transcript.to_text(), end="")
        transcript_len, violations = report.transcript_length, report.violations
        extra = {"switch_total": getattr(strategy, "switch_total", None),
                 "switch_seen_at": report.switch_seen_at}
    else:
        transcript = play(graph, querier, strategy)
        if not args.json:
            print(transcript.to_text(), end="")
        transcript_len, violations, extra = len(transcript), [], {}
    payload = {"adversary": args.name, "vs": args.vs, "queries": transcript_len,
               "violations": violations, **extra}
    _emit(payload, args.json,
          f"{args.name} vs {args.vs}: {transcript_len} queries, "
          f"{len(violations)} invariant violations {violations[:3]}")
    return 0 if not violations else 1


def _cmd_forced(args) -> int:
    graph = _load_graph(args.graph)
    strategy = _ADVERSARIES[args.name](graph, args)
    value = forced_queries(graph, strategy)
    payload = {"adversary": args.name, "forced_queries": value,
               "quotient_states": quotient_cache_info()["states"]}
    _emit(payload, args.json, f"forced queries vs {args.name}: {value}")
    return 0


def _cmd_construct(args) -> int:
    built = constructions.build_minedge_graph(args.n)
    transcript = play(built.graph, constructions.minedge_querier(args.n), adv.ExactWeightedAdversary())
    print(transcript.to_text(), end="")
    print(f"# {len(transcript)} queries vs exact-minimax answers; "
          f"budget n-b(n) = {args.n - popcount(args.n)}")
    return 0


def _cmd_verify(args) -> int:
    if args.strategy == "minedge":
        if args.graph is not None:
            raise InputError("verify minedge builds its own graph: give --n, not a graph file")
        n = 8 if args.n is None else args.n
        graph = constructions.build_minedge_graph(n).graph
        querier, default_budget = constructions.minedge_querier(n), n - popcount(n)
    else:
        if args.n is not None:
            raise InputError("verify spanning reads the graph file: --n is for minedge")
        graph = _load_graph("-" if args.graph is None else args.graph)
        querier, default_budget = adv.spanning_querier(graph), graph.n - 1
    budget = args.budget if args.budget is not None else default_budget
    report = constructions.verify_querier(graph, querier, budget)
    _emit(report.to_json(), args.json,
          f"verify {args.strategy} within {budget}: {'pass' if report.passed else 'FAIL'} "
          f"(max {report.max_queries}, {report.leaves_checked} leaves)")
    return 0 if report.passed else 1


def _cmd_nondet(args) -> int:
    graph = _load_graph(args.graph)
    if args.mode == "cert":
        report = nondet.min_cert(graph, args.coloring)
        _emit(report.to_json(), args.json,
              f"certificate size {report.size}: queries {sorted(report.query_set)}; {report.outcome}")
        return 0
    value = nondet.m_nd(graph)
    _emit({"n": graph.n, "m_nd": value}, args.json, f"m_nd = {value}")
    return 0


def _cmd_generate(args) -> int:
    result = generators.generate(args.kind, args.n, seed=args.seed, p=args.p)
    if isinstance(result, Graph):
        print(result.to_text(), end="")
    else:
        first = True
        for g in result:
            if not first:
                print()
            print(g.to_text(), end="")
            first = False
    return 0


def _cmd_play(args) -> int:
    if args.graph == "-":
        raise InputError("play reads its queries on stdin: give the graph as a file, not -")
    graph = _load_graph(args.graph)
    game = Game(graph, _ADVERSARIES[args.adversary](graph, args))
    print(f"# majority game on n={graph.n}, m={len(graph.edges)}; "
          f"adversary: {args.adversary}; enter 'u v' to query, 'quit' to stop")
    for line in sys.stdin:
        line = line.strip().lower()
        if line in ("quit", "exit", "q", ""):
            break
        try:
            u, v = (int(x) for x in line.split())
            game.ask(u, v)
        except Exception as exc:  # noqa: BLE001 - REPL surface
            print(f"rejected: {exc}")
            continue
        print(f"{query_line(*game.moves[-1])}   weights: {component_weights(game.state)}")
        outcome = game.outcome()
        if outcome is not None:
            print(outcome)
            return 0
    print("# game unfinished")
    return 0


def _cmd_run_suite(args) -> int:
    start = time.perf_counter()
    records = suites.run_suite(args.name, seed=args.seed)
    failed = [r for r in records if not r.ok]
    if args.json:
        for r in records:
            # a check's time runs from the previous record, or the start, to its
            # own; checks made from one shared computation carry it on the first
            print(json.dumps({"suite": args.name, "name": r.name, "ok": r.ok, "detail": r.detail,
                              "repro": r.repro, "seconds": r.done_at - start}, sort_keys=True))
            start = r.done_at
    else:
        print(f"suite {args.name} (seed {args.seed})")
        for r in records:
            print(" " + r.line())
        print(f"{len(records) - len(failed)}/{len(records)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="majority-game",
                                     description="exact majority-query game workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve-weighted", help="exact m(w) for a weight vector")
    p.add_argument("vector", help="comma-separated weights, e.g. 3,3,7,8,9")
    add_json(p)
    p.set_defaults(fn=_cmd_solve_weighted)

    p = sub.add_parser("solve-graph", help="exact m(G) for a graph file")
    p.add_argument("graph")
    p.add_argument("--canonical", choices=["auto", "path", "generic"], default="auto")
    p.add_argument("--table-cap", type=int, default=None)
    add_json(p)
    p.set_defaults(fn=_cmd_solve_graph)

    p = sub.add_parser("bounds", help="counting bounds for a weight vector")
    p.add_argument("vector")
    add_json(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("certify", help="lower-bound certificates as JSON records")
    p.add_argument("vector")
    p.add_argument("--check", action="store_true", help="also compare against the exact value")
    add_json(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("adversary", help="play an adversary strategy and report invariants")
    _add_adversary_args(p, "name")
    p.add_argument("graph")
    p.add_argument("--vs", default="random:0", help="optimal|spanning|random:<seed>")
    add_json(p)
    p.set_defaults(fn=_cmd_adversary)

    p = sub.add_parser("forced", help="min queries any querier needs vs a fixed adversary")
    _add_adversary_args(p, "name")
    p.add_argument("graph")
    add_json(p)
    p.set_defaults(fn=_cmd_forced)

    p = sub.add_parser("construct", help="the hub construction's querier vs exact-minimax answers")
    p.add_argument("what", choices=["minedge"])
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="exhaustively verify a querier within a budget")
    p.add_argument("strategy", choices=["minedge", "spanning"])
    p.add_argument("graph", nargs="?", default=None, help="graph file for spanning (default: stdin)")
    p.add_argument("--n", type=int, default=None, help="instance size for minedge (default: 8)")
    p.add_argument("--budget", type=int, default=None)
    add_json(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("nondet", help="verification complexity")
    nsub = p.add_subparsers(dest="mode", required=True)
    pc = nsub.add_parser("cert")
    pc.add_argument("graph")
    pc.add_argument("coloring")
    add_json(pc)
    pc.set_defaults(fn=_cmd_nondet)
    pm = nsub.add_parser("mnd")
    pm.add_argument("graph")
    add_json(pm)
    pm.set_defaults(fn=_cmd_nondet)

    p = sub.add_parser("generate", help="instance generators")
    p.add_argument("kind", choices=list(generators.KINDS))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5, help="edge probability")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("play", help="interactive transcript REPL vs an adversary")
    p.add_argument("graph")
    _add_adversary_args(p, "--adversary", default="exact")
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("run-suite", help="acceptance check suites")
    p.add_argument("name", choices=sorted(suites.SUITES))
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(fn=_cmd_run_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, UnsolvableGraphError) as exc:  # bad input, not a program fault
        _emit({"error": str(exc)}, getattr(args, "json", False), f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
