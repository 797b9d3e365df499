"""Exact-value benchmark of the majority-game workbench.

    python3 perfbench/run.py --workload trees --seed 0 --seconds 30 --trace 0

Workloads: paths, trees, weights, certificates (see workloads.py).  A
run repeats cold passes of the workload, each in a fresh interpreter
(worker.py) and one after another, while the next pass should end within
--seconds of the start; the first pass always runs.  Set-up is timed in
every pass, and in runs of set-up alone up to nine samples.  Every
instance is checked against its exact value or an oracle, and every
failure is printed with its input.

Times are reported at reference speed.  The host's speed drifts by tens
of percent over minutes, so every pass also times a fixed computation,
worker.reference(), between its instances, and each time measured in a
pass is multiplied by host_scale(pass) = (REF_S / median reference time
of the pass) ** SENSITIVITY; set-up times, which are taken in other
processes, by the median of the run's scales.  On a loaded host the
workloads slow by less than the reference does: the tight reference loop
shares more with a busy neighbour than the workbench's dict- and
allocation-heavy code.  On a 2-vCPU Intel Xeon virtual machine, fitting
log pass time against log median reference time over about 800 passes
gave slopes of 0.59 to 0.67 on the four workloads; with the exponent at
0.6, the spread of wall_s between runs of 30 s fell from 5-27% of its
median to 2-10%.  A change to the workbench moves these times as much as
it moves the raw ones.  The raw times are printed to standard error and
recorded beside them.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics: wall_s is the median over passes of the timed
phase, instance_p50_ms the median over instances of each instance's
median time over passes, setup_s and peak_rss_mb medians over samples.
With --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics, from the traced passes' spans (at reference speed,
median over passes) and exact counters, and the tracing overhead.
Every metric, the 90th percentile per instance and the failed fraction
are also printed to standard error by name with their units.  A record
of the run (commit, Python, nproc, seed, passes, metrics) is written to
perfbench/results/, with the spans of a traced run beside it.

The exit code is nonzero when an instance fails, when the exact counters
differ between passes or from an earlier record of the same code and seed,
or when a pass cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from spans import layer_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "majority_game"
RESULTS = HERE / "results"
WORKLOADS = ("paths", "trees", "weights", "certificates")
SEEDED = ("trees", "weights", "certificates")
SETUPS_PER_RUN = 9
PASS_TIMEOUT_S = 150
# The median time of worker.reference() that defines reference speed: about
# its median on an idle 2-vCPU Intel Xeon virtual machine with Python 3.11.
REF_S = 0.002
# How strongly the workloads' times follow the reference's (see above).
SENSITIVITY = 0.6

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Printed and recorded but not gated: the tail percentile is missing on
# workloads with few instances, and the failed fraction is 0 on a good run
# (its count is the result line's "failed").
PRINTED_ONLY = {"instance_p90_ms": "ms", "failed_frac": "fraction"}

# Per-layer metric -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "graphsolver.busy_s": ("s", "wall_s on paths (nearly all of it) and trees; near 0 on weights"),
    "graphsolver.self_s": ("s", "wall_s on paths and trees"),
    "graphsolver.nodes": ("count", "wall_s and peak_rss_mb on paths and trees"),
    "graphsolver.table_entries": ("count", "wall_s and peak_rss_mb on paths and trees"),
    "graphsolver.nodes_per_s": ("1/s", "wall_s on paths and trees"),
    "weighted.busy_s": ("s", "wall_s on weights"),
    "weighted.self_s": ("s", "wall_s on weights"),
    "weighted.memo_size": ("count", "wall_s and peak_rss_mb on weights; hundreds on paths"),
    "weighted.states_per_s": ("1/s", "wall_s on weights"),
    "bounds.certify_busy_s": ("s", "wall_s and the per-instance tail on weights"),
    "bounds.dectree_busy_s": ("s", "wall_s and the per-instance tail on weights"),
    "bounds.self_s": ("s", "wall_s on weights"),
    "bounds.certificates": ("count", "exact; a faster certify keeps it"),
    "bounds.tight_frac": ("fraction", "a faster certify must not lower it (weights)"),
    "adversary.forced_busy_s": ("s", "wall_s on trees"),
    "adversary.allorders_busy_s": ("s", "wall_s on trees"),
    "adversary.self_s": ("s", "wall_s on trees"),
    "constructions.verify_busy_s": ("s", "wall_s on certificates"),
    "constructions.self_s": ("s", "wall_s on certificates"),
    "constructions.leaves_checked": ("count", "exact; wall_s on certificates"),
    "constructions.leaves_per_s": ("1/s", "wall_s on certificates"),
    "nondet.cert_busy_s": ("s", "wall_s on certificates"),
    "nondet.path_cert_busy_s": ("s", "wall_s on certificates"),
    "nondet.query_set_busy_s": ("s", "wall_s on certificates"),
    "nondet.self_s": ("s", "wall_s on certificates"),
    "generators.busy_s": ("s", "setup_s on trees"),
    "generators.self_s": ("s", "setup_s on trees"),
    "harness.self_s": ("s", "the benchmark's own checks inside wall_s"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s"),
    "trace.overhead_frac": ("fraction", "trace.overhead_s over untraced wall_s"),
}

# Counters that must repeat exactly for one code version and seed.
EXACT = (
    "graphsolver.nodes",
    "graphsolver.table_entries",
    "weighted.memo_size",
    "bounds.certificates",
    "constructions.leaves_checked",
)


class RunError(Exception):
    """A pass could not run or printed no record."""


def tail_percentile(samples, q: float = 0.9, beyond: int = 10):
    """Nearest-rank q-th percentile, or None unless at least `beyond`
    samples lie above its rank."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < beyond:
        return None
    return xs[rank - 1]


def failed_frac(passes: list[dict]) -> float:
    """Instances that gave a wrong value, failed their oracle or raised, over those attempted."""
    return sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes)


def _commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn(workload: str, seed: int, trace: int, setup_only: bool = False) -> tuple[float, dict]:
    """One pass in a fresh interpreter; returns its set-up time and record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "MAJORITY_GAME_THREADS"}
    started = time.monotonic()
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"pass exceeded {PASS_TIMEOUT_S} s: {' '.join(cmd)}") from exc
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RunError(f"pass exited with {out.returncode}: {' '.join(cmd)}\n{out.stderr.strip()}")
    record = json.loads(lines[-1])
    return record["first_call_monotonic"] - started, record


def host_scale(p: dict) -> float:
    """Factor that turns the times measured in pass `p` into seconds at reference speed."""
    return (REF_S / statistics.median(p["ref_s"])) ** SENSITIVITY


def instance_times(passes: list[dict]) -> list[float]:
    """Each instance's median time over the passes, at reference speed."""
    scaled = [[t * host_scale(p) for t in p["instance_s"]] for p in passes]
    return [statistics.median(ts) for ts in zip(*scaled)]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    per_instance = instance_times(passes)
    wall = statistics.median(p["wall_s"] * host_scale(p) for p in passes)
    p90 = tail_percentile(per_instance)
    return {
        "setup_s": statistics.median(setups) * statistics.median(host_scale(p) for p in passes),
        "wall_s": wall,
        "instances_per_s": len(per_instance) / wall,
        "instance_p50_ms": statistics.median(per_instance) * 1000.0,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        "instance_p90_ms": None if p90 is None else p90 * 1000.0,
    }


def raw_times(passes: list[dict], setups: list[float]) -> dict:
    """The set-up, pass and reference medians, in seconds as measured."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "reference_s": statistics.median(r for p in passes for r in p["ref_s"]),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    times = [{k: v * host_scale(p) for k, v in layer_times(p["spans"]).items()} for p in traced]
    m = {name: statistics.median(t[name] for t in times) for name in times[0]}
    counts = traced[0]["counts"]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    plain = statistics.median(p["wall_s"] * host_scale(p) for p in untraced)
    overhead = statistics.median(p["wall_s"] * host_scale(p) for p in traced) - plain
    out = {name: m[name] for name in PER_LAYER if name in m}
    out.update({
        "graphsolver.nodes": counts["graphsolver.nodes"],
        "graphsolver.table_entries": counts["graphsolver.table_entries"],
        "graphsolver.nodes_per_s": rate(counts["graphsolver.nodes"], m["graphsolver.busy_s"]),
        "weighted.memo_size": counts["weighted.memo_size"],
        "weighted.states_per_s": rate(counts["weighted.memo_size"], m["weighted.busy_s"]),
        "bounds.certificates": counts["bounds.certificates"],
        "bounds.tight_frac": rate(counts["bounds.tight"], counts["bounds.vectors"]),
        "constructions.leaves_checked": counts["constructions.leaves_checked"],
        "constructions.leaves_per_s": rate(counts["constructions.leaves_checked"], m["constructions.verify_busy_s"]),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / plain,
    })
    return {name: out[name] for name in PER_LAYER}


def counter_mismatches(passes: list[dict], earlier: list[dict]) -> list[str]:
    """Exact counters that differ between this run's passes or from earlier records."""
    first = {k: passes[0]["counts"][k] for k in EXACT}
    bad = [f"pass {i}: {k} = {p['counts'][k]}, pass 0: {first[k]}"
           for i, p in enumerate(passes) for k in EXACT if p["counts"][k] != first[k]]
    for rec in earlier:
        bad += [f"{rec['file']}: {k} = {rec['exact'][k]}, this run: {first[k]}"
                for k in EXACT if rec["exact"][k] != first[k]]
    return bad


def earlier_records(digest: str, workload: str, seed: int) -> list[dict]:
    out = []
    for path in sorted(RESULTS.glob("*.result.json")):
        rec = json.loads(path.read_text())
        if (rec["code_digest"], rec["workload"], rec["seed"]) == (digest, workload, seed):
            out.append({"file": path.name, "exact": rec["exact"]})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="start no pass expected to end later than this")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the workbench source {PACKAGE.relative_to(ROOT)} is missing", file=sys.stderr)
        return 2
    if args.workload not in SEEDED:
        print(f"note: {args.workload} ignores the seed", file=sys.stderr)

    untraced, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    try:
        # Start another pass only while it should end within --seconds.
        while not untraced or next_end <= deadline:
            begun = time.monotonic()
            setup, rec = spawn(args.workload, args.seed, 0)
            untraced.append(rec)
            setups.append(setup)
            if args.trace:
                traced.append(spawn(args.workload, args.seed, 1)[1])
            now = time.monotonic()
            next_end = now + (now - begun)
        while not args.trace and len(setups) < SETUPS_PER_RUN:
            setups.append(spawn(args.workload, args.seed, 0, setup_only=True)[0])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED instance {f['instance']} ({f['input']}): {f['error']}", file=sys.stderr)
    digest = _code_digest()
    RESULTS.mkdir(exist_ok=True)
    mismatches = counter_mismatches(passes, earlier_records(digest, args.workload, args.seed))
    for line in mismatches:
        print(f"INVALID exact counter: {line}", file=sys.stderr)

    e2e = end_to_end(untraced, setups)
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = END_TO_END
    shown = {**metrics, "failed_frac": failed_frac(passes)}
    if not args.trace:
        shown["instance_p90_ms"] = e2e["instance_p90_ms"]
    for name, value in shown.items():
        text = "n/a (fewer than 10 instances beyond it)" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {text} {units.get(name) or PRINTED_ONLY[name]}", file=sys.stderr)
    raw = raw_times(untraced, setups)
    for name, value in raw.items():
        print(f"{args.workload} raw.{name} = {value:.6g} s (as measured)", file=sys.stderr)

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload, "seed": args.seed, "seed_used": args.workload in SEEDED,
        "trace": args.trace, "seconds": args.seconds, "commit": _commit(), "code_digest": digest,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted, "failed": failed, "metrics": shown, "end_to_end": e2e, "raw": raw,
        "reference": {"ref_s": REF_S, "sensitivity": SENSITIVITY},
        "exact": {k: passes[0]["counts"][k] for k in EXACT}, "counter_mismatches": mismatches,
        "setups_s": setups, "layer_map": {k: v for k, (_, v) in PER_LAYER.items()},
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "instance_s")} | {"traced": i >= len(untraced)}
                   for i, p in enumerate(passes)],
    }
    (RESULTS / f"{name}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (RESULTS / f"{name}.spans.json").write_text(json.dumps([p["spans"] for p in traced]) + "\n")

    correct = failed == 0 and not mismatches
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
