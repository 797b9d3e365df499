"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload trees --seed 0 --trace 0

Set-up (imports and input generation) runs first; the timed phase then
passes every instance through its calls, one at a time, and checks it.
Between instances, at least every REF_EVERY_S of timed work, it times
the fixed reference computation `reference()`; those times measure the
host's speed while the pass runs and are not part of any instance's time.
Prints one JSON line: the monotonic clock reading at the first timed
call, wall time, per-instance times, reference times, failures with their
inputs, exact counters, this process's peak resident memory and, when
traced, the spans.  With --setup-only it stops before the first timed call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from majority_game import weighted  # noqa: E402

REF_EVERY_S = 0.02


def reference() -> int:
    """A fixed pure-Python computation of 2 to 3 ms, made of the operations
    the workbench spends its time on: tuple keys, dict lookups and stores,
    small sorts, integer arithmetic and calls.  Its median time in a pass
    measures the host's speed during the pass (see run.host_scale)."""
    memo: dict = {}
    total = 0
    for i in range(3500):
        key = tuple(sorted((i % 11, (i * 7) % 13, (i * 31) % 5)))
        seen = memo.get(key)
        if seen is None:
            memo[key] = seen = sum(key) & 3
        total += seen + len(memo)
    return total


def run_pass(instances, tracer) -> dict:
    """Run the timed phase over `instances`; every failure is counted, none stops it."""
    counts = dict.fromkeys(workloads.COUNTS, 0)
    times, failures, refs = [], [], []
    start = time.perf_counter()
    last_ref = float("-inf")
    for iid, inst in enumerate(instances):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            r0 = time.perf_counter()
            reference()
            last_ref = time.perf_counter()
            refs.append(last_ref - r0)
        t0 = time.perf_counter()
        try:
            with tracer.instance(iid):
                inst.run(tracer.call, counts)
        except Exception as exc:  # noqa: BLE001 - a wrong value or a crash is a finding
            failures.append({"instance": iid, "input": inst.label, "error": f"{type(exc).__name__}: {exc}"})
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return {"wall_s": wall - sum(refs), "instance_s": times, "ref_s": refs, "attempted": len(instances),
            "failed": len(failures), "failures": failures, "counts": counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    instances = workloads.WORKLOADS[args.workload](args.seed, tracer.call)
    if weighted._memo:
        raise SystemExit(f"weighted memo holds {len(weighted._memo)} states before the first timed call")
    first_call = time.monotonic()
    record = {"first_call_monotonic": first_call}
    if not args.setup_only:
        record.update(run_pass(instances, tracer))
        record["counts"]["weighted.memo_size"] = len(weighted._memo)
        record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
