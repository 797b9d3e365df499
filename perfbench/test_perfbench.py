"""Tests of the benchmark itself: python3 -m pytest perfbench

The last test runs the benchmark on the weights workload, about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker
from majority_game.generators import path_graph

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile(range(99)) is None
    assert run.tail_percentile(range(100)) == 89
    assert run.tail_percentile(range(1, 201)) == 180
    assert run.tail_percentile([]) is None


def test_wrong_expected_value_counts_as_failed():
    good = workloads.solve_instance(path_graph(3), "path", 1, "P3 right")
    wrong = workloads.solve_instance(path_graph(3), "path", 2, "P3 injected wrong value")
    rec = worker.run_pass([good, wrong], spans.NullTracer())
    assert (rec["attempted"], rec["failed"]) == (2, 1)
    assert rec["failures"][0]["input"] == "P3 injected wrong value"
    assert "Mismatch" in rec["failures"][0]["error"]
    assert run.failed_frac([rec]) == 0.5


def test_exception_counts_as_failed():
    rec = worker.run_pass([workloads.path_cert_instance(path_graph(3), "RRX")], spans.NullTracer())
    assert rec["failed"] == 1


def test_times_are_at_reference_speed():
    def fake_pass(slowdown):
        return {"wall_s": 0.5 * slowdown, "instance_s": [0.1 * slowdown, 0.4 * slowdown],
                "ref_s": [run.REF_S * slowdown ** (1 / run.SENSITIVITY)] * 3, "peak_rss_kb": 1024}

    same = run.end_to_end([fake_pass(1.0)], [0.2])
    slow = run.end_to_end([fake_pass(1.7)], [0.2 * 1.7])
    for name in ("setup_s", "wall_s", "instance_p50_ms"):
        assert slow[name] == pytest.approx(same[name])
    assert same["wall_s"] == 0.5 and same["instance_p50_ms"] == 250.0
    assert run.raw_times([fake_pass(1.7)], [0.2])["wall_s"] == 0.5 * 1.7


def test_self_time_subtracts_children():
    tr = [
        {"id": 0, "name": "instance", "parent": None, "instance": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "nondet.path_cert", "parent": 0, "instance": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "nondet.cert", "parent": 0, "instance": 0, "start": 5.0, "end": 6.0},
    ]
    t = spans.layer_times(tr)
    assert t["harness.busy_s"] == 10.0 and t["harness.self_s"] == 6.0
    assert t["nondet.path_cert_busy_s"] == 3.0 and t["nondet.cert_busy_s"] == 1.0
    assert t["nondet.busy_s"] == 4.0 and t["nondet.self_s"] == 4.0


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (u, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_fails_without_the_workbench_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "weights", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_printed_metric_names_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "weights", "--seed", "0",
                              "--seconds", "1", "--trace", str(trace)], capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
