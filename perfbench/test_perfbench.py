"""Checks of the benchmark itself: failure accounting, digests and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    call = {"tag": "bayes", "run_s": 1.0, "cpu_s": 1.0, "maxrss_kb": 1024,
            "setup_s": 0.5, "probe_s": [0.0007], "trace": None}
    end_to_end = run.end_to_end([[call]])
    per_layer = run.per_layer({"bayes": 1.0}, [[call], [call]])
    for group, metrics in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == {name: unit for name, (_, unit) in metrics.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_times_are_scaled_by_the_sampled_speed_but_memory_is_not():
    ref = run.PROBE_REFERENCE_S
    calls = [{"tag": "bayes", "run_s": 3.0, "cpu_s": 2.0, "maxrss_kb": 2048,
              "setup_s": 0.6, "probe_s": [ref, 2 * ref]},
             {"tag": "jl", "run_s": 5.0, "cpu_s": 9.0, "maxrss_kb": 1024,
              "setup_s": 0.8, "probe_s": [ref / 2]}]
    slower_host = [dict(call, run_s=2 * call["run_s"], cpu_s=2 * call["cpu_s"],
                        setup_s=2 * call["setup_s"],
                        probe_s=[2 * t for t in call["probe_s"]]) for call in calls]
    metrics = run.end_to_end([calls])
    for name, (value, unit) in run.end_to_end([slower_host]).items():
        assert value == pytest.approx(metrics[name][0]) and unit == metrics[name][1]
    # speeds 1 and 1/2 during bayes, 2 during jl, (1 + 1/2 + 2) / 3 over the run
    assert metrics["wall_s"][0] == pytest.approx(3.0 * 0.75 + 5.0 * 2)
    assert metrics["cpu_s"][0] == pytest.approx(2.0 * 0.75 + 9.0 * 2)
    assert metrics["setup_s"][0] == pytest.approx(0.7 * 3.5 / 3)
    assert metrics["peak_rss_mb"][0] == 2.0
    # a call without samples takes the speed sampled over the whole run
    unsampled = [dict(calls[0], probe_s=[]), calls[1]]
    assert run.end_to_end([unsampled])["wall_s"][0] == pytest.approx(3.0 * 2 + 5.0 * 2)
    nothing_sampled = [dict(call, probe_s=[]) for call in calls]
    assert run.end_to_end([nothing_sampled]) == run.end_to_end([calls], calibrated=False)
    raw = run.end_to_end([calls], calibrated=False)
    assert (raw["wall_s"][0], raw["cpu_s"][0], raw["setup_s"][0]) == (8.0, 11.0, 0.7)
    assert raw["peak_rss_mb"][0] == 2.0


def test_digest_ignores_only_wall_time():
    report = {"experiment": "bayes", "seed": 1, "metrics": [{"value": 0.5}],
              "wall_time_s": 1.0}
    slower = dict(report, wall_time_s=2.0)
    changed = dict(report, metrics=[{"value": 0.25}])
    assert run.report_digest(report) == run.report_digest(slower)
    assert run.report_digest(report) != run.report_digest(changed)


def test_digest_mismatch_counts_as_failed(tmp_path):
    config = tmp_path / "bayes.txt"
    config.write_text(run.config_text("bayes", 7, {"replicates": 200}))
    store = run.DigestStore(tmp_path / "digests.json")
    first = run.run_call("bayes", config, 7, False, store, "key")
    again = run.run_call("bayes", config, 7, False, store, "key")
    assert first["failure"] is None and again["failure"] is None
    assert first["digest"] == again["digest"]
    store.known["key"] = "0" * 64
    tampered = run.run_call("bayes", config, 7, False, store, "key")
    assert tampered["failure"] == "result digest differs from an earlier run"


def test_glm_miss_at_20261017_is_counted_failed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "model-fits",
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--workload-seed", "20261017"],
        capture_output=True, text=True, check=True, timeout=170)
    result = _last_json(proc.stdout)
    assert result["correct"] is False
    assert result["attempted"] == len(run.WORKLOADS["model-fits"])
    assert 1 <= result["failed"] < result["attempted"]
    assert "failed: glm: exit 2 (tolerance miss)" in proc.stdout.splitlines()


def _traced_child(tmp_path: Path, name: str, config: Path) -> dict:
    result = tmp_path / f"{name}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), "0", "1", "--",
         "run", str(config), "--workers", "1", "--out", str(tmp_path / name)],
        env=run.child_env(), stdout=subprocess.DEVNULL, check=True, timeout=120)
    return json.loads(result.read_text())


def test_trace_counts_repeat_and_reach_imported_aliases(tmp_path):
    config = tmp_path / "ci.txt"
    config.write_text(run.config_text("ci-coverage", 3, {"replicates": 300}))
    one = _traced_child(tmp_path, "one", config)
    two = _traced_child(tmp_path, "two", config)
    assert one["exit_code"] == two["exit_code"]
    for key in ("counts", "calls", "spans"):
        assert one["trace"][key] == two["trace"][key]
    counts = one["trace"]["counts"]
    # ci_mean_t reaches dist_quantile through estimation's own import of it
    assert counts["distributions.quantile_calls"] == 300
    # experiments calls stream_split, imported from rng, once per replicate
    assert counts["rng.split_calls"] == 300
    assert counts["rng.words"] == 300 * 6  # normals(5) draws 3 + 3 words
    self_s = one["trace"]["self_s"]
    assert all(value >= 0.0 for value in self_s.values())
    assert sum(self_s.values()) <= one["run_s"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-replicates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
