"""statforge benchmark: closed loops of ``statforge run`` calls.

    python3 perfbench/run.py --workload bulk-draws --seed 1 --seconds 30 --trace 0

Each workload is a list of experiments. A pass runs every one of them once,
one after another, each as a fresh process (``child.py``) calling the CLI
with ``--workers 1 --out DIR``, so caches start cold as they do for a user.
``--seed`` orders the calls within each pass; ``--workload-seed`` is the
experiment seed written into every config and defaults to the acceptance
battery's seed. Passes repeat while the next one is expected to end within
``--seconds`` (at least one runs).

Every call is checked: its exit code (1 error, 2 tolerance miss), its
``report.json`` and ``metrics.csv``, and the digest of the report without
``wall_time_s`` against every other run of the same source tree, config and
seed (earlier passes and earlier invocations, kept in the work directory).
A failing check counts the call as failed.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host speed sampled all through each call.
``--trace 1`` runs one traced pass and a second one if it fits in
``--seconds``, and prints the per-layer metrics; each traced call's counts
must equal those of every earlier traced run of the same source tree, config
and seed. Untraced times for comparison come from the latest untraced run of
the same source tree, workload and experiment seed in this checkout, or from
an untraced pass made first. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for workloads, sizes and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
ACCEPTANCE_SEED = 20260810
CALL_TIMEOUT_S = 150
EXIT_MEANING = {1: "exit 1 (error)", 2: "exit 2 (tolerance miss)"}
# The shared host's speed drifts by half within minutes, which moves raw
# times of the same code further than any bound. Each untraced call samples
# the host's speed all through its run (``child.SpeedSampler``), and
# end-to-end times are scaled to the speed at which one sample takes this
# long (about the median sample on the host in README.md).
PROBE_REFERENCE_S = 0.0007

# Replicate counts are cut so a pass fits a run; every per-call size and
# tolerance keeps its default. Where a cut count misses a tolerance at the
# acceptance seed, the count that tolerance is sized for stays (wilks, mle,
# regression); see README.md.
WORKLOADS = {
    "bulk-draws": {
        "er": {"graphs": 12},
        "jl": {"replicates": 12},
        "feynman-kac": {"paths": 65_536, "paths_control": 6_554},
        "gauss-conc": {"samples": 65_536},
        "bs-price": {},
        "brownian": {},
        "ito": {},
        "mse-variance": {},
    },
    "tiny-replicates": {
        "ci-coverage": {"replicates": 20_000},
        "james-stein": {"replicates": 20_000},
        "test-size": {"replicates": 2_000},
        "bayes": {},
    },
    "model-fits": {
        "regression": {"replicates": 5_000},
        "glm": {"replicates": 1_000},
        "wilks": {},
        "lasso-bound": {"replicates": 50},
        "irt": {"examinees": 2_000},
        "mle": {},
    },
}
ALL_TAGS = sorted(tag for experiments in WORKLOADS.values() for tag in experiments)


def config_text(tag: str, seed: int, sizes: dict) -> str:
    lines = [f'experiment = "{tag}"', f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in sorted(sizes.items())]
    return "\n".join(lines) + "\n"


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "statforge").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def report_digest(report: dict) -> str:
    """sha256 of the report without ``wall_time_s``, its only varying field."""
    stable = {key: value for key, value in report.items() if key != "wall_time_s"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


class DigestStore:
    """First fingerprint seen for each key -- a call's result digest, or its
    trace counts -- kept across invocations in the work directory."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        expected = self.known.setdefault(key, digest)
        return expected == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def check_report(out_dir: Path, tag: str, seed: int, exit_code: int):
    """Return ``(digest, problem)`` for the files one call wrote."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
        rows = (out_dir / "metrics.csv").read_text().splitlines()
    except (OSError, ValueError) as err:
        return None, f"unreadable report: {err}"
    if report.get("experiment") != tag or report.get("seed") != seed:
        return None, "report echoes another experiment or seed"
    if len(rows) != len(report.get("metrics", ())) + 1:
        return None, "metrics.csv does not match report.json"
    if report.get("passed") != (exit_code == 0):
        return None, "exit code disagrees with the report's verdict"
    return report_digest(report), None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_call(tag: str, config: Path, seed: int, trace: bool, store: DigestStore,
             store_key: str) -> dict:
    """One fresh ``statforge run`` process; returns its timings and checks."""
    out_dir = WORK / "out" / tag
    result_path = WORK / "out" / f"{tag}.result.json"
    for stale in (out_dir / "report.json", out_dir / "metrics.csv", result_path):
        stale.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(result_path),
            repr(time.monotonic()), "1" if trace else "0", "--", "run", str(config),
            "--workers", "1", "--out", str(out_dir)]
    try:
        proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"tag": tag, "failure": f"no result within {CALL_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"tag": tag, "failure": f"process exited {proc.returncode}: {tail[0]}"}
    call = json.loads(result_path.read_text())
    call["tag"] = tag
    exit_code = call["exit_code"]
    digest, problem = check_report(out_dir, tag, seed, exit_code)
    call["digest"] = digest
    if exit_code != 0:
        problem = EXIT_MEANING.get(exit_code, f"exit {exit_code}")
    elif problem is None and not store.check(store_key, digest):
        problem = "result digest differs from an earlier run"
    elif problem is None and trace and not store.check(f"{store_key}/trace", json.dumps(
            [call["trace"][key] for key in ("counts", "calls", "spans")], sort_keys=True)):
        problem = "trace counts differ from an earlier traced run"
    call["failure"] = problem
    return call


def run_pass(tags: list, configs: dict, seed: int, trace: bool, store: DigestStore,
             source: str) -> list:
    return [run_call(tag, configs[tag], seed, trace, store,
                     f"{source}/{tag}/{configs[tag].read_text()}")
            for tag in tags]


def pass_total(calls: list, field: str) -> float:
    return sum(call.get(field, 0.0) for call in calls)


def speed_scale(probes: list) -> float:
    """Factor from times on the host, as the sampler's timings ``probes``
    found it, to times at the reference speed: the mean over the samples of
    the host's speed relative to the reference; 1 without samples, as when
    every call of a run failed within milliseconds."""
    if not probes:
        return 1.0
    return statistics.fmean(PROBE_REFERENCE_S / seconds for seconds in probes)


def end_to_end(passes: list, calibrated: bool = True) -> dict:
    """Each experiment's median over the passes, summed over the workload
    (the largest for memory); ``setup_s`` is the median over all calls.
    Unless ``calibrated`` is false, a call's run times are scaled by the
    speed sampled during that call, and set-up times by the speed sampled
    during the whole run."""
    calls = [call for calls in passes for call in calls if "run_s" in call]
    if not calls:
        return {}
    by_tag: dict = {}
    for call in calls:
        by_tag.setdefault(call["tag"], []).append(call)
    run_probes = [seconds for call in calls for seconds in call["probe_s"]]

    def per_experiment(field: str, timed: bool = True) -> list:
        def value(call: dict) -> float:
            if timed and calibrated:
                return call[field] * speed_scale(call["probe_s"] or run_probes)
            return call[field]

        return [statistics.median(map(value, group)) for group in by_tag.values()]

    setup_scale = speed_scale(run_probes) if calibrated else 1.0
    return {
        "wall_s": (sum(per_experiment("run_s")), "s"),
        "cpu_s": (sum(per_experiment("cpu_s")), "s"),
        "peak_rss_mb": (max(per_experiment("maxrss_kb", timed=False)) / 1024.0, "MB"),
        "setup_s": (setup_scale * statistics.median(c["setup_s"] for c in calls), "s"),
    }


def layer_totals(calls: list) -> dict:
    """Per-layer self time, calls and counts summed over one traced pass."""
    totals = {"self_s": dict.fromkeys(LAYERS, 0.0), "calls": dict.fromkeys(LAYERS, 0),
              "spans": 0, "counts": {}}
    for call in calls:
        trace = call.get("trace") or {}
        for layer in LAYERS:
            totals["self_s"][layer] += trace.get("self_s", {}).get(layer, 0.0)
            totals["calls"][layer] += trace.get("calls", {}).get(layer, 0)
        totals["spans"] += trace.get("spans", 0)
        for name, value in trace.get("counts", {}).items():
            totals["counts"][name] = totals["counts"].get(name, 0) + value
    return totals


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced_wall: dict, traced: list) -> dict:
    """Per-layer metrics of the traced passes; ``untraced_wall`` maps each
    experiment to its untraced run time."""
    runs = [layer_totals(calls) for calls in traced]
    self_s = {layer: statistics.median(r["self_s"][layer] for r in runs)
              for layer in LAYERS}
    counts = runs[0]["counts"]
    count = lambda name: counts.get(name, 0)  # noqa: E731
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    metrics.update({
        "rng.words_per_s": (ratio(count("rng.words"), self_s["rng"]), "1/s"),
        "rng.words": (count("rng.words"), "count"),
        "rng.words_per_call": (ratio(count("rng.words"), count("rng.draw_calls")), "count"),
        "rng.draw_calls": (count("rng.draw_calls"), "count"),
        "rng.split_calls": (count("rng.split_calls"), "count"),
        "concentration.graphs": (count("concentration.graphs"), "count"),
        "concentration.jl_trials": (count("concentration.jl_trials"), "count"),
        "concentration.edge_yield": (ratio(count("concentration.edges"),
                                           count("concentration.potential_edges")), "ratio"),
        "stochastic.paths": (count("stochastic.paths"), "count"),
        "estimation.calls": (runs[0]["calls"]["estimation"], "count"),
        "hypothesis.calls": (runs[0]["calls"]["hypothesis"], "count"),
        "distributions.cdf_points": (count("distributions.cdf_points"), "count"),
        "distributions.quantile_calls": (count("distributions.quantile_calls"), "count"),
        "regression.fits": (count("regression.fits"), "count"),
        "regression.fits_per_s": (ratio(count("regression.fits"), self_s["regression"]), "1/s"),
        "glm.fits": (count("glm.fits"), "count"),
        "glm.iterations": (count("glm.iterations"), "count"),
        "glm.fits_per_s": (ratio(count("glm.fits"), self_s["glm"]), "1/s"),
        "trace.spans": (runs[0]["spans"], "count"),
        "trace.overhead_s": (statistics.median(pass_total(p, "run_s") for p in traced)
                             - sum(untraced_wall.values()), "s"),
    })
    for tag in ALL_TAGS:
        metrics[f"experiments.{tag}.wall_s"] = (untraced_wall.get(tag, 0.0), "s")
    return metrics


def steal_ticks() -> int:
    """Host steal ticks from /proc/stat (aggregate cpu line)."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def environment_info(source: str) -> dict:
    """Versions and OpenBLAS threads, read once per source tree by a child
    (which also fills the package's bytecode cache before any timed call)."""
    path = WORK / "info.json"
    info = json.loads(path.read_text()) if path.exists() else {}
    if info.get("source") != source:
        subprocess.run([sys.executable, str(HERE / "child.py"), str(path), "--info"],
                       env=child_env(), check=True, timeout=CALL_TIMEOUT_S)
        info = dict(json.loads(path.read_text()), source=source)
        path.write_text(json.dumps(info))
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    return info


def recorded_untraced(workload: str, workload_seed: int, source: str):
    """Each experiment's median run time in the latest correct untraced run
    of this source tree, workload and experiment seed, or None."""
    for path in sorted((WORK / "runs").glob("*.json"), reverse=True):
        record = json.loads(path.read_text())
        if (not record["trace"] and record["correct"] and record["workload"] == workload
                and record["workload_seed"] == workload_seed
                and record["source"] == source):
            return {tag: statistics.median(times)
                    for tag, times in record["per_experiment_run_s"].items()}
    return None


CALL_FIELDS = ("tag", "run_s", "cpu_s", "setup_s", "probe_s", "maxrss_kb")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workload_seed: int) -> dict:
    """Run the closed loop; returns the run record (metrics and checks)."""
    experiments = WORKLOADS[workload]
    (WORK / "configs").mkdir(parents=True, exist_ok=True)
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    configs = {}
    for tag, sizes in experiments.items():
        configs[tag] = WORK / "configs" / f"{tag}.txt"
        configs[tag].write_text(config_text(tag, workload_seed, sizes))
    store = DigestStore(WORK / "digests.json")
    source = source_hash()
    info = environment_info(source)
    baseline = recorded_untraced(workload, workload_seed, source) if trace else None
    order = random.Random(seed)
    steal0, start = steal_ticks(), time.monotonic()
    untraced, traced = [], []
    longest = 0.0

    def one_pass(traced_pass: bool) -> None:
        nonlocal longest
        tags = sorted(experiments)
        order.shuffle(tags)
        began = time.monotonic()
        calls = run_pass(tags, configs, workload_seed, traced_pass, store, source)
        longest = max(longest, time.monotonic() - began)
        (traced if traced_pass else untraced).append(calls)

    if baseline is None:
        one_pass(False)
    if trace:
        one_pass(True)
    while ((not trace or len(traced) < 2)
           and time.monotonic() - start + longest <= seconds):
        one_pass(trace)
    store.save()
    if trace and baseline is None:
        baseline = {call["tag"]: call.get("run_s", 0.0) for call in untraced[0]}
    calls = [call for p in untraced + traced for call in p]
    failed = [call for call in calls if call["failure"]]
    metrics = per_layer(baseline, traced) if trace else end_to_end(untraced)
    return {
        "workload": workload, "seed": seed, "workload_seed": workload_seed,
        "source": source,
        "trace": trace, "passes": len(untraced) + len(traced),
        "elapsed_s": time.monotonic() - start,
        "steal_ticks": steal_ticks() - steal0,
        "environment": info,
        "attempted": len(calls),
        "failures": [f"{call['tag']}: {call['failure']}" for call in failed],
        "per_experiment_run_s": {tag: [c["run_s"] for p in untraced for c in p
                                       if c["tag"] == tag and "run_s" in c]
                                 for tag in sorted(experiments)},
        "calls": [{key: call.get(key) for key in CALL_FIELDS}
                  for calls in untraced for call in calls],
        "raw_metrics": end_to_end(untraced, calibrated=False),
        "metrics": metrics,
        "correct": not failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the calls within each pass")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=ACCEPTANCE_SEED,
                        help="experiment seed written into every config")
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "statforge" / "cli.py").is_file():
        print(f"error: no statforge sources under {SRC}", file=sys.stderr)
        return 1
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.workload_seed)
    runs_dir = WORK / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs_dir / f"{stamp}-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    attempted, failed = record["attempted"], len(record["failures"])
    for failure in record["failures"]:
        print(f"failed: {failure}")
    print(f"workload {args.workload}: {record['passes']} passes, {attempted} runs, "
          f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted}), "
          f"steal ticks {record['steal_ticks']}, "
          f"OpenBLAS threads {record['environment']['openblas']['threads']}, "
          f"nproc {record['environment']['nproc']}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in record["raw_metrics"].items():
        if unit == "s":
            print(f"{name} at this host's speed = {value:.6g} {unit}")
    print(json.dumps({
        "correct": record["correct"], "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
