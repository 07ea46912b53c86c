"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 bench/collect.py [--workload NAME ...] [--baseline]

Run from the repository root.  For each workload it runs ``run.py`` with
``--trace 0`` once per seed in ``SEEDS`` and prints, per end-to-end metric,
the median and the quartile spread (third minus first quartile, as a share
of the median), next to the metric's bound.  With ``--baseline`` it also
makes one traced run per workload and writes ``bench/baseline.json``: host
facts, the layer map, the idle layers, the held-out seed and every number
measured.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import HELD_OUT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))

# Which end-to-end metric each layer metric should move, and on which
# workloads; a change to one layer is read against this map.
LAYER_MAP = [
    {"layer": ["policies.ucbf_run.self_ms", "policies.ucbf_run.ns_per_pull"],
     "moves": ["scaled_wall_s", "scaled_pulls_per_s"],
     "on": ["ucbf-fixedp", "lowerbound-2w"], "still_on": ["oracles-large"]},
    {"layer": ["environment.star_order.self_ms"],
     "moves": ["scaled_wall_s", "scaled_pulls_per_s"],
     "on": ["oracles-large"], "still_on": ["lowerbound-2w"]},
    {"layer": ["policies.build_partition.self_ms"],
     "moves": ["scaled_wall_s", "scaled_pulls_per_s"], "on": ["oracles-large"]},
    {"layer": ["analysis.regret_decompose.self_ms", "analysis.diagnostics.self_ms"],
     "moves": ["scaled_wall_s"], "on": ["oracles-large", "ucbf-fixedp"]},
    {"layer": ["policies.oracle_discrete.self_ms", "policies.oracle_star.self_ms",
               "policies.baseline_random.self_ms"],
     "moves": ["scaled_wall_s"], "on": ["oracles-large"]},
    {"layer": ["environment.mean_eval.self_ms", "environment.sample_arms.self_ms",
               "environment.reward_sample.self_ms"],
     "moves": ["scaled_wall_s"], "on": ["oracles-large"]},
    {"layer": ["environment.threshold.self_ms", "analysis.bin_means.self_ms"],
     "moves": ["setup_s", "scaled_wall_s"], "on": list(WORKLOADS)},
    {"layer": ["analysis.regret_total.self_ms",
               "experiments.lower_bound_protocol.self_ms"],
     "moves": ["scaled_wall_s"], "on": ["lowerbound-2w"]},
    {"layer": ["experiments.run_trial.self_ms", "experiments.run_sweep.self_ms"],
     "moves": ["scaled_wall_s"], "on": ["ucbf-fixedp", "oracles-large"]},
    {"layer": ["experiments.pool_speedup"], "moves": ["scaled_wall_s"],
     "on": ["lowerbound-2w"]},
    {"layer": ["cli.run.self_ms", "cli.output_bytes"], "moves": ["scaled_wall_s"],
     "on": list(WORKLOADS)},
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = lines.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result, lines[:-1]


def _host() -> dict:
    import numpy

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def read(name):
            with open(os.path.join(index, name)) as fh:
                return fh.read().strip()
        caches[f"L{read('level')}_{read('type').lower()}"] = read("size")
    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh
                          if l.startswith("model name")), "")
    return {"cpu_count": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    report = {}
    for workload in args.workload or list(WORKLOADS):
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result, _ = _run(workload, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        e2e = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            e2e[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"{workload:14s} {name:12s} median {e2e[name]['median']:.6g} "
                  f"spread {e2e[name]['spread']:.4f} bound {bounds[name]}", flush=True)
        report[workload] = {"why": why[workload], "end_to_end": e2e}
        if args.baseline:
            result, lines = _run(workload, SEEDS[0], seconds, 1)
            report[workload]["per_layer_seed"] = SEEDS[0]
            report[workload]["idle_spans"] = WORKLOADS[workload]["idle_spans"]
            report[workload]["per_layer"] = {
                name: m["value"] for name, m in result["metrics"].items()}
            report[workload]["shares"] = {
                l.split()[1]: float(l.split()[2]) for l in lines if l.startswith("share ")}
    if args.baseline:
        baseline = {"host": _host(), "run_seconds": seconds, "seeds": SEEDS,
                    "held_out_seed": HELD_OUT_SEED, "workloads": report,
                    "layer_map": LAYER_MAP}
        with open(os.path.join(BENCH_DIR, "baseline.json"), "w") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
