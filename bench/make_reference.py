"""Record the per-cell regret reference that ``check.py`` bands against.

    python3 bench/make_reference.py

Run from the repository root.  For each workload it runs the workload's
exact config under ``GROUPS`` seeds that no benchmark run uses, and
records per output cell the mean and standard deviation, across seeds, of
the cell's regret mean.  Rerun it only when a workload's config changes,
never to make a failing band pass.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import sys
import tempfile

from check import reference_config
from workloads import OUTPUT_FILE, WORKLOADS, cells, config_for

GROUPS = 40


def _cell_regrets(workload: str, text: str) -> dict:
    if WORKLOADS[workload]["command"] == "lowerbound":
        report = json.loads(text)
        return {cell: report[f"regret_mean_{cell}"] for cell in cells(workload)}
    return {f"{r['policy']}:{r['N']}": float(r["regret_mean"])
            for r in csv.DictReader(io.StringIO(text))}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import fcab.cli

    reference = {}
    for workload, spec in WORKLOADS.items():
        samples = {cell: [] for cell in cells(workload)}
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            for g in range(GROUPS):
                with open(config_path, "w") as fh:
                    json.dump(config_for(workload, f"reference-{g}"), fh)
                # Outputs are byte-identical across worker counts.
                rc = fcab.cli.run([spec["command"], "--config", config_path,
                                   "--out", tmp, "--threads", "2"])
                if rc != 0:
                    sys.exit(f"{workload}: fcab exited {rc}")
                with open(os.path.join(tmp, OUTPUT_FILE[spec["command"]])) as fh:
                    for cell, value in _cell_regrets(workload, fh.read()).items():
                        samples[cell].append(value)
        reference[workload] = {
            "config": reference_config(workload),
            "cells": {cell: {"mean": statistics.fmean(v), "sd": statistics.stdev(v),
                             "groups": len(v)} for cell, v in samples.items()},
        }
        print(f"{workload}: {len(samples)} cells x {GROUPS} seeds", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
