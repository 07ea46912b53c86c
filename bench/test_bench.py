"""Self-tests of the benchmark: the output checker, span self times, the
speed kernels and metric names.  Run from the repository root with
``python3 -m pytest -q bench``."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import fcab.cli  # noqa: E402
import fcab.experiments  # noqa: E402
import fcab.policies  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, cells  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(REPO, "bench", "reference.json")) as _fh:
    REFERENCE = json.load(_fh)
with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _good_sweep_rows(workload: str) -> list[dict]:
    """Rows that pass every check: reference regret, exact identity."""
    regime = fcab.experiments.FixedP(0.5)
    rows = []
    for cell in cells(workload):
        policy, n = cell.split(":")
        n = int(n)
        t = regime.budget_for(n)
        regret = REFERENCE[workload]["cells"][cell]["mean"]
        row = {"policy": policy, "N": n, "T": t,
               "K": fcab.policies.default_parameters(n, t / n, 1).k, "p": t / n,
               "regret_mean": regret, "regret_std": 0.0 if regret == 0 else 3.0,
               "q10": regret, "q50": regret, "q90": regret,
               "r_disc": 5.0, "r_opt": -2.0, "r_boundary": 1.0,
               "r_subopt": regret - 4.0, "wall_ms": 0}
        rows.append(row)
    return rows


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=check.SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def _check(workload, text, rc=0):
    return check.check_output(workload, rc, text, REFERENCE, fcab)


@pytest.mark.parametrize("workload", ["ucbf-fixedp", "oracles-large"])
def test_checker_accepts_consistent_sweep(workload):
    problems, pulls = _check(workload, _csv(_good_sweep_rows(workload)))
    assert problems == {}
    cfg = WORKLOADS[workload]["config"]
    assert pulls == sum(n // 2 for n in cfg["N_grid"]) * len(cfg["policies"]) * cfg["replications"]


def test_checker_rejects_nonzero_oracle_regret():
    rows = _good_sweep_rows("oracles-large")
    rows[0]["regret_mean"] = 1e-12
    problems, _ = _check("oracles-large", _csv(rows))
    assert list(problems) == ["oracle-star:131072"]
    assert "not exactly 0" in problems["oracle-star:131072"][0]


def test_checker_rejects_broken_identity():
    rows = _good_sweep_rows("ucbf-fixedp")
    rows[2]["r_opt"] += 1e-3
    problems, _ = _check("ucbf-fixedp", _csv(rows))
    assert list(problems) == ["ucbf:32768"]
    assert "r_disc + r_opt" in problems["ucbf:32768"][0]


def test_checker_rejects_missing_and_unexpected_cells():
    rows = _good_sweep_rows("oracles-large")
    rows[4]["N"] = 12345
    problems, _ = _check("oracles-large", _csv(rows))
    assert problems[cells("oracles-large")[4]] == ["cell missing"]
    assert "unexpected cell" in problems["oracle-discrete:12345"][0]


def test_checker_rejects_regret_outside_band_and_wrong_k():
    rows = _good_sweep_rows("ucbf-fixedp")
    rows[0]["regret_mean"] *= 1.5
    rows[0]["r_subopt"] = rows[0]["regret_mean"] - 4.0
    rows[1]["K"] += 1
    problems, _ = _check("ucbf-fixedp", _csv(rows))
    assert "outside reference band" in problems["ucbf:8192"][0]
    assert problems["ucbf:16384"][0].startswith("K=")


def test_checker_fails_every_cell_on_error_exit():
    problems, pulls = _check("ucbf-fixedp", None, rc=2)
    assert sorted(problems) == sorted(cells("ucbf-fixedp")) and pulls == 0


def test_checker_lowerbound_kl_budget():
    ref = REFERENCE["lowerbound-2w"]["cells"]
    report = {"n": 100_000, "p": 0.5, "alpha_lb": 0.23, "policy_id": "ucbf",
              "replications": 10, "t_budget": 50_000, "k": 9, "kl": 0.13,
              "kl_bound": 0.86, "frequency_m0": 1.0, "frequency_m1": 0.5,
              "max_frequency": 1.0, "regret_mean_m0": ref["m0"]["mean"],
              "regret_mean_m1": ref["m1"]["mean"]}
    assert _check("lowerbound-2w", json.dumps(report)) == ({}, 1_000_000)
    report["kl"] = 0.9
    problems, _ = _check("lowerbound-2w", json.dumps(report))
    assert sorted(problems) == ["m0", "m1"]


def test_self_time_subtracts_nested_children():
    #   root [0, 100) > a [10, 40) > b [20, 30);  root > c [50, 60)
    spans = [["root", -1, 0, 100, 0], ["a", 0, 10, 40, 0], ["b", 1, 20, 30, 0],
             ["c", 0, 50, 60, 0]]
    assert tracer.self_times(spans) == [60, 20, 10, 10]


def test_recorder_links_parents_and_counts():
    class Trace:
        pulled = [1, 2, 3]

    rec = tracer.Recorder()
    inner = rec.wrap(lambda: Trace(), "inner", tracer._pulls)
    outer = rec.wrap(lambda: [inner(), inner()], "outer")
    outer()
    assert [(s[0], s[1], s[4]) for s in rec.spans] == [
        ("outer", -1, 0), ("inner", 0, 3), ("inner", 0, 3)]
    summary = tracer.summarise(rec.spans)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["count"] == 6
    assert sum(s["self_ns"] for s in summary.values()) == rec.spans[0][3] - rec.spans[0][2]


def test_install_finds_every_span_target():
    assert tracer.missing_targets(fcab) == []


def test_install_refuses_a_missing_target(monkeypatch):
    monkeypatch.delattr(fcab.policies, "build_partition")
    with pytest.raises(LookupError, match="policies.build_partition"):
        tracer.install(fcab)


def test_wrapper_cost_is_positive():
    assert tracer.wrapper_cost_ns() > 0


def test_every_workload_has_a_timed_speed_kernel():
    assert set(speed.REFERENCE_S) == set(speed.KERNELS)
    for spec in WORKLOADS.values():
        assert speed.kernel_s(spec["speed_kernel"]) > 0


def test_idle_spans_are_span_names():
    for spec in WORKLOADS.values():
        assert set(spec["idle_spans"]) <= set(tracer.SPANS)


def test_names_use_allowed_characters():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for span in tracer.SPANS:
        assert {f"{span}.self_ms", f"{span}.calls"} <= per_layer


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ucbf-fixedp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
