"""Output checks for one fcab CLI call.

Every check holds for any seed: exit code, cells present, T and K per
cell, the exact regret identity, exact-zero oracle regret, the KL budget
of the lower-bound pair, and a band of ``BAND_SIGMAS`` standard deviations
around a reference recorded over many seeds (``reference.json``, written
by ``make_reference.py``).  A change of RNG stream layout keeps each cell
inside its band; a broken policy does not.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import WORKLOADS, cells

BAND_SIGMAS = 6.0
SWEEP_COLUMNS = ("policy", "N", "T", "K", "p", "regret_mean", "regret_std", "q10",
                 "q50", "q90", "r_disc", "r_opt", "r_subopt", "r_boundary", "wall_ms")


def reference_config(workload: str) -> dict:
    """The workload config a reference is recorded against (no seed)."""
    return dict(WORKLOADS[workload]["config"], command=WORKLOADS[workload]["command"])


def _band(value: float, ref: dict):
    """Problem text when ``value`` lies outside the reference band."""
    width = BAND_SIGMAS * ref["sd"] * math.sqrt(1.0 + 1.0 / ref["groups"])
    width += 1e-9 * (1.0 + abs(ref["mean"]))
    if abs(value - ref["mean"]) > width:
        return (f"regret {value:.6g} outside reference band "
                f"{ref['mean']:.6g} +- {width:.3g}")
    return None


def _check_sweep(workload, text, ref_cells, fcab):
    cfg = WORKLOADS[workload]["config"]
    regime = fcab.experiments.FixedP(cfg["regime"]["p"])
    problems = {}
    rows = {}
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != SWEEP_COLUMNS:
        return {c: ["unexpected CSV header"] for c in cells(workload)}, 0
    for row in reader:
        rows[f"{row['policy']}:{row['N']}"] = row
    pulls = 0
    for cell in cells(workload):
        row = rows.pop(cell, None)
        if row is None:
            problems[cell] = ["cell missing"]
            continue
        bad = []
        n, t, k = int(row["N"]), int(row["T"]), int(row["K"])
        x = {key: float(row[key]) for key in SWEEP_COLUMNS[4:]}
        if t != regime.budget_for(n):
            bad.append(f"T={t}, budget_for gives {regime.budget_for(n)}")
        want_k = fcab.policies.default_parameters(n, t / n, 1).k
        if k != want_k:
            bad.append(f"K={k}, default_parameters gives {want_k}")
        terms = [x["r_disc"], x["r_opt"], x["r_boundary"], x["r_subopt"]]
        tol = 1e-9 * (1.0 + abs(x["regret_mean"]) + sum(abs(v) for v in terms))
        if abs(x["regret_mean"] - sum(terms)) > tol:
            bad.append("regret_mean != r_disc + r_opt + r_boundary + r_subopt")
        if row["policy"] == "oracle-star" and any(
            x[key] != 0.0 for key in ("regret_mean", "regret_std", "q10", "q50", "q90")
        ):
            bad.append("oracle-star regret is not exactly 0")
        outside = _band(x["regret_mean"], ref_cells[cell])
        if outside:
            bad.append(outside)
        if bad:
            problems[cell] = bad
        pulls += t * cfg["replications"]
    for cell in rows:
        problems[cell] = ["unexpected cell"]
    return problems, pulls


def _check_lowerbound(workload, text, ref_cells, fcab):
    cfg = WORKLOADS[workload]["config"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return {c: ["lb_report.json is not JSON"] for c in cells(workload)}, 0
    n, p = cfg["N"], cfg["p"]
    t = fcab.experiments.FixedP(p).budget_for(n)
    want = {"n": n, "p": p, "policy_id": cfg["policy"], "alpha_lb": cfg["alpha_lb"],
            "replications": cfg["replications"], "t_budget": t,
            "k": fcab.policies.default_parameters(n, p, 1).k}
    shared = [f"{key}={report.get(key)!r}, expected {value!r}"
              for key, value in want.items() if report.get(key) != value]
    if not 0.0 < report.get("kl", -1.0) <= report.get("kl_bound", -1.0):
        shared.append(f"kl {report.get('kl')} not in (0, kl_bound {report.get('kl_bound')}]")
    freqs = [report.get("frequency_m0"), report.get("frequency_m1")]
    if not all(isinstance(f, float) and 0.0 <= f <= 1.0 for f in freqs) or (
        report.get("max_frequency") != max(freqs)
    ):
        shared.append("exceedance frequencies inconsistent")
    problems = {}
    for cell in cells(workload):
        bad = list(shared)
        value = report.get(f"regret_mean_{cell}")
        if not isinstance(value, float):
            bad.append(f"regret_mean_{cell} missing")
        else:
            outside = _band(value, ref_cells[cell])
            if outside:
                bad.append(outside)
        if bad:
            problems[cell] = bad
    return problems, 2 * cfg["replications"] * t


def check_output(workload: str, rc: int, text, reference: dict, fcab):
    """Check one call's output.

    Returns ``(problems, pulls)``: failed cell -> list of problems, and the
    pulls the call completed (the budget T summed over its trials).
    """
    ref = reference.get(workload, {})
    if ref.get("config") != reference_config(workload):
        return {c: ["reference.json was recorded for another config"]
                for c in cells(workload)}, 0
    if rc != 0 or text is None:
        return {c: [f"exit code {rc}, output present: {text is not None}"]
                for c in cells(workload)}, 0
    if WORKLOADS[workload]["command"] == "lowerbound":
        return _check_lowerbound(workload, text, ref["cells"], fcab)
    return _check_sweep(workload, text, ref["cells"], fcab)
