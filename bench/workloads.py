"""The benchmark's workloads: fcab CLI calls on generated configs.

A workload fixes the subcommand, the worker count and every config field
but the master seed, which is derived from the benchmark's ``--seed``.
``speed_kernel`` names the ``speed.py`` kernel that times the host for it:
the one doing the kind of work the workload spends its time on.
``idle_spans`` names the traced layers the workload never calls: their
per-layer metrics are 0 by design there, and every other layer must record
at least one call in a traced run.
Why each workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib

SCALING_MEAN = {"kind": "sinusoid", "amplitude": 0.35, "frequency": 1.15, "offset": 0.5}

WORKLOADS = {
    "ucbf-fixedp": {
        "command": "sweep",
        "threads": 1,
        "speed_kernel": "python",
        "idle_spans": ["experiments.lower_bound_protocol", "policies.oracle_star",
                       "policies.baseline_random", "analysis.regret_total"],
        "config": {
            "schema": 1,
            "mean_function": SCALING_MEAN,
            "policies": ["ucbf"],
            "N_grid": [2**13, 2**14, 2**15, 2**16, 2**17],
            "regime": {"kind": "fixed_p", "p": 0.5},
            "replications": 3,
        },
    },
    "oracles-large": {
        "command": "sweep",
        "threads": 1,
        "speed_kernel": "numpy",
        "idle_spans": ["experiments.lower_bound_protocol", "policies.ucbf_run",
                       "analysis.regret_total"],
        "config": {
            "schema": 1,
            "mean_function": SCALING_MEAN,
            "policies": ["oracle-star", "oracle-discrete", "random"],
            "N_grid": [2**17, 2**18, 2**19],
            "regime": {"kind": "fixed_p", "p": 0.5},
            "replications": 2,
        },
    },
    "lowerbound-2w": {
        "command": "lowerbound",
        "threads": 2,
        "speed_kernel": "python",
        "idle_spans": ["experiments.run_sweep", "experiments.run_trial",
                       "environment.threshold", "policies.oracle_star",
                       "policies.oracle_discrete", "policies.baseline_random",
                       "analysis.bin_means", "analysis.regret_decompose",
                       "analysis.diagnostics"],
        "config": {
            "schema": 1,
            "N": 100_000,
            "p": 0.5,
            "L": 0.5,
            "alpha_lb": 0.23,
            "policy": "ucbf",
            "replications": 10,
        },
    },
}

# Seed kept out of every run made while the benchmark was written; use it
# to confirm a claim measured on other seeds.
HELD_OUT_SEED = 8191

OUTPUT_FILE = {"sweep": "sweep.csv", "lowerbound": "lb_report.json"}


def master_seed(workload: str, seed) -> int:
    """Config master seed for one benchmark seed: a stable 63-bit hash."""
    digest = hashlib.blake2b(f"{workload}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def config_for(workload: str, seed) -> dict:
    return dict(WORKLOADS[workload]["config"], master_seed=master_seed(workload, seed))


def cells(workload: str) -> list:
    """Output cells one call must produce: (N, policy) for a sweep, the two
    members for the lower-bound protocol."""
    w = WORKLOADS[workload]
    if w["command"] == "lowerbound":
        return ["m0", "m1"]
    cfg = w["config"]
    return [f"{policy}:{n}" for n in cfg["N_grid"] for policy in cfg["policies"]]
