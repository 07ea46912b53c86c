"""One measurement in a fresh process; prints one JSON line.

    python3 bench/probe.py '{"mode": "setup", "command": "sweep", "config": PATH}'
    python3 bench/probe.py '{"mode": "cli", "argv": [...], "trace": PATH or null}'

``setup`` times importing fcab (numpy already imported), parsing the
config and computing the once-per-process quantities through their public
functions.  It replays those calls itself, so work the program moves into
or out of its own set-up does not change it.  ``cli`` times one
``fcab.cli.run`` call, optionally with every layer wrapped by ``tracer``,
and reports the peak resident memory of this process plus the largest of
its worker processes; a traced call also reports the tracing overhead it
estimates in-process.  Run from the root of a checkout, so that ``src/``
holds the package.
"""

import json
import os
import resource
import sys
import time


def _setup(command: str, config_path: str) -> dict:
    # numpy is imported before the clock starts: its import is a fixed cost
    # no change to fcab moves, and the start-up of its BLAS threads made it
    # swing by a quarter between otherwise equal runs.
    import numpy  # noqa: F401

    start = time.perf_counter()
    import fcab.cli
    from fcab import analysis, environment, policies

    if command == "lowerbound":
        # The pair, the arms, both members' means and both partitions: what
        # a worker builds once and keeps for every trial it runs.
        cfg = fcab.cli.parse_lowerbound_config(config_path)
        n, p = cfg["N"], cfg["p"]
        pair = environment.make_lower_bound_pair(p, cfg["L"], cfg["alpha_lb"], n)
        arms = environment.grid_arms(n)
        for member in (pair.m0, pair.m1):
            member.evaluate(arms.covariates)
        t = fcab.experiments.FixedP(p).budget_for(n)
        policies.build_partition(arms, policies.default_parameters(n, p, 1).k)
        policies.build_partition(arms, policies.cab_parameters(t))
    else:
        config = fcab.cli.parse_config(config_path)
        shapes = set()
        for n in config.n_grid:
            t = config.regime.budget_for(n)
            shapes.add((t / n, policies.default_parameters(n, t / n, config.dim).k))
        for p in sorted({p for p, _ in shapes if p < 1.0}):
            environment.compute_threshold_M(
                config.mean_function, p, config.threshold_resolution
            )
        for k in sorted({k for _, k in shapes}):
            partition = policies.build_partition(environment.grid_arms(k), k)
            analysis.bin_means_quadrature(config.mean_function, partition)
    return {"setup_s": time.perf_counter() - start}


def _cli(argv: list, trace_path) -> dict:
    import fcab.cli

    recorder = None
    if trace_path:
        import tracer

        recorder = tracer.install(fcab)
    start = time.perf_counter()
    rc = fcab.cli.run(argv)
    wall = time.perf_counter() - start
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"rc": rc, "wall_s": wall, "rss_mb": peak_kb / 1024.0}
    if recorder is not None:
        with open(trace_path, "w") as fh:
            json.dump(recorder.spans, fh)
        # Tracing overhead: spans recorded times what one span costs here.
        result["overhead_ms"] = len(recorder.spans) * tracer.wrapper_cost_ns() / 1e6
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if job["mode"] == "setup":
        result = _setup(job["command"], job["config"])
    else:
        result = _cli(job["argv"], job.get("trace"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
