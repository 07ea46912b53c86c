"""fcab benchmark: times the ``fcab`` CLI on generated configs.

    python3 bench/run.py --workload ucbf-fixedp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  Every measured call is a fresh process
(``probe.py``), as a user's ``fcab`` call is, and every output is checked
(``check.py``).  Each call's wall time is also scaled to a reference host
speed, timed on a fixed kernel just before and after the call
(``speed.py``).  With ``--trace 0`` the run reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer ones,
from calls with every layer wrapped by ``tracer.py``, and writes the spans
of the last traced call under ``.bench_out/``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import check
import speed
import tracer
from workloads import OUTPUT_FILE, WORKLOADS, cells, config_for

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 11
MIN_CALLS = 5
MIN_TRACE_ROUNDS = 2
PROBE_TIMEOUT_S = 120


def _load_fcab():
    """Import fcab from the checkout's ``src/`` only, never from elsewhere."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fcab", "__init__.py")):
        sys.exit("error: src/fcab not found; run from the root of an fcab checkout")
    sys.path.insert(0, src)
    import fcab.cli

    return fcab


def _probe(job: dict) -> dict:
    """Run probe.py in a fresh process group and return its JSON result;
    the whole group is killed once the probe returns or times out."""
    env = dict(os.environ, FCAB_LOG="error")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"probe timed out after {PROBE_TIMEOUT_S} s: {job}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed ({proc.returncode}): {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, fcab, reference: dict, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.fcab = fcab
        self.reference = reference
        self.spec = WORKLOADS[workload]
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config_for(workload, seed), fh)
        self.first_output = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup_s(self) -> float:
        job = {"mode": "setup", "command": self.spec["command"], "config": self.config_path}
        _probe(job)  # warm-up: compiles bytecode, fills the file cache
        return statistics.median(_probe(job)["setup_s"] for _ in range(SETUP_REPS))

    def call(self, threads: int, trace: bool = False) -> dict:
        """One checked CLI call; adds its cells to attempted / failed."""
        out = tempfile.mkdtemp(dir=self.dir)
        spans_path = os.path.join(out, "spans.json") if trace else None
        argv = [self.spec["command"], "--config", self.config_path, "--out", out,
                "--threads", str(threads)]
        kernel = self.spec["speed_kernel"]
        before = speed.kernel_s(kernel)
        res = _probe({"mode": "cli", "argv": argv, "trace": spans_path})
        after = speed.kernel_s(kernel)
        res["scaled_wall_s"] = (res["wall_s"] * 2 * speed.REFERENCE_S[kernel]
                                / (before + after))
        path = os.path.join(out, OUTPUT_FILE[self.spec["command"]])
        text = None
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        problems, res["pulls"] = check.check_output(
            self.workload, res["rc"], text, self.reference, self.fcab)
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            problems = {c: ["output differs from the first call with this seed"]
                        for c in cells(self.workload)}
        self.attempted += max(len(cells(self.workload)), len(problems))
        self.failed += len(problems)
        self.problems += [f"{cell}: {p}" for cell, ps in problems.items() for p in ps]
        if trace:
            with open(spans_path) as fh:
                res["spans"] = json.load(fh)
        res["output_bytes"] = len(text.encode()) if text is not None else 0
        shutil.rmtree(out)
        return res

    def end_to_end(self, seconds: float) -> dict:
        setup = self.setup_s()
        deadline = time.monotonic() + seconds
        calls = []
        while len(calls) < MIN_CALLS or time.monotonic() < deadline:
            calls.append(self.call(self.spec["threads"]))
        wall = statistics.median(c["wall_s"] for c in calls)
        scaled = statistics.median(c["scaled_wall_s"] for c in calls)
        print(f"{self.workload} wall_s {wall:.6g} s unscaled, kernel time "
              f"{wall / scaled:.4g} x reference, {len(calls)} calls")
        return {
            "scaled_wall_s": scaled,
            "scaled_pulls_per_s": statistics.median(
                c["pulls"] / c["scaled_wall_s"] for c in calls),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(c["rss_mb"] for c in calls),
        }

    def per_layer(self, seconds: float, trace_file: str) -> dict:
        """Traced one-worker calls against untraced two-worker calls, the
        order of the pair alternating from round to round."""
        deadline = time.monotonic() + seconds
        two, traced = [], []
        while len(traced) < MIN_TRACE_ROUNDS or time.monotonic() < deadline:
            order = ((2, False), (1, True))
            for threads, trace in order if len(traced) % 2 == 0 else order[::-1]:
                (traced if trace else two).append(self.call(threads, trace))
        traced_wall = statistics.median(c["wall_s"] for c in traced)
        traced_scaled = statistics.median(c["scaled_wall_s"] for c in traced)
        sums = [tracer.summarise(c["spans"]) for c in traced]
        idle = self.spec["idle_spans"]
        lost = [name for name in tracer.SPANS
                if name not in idle and any(s[name]["calls"] == 0 for s in sums)]
        if lost:
            raise RuntimeError(f"{self.workload}: no calls recorded in {', '.join(lost)}; "
                               "the benchmark no longer measures these layers")
        metrics = {
            "experiments.pool_speedup":
                traced_scaled / statistics.median(c["scaled_wall_s"] for c in two),
            "trace.overhead_ms": statistics.median(c["overhead_ms"] for c in traced),
            "cli.output_bytes": traced[-1]["output_bytes"],
        }
        for name in tracer.SPANS:
            metrics[f"{name}.self_ms"] = statistics.median(s[name]["self_ns"] for s in sums) / 1e6
            metrics[f"{name}.calls"] = statistics.median(s[name]["calls"] for s in sums)
        ucbf = [s["policies.ucbf_run"] for s in sums]
        metrics["policies.ucbf_run.ns_per_pull"] = statistics.median(
            s["self_ns"] / s["count"] if s["count"] else 0.0 for s in ucbf)
        _write_trace(trace_file, self.workload, self.seed, traced[-1]["spans"])
        for name in tracer.SPANS:
            if name not in idle:
                share = metrics[f"{name}.self_ms"] / (1e3 * traced_wall)
                print(f"share {name} {share:.3f}")
        print(f"idle by design, so their metrics read 0: {', '.join(idle)}")
        return metrics

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _write_trace(path: str, workload: str, seed: int, spans: list) -> None:
    """JSON lines: a header, then one span per line with times in ms from
    the start of the root span."""
    t0 = min(s[2] for s in spans)
    selfs = tracer.self_times(spans)
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "spans": len(spans),
                             "wall_ms": (max(s[3] for s in spans) - t0) / 1e6}) + "\n")
        for sid, ((name, parent, start, end, count), self_ns) in enumerate(zip(spans, selfs)):
            fh.write(json.dumps({
                "id": sid, "parent": parent, "name": name,
                "start_ms": (start - t0) / 1e6, "dur_ms": (end - start) / 1e6,
                "self_ms": self_ns / 1e6, "count": count,
            }) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fcab,
                 benchmark: dict, out_dir: str) -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh)
    run = Run(workload, seed, fcab, reference, out_dir)
    try:
        if trace:
            trace_file = os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl")
            values = run.per_layer(seconds, trace_file)
            wanted = benchmark["per_layer"]
            print(f"trace written to {trace_file}")
        else:
            values = run.end_to_end(seconds)
            wanted = benchmark["end_to_end"]
    finally:
        run.close()
    for problem in run.problems[:20]:
        print(f"check failed [{workload}] {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted} cells)")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    fcab = _load_fcab()
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), fcab,
                               benchmark, out_dir) for w in names}
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
