"""Span recorder that times fcab's layers from outside the package.

``install`` replaces public functions at the attributes their callers look
them up through (``fcab.policies.ucbf_run``, ``fcab.experiments.
compute_threshold_M``, ``fcab.environment.Instance.star_order``, ...) with
wrappers that record one span per call: name, parent span, start and end
in ``perf_counter_ns``, and an optional work count taken from the result.
Spans stay in memory until the caller writes them out.  The package
itself is not modified on disk.
"""

from __future__ import annotations

import functools
import statistics
import time


def _pulls(result) -> int:
    return len(result.pulled)


# span name -> (attribute paths under ``fcab``, count taken from the result)
# Every path must resolve: ``install`` refuses a package where one does not,
# so a renamed or moved function stops the traced run instead of reading as
# a layer that costs nothing.
SPANS = {
    "cli.run": (["cli.run"], None),
    "experiments.run_sweep": (["experiments.run_sweep"], None),
    "experiments.run_trial": (["experiments.run_trial"], None),
    "experiments.lower_bound_protocol": (["experiments.lower_bound_protocol"], None),
    "environment.sample_arms": (
        ["experiments.sample_arms_uniform", "experiments.grid_arms"], None),
    "environment.mean_eval": (["<MeanFunction>.evaluate"], None),
    "environment.reward_sample": (["environment.RewardModel.sample"], None),
    "environment.threshold": (
        ["experiments.compute_threshold_M", "environment.compute_threshold_M"], None),
    "environment.star_order": (["environment.Instance.star_order"], None),
    "policies.build_partition": (["policies.build_partition"], None),
    "policies.ucbf_run": (["policies.ucbf_run"], _pulls),
    "policies.oracle_star": (["policies.oracle_star"], _pulls),
    "policies.oracle_discrete": (["policies.oracle_discrete"], _pulls),
    "policies.baseline_random": (["policies.baseline_random"], _pulls),
    "analysis.bin_means": (
        ["analysis.bin_means_quadrature", "analysis.bin_means_empirical"], None),
    "analysis.regret_total": (["analysis.regret_total"], None),
    "analysis.regret_decompose": (["analysis.regret_decompose"], None),
    "analysis.diagnostics": (["analysis.diagnostics"], None),
}

CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 7


class Recorder:
    """In-memory spans: ``spans[i] = [name, parent, start_ns, end_ns, count]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, 0])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = time.perf_counter_ns()
            if count is not None:
                spans[sid][4] = count(result)
            return result

        return traced


def _targets(fcab, path: str):
    """(owner, attribute) pairs named by a path under the package."""
    owner_path, attr = path.rsplit(".", 1)
    if owner_path == "<MeanFunction>":
        base = fcab.environment.MeanFunction
        todo, classes = [base], []
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        return [(cls, attr) for cls in classes if attr in vars(cls)]
    owner = fcab
    for part in owner_path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    return [(owner, attr)] if hasattr(owner, attr) else []


def missing_targets(fcab) -> list[str]:
    """Paths in ``SPANS`` that name nothing in the package."""
    return [path for paths, _ in SPANS.values() for path in paths
            if not _targets(fcab, path)]


def install(fcab) -> Recorder:
    """Wrap every function named in ``SPANS``; returns the recorder.
    Raises ``LookupError`` when a path names nothing."""
    missing = missing_targets(fcab)
    if missing:
        raise LookupError(f"span targets not found in fcab: {', '.join(missing)}")
    rec = Recorder()
    wrapped: dict = {}
    for name, (paths, count) in SPANS.items():
        for path in paths:
            for owner, attr in _targets(fcab, path):
                fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                # One function reachable through two attributes gets one wrapper.
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = rec.wrap(fn, name, count)
                setattr(owner, attr, wrapped[id(fn)])
    return rec


def wrapper_cost_ns() -> float:
    """Time one span adds to a call, in ns: a wrapped no-op against a bare
    one, median over ``CALIBRATION_BATCHES`` batches of
    ``CALIBRATION_CALLS`` calls each."""

    def noop():
        return None

    costs = []
    for _ in range(CALIBRATION_BATCHES):
        rec = Recorder()
        traced = rec.wrap(noop, "noop")
        start = time.perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(CALIBRATION_CALLS):
            traced()
        costs.append((time.perf_counter_ns() - start - bare) / CALIBRATION_CALLS)
    return statistics.median(costs)


def _covered(intervals) -> int:
    """Total length of the union of half-open intervals."""
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict = {}
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, _, start, end, _) in enumerate(spans):
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        out.append(end - start - _covered([k for k in kids if k[0] < k[1]]))
    return out


def summarise(spans) -> dict:
    """Per span name: total self time (ns), call count, and summed count."""
    out = {name: {"self_ns": 0, "calls": 0, "count": 0} for name in SPANS}
    for span, self_ns in zip(spans, self_times(spans)):
        s = out.setdefault(span[0], {"self_ns": 0, "calls": 0, "count": 0})
        s["self_ns"] += self_ns
        s["calls"] += 1
        s["count"] += span[4]
    return out
