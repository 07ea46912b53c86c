"""Monte Carlo harness: replicated trials, budget-regime sweeps,
regret-exponent fits, and the two-instance lower-bound protocol.

The unit of work is one (N, replication) task: it builds the instance
from a stable 64-bit hash of (master seed, N, replication) and runs every
policy on it, each from a hash of (master seed, N, policy id,
replication).  Tasks can run in any order on any number of workers and
aggregate identically.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import pickle
import signal
import time
from dataclasses import astuple, dataclass
from typing import ClassVar, Optional

import numpy as np

from . import analysis, policies
from .environment import (
    MAX_ARM_COORDINATES,
    ConfigError,
    Instance,
    InstancePair,
    MeanFunction,
    RewardModel,
    compute_threshold_M,  # noqa: F401  unused here; bench/tracer.py wraps it in this module
    from_json,
    from_kind,
    grid_arms,
    make_lower_bound_pair,
    mean_kl,
    sample_arms_uniform,
)

__all__ = [
    "ConfigError",
    "Regime",
    "FixedP",
    "PowerLaw",
    "KRule",
    "ExperimentConfig",
    "TrialResult",
    "SweepRow",
    "SweepResult",
    "ExponentFit",
    "LBReport",
    "derive_seed",
    "run_trial",
    "run_sweep",
    "sweep_csv_text",
    "fit_exponent",
    "lower_bound_protocol",
    "lower_bound_config",
    "validate_config",
]

SWEEP_CSV_HEADER = (
    "policy,N,T,K,p,regret_mean,regret_std,q10,q50,q90,"
    "r_disc,r_opt,r_subopt,r_boundary,wall_ms"
)


# The covariate kinds of a sweep: i.i.d. uniform draws, or the 1-d lattice i/N.
UNIFORM = "uniform"
GRID = "grid"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _run_errors(replications: int, master_seed: int) -> list:
    """Range errors of the fields every protocol config has."""
    errors = []
    if replications < 1:
        errors.append(("$.replications", "must be positive"))
    if master_seed < 0:
        errors.append(("$.master_seed", "must be nonnegative"))
    return errors


# ---------------------------------------------------------------------------
# Regimes and parameter rules
# ---------------------------------------------------------------------------


class Regime:
    """A budget rule T(N), read from JSON by its ``kind``."""

    @staticmethod
    def from_json(spec: dict) -> "Regime":
        return from_kind(_REGIMES, spec, "regime")

    def budget_for(self, n: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedP(Regime):
    """Budget proportional to the arm count: T = round(p * N)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError([("$.p", "must lie in (0, 1]")])

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(self.p * n), 1), n)


@dataclass(frozen=True)
class PowerLaw(Regime):
    """Budget growing sublinearly: T = round(0.5 * N^alpha)."""

    alpha: float

    def __post_init__(self):
        if not 2.0 / 3.0 < self.alpha <= 1.0:
            raise ConfigError([("$.alpha", "alpha must lie in the (2/3, 1] window")])

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(0.5 * n**self.alpha), 1), n)


_REGIMES = {"fixed_p": FixedP, "power_law": PowerLaw}


@dataclass(frozen=True)
class KRule:
    """How the bin count is chosen per cell: the budget-balanced default,
    the replayable-arm tuning sqrt(T)/log(T), or an explicit K."""

    kind: str = "paper_default"
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("paper_default", "cab", "explicit"):
            raise ConfigError([("$.kind", f"unknown K rule {self.kind!r}")])
        if self.kind == "explicit" and (self.k is None or self.k < 1):
            raise ConfigError([("$.k", "explicit K rule needs a positive k")])
        if self.kind != "explicit" and self.k is not None:
            raise ConfigError([("$.k", f"the {self.kind} K rule takes no k")])


def choose_k(policy_id: str, k_rule: KRule, n: int, t: int, dim: int) -> int:
    """Bins per axis for one cell, in sweeps and the lower-bound protocol
    alike: the cab K of the budget T for a ``cab_k`` policy whatever the K
    rule, else the rule's K, the paper default in every budget regime."""
    if policies.POLICIES[policy_id].cab_k or k_rule.kind == "cab":
        return policies.cab_parameters(t)
    if k_rule.kind == "explicit":
        return int(k_rule.k)
    return policies.default_parameters(n, t / n, dim).k


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_BIN_MEAN_MODES = ("quadrature", "empirical")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep or simulate config.  ``from_json`` checks the JSON shape and
    types; the range checks are here, for direct construction too, and
    report the JSON path of the field at fault."""

    mean_function: MeanFunction
    policies: tuple[str, ...]
    n_grid: tuple[int, ...]
    regime: Regime
    reward_model: RewardModel = RewardModel("bernoulli")
    replications: int = 1
    master_seed: int = 0
    k_rule: KRule = KRule()
    covariates: str = UNIFORM
    dim: int = 1
    bin_means_mode: str = "quadrature"
    # Not a field: thresholds are exact.  bench/probe.py still reads it.
    threshold_resolution: ClassVar[int] = 10**6

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        errors = _run_errors(self.replications, self.master_seed)
        unknown = [p for p in self.policies if p not in policies.POLICIES]
        if not self.policies:
            errors.append(("$.policies", "need at least one policy id"))
        elif unknown:
            errors.append(
                ("$.policies", f"unknown ids {unknown}; valid ids: {list(policies.POLICIES)}")
            )
        elif len(set(self.policies)) < len(self.policies):
            errors.append(("$.policies", "every policy id may appear once"))
        if not self.n_grid or min(self.n_grid) < 30:
            errors.append(("$.N_grid", "every N must be at least 30"))
        elif len(set(self.n_grid)) < len(self.n_grid):
            errors.append(("$.N_grid", "every N may appear once"))
        elif max(self.n_grid) * self.dim > MAX_ARM_COORDINATES:
            errors.append(("$.N_grid", f"N * dim may not exceed {MAX_ARM_COORDINATES}"))
        elif self.k_rule.kind == "cab" or any(
            policies.POLICIES[p].cab_k for p in self.policies if p not in unknown
        ):
            t = min(self.regime.budget_for(n) for n in self.n_grid)
            if t < 8:
                errors.append(("$.N_grid", f"the cab K rule needs T >= 8; the smallest N "
                               f"gives T = {t}"))
        if self.covariates not in (UNIFORM, GRID):
            errors.append(("$.covariates", f"must be '{UNIFORM}' or '{GRID}'"))
        if self.dim < 1:
            errors.append(("$.dim", "must be positive"))
        elif self.dim != self.mean_function.dim:
            errors.append(
                ("$.dim", f"the mean function is {self.mean_function.dim}-dimensional, "
                 f"not {self.dim}")
            )
        elif self.dim != 1 and (self.covariates == GRID or isinstance(self.regime, PowerLaw)):
            errors.append(("$.dim", "grid covariates and the power-law regime are 1-d"))
        if self.bin_means_mode not in _BIN_MEAN_MODES:
            errors.append(("$.bin_means", f"must be one of {_BIN_MEAN_MODES}"))
        if not errors:
            k = max(choose_k(policy_id, self.k_rule, n, self.regime.budget_for(n), self.dim)
                    for n in self.n_grid for policy_id in self.policies)
            if k ** min(self.dim, 64) > policies._MAX_BINS:  # any K > 1 exceeds it at dim 64
                path = "$.K_rule.k" if self.k_rule.kind == "explicit" else "$.dim"
                errors.append((path, f"K^dim may not exceed {policies._MAX_BINS} bins; "
                               f"K = {k} at dim {self.dim}"))
        if errors:
            raise ConfigError(errors)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """A config from its JSON object.  Every shape and type error is
        reported at once; range errors come after, from the constructors."""
        return from_json(cls, data,
                         {"N_grid": "n_grid", "K_rule": "k_rule", "bin_means": "bin_means_mode"})


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def _hash64(*parts) -> int:
    key = ":".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_seed(master_seed: int, n: int, policy_id: str, rep: int) -> int:
    """Stable 64-bit per-trial seed; independent of execution order."""
    return _hash64(master_seed, n, policy_id, rep)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

# glibc's <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Keep the arrays a trial frees in this process's heap, so that the
    next trial reuses them instead of faulting fresh pages in.

    glibc's default hands a freed block of a few MiB back to the kernel:
    either it was mapped on its own (``M_MMAP_THRESHOLD``), or freeing it
    trims the top of the heap (``M_TRIM_THRESHOLD``).  Setting either one
    turns off glibc's dynamic thresholds, and each alone faults more than
    the default, so both are set.  Returns whether glibc took both; where
    there is no ``mallopt`` (not glibc) it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return bool(mmap_set and trim_set)


def _map(fn, tasks: list, threads: int) -> list:
    """``fn`` over ``tasks``, results in task order: on ``threads`` forked
    worker processes (0: one per core), never more than there are tasks,
    or in this process for one worker, one task or a platform without
    ``os.fork``.

    Of W workers, worker w runs tasks w, w + W, w + 2W, ... and sends its
    results, or the exception it raised, down its own pipe; this process
    only waits.  Every worker is reaped before this returns or raises, and
    killed first if this process fails.  A worker that exits without
    sending anything raises RuntimeError with its exit status."""
    workers = min(threads or os.cpu_count() or 1, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    children = []  # (pid, read end of its pipe)
    replies = []
    statuses = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks[w::workers], write_fd)
                children.append((pid, read_fd))
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if len(replies) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results = [None] * len(tasks)
    for w, (reply, status) in enumerate(zip(replies, statuses)):
        if not reply:
            raise RuntimeError(f"worker process exited with status "
                               f"{os.waitstatus_to_exitcode(status)} and sent no result")
        sent, value = pickle.loads(reply)
        if not sent:
            raise value
        results[w::workers] = value
    return results


def _work(fn, tasks: list, write_fd: int) -> None:
    """A forked worker's whole life: ``fn`` over ``tasks``, then the
    pickled (True, results) or (False, exception) down ``write_fd``.  It
    leaves through ``os._exit`` whatever happens, so it never returns into
    the caller's code, runs no exit handler and flushes no buffer it
    inherited."""
    status = 1
    try:
        try:
            reply = pickle.dumps((True, [fn(t) for t in tasks]))
        except Exception as exc:
            try:
                reply = pickle.dumps((False, exc))
                pickle.loads(reply)
            except Exception:  # not every exception survives pickling
                reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    policy_id: str
    n: int
    t_budget: int
    k: int
    p: float
    rep: int
    seed: int
    regret: float
    decomposition: analysis.RegretDecomposition
    diagnostics: analysis.DiagnosticsReport
    wall_ms: float
    trace: Optional[policies.PolicyTrace] = None


@functools.lru_cache(maxsize=32)
def _quadrature_bin_means(mean_function: MeanFunction, k: int, dim: int) -> np.ndarray:
    # Bin means depend on the bins alone, so a partition without arms serves.
    bins = policies.Partition(k, dim, np.empty(0, np.int64), np.zeros(k**dim, np.int64))
    out = analysis.bin_means_quadrature(mean_function, bins)
    out.setflags(write=False)  # every trial of the cell shares this array
    return out


def run_trial(
    config: ExperimentConfig,
    n: int,
    rep: int,
    keep_trace: bool = True,
) -> list:
    """One seeded (N, rep) task: build the instance once, run every policy
    of the config on it, and attach regret, decomposition and diagnostics.

    Returns one outcome per config policy, in config order: its
    TrialResult, or the message of the error its run raised.  An error in
    the shared set-up raises.  Each distinct K (a second one comes only
    from a ``cab_k`` policy) gets one partition, bin means and
    ``analysis.Baseline``, shared by every policy with that K; the
    oracle-discrete policy's trace is the baseline's reference run.  A
    trial's ``wall_ms`` is its own run and decomposition time plus an
    equal share of the set-up.
    """
    start = time.perf_counter()
    instance_seed = _hash64(config.master_seed, n, rep)
    if config.covariates == GRID:
        arms = grid_arms(n)
    else:
        arms = sample_arms_uniform(n, config.dim, _hash64(instance_seed, "arms"))
    instance = Instance(arms, config.mean_function, config.reward_model,
                        config.regime.budget_for(n))
    delta = policies.default_parameters(n, instance.p, config.dim).delta
    ks = [choose_k(policy_id, config.k_rule, n, instance.T, config.dim)
          for policy_id in config.policies]
    shared = {}
    for k in dict.fromkeys(ks):
        partition = policies.build_partition(arms, k)
        if config.bin_means_mode == "empirical":
            bin_means = analysis.bin_means_empirical(instance, partition)
        else:
            bin_means = _quadrature_bin_means(config.mean_function, k, config.dim)
        shared[k] = partition, analysis.make_baseline(
            instance, partition, bin_means, _hash64(instance_seed, k, "phid")
        )
    setup_ms = (time.perf_counter() - start) * 1000.0 / len(ks)

    outcomes = []
    for policy_id, k in zip(config.policies, ks):
        start = time.perf_counter()
        partition, baseline = shared[k]
        seed = derive_seed(config.master_seed, n, policy_id, rep)
        run = policies.POLICIES[policy_id].run
        try:
            trace = baseline.reference if run is None else run(
                instance, partition, delta, _hash64(seed, "run")
            )
            decomposition = analysis.regret_decompose(instance, baseline, trace)
        except Exception as exc:  # fails this policy's cell only
            outcomes.append(f"{type(exc).__name__}: {exc}")
            continue
        outcomes.append(TrialResult(
            policy_id=policy_id, n=n, t_budget=instance.T, k=k, p=instance.p, rep=rep,
            seed=seed, regret=decomposition.r_total, decomposition=decomposition,
            diagnostics=baseline.report, wall_ms=setup_ms + (time.perf_counter() - start) * 1000.0,
            trace=trace if keep_trace else None,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    policy_id: str
    n: int
    t_budget: int
    k: int
    p: float
    regret_mean: float
    regret_std: float
    q10: float
    q50: float
    q90: float
    r_disc: float
    r_opt: float
    r_subopt: float
    r_boundary: float
    wall_ms: float  # real measured time; the CSV emits 0 for byte-stability


@dataclass
class SweepResult:
    rows: list
    errors: list  # (policy_id, n, message)
    trials: list  # the TrialResults that ran, in task order


def _trial_task(args):
    try:
        return run_trial(*args, keep_trace=False)
    except Exception as exc:  # a set-up error fails every cell of the N
        return [f"{type(exc).__name__}: {exc}"] * len(args[0].policies)


_DECILE_LEVELS = np.array([0.1, 0.5, 0.9])


def _deciles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, [0.1, 0.5, 0.9])`` bit for bit, without its
    ``np.unique`` call, which imports ``numpy.ma`` (12-22 ms per process)
    that no output reads.  numpy's "linear" method step by step: partition
    on the same positions (the same set gives the same arrangement; a
    full sort can order -0.0 and 0.0 differently), then interpolate with
    the same operations."""
    arr = np.array(values, dtype=np.float64).ravel()
    n = arr.size
    virtual = (n - 1) * _DECILE_LEVELS
    below = np.floor(virtual)
    above = below + 1
    at_end = virtual >= n - 1
    below[at_end] = above[at_end] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    if np.isnan(arr[-1]):
        return np.full(_DECILE_LEVELS.size, arr[-1])
    lo, hi, gamma = arr[below], arr[above], virtual - below
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """All (policy, N) cells with `replications` trials each.

    (N, rep) tasks execute in any order, on ``threads`` forked worker
    processes when that is more than one; per-task seeding makes the
    aggregates independent of which process runs which task.
    """
    tasks = [(config, n, rep) for n in config.n_grid for rep in range(config.replications)]
    # Outcomes come in task order, so each cell's trials in replication order.
    trials: dict = {}
    errors: dict = {}
    for (_, n, _), outcomes in zip(tasks, _map(_trial_task, tasks, threads)):
        for policy_id, outcome in zip(config.policies, outcomes):
            if isinstance(outcome, str):
                errors.setdefault((n, policy_id), outcome)
            else:
                trials.setdefault((n, policy_id), []).append(outcome)

    cells = [(n, policy_id) for n in config.n_grid for policy_id in config.policies]
    rows = []
    error_list = []
    for n, policy_id in cells:
        if (n, policy_id) in errors:
            error_list.append((policy_id, n, errors[n, policy_id]))
            continue
        cell_trials = trials[n, policy_id]
        regs = np.array([r.regret for r in cell_trials])
        q10, q50, q90 = _deciles(regs)
        terms = {
            term: float(np.mean([getattr(r.decomposition, term) for r in cell_trials]))
            for term in ("r_disc", "r_opt", "r_subopt", "r_boundary")
        }
        first = cell_trials[0]
        rows.append(SweepRow(
            policy_id=policy_id, n=n, t_budget=first.t_budget, k=first.k, p=first.p,
            regret_mean=float(regs.mean()), regret_std=float(regs.std()),
            q10=float(q10), q50=float(q50), q90=float(q90),
            wall_ms=float(np.sum([r.wall_ms for r in cell_trials])), **terms,
        ))
    done = [r for cell in cells for r in trials.get(cell, [])]
    return SweepResult(rows=rows, errors=error_list, trials=done)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def sweep_csv_text(result: SweepResult) -> str:
    """Fixed-schema CSV, one column per ``SweepRow`` field; floats carry 17
    significant digits.  The wall_ms column is pinned to 0 so identical
    (config, seed) runs are byte-identical regardless of thread count."""
    lines = [SWEEP_CSV_HEADER]
    for r in result.rows:
        lines.append(",".join([_csv_cell(v) for v in astuple(r)[:-1]] + ["0"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exponent fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r2: float


def fit_exponent(points) -> ExponentFit:
    """Least-squares line through (ln T, ln regret)."""
    pts = [(float(t), float(r)) for t, r in points]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(t <= 0 or r <= 0 for t, r in pts):
        raise ValueError("points must be strictly positive")
    lt = np.log([t for t, _ in pts])
    lr = np.log([r for _, r in pts])
    slope, intercept = np.polyfit(lt, lr, 1)
    fitted = slope * lt + intercept
    ss_res = float(np.sum((lr - fitted) ** 2))
    ss_tot = float(np.sum((lr - lr.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope=float(slope), intercept=float(intercept), r2=r2)


# ---------------------------------------------------------------------------
# Lower-bound protocol
# ---------------------------------------------------------------------------


@dataclass
class LBReport:
    """Outcome of the two-instance protocol.

    The minimax statement behind the 0.01 T^(1/3) p^(-1/3) threshold also
    needs N to exceed an L-dependent multiple of p^(-3) or (1-p)^(-3)
    whose constant is unspecified; ``size_precondition`` records that this
    cannot be verified, only the alpha window can.
    """

    n: int
    p: float
    lipschitz_L: float
    alpha_lb: float
    l_tilde: float
    lb_half_width: float
    policy_id: str
    replications: int
    t_budget: int
    k: int
    threshold: float
    frequency_m0: float
    frequency_m1: float
    max_frequency: float
    frequency_target: float
    kl: float
    kl_bound: float
    regret_mean_m0: float
    regret_mean_m1: float
    size_precondition: str = "unverified (constant unspecified); alpha window checked"


def lower_bound_protocol(
    pair: InstancePair,
    policy_id: str,
    replications: int,
    master_seed: int,
    threads: int = 1,
) -> LBReport:
    """Run a policy on both adversarial members, at the pair's design N
    and p, and report how often its regret clears 0.01 * T^(1/3) *
    p^(-1/3), alongside the per-arm KL budget of the pair.  Both members'
    instances, the partition and delta are built once, before any worker
    is forked, and every trial reads them."""
    if replications < 1:
        raise ValueError("need at least one replication")
    spec = policies.POLICIES.get(policy_id)
    if spec is None or spec.run is None:
        raise ValueError(f"policy {policy_id!r} not supported by the protocol")
    n, p = pair.N, pair.p
    t_budget = FixedP(p).budget_for(n)
    k = choose_k(policy_id, KRule(), n, t_budget, 1)
    arms = grid_arms(n)
    model = RewardModel("bernoulli")
    instances = [Instance(arms, member, model, t_budget) for member in (pair.m0, pair.m1)]
    partition = policies.build_partition(arms, k)
    delta = policies.default_parameters(n, p, 1).delta

    def trial(task):  # forked workers inherit this closure: _map never pickles it
        role, seed = task
        trace = policies.POLICIES[policy_id].run(instances[role], partition, delta, seed)
        return analysis.regret_total(instances[role], trace)

    tasks = [(role, derive_seed(master_seed, n, f"lb{role}:{policy_id}", rep))
             for role in (0, 1) for rep in range(replications)]
    results = _map(trial, tasks, threads)
    regrets = [results[:replications], results[replications:]]
    threshold = 0.01 * t_budget ** (1.0 / 3.0) * p ** (-1.0 / 3.0)
    freq = [float(np.mean([r >= threshold for r in vals])) for vals in regrets]
    return LBReport(
        n=n,
        p=p,
        lipschitz_L=pair.L,
        alpha_lb=pair.alpha_lb,
        l_tilde=pair.l_tilde,
        lb_half_width=pair.lb_half_width,
        policy_id=policy_id,
        replications=replications,
        t_budget=t_budget,
        k=k,
        threshold=threshold,
        frequency_m0=freq[0],
        frequency_m1=freq[1],
        max_frequency=max(freq),
        frequency_target=0.1,
        kl=mean_kl(instances[0].true_means, instances[1].true_means),
        kl_bound=70.4 * pair.alpha_lb**3,
        regret_mean_m0=float(np.mean(regrets[0])),
        regret_mean_m1=float(np.mean(regrets[1])),
    )


def lower_bound_config(N: int, p: float, L: float, alpha_lb: float, policy: str = "ucbf",
                       replications: int = 100, master_seed: int = 0) -> dict:
    """The lowerbound config, read by ``from_json``: a pair's N, p, L and
    alpha_lb (and the pair under ``pair``), the policy, replications and
    master_seed.  Errors carry JSON paths."""
    errors = _run_errors(replications, master_seed)
    valid = [i for i, spec in policies.POLICIES.items() if spec.run is not None]
    if policy not in valid:
        errors.append(("$.policy", f"unsupported by the protocol; valid ids: {valid}"))
    try:
        pair = make_lower_bound_pair(p, L, alpha_lb, N)
    except ConfigError as exc:
        errors = exc.errors + errors
    if errors:
        raise ConfigError(errors)
    return {"N": N, "p": p, "L": L, "alpha_lb": alpha_lb, "pair": pair, "policy": policy,
            "replications": replications, "master_seed": master_seed}


def validate_config(pair: InstancePair, eps_factors: tuple[float, ...] = (1.5, 2.0, 4.0)) -> dict:
    """The validate config, read by ``from_json``: the InstancePair under
    ``"pair"`` and the margin check's epsilons, factor * l_tilde * lb_half_width
    for each of ``eps_factors``, under ``"eps"``.  Errors carry JSON paths."""
    eps = [f * pair.l_tilde * pair.lb_half_width for f in eps_factors]
    if not eps_factors or min(eps_factors) <= 0:
        raise ConfigError([("$.eps_factors", "must be a non-empty list of positive numbers")])
    if max(eps) >= 1.0:
        raise ConfigError([("$.eps_factors", "every epsilon, factor * L~ * lb_half_width, "
                            "must stay below 1")])
    return {"pair": pair, "eps": eps}
