"""Monte Carlo harness: replicated trials, budget-regime sweeps,
regret-exponent fits, and the two-instance lower-bound protocol.

Every trial is a pure function of (master seed, N, policy id, replication
index): the per-trial seed is a stable 64-bit hash of that tuple, so trials
can run in any order on any number of workers and aggregate identically.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import analysis, policies
from .environment import (
    GRID,
    UNIFORM,
    ArmSet,
    Instance,
    MeanFunction,
    RewardModel,
    compute_threshold_M,
    grid_arms,
    instance_kl,
    make_lower_bound_pair,
    mean_function_from_json,
    reward_model_from_json,
    sample_arms_uniform,
)

__all__ = [
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
    "write_sweep_csv",
    "fit_exponent",
    "lower_bound_protocol",
]

SWEEP_CSV_HEADER = (
    "policy,N,T,K,p,regret_mean,regret_std,q10,q50,q90,"
    "r_disc,r_opt,r_subopt,r_boundary,wall_ms"
)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Regimes and parameter rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedP:
    """Budget proportional to the arm count: T = round(p * N)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(self.p * n), 1), n)

    def to_json(self):
        return {"kind": "fixed_p", "p": self.p}


@dataclass(frozen=True)
class PowerLaw:
    """Budget growing sublinearly: T = round(0.5 * N^alpha)."""

    alpha: float

    def __post_init__(self):
        if not 2.0 / 3.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (2/3, 1]")

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(0.5 * n**self.alpha), 1), n)

    def to_json(self):
        return {"kind": "power_law", "alpha": self.alpha}


Regime = Union[FixedP, PowerLaw]


def regime_from_json(spec: dict) -> Regime:
    kind = spec.get("kind")
    if kind == "fixed_p":
        return FixedP(float(spec["p"]))
    if kind == "power_law":
        return PowerLaw(float(spec["alpha"]))
    raise ValueError(f"unknown regime kind {kind!r}")


@dataclass(frozen=True)
class KRule:
    """How the bin count is chosen per cell: the budget-balanced default,
    the replayable-arm tuning sqrt(T)/log(T), or an explicit K."""

    kind: str = "paper_default"
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("paper_default", "cab", "explicit"):
            raise ValueError(f"unknown K rule {self.kind!r}")
        if self.kind == "explicit" and (self.k is None or self.k < 1):
            raise ValueError("explicit K rule needs a positive k")

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "explicit":
            out["k"] = self.k
        return out


def krule_from_json(spec: dict) -> KRule:
    return KRule(kind=spec.get("kind", "paper_default"), k=spec.get("k"))


def choose_k(k_rule: KRule, regime: Regime, n: int, t: int, p: float, dim: int) -> int:
    if k_rule.kind == "explicit":
        return int(k_rule.k)
    if k_rule.kind == "cab":
        return policies.cab_parameters(t)
    if isinstance(regime, PowerLaw):
        if dim != 1:
            raise ValueError("power-law regime is one-dimensional")
        return policies.corollary_parameters(t, regime.alpha)
    return policies.default_parameters(n, p, dim).k


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_BIN_MEAN_MODES = ("quadrature", "empirical")


@dataclass(frozen=True)
class ExperimentConfig:
    mean_function: MeanFunction
    reward_model: RewardModel
    policies: tuple
    n_grid: tuple
    regime: Regime
    replications: int
    master_seed: int
    k_rule: KRule = KRule()
    covariates: str = UNIFORM
    dim: int = 1
    bin_means_mode: str = "quadrature"
    threshold_resolution: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        unknown = [p for p in self.policies if p not in policies.POLICY_IDS]
        if unknown:
            raise ValueError(
                f"unknown policy ids {unknown}; valid ids: {list(policies.POLICY_IDS)}"
            )
        if not self.policies:
            raise ValueError("need at least one policy")
        if not self.n_grid or any(n < 30 for n in self.n_grid):
            raise ValueError("every N in the grid must be at least 30")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.covariates not in (UNIFORM, GRID):
            raise ValueError(f"unknown covariates origin {self.covariates!r}")
        if self.covariates == GRID and self.dim != 1:
            raise ValueError("grid covariates are one-dimensional")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.bin_means_mode not in _BIN_MEAN_MODES:
            raise ValueError(f"bin_means_mode must be one of {_BIN_MEAN_MODES}")
        if self.threshold_resolution < 1000:
            raise ValueError("threshold resolution below 1000 rejected")

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "mean_function": self.mean_function.to_json(),
            "reward_model": self.reward_model.to_json(),
            "policies": list(self.policies),
            "N_grid": list(self.n_grid),
            "regime": self.regime.to_json(),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "K_rule": self.k_rule.to_json(),
            "covariates": self.covariates,
            "dim": self.dim,
            "bin_means": self.bin_means_mode,
            "threshold_resolution": self.threshold_resolution,
        }


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def derive_seed(master_seed: int, n: int, policy_id: str, rep: int) -> int:
    """Stable 64-bit per-trial seed; independent of execution order."""
    key = f"{master_seed}:{n}:{policy_id}:{rep}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _subseed(seed: int, tag: str) -> int:
    key = f"{seed}:{tag}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


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


# Per-process caches for quantities shared across trials of one sweep.
_THRESHOLD_CACHE: dict = {}
_BIN_MEANS_CACHE: dict = {}


def _config_digest(config: ExperimentConfig) -> str:
    text = json.dumps(config.to_json(), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _threshold_for(config: ExperimentConfig, p: float) -> float:
    if p >= 1.0:
        # The budget covers every arm; the threshold is the global minimum.
        key = (_config_digest(config), "min")
        if key not in _THRESHOLD_CACHE:
            grid = np.linspace(0.0, 1.0, 10**4).reshape(-1, 1)
            if config.dim > 1:
                grid = np.random.default_rng(0).random((10**4, config.dim))
            _THRESHOLD_CACHE[key] = float(np.min(config.mean_function.evaluate(grid)))
        return _THRESHOLD_CACHE[key]
    key = (_config_digest(config), round(p, 12))
    if key not in _THRESHOLD_CACHE:
        _THRESHOLD_CACHE[key] = compute_threshold_M(
            config.mean_function, p, config.threshold_resolution
        )
    return _THRESHOLD_CACHE[key]


def _quadrature_bin_means(config: ExperimentConfig, partition) -> np.ndarray:
    key = (_config_digest(config), partition.k_per_axis, partition.dim)
    if key not in _BIN_MEANS_CACHE:
        _BIN_MEANS_CACHE[key] = analysis.bin_means_quadrature(
            config.mean_function, partition
        )
    return _BIN_MEANS_CACHE[key]


def run_trial(
    config: ExperimentConfig,
    n: int,
    policy_id: str,
    rep: int,
    keep_trace: bool = True,
) -> TrialResult:
    """One seeded replication: build the instance, run the policy, and
    attach regret, decomposition and diagnostics."""
    if policy_id not in config.policies:
        raise ValueError(f"policy {policy_id!r} is not part of this experiment")
    start = time.perf_counter()
    seed = derive_seed(config.master_seed, n, policy_id, rep)

    if config.covariates == GRID:
        arms = grid_arms(n)
    else:
        arms = sample_arms_uniform(n, config.dim, _subseed(seed, "arms"))
    t_budget = config.regime.budget_for(n)
    p = t_budget / n
    threshold = _threshold_for(config, p)
    means = np.asarray(config.mean_function.evaluate(arms.covariates), dtype=np.float64)
    instance = Instance(
        arms, config.mean_function, config.reward_model, t_budget, p, threshold, means
    )

    k = choose_k(config.k_rule, config.regime, n, t_budget, p, config.dim)
    if policy_id == "ucbf-cab-k":
        k = policies.cab_parameters(t_budget)
    delta = policies.default_parameters(n, p, config.dim).delta
    partition = policies.build_partition(arms, k)
    if config.bin_means_mode == "empirical":
        bin_means = analysis.bin_means_empirical(instance, partition)
    else:
        bin_means = _quadrature_bin_means(config, partition)

    run_seed = _subseed(seed, "run")
    if policy_id in ("ucbf", "ucbf-cab-k"):
        trace = policies.ucbf_run(instance, partition, delta, run_seed, policy_id=policy_id)
    elif policy_id == "oracle-star":
        trace = policies.oracle_star(instance, run_seed)
    elif policy_id == "oracle-discrete":
        trace = policies.oracle_discrete(instance, partition, bin_means, run_seed)
    else:
        trace = policies.baseline_random(instance, run_seed)

    if policy_id == "oracle-discrete":
        discrete_trace = trace
    else:
        discrete_trace = policies.oracle_discrete(
            instance, partition, bin_means, _subseed(seed, "phid")
        )
    decomposition = analysis.regret_decompose(
        instance, partition, bin_means, trace, discrete_trace
    )
    diag = analysis.diagnostics(instance, partition, bin_means)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return TrialResult(
        policy_id=policy_id,
        n=n,
        t_budget=t_budget,
        k=k,
        p=p,
        rep=rep,
        seed=seed,
        regret=decomposition.r_total,
        decomposition=decomposition,
        diagnostics=diag,
        wall_ms=wall_ms,
        trace=trace if keep_trace else None,
    )


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
    config: ExperimentConfig


def _trial_summary(config: ExperimentConfig, n: int, policy_id: str, rep: int) -> dict:
    r = run_trial(config, n, policy_id, rep, keep_trace=False)
    d = r.decomposition
    return {
        "policy": policy_id,
        "n": n,
        "t": r.t_budget,
        "k": r.k,
        "p": r.p,
        "rep": rep,
        "regret": r.regret,
        "r_disc": d.r_disc,
        "r_opt": d.r_opt,
        "r_subopt": d.r_subopt,
        "r_boundary": d.r_boundary,
        "wall_ms": r.wall_ms,
    }


def _trial_task(args):
    config, n, policy_id, rep = args
    try:
        return ("ok", n, policy_id, rep, _trial_summary(config, n, policy_id, rep))
    except Exception as exc:  # error recorded against the cell
        return ("err", n, policy_id, rep, f"{type(exc).__name__}: {exc}")


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """All (policy, N) cells with `replications` trials each.

    Trials execute in any order (process pool when threads > 1); per-trial
    seeding makes the aggregates independent of scheduling.
    """
    if threads == 0:
        threads = os.cpu_count() or 1
    tasks = [
        (config, n, policy_id, rep)
        for n in config.n_grid
        for policy_id in config.policies
        for rep in range(config.replications)
    ]
    if threads > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_trial_task, tasks, chunksize=4))
    else:
        outcomes = [_trial_task(t) for t in tasks]

    by_cell: dict = {}
    errors: dict = {}
    for status, n, policy_id, rep, payload in outcomes:
        if status == "ok":
            by_cell.setdefault((n, policy_id), {})[rep] = payload
        else:
            errors.setdefault((n, policy_id), payload)

    rows = []
    error_list = []
    for n in config.n_grid:
        for policy_id in config.policies:
            cell = (n, policy_id)
            if cell in errors:
                error_list.append((policy_id, n, errors[cell]))
                continue
            reps = by_cell.get(cell, {})
            ordered = [reps[i] for i in sorted(reps)]
            regs = np.array([r["regret"] for r in ordered])
            q10, q50, q90 = np.quantile(regs, [0.1, 0.5, 0.9])
            rows.append(
                SweepRow(
                    policy_id=policy_id,
                    n=n,
                    t_budget=ordered[0]["t"],
                    k=ordered[0]["k"],
                    p=ordered[0]["p"],
                    regret_mean=float(regs.mean()),
                    regret_std=float(regs.std()),
                    q10=float(q10),
                    q50=float(q50),
                    q90=float(q90),
                    r_disc=float(np.mean([r["r_disc"] for r in ordered])),
                    r_opt=float(np.mean([r["r_opt"] for r in ordered])),
                    r_subopt=float(np.mean([r["r_subopt"] for r in ordered])),
                    r_boundary=float(np.mean([r["r_boundary"] for r in ordered])),
                    wall_ms=float(np.sum([r["wall_ms"] for r in ordered])),
                )
            )
    return SweepResult(rows=rows, errors=error_list, config=config)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv_text(result: SweepResult) -> str:
    """Fixed-schema CSV; floats carry 17 significant digits.  The wall_ms
    column is pinned to 0 so identical (config, seed) runs are
    byte-identical regardless of thread count."""
    lines = [SWEEP_CSV_HEADER]
    for r in result.rows:
        lines.append(
            ",".join(
                [
                    r.policy_id,
                    str(r.n),
                    str(r.t_budget),
                    str(r.k),
                    _fmt(r.p),
                    _fmt(r.regret_mean),
                    _fmt(r.regret_std),
                    _fmt(r.q10),
                    _fmt(r.q50),
                    _fmt(r.q90),
                    _fmt(r.r_disc),
                    _fmt(r.r_opt),
                    _fmt(r.r_subopt),
                    _fmt(r.r_boundary),
                    "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(sweep_csv_text(result))


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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "lipschitz_L": self.lipschitz_L,
            "alpha_lb": self.alpha_lb,
            "l_tilde": self.l_tilde,
            "lb_half_width": self.lb_half_width,
            "policy_id": self.policy_id,
            "replications": self.replications,
            "t_budget": self.t_budget,
            "k": self.k,
            "threshold": self.threshold,
            "frequency_m0": self.frequency_m0,
            "frequency_m1": self.frequency_m1,
            "max_frequency": self.max_frequency,
            "frequency_target": self.frequency_target,
            "kl": self.kl,
            "kl_bound": self.kl_bound,
            "regret_mean_m0": self.regret_mean_m0,
            "regret_mean_m1": self.regret_mean_m1,
            "size_precondition": self.size_precondition,
        }


def _lb_trial(args):
    n, p, lips, alpha_lb, role, policy_id, seed = args
    key = (n, p, lips, alpha_lb)
    cached = _LB_CACHE.get(key)
    if cached is None:
        pair = make_lower_bound_pair(p, lips, alpha_lb, n)
        arms = grid_arms(n)
        t_budget = _round_half_up(p * n)
        model = RewardModel("bernoulli")
        instances = []
        for member in (pair.m0, pair.m1):
            means = np.asarray(member.evaluate(arms.covariates), dtype=np.float64)
            instances.append(
                Instance(arms, member, model, t_budget, t_budget / n, 0.5, means)
            )
        pc = policies.default_parameters(n, p, 1)
        partitions = {
            "default": policies.build_partition(arms, pc.k),
            "cab": policies.build_partition(arms, policies.cab_parameters(t_budget)),
        }
        cached = (instances, partitions, pc.delta)
        _LB_CACHE[key] = cached
    instances, partitions, delta = cached
    inst = instances[role]
    if policy_id == "ucbf":
        trace = policies.ucbf_run(inst, partitions["default"], delta, seed)
    elif policy_id == "ucbf-cab-k":
        trace = policies.ucbf_run(
            inst, partitions["cab"], delta, seed, policy_id="ucbf-cab-k"
        )
    elif policy_id == "oracle-star":
        trace = policies.oracle_star(inst, seed)
    elif policy_id == "random":
        trace = policies.baseline_random(inst, seed)
    else:
        raise ValueError(f"policy {policy_id!r} not supported by the protocol")
    return role, analysis.regret_total(inst, trace)


_LB_CACHE: dict = {}


def lower_bound_protocol(
    n: int,
    p: float,
    lipschitz_L: float,
    alpha_lb: float,
    policy_id: str,
    replications: int,
    master_seed: int,
    threads: int = 1,
) -> LBReport:
    """Run a policy on both adversarial members and report how often its
    regret clears 0.01 * T^(1/3) * p^(-1/3), alongside the per-arm KL
    budget of the pair."""
    if replications < 1:
        raise ValueError("need at least one replication")
    if threads == 0:
        threads = os.cpu_count() or 1
    pair = make_lower_bound_pair(p, lipschitz_L, alpha_lb, n)
    t_budget = _round_half_up(p * n)
    threshold = 0.01 * t_budget ** (1.0 / 3.0) * p ** (-1.0 / 3.0)
    tasks = [
        (n, p, lipschitz_L, alpha_lb, role, policy_id,
         derive_seed(master_seed, n, f"lb{role}:{policy_id}", rep))
        for role in (0, 1)
        for rep in range(replications)
    ]
    if threads > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_lb_trial, tasks, chunksize=4))
    else:
        outcomes = [_lb_trial(t) for t in tasks]
    regrets = {0: [], 1: []}
    for role, regret in outcomes:
        regrets[role].append(regret)
    freq = {
        role: float(np.mean([r >= threshold for r in vals]))
        for role, vals in regrets.items()
    }
    kl = instance_kl(pair, grid_arms(n))
    pc = policies.default_parameters(n, p, 1)
    return LBReport(
        n=n,
        p=p,
        lipschitz_L=lipschitz_L,
        alpha_lb=alpha_lb,
        l_tilde=pair.L_tilde,
        lb_half_width=pair.lb_half_width,
        policy_id=policy_id,
        replications=replications,
        t_budget=t_budget,
        k=policies.cab_parameters(t_budget) if policy_id == "ucbf-cab-k" else pc.k,
        threshold=threshold,
        frequency_m0=freq[0],
        frequency_m1=freq[1],
        max_frequency=max(freq[0], freq[1]),
        frequency_target=0.1,
        kl=kl,
        kl_bound=70.4 * alpha_lb**3,
        regret_mean_m0=float(np.mean(regrets[0])),
        regret_mean_m1=float(np.mean(regrets[1])),
    )
