"""Monte Carlo harness: replicated trials, budget-regime sweeps,
regret-exponent fits, and the two-instance lower-bound protocol.

Every trial is a pure function of (master seed, N, policy id, replication
index): the per-trial seed is a stable 64-bit hash of that tuple, so trials
can run in any order on any number of workers and aggregate identically.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import math
import os
import time
from dataclasses import astuple, dataclass
from typing import Optional, Union

import numpy as np

from . import analysis, policies
from .environment import (
    GRID,
    UNIFORM,
    ConfigError,
    InstancePair,
    MeanFunction,
    Record,
    RewardModel,
    _REQUIRED,
    _field,
    _typed,
    compute_threshold_M,  # noqa: F401  unused here; bench/tracer.py wraps it in this module
    grid_arms,
    instance_kl,
    make_instance,
    make_lower_bound_pair,
    mean_function_from_json,
    sample_arms_uniform,
)

__all__ = [
    "ConfigError",
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
    "lower_bound_config_from_json",
    "validate_config_from_json",
]

SWEEP_CSV_HEADER = (
    "policy,N,T,K,p,regret_mean,regret_std,q10,q50,q90,"
    "r_disc,r_opt,r_subopt,r_boundary,wall_ms"
)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# JSON objects
# ---------------------------------------------------------------------------


def _build(errors: list, path: str, parse, spec):
    """``parse(spec)`` for the JSON object at ``path``, or None with its
    errors added to ``errors`` under that path."""
    try:
        return parse(spec)
    except ConfigError as exc:
        errors.extend(exc.under(path).errors)
    except ValueError as exc:  # a mean function's range checks report no path
        errors.append((path, str(exc)))
    return None


def _root(data) -> list:
    """The error list of a config file's top-level object, after checking
    that it is an object of schema version 1."""
    if not isinstance(data, dict):
        raise ConfigError([("$", "config must be a JSON object")])
    errors: list = []
    schema = _field(data, "schema", int, errors)
    if schema not in (None, 1):
        errors.append(("$.schema", f"unsupported schema version {schema!r}"))
    return errors


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


@dataclass(frozen=True)
class FixedP:
    """Budget proportional to the arm count: T = round(p * N)."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError([("$.p", "must lie in (0, 1]")])

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(self.p * n), 1), n)


@dataclass(frozen=True)
class PowerLaw:
    """Budget growing sublinearly: T = round(0.5 * N^alpha)."""

    alpha: float

    def __post_init__(self):
        if not 2.0 / 3.0 < self.alpha <= 1.0:
            raise ConfigError([("$.alpha", "alpha must lie in the (2/3, 1] window")])

    def budget_for(self, n: int) -> int:
        return min(max(_round_half_up(0.5 * n**self.alpha), 1), n)


Regime = Union[FixedP, PowerLaw]
_REGIMES = {"fixed_p": (FixedP, "p"), "power_law": (PowerLaw, "alpha")}


def regime_from_json(spec: dict) -> Regime:
    """A regime from its JSON object; error paths start at that object."""
    kind = _typed(spec, [("kind", str, _REQUIRED)])["kind"]
    if kind not in _REGIMES:
        raise ConfigError([("$.kind", f"unknown regime kind {kind!r}; valid: {list(_REGIMES)}")])
    cls, key = _REGIMES[kind]
    return cls(_typed(spec, [(key, float, _REQUIRED)])[key])


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


def krule_from_json(spec: dict) -> KRule:
    """A K rule from its JSON object; error paths start at that object."""
    return KRule(**_typed(spec, [("kind", str, "paper_default"), ("k", int, None)]))


def _reward_model_from_json(spec: dict) -> RewardModel:
    return RewardModel(**_typed(spec, [("kind", str, _REQUIRED), ("sigma", float, 0.0)]))


def choose_k(policy_id: str, k_rule: KRule, regime: Regime, n: int, t: int, dim: int) -> int:
    """Bins per axis for one cell, in sweeps and the lower-bound protocol
    alike: the cab K of the budget T for a ``cab_k`` policy whatever the K
    rule, else the rule's K."""
    if policies.POLICIES[policy_id].cab_k or k_rule.kind == "cab":
        return policies.cab_parameters(t)
    if k_rule.kind == "explicit":
        return int(k_rule.k)
    if isinstance(regime, PowerLaw):
        return policies.corollary_parameters(t, regime.alpha)
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
    reward_model: RewardModel
    policies: tuple
    n_grid: tuple
    regime: Regime
    replications: int = 1
    master_seed: int = 0
    k_rule: KRule = KRule()
    covariates: str = UNIFORM
    dim: int = 1
    bin_means_mode: str = "quadrature"
    threshold_resolution: int = 10**6

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
        if not self.n_grid or min(self.n_grid) < 30:
            errors.append(("$.N_grid", "every N must be at least 30"))
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
        if self.threshold_resolution < 1000:
            errors.append(("$.threshold_resolution", "must be at least 1000"))
        if errors:
            raise ConfigError(errors)

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        """A config from its JSON object.  Every shape and type error is
        reported at once; range errors come after, from the constructors."""
        errors = _root(data)
        kw = {
            "policies": _field(data, "policies", list, errors, item=str),
            "n_grid": _field(data, "N_grid", list, errors, item=int),
            "reward_model": RewardModel(),
        }
        for key, name, kind in (
            ("replications", "replications", int),
            ("master_seed", "master_seed", int),
            ("covariates", "covariates", str),
            ("dim", "dim", int),
            ("bin_means", "bin_means_mode", str),
            ("threshold_resolution", "threshold_resolution", int),
        ):
            if key in data:
                kw[name] = _field(data, key, kind, errors)
        for key, name, parse, required in (
            ("mean_function", "mean_function", mean_function_from_json, True),
            ("reward_model", "reward_model", _reward_model_from_json, False),
            ("regime", "regime", regime_from_json, True),
            ("K_rule", "k_rule", krule_from_json, False),
        ):
            if required or key in data:
                spec = _field(data, key, dict, errors)
                if spec is not None:
                    kw[name] = _build(errors, f"$.{key}", parse, spec)
        if errors:
            raise ConfigError(errors)
        return cls(**kw)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def _hash64(*parts) -> int:
    key = ":".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def derive_seed(master_seed: int, n: int, policy_id: str, rep: int) -> int:
    """Stable 64-bit per-trial seed; independent of execution order."""
    return _hash64(master_seed, n, policy_id, rep)


def _map(fn, tasks: list, threads: int) -> list:
    """``fn`` over ``tasks``, results in task order: on a pool of
    ``threads`` worker processes (0: one per core), or in this process
    for one worker or one task."""
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks, chunksize=4))
    return [fn(t) for t in tasks]


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
    policy_id: str,
    rep: int,
    keep_trace: bool = True,
) -> TrialResult:
    """One seeded replication: build the instance, run the policy, and
    attach regret, decomposition and diagnostics."""
    if policy_id not in config.policies:
        raise ValueError(f"policy {policy_id!r} is not part of this experiment")
    spec = policies.POLICIES[policy_id]
    start = time.perf_counter()
    seed = derive_seed(config.master_seed, n, policy_id, rep)

    if config.covariates == GRID:
        arms = grid_arms(n)
    else:
        arms = sample_arms_uniform(n, config.dim, _hash64(seed, "arms"))
    instance = make_instance(
        arms, config.mean_function, config.reward_model, config.regime.budget_for(n),
        config.threshold_resolution,
    )
    t_budget, p = instance.T, instance.p
    k = choose_k(policy_id, config.k_rule, config.regime, n, t_budget, config.dim)
    delta = policies.default_parameters(n, p, config.dim).delta
    partition = policies.build_partition(arms, k)
    if config.bin_means_mode == "empirical":
        bin_means = analysis.bin_means_empirical(instance, partition)
    else:
        bin_means = _quadrature_bin_means(config.mean_function, k, config.dim)

    trace = spec.run(instance, partition, bin_means, delta, _hash64(seed, "run"))
    if policy_id == "oracle-discrete":
        discrete_trace = trace
    else:
        discrete_trace = policies.oracle_discrete(
            instance, partition, bin_means, _hash64(seed, "phid")
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


def _trial_task(args):
    try:
        return True, run_trial(*args, keep_trace=False)
    except Exception as exc:  # error recorded against the cell
        return False, f"{type(exc).__name__}: {exc}"


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """All (policy, N) cells with `replications` trials each.

    Trials execute in any order (process pool when threads > 1); per-trial
    seeding makes the aggregates independent of scheduling.
    """
    tasks = [
        (config, n, policy_id, rep)
        for n in config.n_grid
        for policy_id in config.policies
        for rep in range(config.replications)
    ]
    # Outcomes come in task order, so each cell's trials in replication order.
    trials: dict = {}
    errors: dict = {}
    for (_, n, policy_id, _), (ok, payload) in zip(tasks, _map(_trial_task, tasks, threads)):
        if ok:
            trials.setdefault((n, policy_id), []).append(payload)
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
            cell_trials = trials[cell]
            regs = np.array([r.regret for r in cell_trials])
            q10, q50, q90 = np.quantile(regs, [0.1, 0.5, 0.9])
            terms = {
                term: float(np.mean([getattr(r.decomposition, term) for r in cell_trials]))
                for term in ("r_disc", "r_opt", "r_subopt", "r_boundary")
            }
            rows.append(
                SweepRow(
                    policy_id=policy_id,
                    n=n,
                    t_budget=cell_trials[0].t_budget,
                    k=cell_trials[0].k,
                    p=cell_trials[0].p,
                    regret_mean=float(regs.mean()),
                    regret_std=float(regs.std()),
                    q10=float(q10),
                    q50=float(q50),
                    q90=float(q90),
                    wall_ms=float(np.sum([r.wall_ms for r in cell_trials])),
                    **terms,
                )
            )
    return SweepResult(rows=rows, errors=error_list, config=config)


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
class LBReport(Record):
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


@functools.lru_cache(maxsize=4)
def _lb_cell(pair: InstancePair, policy_id: str):
    """Both members' instances, the policy's partition and delta: what
    every trial of one protocol run shares, built once per process."""
    n, regime = pair.n_design, FixedP(pair.p)
    arms = grid_arms(n)
    t_budget = regime.budget_for(n)
    model = RewardModel("bernoulli")
    instances = [make_instance(arms, member, model, t_budget) for member in (pair.m0, pair.m1)]
    k = choose_k(policy_id, KRule(), regime, n, t_budget, 1)
    delta = policies.default_parameters(n, pair.p, 1).delta
    return instances, policies.build_partition(arms, k), delta


def _lb_trial(args):
    pair, role, policy_id, seed = args
    instances, partition, delta = _lb_cell(pair, policy_id)
    trace = policies.POLICIES[policy_id].run(instances[role], partition, None, delta, seed)
    return role, analysis.regret_total(instances[role], trace)


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
    spec = policies.POLICIES.get(policy_id)
    if spec is None or not spec.lower_bound:
        raise ValueError(f"policy {policy_id!r} not supported by the protocol")
    pair = make_lower_bound_pair(p, lipschitz_L, alpha_lb, n)
    regime = FixedP(p)
    t_budget = regime.budget_for(n)
    threshold = 0.01 * t_budget ** (1.0 / 3.0) * p ** (-1.0 / 3.0)
    tasks = [
        (pair, role, policy_id, derive_seed(master_seed, n, f"lb{role}:{policy_id}", rep))
        for role in (0, 1)
        for rep in range(replications)
    ]
    regrets = {0: [], 1: []}
    for role, regret in _map(_lb_trial, tasks, threads):
        regrets[role].append(regret)
    freq = {
        role: float(np.mean([r >= threshold for r in vals]))
        for role, vals in regrets.items()
    }
    kl = instance_kl(pair, grid_arms(n))
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
        k=choose_k(policy_id, KRule(), regime, n, t_budget, 1),
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


def _lower_bound_pair_from_json(spec: dict) -> dict:
    """N, p, L and alpha_lb of a lower-bound pair, checked by building it."""
    out = _typed(spec, [("N", int, _REQUIRED), ("p", float, _REQUIRED),
                        ("L", float, _REQUIRED), ("alpha_lb", float, _REQUIRED)])
    make_lower_bound_pair(out["p"], out["L"], out["alpha_lb"], out["N"])
    return out


def lower_bound_config_from_json(data) -> dict:
    """The lowerbound config: a pair's N, p, L and alpha_lb, the policy,
    replications and master_seed.  Errors carry JSON paths."""
    errors = _root(data)
    out = _build(errors, "$", _lower_bound_pair_from_json, data) or {}
    out["policy"] = _field(data, "policy", str, errors, default="ucbf")
    out["replications"] = _field(data, "replications", int, errors, default=100)
    out["master_seed"] = _field(data, "master_seed", int, errors, default=0)
    valid = [i for i, spec in policies.POLICIES.items() if spec.lower_bound]
    if out["policy"] is not None and out["policy"] not in valid:
        errors.append(("$.policy", f"unsupported by the protocol; valid ids: {valid}"))
    if out["replications"] is not None and out["master_seed"] is not None:
        errors += _run_errors(out["replications"], out["master_seed"])
    if errors:
        raise ConfigError(errors)
    return out


def validate_config_from_json(data) -> dict:
    """The validate config: a lower-bound pair under ``pair``, the grid of
    each validator, and the margin check's epsilons as multiples of
    L~ * lb_half_width.  Errors carry JSON paths."""
    errors = _root(data)
    spec = _field(data, "pair", dict, errors)
    pair = None if spec is None else _build(errors, "$.pair", _lower_bound_pair_from_json, spec)
    lip_grid = _field(data, "lipschitz_grid", int, errors, default=2000)
    margin_grid = _field(data, "margin_grid", int, errors, default=10**5)
    factors = _field(data, "eps_factors", list, errors, default=[1.5, 2.0, 4.0], item=float)
    if lip_grid is not None and lip_grid < 1000:
        errors.append(("$.lipschitz_grid", "must be at least 1000"))
    if margin_grid is not None and margin_grid < 1:
        errors.append(("$.margin_grid", "must be positive"))
    if factors is not None and (not factors or min(factors) <= 0):
        errors.append(("$.eps_factors", "must be a non-empty list of positive numbers"))
    elif factors is not None and pair is not None:
        built = make_lower_bound_pair(pair["p"], pair["L"], pair["alpha_lb"], pair["N"])
        if max(factors) * built.L_tilde * built.lb_half_width >= 1.0:
            errors.append(("$.eps_factors", "every epsilon, factor * L~ * lb_half_width, "
                           "must stay below 1"))
    if errors:
        raise ConfigError(errors)
    return {"pair": pair, "lipschitz_grid": lip_grid, "margin_grid": margin_grid,
            "eps_factors": factors}
