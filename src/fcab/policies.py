"""Pull strategies over a shared bin partition of the covariate space.

The UCBF policy discretises [0, 1]^dim into K^dim equal bins, treats each
bin as a finite-capacity arm of a multi-armed bandit, and plays an upper
confidence bound index over the bins that still hold unpulled arms.  Bins
that start with fewer than two arms are never alive and their arms are
unreachable; a budget that cannot be met from alive bins is a
configuration error, not a silent under-pull.  Each arm is pulled at most
once and a pull takes a uniformly random unpulled arm of its bin, so a run
shuffles each alive bin once up front and takes the bin's arms in that
order; the pull order then follows from a stable sort, with no per-pull
loop (see ``ucbf_run``).

Oracle baselines: the greedy oracle pulls arms in decreasing true-mean
order; the discretised oracle empties the best bins (by supplied bin
means) and fills the remainder from the first bin that straddles the
budget.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import rank_bins
from .environment import ArmSet, Instance

__all__ = [
    "POLICIES",
    "PolicySpec",
    "Partition",
    "ParameterChoice",
    "PolicyTrace",
    "build_partition",
    "default_parameters",
    "cab_parameters",
    "corollary_parameters",
    "ucbf_index",
    "ucbf_run",
    "oracle_star",
    "oracle_discrete",
    "baseline_random",
    "write_trace_jsonl",
]

_MAX_BINS = 50_000_000


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


@dataclass
class Partition:
    """Assignment of arms to the K^dim half-open bins tiling the unit cube.

    Axis intervals are [j/K, (j+1)/K) with the last interval right-closed,
    so the boundary covariate 1.0 lands in the last bin.  The composite bin
    id is the row-major (first axis most significant) combination of the
    per-axis digits.
    """

    k_per_axis: int
    dim: int
    assignment: np.ndarray  # (n_arms,) bin id per arm
    counts: np.ndarray  # (bin_count,) arms per bin
    _order: np.ndarray = field(repr=False, default=None)
    _offsets: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self._order is None:
            # Stable sort groups arms by bin in ascending arm order.  Keys of
            # the narrowest unsigned type that holds every bin id let numpy
            # radix-sort up to 2^16 bins; a stable sort has one result
            # whatever the key type.
            keys = self.assignment.astype(np.min_scalar_type(self.bin_count - 1))
            self._order = np.argsort(keys, kind="stable")
            self._offsets = np.concatenate(([0], np.cumsum(self.counts)))

    @property
    def bin_count(self) -> int:
        return self.counts.size

    @property
    def n_arms(self) -> int:
        return self.assignment.size

    def initial_alive(self) -> np.ndarray:
        """Bins holding at least two arms at construction."""
        return np.flatnonzero(self.counts >= 2)

    def arms_in_bin(self, b: int) -> np.ndarray:
        return self._order[self._offsets[b] : self._offsets[b + 1]]

    def bin_bounds(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        digits = np.array(np.unravel_index(b, (self.k_per_axis,) * self.dim))
        lo = digits / self.k_per_axis
        hi = (digits + 1) / self.k_per_axis
        return lo, hi


def build_partition(arms: ArmSet, k: int) -> Partition:
    if k < 1:
        raise ValueError("need at least one bin per axis")
    bin_count = k**arms.dim
    if bin_count > _MAX_BINS:
        raise ValueError(f"bin count {bin_count} exceeds the supported maximum")
    digits = np.minimum((arms.covariates * k).astype(np.int64), k - 1)
    flat = np.ravel_multi_index(tuple(digits.T), (k,) * arms.dim)
    counts = np.bincount(flat, minlength=bin_count)
    return Partition(k, arms.dim, flat.astype(np.int64), counts)


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterChoice:
    """Bin count per axis and confidence level."""

    k: int
    delta: float


def default_parameters(n: int, p: float, dim: int = 1) -> ParameterChoice:
    """Budget-balanced schedule: K ~ N^(1/3) log(N)^(-2/3) in one dimension
    (floor), K ~ N^(1/(d+2)) log(N)^(-2/(d+2)) above (ceiling).  Neither K
    nor delta depends on the budget fraction ``p``."""
    if n < 3:
        raise ValueError("need n >= 3 for a positive logarithm")
    if dim < 1:
        raise ValueError("dimension must be positive")
    ln = math.log(n)
    if dim == 1:
        # The 1e-9 nudge keeps floor/ceil faithful when the float product
        # sits on an integer.
        k = math.floor(n ** (1.0 / 3.0) * ln ** (-2.0 / 3.0) + 1e-9)
        delta = float(n) ** (-4.0 / 3.0)
    else:
        k = math.ceil(n ** (1.0 / (dim + 2)) * ln ** (-2.0 / (dim + 2)) - 1e-9)
        delta = float(n) ** (-(2.0 * dim + 2.0) / (dim + 2.0))
    return ParameterChoice(k=max(k, 1), delta=delta)


def cab_parameters(t: int) -> int:
    """Interval count sqrt(T)/log(T) tuned for the replayable-arm setting,
    kept as a baseline to compare against the budget-aware schedule."""
    if t < 8:
        raise ValueError("need T >= 8")
    return max(1, math.floor(math.sqrt(t) / math.log(t) + 1e-9))


def corollary_parameters(t: int, alpha: float) -> int:
    """K = floor(alpha^(2/3) (2T)^(1/(3 alpha)) log(2T)^(-2/3)) for budgets
    growing like 0.5 N^alpha."""
    if t < 2:
        raise ValueError("need T >= 2")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    k = math.floor(
        alpha ** (2.0 / 3.0)
        * (2.0 * t) ** (1.0 / (3.0 * alpha))
        * math.log(2.0 * t) ** (-2.0 / 3.0)
        + 1e-9
    )
    return max(k, 1)


def ucbf_index(sum_rewards, n_k, t_budget: int, delta: float):
    """Empirical bin mean plus the exploration bonus sqrt(log(T/delta)/(2n)).

    Works elementwise on arrays of reward sums and pull counts as well as
    on scalars.  Never-pulled bins have no index; callers must initialise
    them with a forced pull instead.
    """
    n_k = np.asarray(n_k)
    if np.any(n_k < 1):
        raise ValueError("index undefined for an unpulled bin")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return sum_rewards / n_k + np.sqrt(math.log(t_budget / delta) / (2.0 * n_k))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyTrace:
    """Ordered record of one run: which arms were pulled and what they paid."""

    pulled: np.ndarray
    rewards: np.ndarray
    policy_id: str
    seed: int

    def __post_init__(self):
        pulled = np.asarray(self.pulled, dtype=np.int64)
        rewards = np.asarray(self.rewards, dtype=np.float64)
        if pulled.shape != rewards.shape or pulled.ndim != 1:
            raise ValueError("pulled and rewards must be 1-d of equal length")
        object.__setattr__(self, "pulled", pulled)
        object.__setattr__(self, "rewards", rewards)

    def __len__(self) -> int:
        return self.pulled.size


def write_trace_jsonl(trace: PolicyTrace, path, partition: Optional[Partition] = None) -> None:
    """One JSON record per pull: t (1-based), bin, arm, reward."""
    assignment = partition.assignment if partition is not None else None
    with open(path, "w") as fh:
        for i in range(len(trace)):
            arm = int(trace.pulled[i])
            rec = {
                "t": i + 1,
                "bin": int(assignment[arm]) if assignment is not None else None,
                "arm": arm,
                "reward": float(trace.rewards[i]),
            }
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _run_streams(seed: int) -> tuple[np.random.Generator, np.random.SeedSequence]:
    """Independent reward and selection streams derived from one seed: the
    reward generator and the seed sequence of the selection stream."""
    s_rewards, s_select = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(s_rewards), s_select


def ucbf_run(
    instance: Instance,
    partition: Partition,
    delta: float,
    seed: int,
    policy_id: str = "ucbf",
) -> PolicyTrace:
    """Run the confidence-bound policy over alive bins for T pulls.

    Initialisation pulls one arm from each alive bin in ascending bin order
    (stopping early if the budget runs out); every later pull takes an arm
    from the bin with the highest index, ties to the lowest bin id.  A bin
    leaves the alive set in the same step its last arm is pulled.

    Stream layout: the selection stream draws one uniform permutation of
    each alive bin's arms, in ascending bin order, and the reward stream
    draws each arm's reward in that order.  The n-th pull from a bin takes
    the n-th arm of its permutation, so every index value a bin can take is
    known before the run.  Pulling the largest current index is then a
    stable sort: replace each bin's index sequence by its running minimum
    (a bin whose index rises after a pull is still the largest and is
    pulled again at once), concatenate in (bin, pull count) order, and sort
    descending; ties fall to the lower bin as in the greedy rule.
    """
    if partition.n_arms != instance.n:
        raise ValueError("partition was not built from this instance's arms")
    t_budget = instance.T
    alive = partition.initial_alive()
    sizes = partition.counts[alive]
    reachable = int(sizes.sum())
    if t_budget > reachable:
        raise ValueError(
            f"budget {t_budget} exceeds the {reachable} arms reachable through "
            "alive bins (bins holding fewer than two arms are never pulled)"
        )
    reward_rng, s_select = _run_streams(seed)
    select = np.random.default_rng(s_select)
    stream = np.concatenate([select.permutation(partition.arms_in_bin(b)) for b in alive])
    rewards = instance.rewards.sample(instance.true_means[stream], reward_rng)

    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    # keys[i] holds the running-minimum index of bin alive[i] after n = 1 ..
    # size-1 pulls.  A cumsum per bin adds the rewards in pull order, as a
    # per-pull loop does; one cumsum over all bins minus offsets would not.
    keys = [
        np.minimum.accumulate(
            ucbf_index(np.cumsum(rewards[s : s + m - 1]), np.arange(1, m), t_budget, delta)
        )
        for s, m in zip(starts.tolist(), sizes.tolist())
    ]
    n_init = min(t_budget, alive.size)
    later = np.argsort(-np.concatenate(keys), kind="stable")[: t_budget - n_init]
    # Key q of bin i (its index after n = q - key_starts[i] + 1 pulls) picks
    # the bin's next arm, at stream position starts[i] + n = q + i + 1.
    key_starts = starts - np.arange(alive.size)
    later += np.searchsorted(key_starts, later, side="right")
    order = np.concatenate((starts[:n_init], later))
    return PolicyTrace(stream[order], rewards[order], policy_id, seed)


def oracle_star(instance: Instance, seed: int = 0) -> PolicyTrace:
    """Greedy oracle: pulls the T arms with the largest true means, in
    decreasing-mean order with ties broken by ascending arm index."""
    star = instance.star_order()
    # The star set is in ascending index, so a stable sort of its T means
    # breaks ties by index.
    pulled = star[np.argsort(-instance.true_means[star], kind="stable")]
    reward_rng, _ = _run_streams(seed)
    obs = instance.rewards.sample(instance.true_means[pulled], reward_rng)
    return PolicyTrace(pulled, obs, "oracle-star", seed)


def oracle_discrete(
    instance: Instance,
    partition: Partition,
    bin_means,
    seed: int = 0,
) -> PolicyTrace:
    """Discretised oracle: empties the best bins by the supplied bin means
    (ties to the lower bin id), then fills the remaining budget uniformly
    at random from the first bin that straddles it."""
    if partition.n_arms != instance.n:
        raise ValueError("partition was not built from this instance's arms")
    order, f_hat = rank_bins(partition, bin_means, instance.T)
    parts = [partition.arms_in_bin(int(b)) for b in order[:f_hat]]
    taken = sum(p.size for p in parts)
    remainder = instance.T - taken
    reward_rng, s_select = _run_streams(seed)
    if remainder > 0:
        select = random.Random(int(s_select.generate_state(1, np.uint64)[0]))
        pool = partition.arms_in_bin(int(order[f_hat])).tolist()
        parts.append(np.array(select.sample(pool, remainder), dtype=np.int64))
    pulled = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    obs = instance.rewards.sample(instance.true_means[pulled], reward_rng)
    return PolicyTrace(pulled, obs, "oracle-discrete", seed)


def baseline_random(instance: Instance, seed: int = 0) -> PolicyTrace:
    """Uniformly random size-T subset, pulled in random order."""
    reward_rng, _ = _run_streams(seed)
    pulled = reward_rng.permutation(instance.n)[: instance.T].astype(np.int64)
    obs = instance.rewards.sample(instance.true_means[pulled], reward_rng)
    return PolicyTrace(pulled, obs, "random", seed)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """How the experiments run one policy.

    ``run(instance, partition, bin_means, delta, seed)`` returns the trace.
    It looks its policy function up in this module at call time, so a
    wrapper set on the module attribute sees every call.  ``cab_k``: the
    policy bins with the cab K of the budget (``cab_parameters``) whatever
    the experiment's K rule.  ``lower_bound``: the lower-bound protocol may
    run the policy, which it can only when the policy needs no bin means.
    """

    run: Callable[..., PolicyTrace]
    cab_k: bool = False
    lower_bound: bool = True


POLICIES = {
    "ucbf": PolicySpec(lambda inst, part, bm, delta, seed: ucbf_run(inst, part, delta, seed)),
    "ucbf-cab-k": PolicySpec(
        lambda inst, part, bm, delta, seed: ucbf_run(
            inst, part, delta, seed, policy_id="ucbf-cab-k"
        ),
        cab_k=True,
    ),
    "oracle-star": PolicySpec(lambda inst, part, bm, delta, seed: oracle_star(inst, seed)),
    "oracle-discrete": PolicySpec(
        lambda inst, part, bm, delta, seed: oracle_discrete(inst, part, bm, seed),
        lower_bound=False,
    ),
    "random": PolicySpec(lambda inst, part, bm, delta, seed: baseline_random(inst, seed)),
}
