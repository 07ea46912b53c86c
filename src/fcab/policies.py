"""Pull strategies over a shared bin partition of the covariate space.

The UCBF policy discretises [0, 1]^dim into K^dim equal bins, treats each
bin as a finite-capacity arm of a multi-armed bandit, and plays an upper
confidence bound index over the bins that still hold unpulled arms.  Bins
that start with fewer than two arms are never alive and their arms are
unreachable; a budget that cannot be met from alive bins fails the run
(its sweep cell fails and ``fcab sweep`` exits 2), not a silent
under-pull.  Each arm is pulled at most once and a pull takes a
uniformly random unpulled arm of its bin, so a run draws up front, for
each alive bin, an ordered uniform sample of as many of its arms as the
budget could take from it, and takes the bin's arms in that order; its
pull set then follows from one selection and its pull order from one
stable sort, with no per-pull loop (see ``ucbf_run``).

Oracle baselines: the greedy oracle pulls arms in decreasing true-mean
order; the discretised oracle empties the best bins (by a supplied
ranking) and fills the remainder from the first bin that straddles the
budget.  Regret and its decomposition read only which arms a run pulled,
so every policy hands back its pull set as an N-long mask
(``PolicyTrace.mask``) and builds the pull order and rewards on first
read: a sweep never builds them.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .environment import ArmSet, Instance, _top_mask

__all__ = [
    "POLICIES",
    "PolicySpec",
    "Partition",
    "ParameterChoice",
    "PolicyTrace",
    "build_partition",
    "default_parameters",
    "cab_parameters",
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

    @property
    def bin_count(self) -> int:
        return self.counts.size

    @property
    def n_arms(self) -> int:
        return self.assignment.size

    def bin_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Every bin's lower and upper corner, as (bin_count, dim) arrays
        in bin id order."""
        k = self.k_per_axis
        digits = np.indices((k,) * self.dim).reshape(self.dim, -1).T
        return digits / k, (digits + 1) / k


def build_partition(arms: ArmSet, k: int) -> Partition:
    """The arms' partition into k^dim bins, with bin ids of the narrowest
    unsigned type that holds every id."""
    if k < 1:
        raise ValueError("need at least one bin per axis")
    bin_count = k**arms.dim
    if bin_count > _MAX_BINS:
        raise ValueError(f"bin count {bin_count} exceeds the supported maximum")
    # Per-axis digits in one pass, truncated as ``astype`` truncates.  The
    # covariate 1.0 gives k before the clip, so the digits' type must hold k.
    digits = np.empty(arms.covariates.shape, np.min_scalar_type(k))
    np.multiply(arms.covariates, k, out=digits, casting="unsafe")
    np.minimum(digits, k - 1, out=digits)
    if arms.dim == 1:  # the digit is the bin id
        flat = digits.reshape(-1)
    else:
        flat = np.ravel_multi_index(tuple(digits.T), (k,) * arms.dim)
    flat = flat.astype(np.min_scalar_type(bin_count - 1), copy=False)
    return Partition(k, arms.dim, flat, np.bincount(flat, minlength=bin_count))


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


def _bonus(n_k, t_budget: int, delta: float):
    """The exploration bonus sqrt(log(T/delta)/(2n)) of a bin pulled n
    times, elementwise; UCBF's index of the bin is its empirical mean plus
    this bonus."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return np.sqrt(math.log(t_budget / delta) / (2.0 * n_k))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


class PolicyTrace:
    """Record of one run: ``mask``, the pull set as an N-long bool mask;
    ``pulled``, those arms in pull order; ``rewards``, what each pull
    paid.  ``build()`` returns ``(pulled, rewards)``; it runs on the first
    read of either, and the trace then drops it.  ``len`` builds nothing,
    and pickling builds both.  Regret reads only the mask, so a sweep
    builds neither; ``analysis`` refuses a mask of the wrong length or
    count."""

    def __init__(self, mask, build):
        self.mask = np.asarray(mask, dtype=bool)
        self._build = build

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arrays, self._build = self._build(), None
        return arrays

    @property
    def pulled(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def rewards(self) -> np.ndarray:
        return self._arrays[1]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __getstate__(self):
        self._arrays  # builds both arrays and drops the builder
        return self.__dict__


def write_trace_jsonl(trace: PolicyTrace, path, partition: Partition) -> None:
    """One JSON record per pull: t (1-based), bin, arm, reward."""
    pulled = trace.pulled
    records = zip(partition.assignment[pulled].tolist(), pulled.tolist(), trace.rewards.tolist())
    with open(path, "w") as fh:
        for t, (b, arm, reward) in enumerate(records, 1):
            fh.write(json.dumps({"t": t, "bin": b, "arm": arm, "reward": reward}) + "\n")


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
) -> PolicyTrace:
    """Run the confidence-bound policy over alive bins for T pulls.

    Initialisation pulls one arm from each alive bin in ascending bin order
    (stopping early if the budget runs out); every later pull takes an arm
    from the bin with the highest index, ties to the lowest bin id.  A bin
    leaves the alive set in the same step its last arm is pulled.

    Stream layout: a run pulls at most c_b = min(m_b, T) arms of a bin
    holding m_b arms.  The selection stream draws an ordered uniform sample
    of c_b of each alive bin's arms (``Generator.choice`` without
    replacement), in ascending bin order, and the reward stream draws each
    sampled arm's reward in that order.  The n-th pull from a bin takes the
    n-th arm of its sample, so every index value a bin can take is known
    before the run.  Pulling the largest current index is then a stable
    sort: key each bin's first arm +inf (the forced initial pull) and its
    (n+1)-th arm by the running minimum of the bin's index after n pulls
    (a bin whose index rises after a pull is still the largest and is
    pulled again at once), and sort descending; ties fall to the lower bin
    as in the greedy rule.  Each bin's keys never increase, so the T
    largest keys, ties to the lower position, are a prefix of every bin:
    the pull set is one selection over the sum of the c_b, and the sort
    runs only when the pull order or the rewards are read.
    """
    if partition.n_arms != instance.n:
        raise ValueError("partition was not built from this instance's arms")
    t_budget = instance.T
    counts = partition.counts
    alive = counts >= 2
    sizes = counts[alive]
    reachable = int(sizes.sum())
    if t_budget > reachable:
        raise ValueError(
            f"budget {t_budget} exceeds the {reachable} arms reachable through "
            "alive bins (bins holding fewer than two arms are never pulled)"
        )
    takes = np.minimum(sizes, t_budget)
    pulls = np.arange(1, takes.max())
    bonus = _bonus(pulls, t_budget, delta)
    reward_rng, s_select = _run_streams(seed)
    select = np.random.default_rng(s_select)
    # Every arm grouped by bin in ascending arm order (numpy radix-sorts the
    # 8- and 16-bit ids ``build_partition`` gives); each alive bin's sample
    # indexes its slice and lands in its place in the stream.
    grouped = np.argsort(partition.assignment, kind="stable")
    stream = np.empty(int(takes.sum()), grouped.dtype)
    bins = list(zip((np.cumsum(counts)[alive] - sizes).tolist(), sizes.tolist(),
                    np.cumsum(takes).tolist(), takes.tolist()))
    for first, m, end, c in bins:
        np.take(grouped[first : first + m], select.choice(m, c, replace=False),
                out=stream[end - c : end])
    del grouped  # 8 bytes per arm that the rest of the run does not read
    rewards = instance.rewards.sample(instance.true_means[stream], reward_rng)

    keys = np.empty(stream.size)
    for _, _, end, c in bins:
        # The index sum / n + bonus, in that order of operations; a cumsum
        # per bin adds the rewards in pull order, as a per-pull loop does.
        key = keys[end - c + 1 : end]
        np.cumsum(rewards[end - c : end - 1], out=key)
        key /= pulls[: c - 1]
        key += bonus[: c - 1]
        np.minimum.accumulate(key, out=key)
        keys[end - c] = np.inf

    def build():
        order = np.argsort(-keys, kind="stable")[:t_budget]
        return stream[order], rewards[order]

    return PolicyTrace(_scatter(instance.n, stream[_top_mask(keys, t_budget)[0]]), build)


def _scatter(n: int, arms: np.ndarray) -> np.ndarray:
    """The N-long mask of a pull set given by its arm indices."""
    mask = np.zeros(n, dtype=bool)
    mask[arms] = True
    return mask


def _order_then_draw(instance: Instance, reward_rng: np.random.Generator, order):
    """A trace builder for the oracles and the random baseline: the pull
    order ``order()``, then one reward per pull from the run's own reward
    generator."""

    def build():
        pulled = order()
        return pulled, instance.rewards.sample(instance.true_means[pulled], reward_rng)

    return build


def oracle_star(instance: Instance, seed: int = 0) -> PolicyTrace:
    """Greedy oracle: pulls the T arms with the largest true means, in
    decreasing-mean order with ties broken by ascending arm index.  The
    trace's mask is the instance's own star mask."""
    star = instance.star_mask()

    def order():
        # The star set in ascending index, so a stable sort breaks ties by index.
        arms = np.flatnonzero(star)
        return arms[np.argsort(-instance.true_means[arms], kind="stable")]

    reward_rng, _ = _run_streams(seed)
    return PolicyTrace(star, _order_then_draw(instance, reward_rng, order))


def oracle_discrete(
    instance: Instance,
    partition: Partition,
    order: np.ndarray,
    f_hat: int,
    seed: int = 0,
) -> PolicyTrace:
    """Discretised oracle: empties the first ``f_hat`` bins of the ranking
    ``order`` (``analysis.rank_bins``), then fills the remaining budget,
    at least one pull by the definition of f_hat, uniformly at random from
    the next bin.  The pulls take the emptied bins in ranking order, each
    bin's arms in ascending order, then the draws.  It finds the arms by
    bin id, so it never groups the arms by bin: the pull set's mask is the
    emptied bins' mask with the draws set, and the pull order rebuilds the
    emptied bins' arms from the ranking."""
    if partition.n_arms != instance.n:
        raise ValueError("partition was not built from this instance's arms")
    assignment = partition.assignment
    rank = np.empty(partition.bin_count, assignment.dtype)
    rank[order] = np.arange(partition.bin_count)
    mask = rank.take(assignment) < f_hat
    n_top = int(partition.counts[order[:f_hat]].sum())
    reward_rng, s_select = _run_streams(seed)
    pool = np.flatnonzero(assignment == int(order[f_hat]))
    drawn = np.random.default_rng(s_select).choice(pool, instance.T - n_top, replace=False)
    mask[drawn] = True

    def by_rank():
        ranks = rank.take(assignment)
        top = np.flatnonzero(ranks < f_hat)
        return np.concatenate((top[np.argsort(ranks.take(top), kind="stable")], drawn))

    return PolicyTrace(mask, _order_then_draw(instance, reward_rng, by_rank))


def baseline_random(instance: Instance, seed: int = 0) -> PolicyTrace:
    """Uniformly random size-T subset, pulled in random order."""
    reward_rng, _ = _run_streams(seed)
    pulled = reward_rng.choice(instance.n, instance.T, replace=False)
    return PolicyTrace(_scatter(instance.n, pulled),
                       _order_then_draw(instance, reward_rng, lambda: pulled))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """How the experiments run one policy.

    ``run(instance, partition, delta, seed)`` returns the trace.  It looks
    its policy function up in this module at call time, so a wrapper set
    on the module attribute sees every call.  ``run`` is None for the
    discretised oracle: its trace is the trial's reference run, which the
    lower-bound protocol does not make.  ``cab_k``: the policy bins with
    the cab K of the budget (``cab_parameters``) whatever the experiment's
    K rule.
    """

    run: Optional[Callable[..., PolicyTrace]]
    cab_k: bool = False


def _ucbf(inst, part, delta, seed):
    return ucbf_run(inst, part, delta, seed)


POLICIES = {
    "ucbf": PolicySpec(_ucbf),
    "ucbf-cab-k": PolicySpec(_ucbf, cab_k=True),
    "oracle-star": PolicySpec(lambda inst, part, delta, seed: oracle_star(inst, seed)),
    "oracle-discrete": PolicySpec(None),
    "random": PolicySpec(lambda inst, part, delta, seed: baseline_random(inst, seed)),
}
