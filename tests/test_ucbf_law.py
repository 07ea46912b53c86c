"""UCBF's law of pull sets, checked against an exact computation that
shares nothing with the engine.

With Bernoulli rewards, textbook UCBF (forced pulls of the alive bins in
ascending bin order, then the bin of largest index, ties to the lowest;
each pull a uniform unpulled arm of the bin) is a finite Markov chain on
each bin's pulled set and reward sum.  ``exact_law`` sums that chain over
every path, so it gives the exact probability of every pull set.  It reads
no stream, no index code and no key sort of ``ucbf_run``: only the means,
the bins, T and delta.  ``ucbf_run`` over fixed seeds must then match it:
a chi-square over pull sets and a z-score of the pulled arms' summed
means.
"""

import functools
import math

import numpy as np
import pytest

from fcab.environment import ArmSet, Instance, PiecewiseLinear, RewardModel, grid_arms
from fcab.policies import build_partition, ucbf_run

RUNS = 4000
DELTA = 0.01
HUMP = PiecewiseLinear((0.0, 0.5, 1.0), (0.1, 0.9, 0.3))
# Bin 0 of K = 2 always pays 1, so its index ties bin 1's whenever both
# have been pulled equally often and bin 1 has paid 1 every time.
CLIFF = PiecewiseLinear((0.0, 0.5, 1.0), (1.0, 1.0, 0.0))


def exact_law(means, bins, t_budget, delta):
    """{pull set: probability} of textbook UCBF over ``bins`` (each a tuple
    of arm indices, ascending bin id; bins of fewer than two arms are
    never pulled) with Bernoulli rewards of ``means``."""
    bins = [b for b in bins if len(b) >= 2]
    log_term = math.log(t_budget / delta)

    def index(pulled, total):
        n = len(pulled)
        return total / n + math.sqrt(log_term / (2.0 * n))

    @functools.lru_cache(maxsize=None)
    def law(state):
        # state: each bin's (pulled arms, reward sum).
        if sum(len(pulled) for pulled, _ in state) == t_budget:
            return {frozenset().union(*(pulled for pulled, _ in state)): 1.0}
        open_ = [b for b, (pulled, _) in enumerate(state) if len(pulled) < len(bins[b])]
        fresh = [b for b in open_ if not state[b][0]]
        b = fresh[0] if fresh else max(open_, key=lambda b: (index(*state[b]), -b))
        pulled, total = state[b]
        left = [arm for arm in bins[b] if arm not in pulled]
        out = {}
        for arm in left:
            for reward, chance in ((1, means[arm]), (0, 1.0 - means[arm])):
                if chance == 0.0:
                    continue
                after = state[:b] + ((pulled | {arm}, total + reward),) + state[b + 1:]
                for pull_set, p in law(after).items():
                    out[pull_set] = out.get(pull_set, 0.0) + p * chance / len(left)
        return out

    return law(tuple((frozenset(), 0) for _ in bins))


def sorted_uniform_arms(n, seed):
    return ArmSet(np.sort(np.random.default_rng(seed).random(n)).reshape(n, 1))


# Every case can empty a bin: with probability 0.92, 0.27, 0.93 and 1.
CASES = {
    # name: (arms, mean, K, T)
    "hump-n8-k2-t4": (sorted_uniform_arms(8, 3), HUMP, 2, 4),  # bins of 6 and 2 arms
    "hump-n10-k3-t5": (sorted_uniform_arms(10, 5), HUMP, 3, 5),  # 4, 3 and 3
    "hump-grid10-k4-t6": (grid_arms(10), HUMP, 4, 6),  # 2, 2, 3 and 3
    "cliff-grid8-k2-t5": (grid_arms(8), CLIFF, 2, 5),  # 3 and 5; indices tie often
}


def case(name):
    """A case's instance and partition, and the exact law of its pull sets."""
    arms, mean, k, t_budget = CASES[name]
    inst = Instance(arms, mean, RewardModel("bernoulli"), t_budget)
    part = build_partition(arms, k)
    bins = [tuple(np.flatnonzero(part.assignment == b).tolist()) for b in range(part.bin_count)]
    return inst, part, exact_law(inst.true_means.tolist(), bins, t_budget, DELTA)


def chi_square_p(law, seen):
    """p-value of the observed pull sets against ``law``, cells of expected
    count below 5 pooled into one."""
    from scipy.stats import chi2

    observed, expected, pooled_o, pooled_e = [], [], 0, 0.0
    for pull_set, p in law.items():
        if p * RUNS < 5:
            pooled_o += seen.get(pull_set, 0)
            pooled_e += p * RUNS
        else:
            observed.append(seen.get(pull_set, 0))
            expected.append(p * RUNS)
    if pooled_e > 0:
        observed.append(pooled_o)
        expected.append(pooled_e)
    observed, expected = np.array(observed), np.array(expected)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, observed.size - 1))


def mean_sum_z(means, law, seen):
    """z-score of the runs' mean sum of pulled means against its exact
    expectation and standard error."""
    sums = {s: float(sum(means[list(s)])) for s in law}
    expect = sum(p * sums[s] for s, p in law.items())
    var = sum(p * (sums[s] - expect) ** 2 for s, p in law.items())
    observed = sum(count * sums[s] for s, count in seen.items()) / RUNS
    return (observed - expect) / math.sqrt(var / RUNS)


class TestExactLaw:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_probabilities_sum_to_one(self, name):
        inst, _, law = case(name)
        assert math.isclose(sum(law.values()), 1.0, rel_tol=1e-12)
        assert all(len(s) == inst.T for s in law)

    def test_init_only_budget_is_uniform_per_bin(self):
        # T equal to the alive bin count: one uniform arm of each bin.
        law = exact_law([0.5] * 5, [(0, 1), (2,), (3, 4)], 2, DELTA)
        assert law == {frozenset({a, b}): 0.25 for a in (0, 1) for b in (3, 4)}

    def test_deterministic_rewards_follow_the_index(self):
        # Bin 0 always pays 1 and bin 1 never does: after the two forced
        # pulls, bin 0 leads until it is empty, then bin 1 takes the rest.
        law = exact_law([1.0, 1.0, 0.0, 0.0, 0.0], [(0, 1), (2, 3, 4)], 4, DELTA)
        assert set(law) == {frozenset({0, 1, a, b}) for a, b in ((2, 3), (2, 4), (3, 4))}
        assert all(math.isclose(p, 1 / 3) for p in law.values())

    def test_ties_go_to_the_lower_bin(self):
        # Every arm pays 1, so equal pull counts tie: the third pull goes
        # to bin 0, whichever arm of bin 1 the second took.
        law = exact_law([1.0] * 4, [(0, 1), (2, 3)], 3, DELTA)
        assert law == {frozenset({0, 1, 2}): 0.5, frozenset({0, 1, 3}): 0.5}


@pytest.mark.parametrize("name", sorted(CASES))
def test_ucbf_run_follows_the_exact_law(name):
    inst, part, law = case(name)
    seen = {}
    for seed in range(RUNS):
        pull_set = frozenset(np.flatnonzero(ucbf_run(inst, part, DELTA, seed).mask).tolist())
        seen[pull_set] = seen.get(pull_set, 0) + 1
    assert set(seen) <= set(law), "a pull set the law gives probability 0"
    assert chi_square_p(law, seen) > 1e-3
    assert abs(mean_sum_z(inst.true_means, law, seen)) < 4.0
