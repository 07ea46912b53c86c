import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcab.analysis import rank_bins, regret_total
from fcab.environment import (
    ArmSet,
    Constant,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    grid_arms,
    make_instance,
    sample_arms_uniform,
)
from fcab.policies import (
    POLICIES,
    _run_streams,
    baseline_random,
    build_partition,
    cab_parameters,
    corollary_parameters,
    default_parameters,
    oracle_discrete,
    oracle_star,
    ucbf_index,
    ucbf_run,
    write_trace_jsonl,
)

BERN = RewardModel("bernoulli")


def identity():
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0))


def argmax_lowest(values):
    """Index of the maximum, ties resolved to the lowest index: the greedy
    rule ``reference_ucbf`` applies at every pull."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


class TestPartition:
    def test_one_dim_assignment(self):
        arms = ArmSet(np.array([[0.2], [0.999], [1.0], [0.0]]))
        part = build_partition(arms, 5)
        # [0.2, 0.4) is the second of five bins; 1.0 closes the last bin.
        np.testing.assert_array_equal(part.assignment, [1, 4, 4, 0])
        assert part.counts.sum() == 4

    def test_boundary_one_goes_last(self):
        part = build_partition(grid_arms(4), 2)
        assert part.assignment[-1] == 1

    def test_two_dim_digits(self):
        arms = ArmSet(np.array([[0.4, 0.9]]))
        part = build_partition(arms, 3)
        assert part.bin_count == 9
        # per-axis digits floor(0.4*3)=1, floor(0.9*3)=2; row-major id 1*3+2
        assert part.assignment[0] == 5

    @pytest.mark.parametrize(
        "dim, k", [(1, 255), (1, 256), (1, 257), (2, 256), (2, 257)]
    )
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_grouping_matches_int64_stable_sort(self, dim, k, seed, n):
        # k^dim bins on both sides of the uint8 and uint16 key limits.
        rng = np.random.default_rng(seed)
        cov = rng.random((n, dim))
        # Every other arm sits on one of four points, so some bins hold
        # many arms with interleaved indices.
        cov[::2] = rng.random((4, dim))[rng.integers(0, 4, cov[::2].shape[0])]
        cov[0] = 1.0  # occupies the last bin, id k^dim - 1
        part = build_partition(ArmSet(cov), k)
        np.testing.assert_array_equal(
            part._order, np.argsort(part.assignment, kind="stable")
        )

    def test_counts_match_assignment(self):
        arms = sample_arms_uniform(500, 2, 3)
        part = build_partition(arms, 4)
        assert part.bin_count == 16
        recounted = np.bincount(part.assignment, minlength=16)
        np.testing.assert_array_equal(recounted, part.counts)
        for b in range(part.bin_count):
            np.testing.assert_array_equal(
                part.arms_in_bin(b), np.flatnonzero(part.assignment == b)
            )

    def test_alive_requires_two_arms(self):
        part = build_partition(grid_arms(5), 4)
        # grid arms 0.2..1.0: counts (1,1,1,2); only the last bin is alive
        np.testing.assert_array_equal(part.counts, [1, 1, 1, 2])
        np.testing.assert_array_equal(part.initial_alive(), [3])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_partition(grid_arms(5), 0)


class TestParameterSchedules:
    def test_default_small(self):
        choice = default_parameters(1000, 0.5, 1)
        assert choice.k == 2
        assert choice.delta == pytest.approx(1e-4, rel=1e-12)

    def test_default_large(self):
        choice = default_parameters(10**6, 0.5, 1)
        assert choice.k == 17
        assert choice.delta == pytest.approx(1e-8, rel=1e-12)

    def test_higher_dim_uses_ceiling(self):
        choice = default_parameters(10**4, 0.5, 2)
        expected = math.ceil((10**4) ** 0.25 * math.log(10**4) ** -0.5)
        assert choice.k == expected == 4
        assert choice.delta == pytest.approx((10**4) ** (-1.5), rel=1e-12)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_parameters(2, 0.5, 1)

    def test_cab_parameters(self):
        assert cab_parameters(10**4) == 10
        assert cab_parameters(100) == 2
        assert cab_parameters(8) == 1
        with pytest.raises(ValueError):
            cab_parameters(7)

    def test_corollary_matches_default_along_power_law(self):
        # With T = 0.5 N^alpha the rule collapses to N^(1/3) log(N)^(-2/3).
        for alpha in (0.7, 0.85, 1.0):
            for n in (10**4, 10**5):
                t = int(math.floor(0.5 * n**alpha + 0.5))
                k = corollary_parameters(t, alpha)
                direct = math.floor(
                    alpha ** (2 / 3)
                    * (2 * t) ** (1 / (3 * alpha))
                    * math.log(2 * t) ** (-2 / 3)
                    + 1e-9
                )
                assert k == max(1, direct)


class TestUcbfIndex:
    def test_formula(self):
        expected = 0.6 + math.sqrt(math.log(10**4) / 4.0)
        assert ucbf_index(1.2, 2, 100, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_unit_bonus(self):
        # log(T/delta) = 2 makes the one-pull bonus exactly 1; delta = T/e^2
        # stays below 1 for T <= 7.
        t = 7
        assert ucbf_index(0.0, 1, t, t / math.e**2) == pytest.approx(1.0, rel=1e-12)

    def test_many_pulls(self):
        expected = 0.5 + math.sqrt(math.log(10**4) / 100.0)
        assert ucbf_index(25.0, 50, 100, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_rejects_unpulled(self):
        with pytest.raises(ValueError):
            ucbf_index(0.0, 0, 100, 0.01)

    def test_rejects_delta_outside_unit_interval(self):
        # One rule for delta, (0, 1); 50 < T = 100 passed the old (0, T) rule.
        for delta in (0.0, 1.0, 50.0):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                ucbf_index(0.0, 1, 100, delta)


class TestArgmax:
    def test_tie_breaks_low(self):
        assert argmax_lowest([1.0, 3.0, 3.0, 2.0]) == 1

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_invariance(self, tenths, a, b):
        # quantized values keep gaps large enough that the affine map
        # cannot collapse distinct entries through float absorption
        values = [v / 10.0 for v in tenths]
        mapped = [a * v + b for v in values]
        assert argmax_lowest(values) == argmax_lowest(mapped)


def reference_ucbf(inst, part, delta, seed):
    """Per-pull loop over the stream layout ucbf_run documents: one
    permutation of each alive bin's arms from the selection stream, rewards
    drawn in that order, then forced pulls and argmax pulls of ucbf_index."""
    s_rewards, s_select = np.random.SeedSequence(seed).spawn(2)
    select = np.random.default_rng(s_select)
    alive = [int(b) for b in part.initial_alive()]
    queues = {b: select.permutation(part.arms_in_bin(b)).tolist() for b in alive}
    stream = [arm for b in alive for arm in queues[b]]
    drawn = inst.rewards.sample(inst.true_means[stream], np.random.default_rng(s_rewards))
    reward_of = dict(zip(stream, drawn.tolist()))
    n_pulled = dict.fromkeys(alive, 0)
    sums = dict.fromkeys(alive, 0.0)
    pulled = []

    def pull(b):
        arm = queues[b][n_pulled[b]]
        n_pulled[b] += 1
        sums[b] += reward_of[arm]
        pulled.append(arm)
        if n_pulled[b] == len(queues[b]):
            alive.remove(b)

    for b in alive[: inst.T]:
        pull(b)
    while len(pulled) < inst.T:
        values = [ucbf_index(sums[b], n_pulled[b], inst.T, delta) for b in alive]
        pull(alive[argmax_lowest(values)])
    return pulled, [reward_of[arm] for arm in pulled]


class TestUcbfRun:
    def test_init_only_when_budget_is_two(self):
        # Two alive bins and T = 2: the trace is exactly the two forced
        # initialisation pulls, one per bin in ascending bin order.  (Grid
        # arms at N=4, K=2 would put the arm at 0.5 into the upper half-open
        # bin, so the two-per-bin layout needs explicit covariates.)
        arms = ArmSet(np.array([[0.2], [0.4], [0.6], [0.8]]))
        inst = make_instance(arms, identity(), BERN, 2)
        part = build_partition(inst.arms, 2)
        np.testing.assert_array_equal(part.counts, [2, 2])
        trace = ucbf_run(inst, part, 0.1, seed=5)
        assert len(trace) == 2
        bins = part.assignment[trace.pulled]
        np.testing.assert_array_equal(bins, [0, 1])

    def test_deterministic_reward_separation(self):
        # One bin pays 1 deterministically, the other 0: after the forced
        # initialisation, pulls 3..5 exhaust the paying bin, pull 6 falls
        # back to the dead-end bin.
        cov = np.array([[0.1], [0.2], [0.3], [0.4], [0.6], [0.7], [0.8], [0.9]])
        arms = ArmSet(cov)
        mean = PiecewiseLinear((0.0, 0.4, 0.6, 1.0), (1.0, 1.0, 0.0, 0.0))
        inst = make_instance(arms, mean, BERN, 6)
        part = build_partition(arms, 2)
        trace = ucbf_run(inst, part, 0.01, seed=11)
        bins = part.assignment[trace.pulled]
        np.testing.assert_array_equal(bins[2:5], [0, 0, 0])
        assert bins[5] == 1

    def test_all_pulls_distinct(self):
        inst = make_instance(sample_arms_uniform(200, 1, 8), identity(), BERN, 120)
        part = build_partition(inst.arms, 5)
        trace = ucbf_run(inst, part, 0.01, seed=3)
        assert len(np.unique(trace.pulled)) == inst.T

    def test_never_pulls_singleton_bins(self):
        part = build_partition(grid_arms(5), 4)  # counts (1,1,1,2)
        inst = make_instance(grid_arms(5), identity(), BERN, 2)
        trace = ucbf_run(inst, part, 0.01, seed=1)
        assert set(trace.pulled.tolist()) == {3, 4}

    def test_unreachable_budget_errors(self):
        part = build_partition(grid_arms(5), 4)
        inst = make_instance(grid_arms(5), identity(), BERN, 3)
        with pytest.raises(ValueError, match="reachable"):
            ucbf_run(inst, part, 0.01, seed=1)

    def test_equal_indices_prefer_lower_bin(self):
        # Deterministic unit rewards keep both bins at identical indices;
        # the strict comparison sends the first post-init pull to bin 0.
        inst = make_instance(grid_arms(8), Constant(1.0), BERN, 4)
        part = build_partition(inst.arms, 2)
        trace = ucbf_run(inst, part, 0.1, seed=9)
        bins = part.assignment[trace.pulled]
        assert bins[2] == 0

    def test_determinism(self):
        inst = make_instance(sample_arms_uniform(300, 1, 5), identity(), BERN, 150)
        part = build_partition(inst.arms, 6)
        a = ucbf_run(inst, part, 0.01, seed=77)
        b = ucbf_run(inst, part, 0.01, seed=77)
        np.testing.assert_array_equal(a.pulled, b.pulled)
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_bin_exhaustion_matches_last_pull(self):
        inst = make_instance(grid_arms(12), identity(), BERN, 12)
        part = build_partition(inst.arms, 3)
        trace = ucbf_run(inst, part, 0.01, seed=2)
        # each bin's pull count equals its arm count when T = N
        for b in range(part.bin_count):
            assert np.sum(part.assignment[trace.pulled] == b) == part.counts[b]

    def test_two_dimensional_run(self):
        # d-ary bins behave like intervals: distinct pulls, singleton bins
        # untouched, full coverage of alive bins at matching budget.
        arms = sample_arms_uniform(300, 2, 21)
        inst = make_instance(arms, Constant(0.5, dim=2), BERN, 150)
        part = build_partition(arms, 3)
        assert part.bin_count == 9
        trace = ucbf_run(inst, part, 0.01, seed=4)
        assert len(np.unique(trace.pulled)) == 150
        alive = set(part.initial_alive().tolist())
        pulled_bins = set(part.assignment[trace.pulled].tolist())
        assert pulled_bins <= alive

    def test_matches_uncached_reference(self):
        # The run orders its pulls by one stable sort; a straight per-pull
        # loop on the same stream layout that recomputes every index through
        # ucbf_index each step must produce bit-identical traces.
        for seed in range(6):
            inst = make_instance(
                sample_arms_uniform(120, 1, 40 + seed), identity(), BERN, 70
            )
            part = build_partition(inst.arms, 4)
            fast = ucbf_run(inst, part, 0.01, seed=seed)
            pulled, rewards = reference_ucbf(inst, part, 0.01, seed)
            np.testing.assert_array_equal(fast.pulled, pulled)
            np.testing.assert_array_equal(fast.rewards, rewards)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 80),
        dim=st.sampled_from([1, 2]),
        k=st.integers(1, 7),
        value=st.sampled_from([None, 0.0, 0.5, 1.0]),
        gaussian=st.booleans(),
        delta=st.sampled_from([1e-4, 0.01, 0.5]),
        arm_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_matches_reference_on_random_instances(
        self, n, dim, k, value, gaussian, delta, arm_seed, seed, data
    ):
        # Constant means (value) under 0/1 rewards give equal indices; small
        # N with many bins gives singleton bins; T is drawn down to 1, below
        # the number of alive bins.
        arms = sample_arms_uniform(n, dim, arm_seed)
        if value is not None:
            mean_fn = Constant(value, dim=dim)
        else:
            mean_fn = identity() if dim == 1 else Sinusoid(0.4, 1.0, 0.5, dim=dim)
        part = build_partition(arms, k)
        reachable = int(part.counts[part.initial_alive()].sum())
        assume(reachable >= 1)
        t = data.draw(st.integers(1, reachable), label="T")
        rewards = RewardModel("clipped_gaussian", 0.25) if gaussian else BERN
        inst = make_instance(arms, mean_fn, rewards, t)
        fast = ucbf_run(inst, part, delta, seed=seed)
        pulled, obs = reference_ucbf(inst, part, delta, seed)
        np.testing.assert_array_equal(fast.pulled, pulled)
        np.testing.assert_array_equal(fast.rewards, obs)

    def test_k1_matches_random_baseline_distribution(self):
        # With a single interval the run is sampling without replacement;
        # the pulled-set law must match the uniform-subset baseline.
        # Two-sample chi-square over all C(6,3)=20 subsets, 1e4 seeds each.
        from itertools import combinations

        inst = make_instance(grid_arms(6), identity(), BERN, 3)
        part = build_partition(inst.arms, 1)
        subsets = {frozenset(c): i for i, c in enumerate(combinations(range(6), 3))}
        counts = np.zeros((2, 20))
        for seed in range(10**4):
            a = ucbf_run(inst, part, 0.01, seed=seed)
            b = baseline_random(inst, seed=seed + 10**6)
            counts[0, subsets[frozenset(a.pulled.tolist())]] += 1
            counts[1, subsets[frozenset(b.pulled.tolist())]] += 1
        expected = counts.sum(axis=0) / 2.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 19 dof, significance 1e-3
        from scipy.stats import chi2

        assert stat < chi2.ppf(0.999, 19)


class TestOracles:
    def test_star_pull_order(self):
        inst = make_instance(grid_arms(4), identity(), BERN, 2)
        trace = oracle_star(inst, seed=0)
        np.testing.assert_array_equal(trace.pulled, [3, 2])  # covariates 1.0, 0.75

    def test_star_tie_break(self):
        inst = make_instance(grid_arms(4), Constant(0.5), BERN, 2)
        trace = oracle_star(inst, seed=0)
        np.testing.assert_array_equal(trace.pulled, [0, 1])

    def test_star_full_budget(self):
        inst = make_instance(grid_arms(7), identity(), BERN, 7)
        trace = oracle_star(inst, seed=0)
        assert set(trace.pulled.tolist()) == set(range(7))

    @pytest.mark.parametrize(
        "arms, mean, ties",
        [
            (sample_arms_uniform(2**12, 1, 5), Sinusoid(0.35, 1.15, 0.5), False),
            (grid_arms(2**13), PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3)), True),
        ],
    )
    def test_star_order_is_the_stable_order_at_scale(self, arms, mean, ties):
        # numpy's default sort takes another path on small arrays; at these
        # sizes its order among equal keys is not the index order, and the
        # plateau's tied means must still come out in ascending index.
        inst = make_instance(arms, mean, RewardModel("clipped_gaussian", 0.1), arms.n // 2)
        star = inst.star_order()
        expected = star[np.argsort(-inst.true_means[star], kind="stable")]
        sorted_means = inst.true_means[expected]
        assert bool(np.any(sorted_means[1:] == sorted_means[:-1])) == ties
        for seed in (0, 3):
            trace = oracle_star(inst, seed)
            np.testing.assert_array_equal(trace.pulled, expected)
            reward_rng, _ = _run_streams(seed)
            np.testing.assert_array_equal(
                trace.rewards, inst.rewards.sample(sorted_means, reward_rng)
            )

    def _three_bin_instance(self, t):
        # two arms per bin at K=3, keeping covariates off the bin edges
        cov = np.array([[0.1], [0.2], [0.4], [0.5], [0.7], [0.8]])
        inst = make_instance(ArmSet(cov), identity(), BERN, t)
        part = build_partition(inst.arms, 3)
        np.testing.assert_array_equal(part.counts, [2, 2, 2])
        return inst, part

    def test_discrete_partial_boundary(self):
        inst, part = self._three_bin_instance(3)
        trace = oracle_discrete(inst, part, *rank_bins(part, [0.9, 0.5, 0.1], inst.T), seed=4)
        pulled = set(trace.pulled.tolist())
        assert {0, 1} <= pulled  # both arms of the best bin
        assert len(pulled & {2, 3}) == 1  # one random arm of the middle bin

    def test_discrete_full_budget(self):
        inst, part = self._three_bin_instance(6)
        trace = oracle_discrete(inst, part, *rank_bins(part, [0.9, 0.5, 0.1], inst.T), seed=4)
        assert set(trace.pulled.tolist()) == set(range(6))

    def test_discrete_exact_cover(self):
        inst, part = self._three_bin_instance(2)
        trace = oracle_discrete(inst, part, *rank_bins(part, [0.9, 0.5, 0.1], inst.T), seed=4)
        assert set(trace.pulled.tolist()) == {0, 1}

    def test_discrete_orders_by_means_not_position(self):
        inst, part = self._three_bin_instance(2)
        trace = oracle_discrete(inst, part, *rank_bins(part, [0.1, 0.5, 0.9], inst.T), seed=4)
        assert set(trace.pulled.tolist()) == {4, 5}

    def test_discrete_boundary_fill_is_uniform(self):
        # Grid arms at K = 4: bin 2 (10 arms) ranks first and is emptied;
        # bin 0 (9 arms) ranks second and fills the remaining 3 pulls.
        inst = make_instance(grid_arms(40), identity(), BERN, 13)
        part = build_partition(inst.arms, 4)
        emptied, boundary = part.arms_in_bin(2), part.arms_in_bin(0)
        remainder = inst.T - emptied.size
        picks = np.zeros(inst.n, dtype=np.int64)
        ranking = rank_bins(part, [0.5, 0.1, 0.9, 0.3], inst.T)
        for seed in range(2000):
            pulled = oracle_discrete(inst, part, *ranking, seed=seed).pulled
            assert np.unique(pulled).size == pulled.size == inst.T
            picks[pulled] += 1
        assert np.all(picks[emptied] == 2000)
        outside = np.ones(inst.n, dtype=bool)
        outside[emptied] = outside[boundary] = False
        assert not picks[outside].any()
        q = remainder / boundary.size
        assert remainder == 3 and boundary.size == 9
        assert np.all(np.abs(picks[boundary] - 2000 * q) <= 5 * math.sqrt(2000 * q * (1 - q)))


class TestRandomBaseline:
    def test_full_budget_covers_all(self):
        inst = make_instance(grid_arms(10), identity(), BERN, 10)
        trace = baseline_random(inst, seed=3)
        assert set(trace.pulled.tolist()) == set(range(10))

    def test_reproducible(self):
        inst = make_instance(grid_arms(30), identity(), BERN, 10)
        a = baseline_random(inst, seed=12)
        b = baseline_random(inst, seed=12)
        np.testing.assert_array_equal(a.pulled, b.pulled)

    def test_expected_regret(self):
        # Closed-form oracle: E[regret] = sum(top T means) - (T/N) sum(all),
        # with the sums computed by brute force.
        inst = make_instance(grid_arms(100), identity(), BERN, 50)
        means = sorted(inst.true_means.tolist(), reverse=True)
        expected = sum(means[:50]) - 0.5 * sum(means)
        assert expected == pytest.approx(12.5, abs=1e-12)
        sims = [
            regret_total(inst, baseline_random(inst, seed=s)) for s in range(10**4)
        ]
        assert abs(float(np.mean(sims)) - expected) < 0.3


class TestTraces:
    def test_policy_ids(self):
        assert set(POLICIES) == {
            "ucbf",
            "ucbf-cab-k",
            "oracle-star",
            "oracle-discrete",
            "random",
        }

    def test_jsonl_records(self, tmp_path):
        import json

        inst = make_instance(grid_arms(8), identity(), BERN, 4)
        part = build_partition(inst.arms, 2)
        trace = ucbf_run(inst, part, 0.01, seed=6)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path, part)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["t"] for r in records] == [1, 2, 3, 4]
        for r in records:
            assert r["bin"] == int(part.assignment[r["arm"]])
            assert 0.0 <= r["reward"] <= 1.0
