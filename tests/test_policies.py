import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcab.analysis import bin_means_empirical, rank_bins, regret_total
from fcab.environment import (
    ArmSet,
    Constant,
    Instance,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    grid_arms,
    sample_arms_uniform,
)
from fcab.policies import (
    POLICIES,
    PolicyTrace,
    _bonus,
    _run_streams,
    baseline_random,
    build_partition,
    cab_parameters,
    default_parameters,
    oracle_discrete,
    oracle_star,
    ucbf_run,
    write_trace_jsonl,
)

BERN = RewardModel("bernoulli")


def identity():
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0))


def bin_arms(part, b):
    """The arms of bin ``b``, in ascending arm order."""
    return np.flatnonzero(part.assignment == b)


def alive_bins(part):
    """The bins UCBF can pull from: those holding at least two arms."""
    return np.flatnonzero(part.counts >= 2)


def ucbf_index(sum_rewards, n_k, t_budget, delta):
    """Empirical bin mean plus the exploration bonus sqrt(log(T/delta)/(2n)),
    elementwise on arrays as well as on scalars: the index ``ucbf_run``
    computes in one pass per bin.  An unpulled bin has no index."""
    n_k = np.asarray(n_k)
    if np.any(n_k < 1):
        raise ValueError("index undefined for an unpulled bin")
    return sum_rewards / n_k + _bonus(n_k, t_budget, delta)


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
        "dim, k",
        [(1, 255), (1, 256), (1, 257), (2, 16), (2, 17), (3, 6), (3, 7),
         (1, 65536), (1, 65537), (2, 256), (2, 257)],
    )
    def test_bin_ids_are_the_int64_ids_in_the_narrowest_type(self, dim, k):
        # k^dim bins on both sides of the uint8 and uint16 limits; at dim 1
        # and k = 256 or 65536 the digit k of a covariate 1.0 itself needs
        # the wider type before the clip.
        rng = np.random.default_rng(k * dim)
        cov = rng.random((3000, dim))
        cov[:4] = np.array([1.0, 0.0, np.nextafter(1.0, 0.0), (k - 1) / k])[:, None]
        cov[4:100] = rng.integers(0, k + 1, (96, dim)) / k  # on the bin edges
        part = build_partition(ArmSet(cov), k)
        assert part.assignment.dtype == np.min_scalar_type(k**dim - 1)
        digits = np.minimum((cov * k).astype(np.int64), k - 1)
        expected = np.ravel_multi_index(tuple(digits.T), (k,) * dim)
        np.testing.assert_array_equal(part.assignment, expected)
        assert part.assignment[0] == k**dim - 1 and part.assignment[1] == 0
        np.testing.assert_array_equal(part.counts, np.bincount(expected, minlength=k**dim))

    @pytest.mark.parametrize(
        "dim, k", [(1, 255), (1, 256), (1, 257), (2, 256), (2, 257)]
    )
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000))
    @settings(max_examples=20, deadline=None)
    def test_grouping_matches_int64_stable_sort(self, dim, k, seed, n):
        # k^dim bins on both sides of the uint8 and uint16 key limits:
        # ucbf_run groups the arms by a stable sort of the narrow ids.
        rng = np.random.default_rng(seed)
        cov = rng.random((n, dim))
        # Every other arm sits on one of four points, so some bins hold
        # many arms with interleaved indices.
        cov[::2] = rng.random((4, dim))[rng.integers(0, 4, cov[::2].shape[0])]
        cov[0] = 1.0  # occupies the last bin, id k^dim - 1
        part = build_partition(ArmSet(cov), k)
        # Each bin's arms, in ascending bin order, are the stable sort by
        # int64 id; an empty bin adds nothing, so only occupied bins are listed.
        grouped = np.argsort(part.assignment, kind="stable")
        np.testing.assert_array_equal(
            grouped, np.argsort(part.assignment.astype(np.int64), kind="stable")
        )
        np.testing.assert_array_equal(
            grouped, np.concatenate([bin_arms(part, b) for b in np.unique(part.assignment)])
        )

    def test_counts_match_assignment(self):
        arms = sample_arms_uniform(500, 2, 3)
        part = build_partition(arms, 4)
        assert part.bin_count == 16
        recounted = np.bincount(part.assignment, minlength=16)
        np.testing.assert_array_equal(recounted, part.counts)

    @pytest.mark.parametrize("dim, k", [(1, 1), (1, 7), (2, 3), (3, 4)])
    def test_bin_bounds_are_each_bins_corners(self, dim, k):
        part = build_partition(sample_arms_uniform(10, dim, 1), k)
        lo, hi = part.bin_bounds()
        assert lo.shape == hi.shape == (k**dim, dim)
        for b in range(part.bin_count):
            digits = np.array(np.unravel_index(b, (k,) * dim))
            np.testing.assert_array_equal(lo[b], digits / k)
            np.testing.assert_array_equal(hi[b], (digits + 1) / k)

    def test_alive_requires_two_arms(self):
        part = build_partition(grid_arms(5), 4)
        # grid arms 0.2..1.0: counts (1,1,1,2); only the last bin is alive,
        # so UCBF reaches its two arms and no other.
        np.testing.assert_array_equal(part.counts, [1, 1, 1, 2])
        inst = Instance(grid_arms(5), identity(), BERN, 2)
        assert sorted(ucbf_run(inst, part, 0.01, seed=0).pulled.tolist()) == [3, 4]
        inst = Instance(grid_arms(5), identity(), BERN, 3)
        with pytest.raises(ValueError, match="the 2 arms reachable"):
            ucbf_run(inst, part, 0.01, seed=0)

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

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            default_parameters(1000, 0.5, 0)

    def test_cab_parameters(self):
        assert cab_parameters(10**4) == 10
        assert cab_parameters(100) == 2
        assert cab_parameters(8) == 1
        with pytest.raises(ValueError):
            cab_parameters(7)


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
    """Per-pull loop over the stream layout ucbf_run documents: an ordered
    uniform sample of min(m_b, T) of each alive bin's m_b arms from the
    selection stream, rewards drawn in that order, then forced pulls and
    argmax pulls of ucbf_index; a bin leaves when all its arms are pulled."""
    s_rewards, s_select = np.random.SeedSequence(seed).spawn(2)
    select = np.random.default_rng(s_select)
    alive = alive_bins(part).tolist()
    queues = {}
    for b in alive:
        arms = bin_arms(part, b)
        queues[b] = arms[select.choice(arms.size, min(arms.size, inst.T), replace=False)].tolist()
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
        if n_pulled[b] == part.counts[b]:
            alive.remove(b)

    for b in alive[: inst.T]:
        pull(b)
    while len(pulled) < inst.T:
        values = [ucbf_index(sums[b], n_pulled[b], inst.T, delta) for b in alive]
        pull(alive[argmax_lowest(values)])
    return pulled, [reward_of[arm] for arm in pulled]


class TestUcbfRun:
    def test_rejects_a_partition_of_other_arms(self):
        inst = Instance(grid_arms(8), identity(), BERN, 4)
        part = build_partition(grid_arms(6), 2)
        with pytest.raises(ValueError, match="partition was not built from this instance's arms"):
            ucbf_run(inst, part, 0.1, seed=0)

    def test_init_only_when_budget_is_two(self):
        # Two alive bins and T = 2: the trace is exactly the two forced
        # initialisation pulls, one per bin in ascending bin order.  (Grid
        # arms at N=4, K=2 would put the arm at 0.5 into the upper half-open
        # bin, so the two-per-bin layout needs explicit covariates.)
        arms = ArmSet(np.array([[0.2], [0.4], [0.6], [0.8]]))
        inst = Instance(arms, identity(), BERN, 2)
        part = build_partition(arms, 2)
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
        inst = Instance(arms, mean, BERN, 6)
        part = build_partition(arms, 2)
        trace = ucbf_run(inst, part, 0.01, seed=11)
        bins = part.assignment[trace.pulled]
        np.testing.assert_array_equal(bins[2:5], [0, 0, 0])
        assert bins[5] == 1

    def test_all_pulls_distinct(self):
        arms = sample_arms_uniform(200, 1, 8)
        inst = Instance(arms, identity(), BERN, 120)
        part = build_partition(arms, 5)
        trace = ucbf_run(inst, part, 0.01, seed=3)
        assert len(np.unique(trace.pulled)) == inst.T

    def test_never_pulls_singleton_bins(self):
        part = build_partition(grid_arms(5), 4)  # counts (1,1,1,2)
        inst = Instance(grid_arms(5), identity(), BERN, 2)
        trace = ucbf_run(inst, part, 0.01, seed=1)
        assert set(trace.pulled.tolist()) == {3, 4}

    def test_unreachable_budget_errors(self):
        part = build_partition(grid_arms(5), 4)
        inst = Instance(grid_arms(5), identity(), BERN, 3)
        with pytest.raises(ValueError, match="reachable"):
            ucbf_run(inst, part, 0.01, seed=1)

    def test_equal_indices_prefer_lower_bin(self):
        # Deterministic unit rewards keep both bins at identical indices;
        # the strict comparison sends the first post-init pull to bin 0.
        arms = grid_arms(8)
        inst = Instance(arms, Constant(1.0), BERN, 4)
        part = build_partition(arms, 2)
        trace = ucbf_run(inst, part, 0.1, seed=9)
        bins = part.assignment[trace.pulled]
        assert bins[2] == 0

    def test_determinism(self):
        arms = sample_arms_uniform(300, 1, 5)
        inst = Instance(arms, identity(), BERN, 150)
        part = build_partition(arms, 6)
        a = ucbf_run(inst, part, 0.01, seed=77)
        b = ucbf_run(inst, part, 0.01, seed=77)
        np.testing.assert_array_equal(a.pulled, b.pulled)
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_bin_exhaustion_matches_last_pull(self):
        arms = grid_arms(12)
        inst = Instance(arms, identity(), BERN, 12)
        part = build_partition(arms, 3)
        trace = ucbf_run(inst, part, 0.01, seed=2)
        # each bin's pull count equals its arm count when T = N
        for b in range(part.bin_count):
            assert np.sum(part.assignment[trace.pulled] == b) == part.counts[b]

    def test_two_dimensional_run(self):
        # d-ary bins behave like intervals: distinct pulls, singleton bins
        # untouched, full coverage of alive bins at matching budget.
        arms = sample_arms_uniform(300, 2, 21)
        inst = Instance(arms, Constant(0.5, dim=2), BERN, 150)
        part = build_partition(arms, 3)
        assert part.bin_count == 9
        trace = ucbf_run(inst, part, 0.01, seed=4)
        assert len(np.unique(trace.pulled)) == 150
        alive = set(alive_bins(part).tolist())
        pulled_bins = set(part.assignment[trace.pulled].tolist())
        assert pulled_bins <= alive

    def test_matches_uncached_reference(self):
        # The run orders its pulls by one stable sort; a straight per-pull
        # loop on the same stream layout that recomputes every index through
        # ucbf_index each step must produce bit-identical traces.
        for seed in range(6):
            arms = sample_arms_uniform(120, 1, 40 + seed)
            inst = Instance(arms, identity(), BERN, 70)
            part = build_partition(arms, 4)
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
        reachable = int(part.counts[alive_bins(part)].sum())
        assume(reachable >= 1)
        t = data.draw(st.integers(1, reachable), label="T")
        rewards = RewardModel("clipped_gaussian", 0.25) if gaussian else BERN
        inst = Instance(arms, mean_fn, rewards, t)
        fast = ucbf_run(inst, part, delta, seed=seed)
        pulled, obs = reference_ucbf(inst, part, delta, seed)
        np.testing.assert_array_equal(fast.pulled, pulled)
        np.testing.assert_array_equal(fast.rewards, obs)

    def test_k1_matches_random_baseline_distribution(self):
        # With a single interval the run is sampling without replacement;
        # the pulled-set law must match the uniform-subset baseline.
        # Two-sample chi-square over all C(6,3)=20 subsets, 1e4 seeds each.
        from itertools import combinations

        arms = grid_arms(6)
        inst = Instance(arms, identity(), BERN, 3)
        part = build_partition(arms, 1)
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
        inst = Instance(grid_arms(4), identity(), BERN, 2)
        trace = oracle_star(inst, seed=0)
        np.testing.assert_array_equal(trace.pulled, [3, 2])  # covariates 1.0, 0.75

    def test_star_tie_break(self):
        inst = Instance(grid_arms(4), Constant(0.5), BERN, 2)
        trace = oracle_star(inst, seed=0)
        np.testing.assert_array_equal(trace.pulled, [0, 1])

    def test_star_full_budget(self):
        inst = Instance(grid_arms(7), identity(), BERN, 7)
        trace = oracle_star(inst, seed=0)
        assert set(trace.pulled.tolist()) == set(range(7))

    @pytest.mark.parametrize("mean", [Sinusoid(0.35, 1.15, 0.5), Constant(0.5)])
    def test_star_trace_mask_is_its_arms_scattered(self, mean):
        # The greedy oracle hands over the instance's star mask, so regret
        # scatters nothing for it.
        inst = Instance(sample_arms_uniform(1000, 1, 4), mean, BERN, 300)
        trace = oracle_star(inst, seed=0)
        scattered = np.zeros(inst.n, dtype=bool)
        scattered[trace.pulled] = True
        np.testing.assert_array_equal(trace.mask, scattered)
        assert trace.mask is inst.star_mask()

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
        inst = Instance(arms, mean, RewardModel("clipped_gaussian", 0.1), arms.n // 2)
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
        arms = ArmSet(cov)
        inst = Instance(arms, identity(), BERN, t)
        part = build_partition(arms, 3)
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

    def test_discrete_rejects_a_partition_of_other_arms(self):
        inst, _ = self._three_bin_instance(3)
        part = build_partition(grid_arms(9), 3)
        with pytest.raises(ValueError, match="partition was not built from this instance's arms"):
            oracle_discrete(inst, part, *rank_bins(part, [0.9, 0.5, 0.1], inst.T), seed=4)

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
        arms = grid_arms(40)
        inst = Instance(arms, identity(), BERN, 13)
        part = build_partition(arms, 4)
        emptied, boundary = bin_arms(part, 2), bin_arms(part, 0)
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


# The instances of test_star_order_is_the_stable_order_at_scale.
AT_SCALE = [
    (sample_arms_uniform(2**12, 1, 5), Sinusoid(0.35, 1.15, 0.5)),
    (grid_arms(2**13), PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3))),
]


def eager_star(inst, seed):
    """oracle_star's pull order and rewards, built as the run is made."""
    star = inst.star_order()
    pulled = star[np.argsort(-inst.true_means[star])]
    means = inst.true_means[pulled]
    if np.any(means[1:] == means[:-1]):
        pulled = star[np.argsort(-inst.true_means[star], kind="stable")]
        means = inst.true_means[pulled]
    reward_rng, _ = _run_streams(seed)
    return pulled, inst.rewards.sample(means, reward_rng)


def eager_discrete(inst, part, order, f_hat, seed):
    """oracle_discrete's pull order and rewards, built as the run is made
    bin by bin: each emptied bin's arms in ranking order, then the draws
    from the boundary bin's arms."""
    parts = [bin_arms(part, b) for b in order[:f_hat]]
    remainder = inst.T - sum(p.size for p in parts)
    reward_rng, s_select = _run_streams(seed)
    pool = bin_arms(part, order[f_hat])
    parts.append(np.random.default_rng(s_select).choice(pool, remainder, replace=False))
    pulled = np.concatenate(parts)
    return pulled, inst.rewards.sample(inst.true_means[pulled], reward_rng)


def eager_ucbf(inst, part, delta, seed):
    """ucbf_run's pull order and rewards by one stable argsort of every
    bin's running-minimum index keys, built as the run is made from each
    alive bin's ordered sample of min(m_b, T) arms; also the keys that sort
    picks the post-initialisation pulls from."""
    alive = alive_bins(part)
    sizes = np.minimum(part.counts[alive], inst.T)
    reward_rng, s_select = _run_streams(seed)
    select = np.random.default_rng(s_select)
    stream = np.concatenate([
        bin_arms(part, b)[select.choice(part.counts[b], m, replace=False)]
        for b, m in zip(alive, sizes)
    ])
    rewards = inst.rewards.sample(inst.true_means[stream], reward_rng)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    keys = np.concatenate([
        np.minimum.accumulate(
            ucbf_index(np.cumsum(rewards[s : s + m - 1]), np.arange(1, m), inst.T, delta)
        )
        for s, m in zip(starts.tolist(), sizes.tolist())
    ])
    n_init = min(inst.T, alive.size)
    later = np.argsort(-keys, kind="stable")[: inst.T - n_init]
    # Key q of bin i picks the bin's next arm, at stream position q + i + 1.
    later += np.searchsorted(starts - np.arange(alive.size), later, side="right")
    order = np.concatenate((starts[:n_init], later))
    return stream[order], rewards[order], keys


def assert_matches_eager(run, expected):
    """Both read orders of a fresh trace give the eager arrays,
    and its pull mask holds the same arms."""
    pulled, obs = expected
    rewards_first, pulled_first = run(), run()
    np.testing.assert_array_equal(np.flatnonzero(pulled_first.mask), np.sort(pulled))
    np.testing.assert_array_equal(rewards_first.rewards, obs)
    np.testing.assert_array_equal(rewards_first.pulled, pulled)
    np.testing.assert_array_equal(pulled_first.pulled, pulled)
    np.testing.assert_array_equal(pulled_first.rewards, obs)


class TestDeferredTraces:
    @pytest.mark.parametrize("arms, mean", AT_SCALE, ids=["sinusoid", "plateau"])
    @pytest.mark.parametrize(
        "rewards", [BERN, RewardModel("clipped_gaussian", 0.1)], ids=["bernoulli", "gaussian"]
    )
    def test_built_arrays_match_an_eager_run(self, arms, mean, rewards):
        inst = Instance(arms, mean, rewards, arms.n // 2)
        part = build_partition(arms, 8)
        ranking = rank_bins(part, bin_means_empirical(inst, part), inst.T)
        for seed in (0, 3):
            runs = [
                (lambda: oracle_star(inst, seed), eager_star(inst, seed)),
                (lambda: oracle_discrete(inst, part, *ranking, seed=seed),
                 eager_discrete(inst, part, *ranking, seed)),
            ]
            for run, expected in runs:
                assert_matches_eager(run, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 3),
        k=st.integers(1, 7),
        levels=st.integers(1, 4),
        budget=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_discrete_matches_the_bin_slice_reference(self, n, dim, k, levels, budget, seed):
        # Few distinct bin means tie bins in the ranking.
        rng = np.random.default_rng(seed)
        arms = sample_arms_uniform(n, dim, seed)
        inst = Instance(arms, Constant(0.5, dim), RewardModel("clipped_gaussian", 0.2),
                        max(1, round(budget * n)))
        part = build_partition(arms, k)
        ranking = rank_bins(part, rng.integers(0, levels, part.bin_count), inst.T)
        trace = oracle_discrete(inst, part, *ranking, seed=seed)
        pulled, rewards = trace.pulled, trace.rewards
        expected_pulled, expected_rewards = eager_discrete(inst, part, *ranking, seed)
        np.testing.assert_array_equal(np.flatnonzero(trace.mask), np.sort(expected_pulled))
        np.testing.assert_array_equal(pulled, expected_pulled)
        np.testing.assert_array_equal(rewards, expected_rewards)

    @pytest.mark.parametrize(
        "rewards", [BERN, RewardModel("clipped_gaussian", 0.1)], ids=["bernoulli", "gaussian"]
    )
    @pytest.mark.parametrize("budget", ["half", "alive-1", "alive", "alive+1", "reachable"])
    def test_ucbf_pull_set_and_order_match_the_argsort(self, rewards, budget):
        # The plateau's bins of equal mean tie their keys across bins under
        # 0/1 rewards; a budget up to the alive bin count is initial pulls
        # only, and the reachable budget takes every key.
        arms, mean = AT_SCALE[1]
        part = build_partition(arms, 8)
        alive = alive_bins(part).size
        t = {"half": arms.n // 2, "alive-1": alive - 1, "alive": alive,
             "alive+1": alive + 1, "reachable": arms.n}[budget]
        inst = Instance(arms, mean, rewards, t)
        for seed in (0, 3):
            pulled, obs, keys = eager_ucbf(inst, part, 0.01, seed)
            if budget == "half" and rewards is BERN:
                later = inst.T - alive
                cut = np.sort(keys)[::-1][later - 1]
                assert np.count_nonzero(keys == cut) > 1  # a tie at the selection
            assert_matches_eager(lambda: ucbf_run(inst, part, 0.01, seed), (pulled, obs))

    def test_pickle_round_trip_gives_equal_arrays(self):
        arms, mean = AT_SCALE[1]
        inst = Instance(arms, mean, RewardModel("clipped_gaussian", 0.1), arms.n // 2)
        part = build_partition(arms, 8)
        ranking = rank_bins(part, bin_means_empirical(inst, part), inst.T)
        traces = [oracle_star(inst, 1), oracle_discrete(inst, part, *ranking, seed=1),
                  ucbf_run(inst, part, 0.01, 1), baseline_random(inst, 1),
                  PolicyTrace([True, False, True],
                              lambda: (np.array([2, 0]), np.array([0.5, 1.0])))]
        for trace in traces:
            copy = pickle.loads(pickle.dumps(trace))
            for name in ("mask", "pulled", "rewards"):
                np.testing.assert_array_equal(getattr(copy, name), getattr(trace, name))
        pulled, obs, _ = eager_ucbf(inst, part, 0.01, 1)
        copy = pickle.loads(pickle.dumps(ucbf_run(inst, part, 0.01, 1)))
        np.testing.assert_array_equal(copy.pulled, pulled)
        np.testing.assert_array_equal(copy.rewards, obs)

    def test_built_trace_drops_its_builders(self):
        # The oracles' builders hold the instance and the reward generator;
        # the first read builds both arrays, and then a kept trace pins only
        # its own arrays.
        arms = grid_arms(64)
        inst = Instance(arms, identity(), BERN, 20)
        part = build_partition(arms, 4)
        ranking = rank_bins(part, bin_means_empirical(inst, part), inst.T)
        traces = [oracle_star(inst, 5), oracle_discrete(inst, part, *ranking, seed=5)]
        alive = weakref.ref(inst)
        del inst, part
        gc.collect()
        assert alive() is not None  # the unbuilt traces still need it
        for trace in traces:
            assert trace.pulled.size == len(trace) == 20
        gc.collect()
        assert alive() is None
        for trace in traces:
            assert trace.rewards.size == 20


class TestRandomBaseline:
    def test_full_budget_covers_all(self):
        inst = Instance(grid_arms(10), identity(), BERN, 10)
        trace = baseline_random(inst, seed=3)
        assert set(trace.pulled.tolist()) == set(range(10))

    def test_reproducible(self):
        inst = Instance(grid_arms(30), identity(), BERN, 10)
        a = baseline_random(inst, seed=12)
        b = baseline_random(inst, seed=12)
        np.testing.assert_array_equal(a.pulled, b.pulled)

    def test_expected_regret(self):
        # Closed-form oracle: E[regret] = sum(top T means) - (T/N) sum(all),
        # with the sums computed by brute force.
        inst = Instance(grid_arms(100), identity(), BERN, 50)
        means = sorted(inst.true_means.tolist(), reverse=True)
        expected = sum(means[:50]) - 0.5 * sum(means)
        assert expected == pytest.approx(12.5, abs=1e-12)
        sims = [
            regret_total(inst, baseline_random(inst, seed=s)) for s in range(10**4)
        ]
        assert abs(float(np.mean(sims)) - expected) < 0.3


class TestPullBoundedDraws:
    """Each randomised policy draws only what a run can pull, uniformly."""

    def test_random_includes_each_arm_at_rate_t_over_n(self):
        from scipy.stats import chisquare

        inst = Instance(grid_arms(10), identity(), BERN, 3)
        included, first = np.zeros(10), np.zeros(10)
        for seed in range(5000):
            trace = baseline_random(inst, seed=seed)
            included += trace.mask
            first[trace.pulled[0]] += 1
        # Inclusions of distinct arms are negatively correlated, so the
        # multinomial chi-square is conservative for them.
        assert included.sum() == 5000 * 3
        assert chisquare(included).pvalue > 1e-3
        assert chisquare(first).pvalue > 1e-3

    def test_ucbf_first_draw_in_a_bin_is_uniform(self):
        from scipy.stats import chisquare

        # Bins of five and seven arms and T = 3: each bin's sample is
        # truncated, and the forced initial pulls take each bin's first draw.
        arms = grid_arms(12)
        inst = Instance(arms, identity(), BERN, 3)
        part = build_partition(arms, 2)
        np.testing.assert_array_equal(part.counts, [5, 7])
        first = np.zeros((2, 12))
        for seed in range(6000):
            pulled = ucbf_run(inst, part, 0.01, seed=seed).pulled
            first[0, pulled[0]] += 1
            first[1, pulled[1]] += 1
        for b in range(2):
            assert chisquare(first[b, bin_arms(part, b)]).pvalue > 1e-3
            assert first[b].sum() == first[b, bin_arms(part, b)].sum() == 6000

    def test_power_law_runs_draw_only_what_they_can_pull(self, monkeypatch):
        # T = 0.5 N^0.7 is far below N: UCBF draws at most min(m_b, T)
        # rewards per alive bin, random at most T.
        n = 2**12
        t = round(0.5 * n**0.7)
        arms = sample_arms_uniform(n, 1, 3)
        inst = Instance(arms, Sinusoid(0.35, 1.15, 0.5), BERN, t)
        part = build_partition(arms, default_parameters(n, t / n).k)
        sizes = []
        sample = RewardModel.sample

        def recorded(self, means, rng):
            sizes.append(np.size(means))
            return sample(self, means, rng)

        monkeypatch.setattr(RewardModel, "sample", recorded)
        ucbf_run(inst, part, 0.01, seed=1).rewards
        bound = int(np.minimum(part.counts[alive_bins(part)], t).sum())
        assert t < bound < n and 0 < sum(sizes) <= bound
        sizes.clear()
        baseline_random(inst, seed=1).rewards
        assert sum(sizes) == t


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

        arms = grid_arms(8)
        inst = Instance(arms, identity(), BERN, 4)
        part = build_partition(arms, 2)
        trace = ucbf_run(inst, part, 0.01, seed=6)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path, part)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["t"] for r in records] == [1, 2, 3, 4]
        for r in records:
            assert r["bin"] == int(part.assignment[r["arm"]])
            assert 0.0 <= r["reward"] <= 1.0

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 400),
        dim=st.integers(1, 2),
        k=st.integers(1, 8),
        kind=st.sampled_from(["sinusoid", "plateau", "constant"]),
        grid=st.booleans(),
        budget=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_policy_hands_over_its_pull_set_as_a_mask(
        self, n, dim, k, kind, grid, budget, seed
    ):
        # The plateau and grid arms are one-dimensional; UCBF's budget
        # stays within the arms its alive bins hold.
        dim = 1 if kind == "plateau" or grid else dim
        arms = grid_arms(n) if grid else sample_arms_uniform(n, dim, seed)
        mean = {"sinusoid": Sinusoid(0.35, 1.15, 0.5, dim=dim),
                "plateau": AT_SCALE[1][1], "constant": Constant(0.5, dim)}[kind]
        part = build_partition(arms, k)
        reachable = int(part.counts[alive_bins(part)].sum())
        assume(reachable > 0)
        inst = Instance(arms, mean, BERN, max(1, min(round(budget * n), reachable)))
        ranking = rank_bins(part, bin_means_empirical(inst, part), inst.T)
        for trace in (ucbf_run(inst, part, 0.01, seed), oracle_star(inst, seed),
                      oracle_discrete(inst, part, *ranking, seed=seed),
                      baseline_random(inst, seed)):
            mask = trace.mask
            assert mask.ndim == 1 and mask.dtype == bool and mask.size == n
            assert np.count_nonzero(mask) == len(trace) == inst.T
            np.testing.assert_array_equal(np.flatnonzero(mask), np.sort(trace.pulled))
