import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcab import policies
from fcab.analysis import (
    bin_means_empirical,
    bin_means_quadrature,
    diagnostics,
    make_baseline,
    rank_bins,
    regret_decompose,
    regret_total,
)
from fcab.environment import (
    ArmSet,
    Constant,
    Instance,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    grid_arms,
    make_lower_bound_pair,
    sample_arms_uniform,
)
from fcab.experiments import ExperimentConfig, FixedP, run_sweep, run_trial
from fcab.policies import (
    POLICIES,
    Partition,
    PolicyTrace,
    baseline_random,
    build_partition,
    cab_parameters,
    default_parameters,
    oracle_discrete,
    oracle_star,
    ucbf_run,
)

BERN = RewardModel("bernoulli")


def identity():
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0))


def random_piecewise(rng, pieces=4):
    knots = np.sort(rng.random(pieces - 1))
    knots = np.concatenate(([0.0], knots, [1.0]))
    while np.any(np.diff(knots) <= 1e-6):
        knots = np.sort(rng.random(pieces - 1))
        knots = np.concatenate(([0.0], knots, [1.0]))
    values = rng.random(pieces + 1)
    return PiecewiseLinear(tuple(knots), tuple(values))


def bin_mean(f, lo, hi):
    """The exact mean of a one-dimensional ``f`` over [lo, hi]."""
    return f.box_mean(np.array([lo]), np.array([hi]))


class TestBinMean:
    def test_linear_midpoint(self):
        assert bin_mean(identity(), 0.2, 0.4) == pytest.approx(0.3, abs=1e-15)

    def test_constant(self):
        assert bin_mean(Constant(0.37), 0.1, 0.9) == 0.37

    def test_lower_bound_member_left_branch(self):
        # Strictly inside [0, x0) the member is a single linear ramp, so the
        # bin mean is its value at the bin midpoint.
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        a, b = 0.1, 0.2
        expected = 0.5 - pair.l_tilde * (pair.x0 - (a + b) / 2)
        assert bin_mean(pair.m0, a, b) == pytest.approx(expected, rel=1e-12)

    def test_piecewise_with_interior_knot(self):
        f = PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        # Average over [0.25, 0.75] spans the peak: two trapezoids of mean 0.75.
        assert bin_mean(f, 0.25, 0.75) == pytest.approx(0.75, rel=1e-12)

    def test_quadrature_matches_analytic_sinusoid(self):
        f = Sinusoid(amplitude=0.3, frequency=1.5, offset=0.5)
        a, b = 0.2, 0.45
        w = 2.0 * math.pi * 1.5
        exact = 0.5 + 0.3 * (math.cos(w * a) - math.cos(w * b)) / (w * (b - a))
        assert bin_mean(f, a, b) == pytest.approx(exact, abs=1e-9)

    def test_partition_bin_means(self):
        part = build_partition(grid_arms(100), 4)
        means = bin_means_quadrature(identity(), part)
        np.testing.assert_allclose(means, [0.125, 0.375, 0.625, 0.875], atol=1e-12)

    def test_empirical_bin_means(self):
        cov = np.array([[0.1], [0.3], [0.6], [0.9]])
        inst = Instance(ArmSet(cov), identity(), BERN, 2)
        part = build_partition(inst.arms, 2)
        means = bin_means_empirical(inst, part)
        np.testing.assert_allclose(means, [0.2, 0.75])

    def test_empirical_empty_bin_reports_zero(self):
        cov = np.array([[0.1], [0.2], [0.3]])
        inst = Instance(ArmSet(cov), identity(), BERN, 2)
        part = build_partition(inst.arms, 2)
        means = bin_means_empirical(inst, part)
        assert means[1] == 0.0


def f_hat(counts, t):
    """rank_bins' f_hat on a partition with these arm counts per bin, bin
    means falling with the bin id so that the ranking keeps the order."""
    counts = np.asarray(counts, dtype=np.int64)
    assignment = np.repeat(np.arange(counts.size), counts)
    part = Partition(counts.size, 1, assignment, counts)
    return rank_bins(part, -np.arange(counts.size, dtype=np.float64), t)[1]


class TestFHat:
    def test_examples(self):
        assert f_hat([3, 2, 4], 6) == 2
        assert f_hat([5], 3) == 0
        assert f_hat([2, 2, 2], 6) == 2

    def test_budget_exceeds_total(self):
        with pytest.raises(ValueError, match="budget"):
            f_hat([2, 2], 5)

    def test_budget_below_one(self):
        with pytest.raises(ValueError, match="budget"):
            f_hat([2, 2], 0)

    def _scan_oracle(self, counts, t):
        total = 0
        for i, c in enumerate(counts):
            if total < t <= total + c:
                return i
            total += c
        raise AssertionError("unreachable for valid inputs")

    def test_against_scan_oracle_bulk(self):
        rng = np.random.default_rng(99)
        for _ in range(10**4):
            k = int(rng.integers(1, 12))
            counts = rng.integers(0, 9, size=k)
            total = int(counts.sum())
            if total == 0:
                continue
            t = int(rng.integers(1, total + 1))
            assert f_hat(counts, t) == self._scan_oracle(counts, t)

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_defining_sandwich(self, counts, t):
        total = sum(counts)
        if total == 0 or t > total:
            with pytest.raises(ValueError):
                f_hat(counts, max(t, 1))
            return
        f = f_hat(counts, t)
        assert sum(counts[:f]) < t <= sum(counts[: f + 1])

    def test_rank_bins_breaks_ties_to_lower_id(self):
        # grid_arms(8) in K = 4 bins holds 1, 2, 2, 3 arms.
        part = build_partition(grid_arms(8), 4)
        order, f_hat = rank_bins(part, [0.2, 0.7, 0.2, 0.7], 6)
        assert order.tolist() == [1, 3, 0, 2]
        assert f_hat == 2  # 2 + 3 arms < 6 <= 2 + 3 + 1
        with pytest.raises(ValueError, match="one bin mean per bin"):
            rank_bins(part, [0.5, 0.5], 6)


class TestRegretTotal:
    def test_small_grid(self):
        inst = Instance(grid_arms(4), identity(), BERN, 2)
        trace = PolicyTrace(np.array([0, 3]), None)
        # top means 1.0 + 0.75 against pulled 0.25 + 1.0
        assert regret_total(inst, trace) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_exactly_zero(self):
        for seed in range(20):
            inst = Instance(
                sample_arms_uniform(60, 1, seed), identity(), BERN, 25
            )
            assert regret_total(inst, oracle_star(inst, seed)) == 0.0

    def test_constant_mean_zero_for_any_trace(self):
        inst = Instance(grid_arms(30), Constant(0.6), BERN, 12)
        for seed in range(10):
            assert regret_total(inst, baseline_random(inst, seed)) == 0.0

    def test_wrong_length(self):
        inst = Instance(grid_arms(4), identity(), BERN, 2)
        with pytest.raises(ValueError):
            regret_total(inst, PolicyTrace(np.array([0]), None))

    def test_duplicates_detected(self):
        inst = Instance(grid_arms(4), identity(), BERN, 2)
        with pytest.raises(ValueError):
            regret_total(inst, PolicyTrace(np.array([3, 3]), None))

    def test_nonnegative_across_policies(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            inst = Instance(
                sample_arms_uniform(80, 1, seed),
                random_piecewise(rng),
                BERN,
                40,
            )
            part = build_partition(inst.arms, 4)
            for trace in (
                baseline_random(inst, seed),
                ucbf_run(inst, part, 0.01, seed),
            ):
                assert regret_total(inst, trace) >= 0.0


def _decompose_for(inst, part, means, trace, seed=0):
    baseline = make_baseline(inst, part, means, seed)
    return regret_decompose(inst, baseline, trace), baseline.reference


class TestDecomposition:
    def test_discrete_trace_has_zero_learning_cost(self):
        inst = Instance(grid_arms(60), identity(), BERN, 30)
        part = build_partition(inst.arms, 4)
        baseline = make_baseline(inst, part, bin_means_quadrature(identity(), part), 3)
        dec = regret_decompose(inst, baseline, baseline.reference)
        assert dec.r_fmab == 0.0
        assert dec.r_total == dec.r_disc
        assert dec.r_opt == dec.r_subopt == dec.r_boundary == 0.0

    def test_star_trace_flips_sign(self):
        inst = Instance(grid_arms(60), identity(), BERN, 30)
        part = build_partition(inst.arms, 4)
        bm = bin_means_quadrature(identity(), part)
        star = oracle_star(inst, 1)
        dec, _ = _decompose_for(inst, part, bm, star)
        assert dec.r_total == 0.0
        assert dec.r_fmab == -dec.r_disc

    def test_identities_on_reference_instance(self):
        rng = np.random.default_rng(7)
        inst = Instance(
            sample_arms_uniform(60, 1, 7), random_piecewise(rng), BERN, 30
        )
        part = build_partition(inst.arms, 4)
        bm = bin_means_quadrature(inst.mean, part)
        trace = ucbf_run(inst, part, 0.01, seed=7)
        dec, disc = _decompose_for(inst, part, bm, trace, seed=70)
        # independent recomputation of the total from sorted means
        top = sum(sorted(inst.true_means.tolist(), reverse=True)[: inst.T])
        direct = top - float(inst.true_means[trace.pulled].sum())
        assert abs(dec.r_total - direct) <= 1e-9
        assert abs(dec.r_total - (dec.r_disc + dec.r_fmab)) <= 1e-9
        assert abs(dec.r_fmab - (dec.r_opt + dec.r_boundary + dec.r_subopt)) <= 1e-9

    def test_identities_random_instances(self):
        rng = np.random.default_rng(123)
        policies_cycle = ["ucbf", "random", "oracle-star", "oracle-discrete"]
        for i in range(40):
            n = int(rng.integers(50, 400))
            t = int(rng.integers(5, n - 8))
            k = int(rng.integers(1, 8))
            inst = Instance(
                sample_arms_uniform(n, 1, 1000 + i),
                random_piecewise(rng),
                BERN,
                t,
            )
            part = build_partition(inst.arms, k)
            bm = bin_means_quadrature(inst.mean, part)
            pid = policies_cycle[i % 4]
            if pid == "ucbf":
                trace = ucbf_run(inst, part, 0.01, seed=i)
            elif pid == "random":
                trace = baseline_random(inst, seed=i)
            elif pid == "oracle-star":
                trace = oracle_star(inst, seed=i)
            else:
                trace = oracle_discrete(inst, part, *rank_bins(part, bm, inst.T), seed=i)
            dec, _ = _decompose_for(inst, part, bm, trace, seed=9000 + i)
            assert abs(dec.r_total - (dec.r_disc + dec.r_fmab)) <= 1e-9
            assert abs(dec.r_fmab - (dec.r_opt + dec.r_boundary + dec.r_subopt)) <= 1e-9
            assert dec.r_total >= 0.0

    def test_empirical_bin_means_also_satisfy_identities(self):
        inst = Instance(sample_arms_uniform(150, 1, 2), identity(), BERN, 70)
        part = build_partition(inst.arms, 5)
        bm = bin_means_empirical(inst, part)
        trace = ucbf_run(inst, part, 0.01, seed=5)
        dec, _ = _decompose_for(inst, part, bm, trace, seed=50)
        assert abs(dec.r_total - (dec.r_disc + dec.r_fmab)) <= 1e-9
        assert abs(dec.r_fmab - (dec.r_opt + dec.r_boundary + dec.r_subopt)) <= 1e-9

    def test_nonnegative_components_when_thresholds_align(self):
        # Monotone mean on grid arms with the budget cutting exactly at a
        # bin edge: optimal bins hold only above-threshold arms and
        # suboptimal bins only below-threshold arms.
        inst = Instance(grid_arms(100), identity(), BERN, 40)
        part = build_partition(inst.arms, 5)
        bm = bin_means_quadrature(identity(), part)
        order, f_hat = rank_bins(part, bm, inst.T)
        ordered_means = np.asarray(bm)[order]
        assert f_hat >= 1
        assert ordered_means[f_hat - 1] >= inst.threshold_M >= ordered_means[f_hat + 1]
        for seed in range(10):
            trace = ucbf_run(inst, part, 0.01, seed=seed)
            dec, _ = _decompose_for(inst, part, bm, trace, seed=100 + seed)
            assert dec.r_opt >= 0.0
            assert dec.r_subopt >= 0.0


def _indexed_regret(inst, part, order, f_hat, reference, trace):
    """The decomposition's terms by boolean indexing over each arm's int64
    bin rank: the formulas the masked-sum kernels must reproduce bit for bit."""
    means, m = inst.true_means, inst.threshold_M
    rank = np.empty(part.bin_count, dtype=np.int64)
    rank[order] = np.arange(part.bin_count)
    arm_rank = rank[part.assignment]
    in_phi = np.zeros(inst.n, dtype=bool)
    in_phi[trace.pulled] = True
    in_phid = np.zeros(inst.n, dtype=bool)
    in_phid[reference.pulled] = True
    top, boundary, low = arm_rank < f_hat, arm_rank == f_hat, arm_rank > f_hat
    s_star, s_phi = inst.top_mean_sum(), float(means[in_phi].sum())
    s_phid = float(means[in_phid].sum())
    return {
        "r_total": s_star - s_phi,
        "r_disc": s_star - s_phid,
        "r_fmab": s_phid - s_phi,
        "r_opt": float(np.sum(means[top & ~in_phi] - m)),
        "r_boundary": float(np.sum(means[boundary & in_phid & ~in_phi] - m))
        + float(np.sum(m - means[boundary & in_phi & ~in_phid])),
        "r_subopt": float(np.sum(m - means[low & in_phi])),
    }


class TestExactKernels:
    @pytest.mark.parametrize(
        "arms, mean, empirical",
        [
            (sample_arms_uniform(3000, 1, 11), Sinusoid(0.35, 1.15, 0.5), False),
            # Grid arms on a plateau: many tied means, and bins of equal mean.
            (grid_arms(4000), PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3)),
             False),
            (sample_arms_uniform(3000, 2, 12), Sinusoid(0.3, 1.3, 0.5, dim=2), True),
        ],
    )
    def test_masked_sums_match_boolean_indexing(self, arms, mean, empirical):
        inst = Instance(arms, mean, BERN, arms.n * 2 // 5)
        default = default_parameters(inst.n, inst.p, arms.dim)
        for policy_id, spec in POLICIES.items():
            k = cab_parameters(inst.T) if spec.cab_k else default.k
            part = build_partition(arms, k)
            bm = bin_means_empirical(inst, part) if empirical else bin_means_quadrature(mean, part)
            baseline = make_baseline(inst, part, bm, seed=k)
            reference = baseline.reference
            trace = reference if spec.run is None else spec.run(inst, part, default.delta, 21)
            dec = regret_decompose(inst, baseline, trace)
            order, f_hat = rank_bins(part, bm, inst.T)
            expected = _indexed_regret(inst, part, order, f_hat, reference, trace)
            for term, value in expected.items():
                assert getattr(dec, term) == value, (policy_id, term)
            assert regret_total(inst, trace) == expected["r_total"]


class TestBaselineMasks:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 3),
        k=st.integers(1, 7),
        levels=st.integers(1, 4),
        budget=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=50, dim=1, k=2, levels=1, budget=0.1, seed=0)  # f_hat = 0
    def test_masks_match_the_ranking(self, n, dim, k, levels, budget, seed):
        # The masks read from the reference run equal those the ranking
        # gives: the f_hat best bins, the bins below the boundary bin, and
        # the boundary bin's arms split by the reference's pulls.  Few
        # distinct bin means tie bins in the ranking.
        rng = np.random.default_rng(seed)
        arms = sample_arms_uniform(n, dim, seed)
        inst = Instance(arms, Constant(0.5, dim), BERN, max(1, round(budget * n)))
        part = build_partition(arms, k)
        bin_means = rng.integers(0, levels, part.bin_count)
        baseline = make_baseline(inst, part, bin_means, seed)
        order, f_hat = rank_bins(part, bin_means, inst.T)
        top_bins = np.zeros(part.bin_count, dtype=bool)
        top_bins[order[:f_hat]] = True
        top = top_bins.take(part.assignment)
        boundary = part.assignment == order[f_hat]
        in_phid = np.zeros(inst.n, dtype=bool)
        in_phid[baseline.reference.arms] = True
        np.testing.assert_array_equal(baseline.top, top)
        np.testing.assert_array_equal(baseline.low, ~(top | boundary))
        np.testing.assert_array_equal(baseline.kept, boundary & in_phid)
        np.testing.assert_array_equal(baseline.left, boundary & ~in_phid)


class TestPullSetsOnly:
    """Regret, baseline and decomposition read only which arms a run
    pulled, so a sweep never builds the pull order or rewards of UCBF or
    an oracle."""

    def test_builders_never_run(self, monkeypatch):
        plateau = PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3))
        inst = Instance(grid_arms(2**13), plateau, RewardModel("clipped_gaussian", 0.1), 2**12)
        part = build_partition(inst.arms, 8)
        bm = bin_means_quadrature(plateau, part)
        star = oracle_star(inst, 2)
        expected = make_baseline(inst, part, bm, 2)
        reference = expected.reference
        ucbf = ucbf_run(inst, part, 0.01, 2)

        def unbuilt(trace):
            def builder():
                raise AssertionError("a trace's builder ran")

            return PolicyTrace(trace.arms, builder)

        lazy_star, lazy_reference, lazy_ucbf = unbuilt(star), unbuilt(reference), unbuilt(ucbf)
        assert len(lazy_star) == len(lazy_reference) == len(lazy_ucbf) == inst.T
        assert regret_total(inst, lazy_star) == regret_total(inst, star) == 0.0
        assert regret_total(inst, lazy_ucbf) == regret_total(inst, ucbf)
        # The baseline's own reference run comes back unbuildable.
        monkeypatch.setattr(policies, "oracle_discrete", lambda *args: lazy_reference)
        baseline = make_baseline(inst, part, bm, 2)
        assert baseline.reference is lazy_reference
        for trace, built in ((lazy_star, star), (lazy_reference, reference), (lazy_ucbf, ucbf)):
            assert regret_decompose(inst, baseline, trace) == regret_decompose(
                inst, expected, built
            )

    def test_sweep_draws_no_rewards(self, monkeypatch):
        # UCBF's keys need its rewards; every other policy draws on first read.
        draws = []
        sample = RewardModel.sample

        def counted(self, means, rng):
            draws.append(np.asarray(means).size)
            return sample(self, means, rng)

        monkeypatch.setattr(RewardModel, "sample", counted)
        config = ExperimentConfig(
            mean_function=identity(),
            reward_model=BERN,
            policies=("oracle-star", "oracle-discrete", "random"),
            n_grid=(64, 128),
            regime=FixedP(0.5),
            replications=3,
        )
        result = run_sweep(config)
        assert not result.errors
        assert len(result.trials) == 18
        assert draws == []
        # Reading a kept random trace draws its T rewards.
        trace = run_trial(config, 64, 0, keep_trace=True)[2].trace
        assert trace.rewards.size == 32 and draws == [32]

    def test_ucbf_sweep_never_runs_a_builder(self, monkeypatch):
        made, built = [], []
        init = PolicyTrace.__init__

        def tracked(self, arms, build):
            def counted():
                built.append(build.__qualname__)
                return build()

            made.append(build.__qualname__)
            init(self, arms, counted)

        monkeypatch.setattr(PolicyTrace, "__init__", tracked)
        config = ExperimentConfig(
            mean_function=identity(),
            reward_model=BERN,
            policies=("ucbf", "ucbf-cab-k", "oracle-star"),
            n_grid=(64, 128),
            regime=FixedP(0.5),
            replications=3,
        )
        assert not run_sweep(config).errors
        assert made.count("ucbf_run.<locals>.build") == 12  # 2 N x 3 reps x 2 policies
        assert built == []
        # The counter sees a build: reading a kept trace's pull order runs it.
        trace = run_trial(config, 64, 0, keep_trace=True)[0].trace
        assert trace.pulled.size == 32 and built == ["ucbf_run.<locals>.build"]


class TestDiagnostics:
    def test_grid_occupancy_deviation(self):
        # Arms at i/N with half-open bins put each boundary arm j*N/K into
        # the upper bin, so even K | N leaves a +-1 edge deviation.
        inst = Instance(grid_arms(100), identity(), BERN, 50)
        part = build_partition(inst.arms, 4)
        np.testing.assert_array_equal(part.counts, [24, 25, 25, 26])
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1])
        assert report.max_count_dev == 1.0
        assert report.f == 2  # floor(p K) at p = 0.5, K = 4

    def test_exact_equipartition_with_midpoint_covariates(self):
        cov = ((np.arange(100) + 0.5) / 100).reshape(-1, 1)
        inst = Instance(ArmSet(cov), identity(), BERN, 50)
        part = build_partition(inst.arms, 4)
        _, f_hat = rank_bins(part, bin_means_quadrature(identity(), part), inst.T)
        report = diagnostics(inst, part, f_hat)
        assert report.max_count_dev == 0.0
        assert report.count_dev_scaled == 0.0

    def test_m_hat_is_budget_order_statistic(self):
        inst = Instance(grid_arms(4), identity(), BERN, 2)
        part = build_partition(inst.arms, 2)
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1])
        assert report.m_hat == 0.75

    def test_constant_mean_has_no_lipschitz_scale(self):
        inst = Instance(grid_arms(50), Constant(0.5), BERN, 25)
        part = build_partition(inst.arms, 5)
        report = diagnostics(inst, part, rank_bins(part, [0.5] * 5, inst.T)[1])
        assert report.m_hat_gap_scaled is None

    def test_json_round_trip(self):
        import json

        inst = Instance(grid_arms(50), identity(), BERN, 25)
        part = build_partition(inst.arms, 5)
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1])
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["f"] == report.f
        assert data["f_gap"] == abs(report.f_hat - report.f)
