import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcab import policies
from fcab.analysis import (
    RegretDecomposition,
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
    compute_threshold_M,
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


def trace_of(n, arms, build=None):
    """A trace that pulled ``arms`` of ``n``: its mask is the arms scattered."""
    mask = np.zeros(n, dtype=bool)
    mask[arms] = True
    return PolicyTrace(mask, build)


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
        arms = ArmSet(cov)
        inst = Instance(arms, identity(), BERN, 2)
        part = build_partition(arms, 2)
        means = bin_means_empirical(inst, part)
        np.testing.assert_allclose(means, [0.2, 0.75])

    def test_empirical_empty_bin_reports_zero(self):
        cov = np.array([[0.1], [0.2], [0.3]])
        arms = ArmSet(cov)
        inst = Instance(arms, identity(), BERN, 2)
        part = build_partition(arms, 2)
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
        trace = trace_of(4, [0, 3])
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
        with pytest.raises(ValueError, match="trace mask holds 1 arms != budget 2"):
            regret_total(inst, trace_of(4, [0]))

    def test_nonnegative_across_policies(self):
        rng = np.random.default_rng(4)
        for seed in range(30):
            arms = sample_arms_uniform(80, 1, seed)
            inst = Instance(arms, random_piecewise(rng), BERN, 40)
            part = build_partition(arms, 4)
            for trace in (
                baseline_random(inst, seed),
                ucbf_run(inst, part, 0.01, seed),
            ):
                assert regret_total(inst, trace) >= 0.0


EXPECTATION_ARMS = {
    "uniform-1d": lambda n: sample_arms_uniform(n, 1, 21),
    "grid-1d": grid_arms,
    "uniform-2d": lambda n: sample_arms_uniform(n, 2, 22),
}


def _expectation_instance(arms: str) -> tuple[Instance, ArmSet]:
    a = EXPECTATION_ARMS[arms](4096)
    return Instance(a, Sinusoid(0.35, 1.15, dim=a.dim), BERN, FixedP(0.3).budget_for(4096)), a


def _z(values, expected) -> float:
    """z of the mean of value - expected over the seeds."""
    d = np.asarray(values) - expected
    return float(d.mean() / (d.std(ddof=1) / math.sqrt(d.size)))


def _bin_classes(inst, part, means):
    """The discretised oracle's ranking and the masks of the arms of the
    f_hat best bins (top), of the boundary bin B and of the worse bins,
    with q = (T - n_top) / m_B, the chance that its run pulls a given arm
    of B."""
    order, f_hat = rank_bins(part, means, inst.T)
    top = np.isin(part.assignment, order[:f_hat])
    boundary = part.assignment == order[f_hat]
    q = (inst.T - np.count_nonzero(top)) / np.count_nonzero(boundary)
    return order, f_hat, top, boundary, ~(top | boundary), q


class TestExpectedRegret:
    """The Monte Carlo regret of the randomised policies, and each term of
    its decomposition, against its exact expectation, over 400 fixed seeds
    at N = 4096 and p = 0.3: the mean of value - E[value] stays within 4
    standard errors of 0.  Each run's baseline is seeded apart from it, so
    the reference run is independent of the run it is compared with."""

    SEEDS = range(400)
    BASELINE_SEED = 10_000  # added to a run's seed to seed its baseline

    def _decompositions(self, inst, part, means, traces):
        m_thresh = compute_threshold_M(inst.mean, inst.p)
        return [regret_decompose(inst, make_baseline(inst, part, means, m_thresh,
                                                     self.BASELINE_SEED + seed), trace)
                for seed, trace in zip(self.SEEDS, traces)]

    @staticmethod
    def _expected_r_disc(inst, top, boundary, q) -> float:
        # The reference pulls every top arm and each arm of B with chance q.
        means = inst.true_means
        return inst.top_mean_sum() - float(means[top].sum()) - q * float(means[boundary].sum())

    @pytest.mark.parametrize("arms", EXPECTATION_ARMS)
    def test_random(self, arms):
        # Each arm is pulled with chance T / N.
        inst, arm_set = _expectation_instance(arms)
        expected = inst.top_mean_sum() - inst.T / inst.n * float(inst.true_means.sum())
        traces = [baseline_random(inst, seed) for seed in self.SEEDS]
        regrets = [regret_total(inst, trace) for trace in traces]
        assert abs(_z(regrets, expected)) <= 4.0
        # Against the reference, a top arm is missed with chance 1 - T/N, a
        # worse arm pulled with chance T/N, and an arm of B missed with
        # chance q (1 - T/N) or pulled instead with chance (1 - q) T/N.
        part = build_partition(arm_set, cab_parameters(inst.T))  # f_hat > 0 on each instance
        means = bin_means_quadrature(inst.mean, part)
        _, _, top, boundary, low, q = _bin_classes(inst, part, means)
        m, m_thresh, p = inst.true_means, compute_threshold_M(inst.mean, inst.p), inst.p
        expected_terms = {
            "r_disc": self._expected_r_disc(inst, top, boundary, q),
            "r_opt": (1 - p) * float(np.sum(m[top] - m_thresh)),
            "r_subopt": p * float(np.sum(m_thresh - m[low])),
            "r_boundary": float(np.sum(q * (1 - p) * (m[boundary] - m_thresh)
                                       + (1 - q) * p * (m_thresh - m[boundary]))),
        }
        decompositions = self._decompositions(inst, part, means, traces)
        for term, value in expected_terms.items():
            assert abs(_z([getattr(d, term) for d in decompositions], value)) <= 4.0, term

    @pytest.mark.parametrize("bin_means", ["quadrature", "empirical"])
    @pytest.mark.parametrize("k_rule", ["paper_default", "cab"])
    @pytest.mark.parametrize("arms", EXPECTATION_ARMS)
    def test_oracle_discrete(self, arms, k_rule, bin_means):
        # The f_hat best bins are pulled whole, and the rest of the budget
        # uniformly from the boundary bin.
        inst, arm_set = _expectation_instance(arms)
        k = (default_parameters(inst.n, inst.p, arm_set.dim).k if k_rule == "paper_default"
             else cab_parameters(inst.T))
        part = build_partition(arm_set, k)
        means = (bin_means_quadrature(inst.mean, part) if bin_means == "quadrature"
                 else bin_means_empirical(inst, part))
        order, f_hat, top, boundary, _, q = _bin_classes(inst, part, means)
        expected = self._expected_r_disc(inst, top, boundary, q)
        traces = [oracle_discrete(inst, part, order, f_hat, seed) for seed in self.SEEDS]
        regrets = [regret_total(inst, trace) for trace in traces]
        assert abs(_z(regrets, expected)) <= 4.0
        # Against an independent reference run, only the draws from B differ.
        decompositions = self._decompositions(inst, part, means, traces)
        assert all(d.r_opt == d.r_subopt == 0.0 for d in decompositions)
        assert abs(_z([d.r_boundary for d in decompositions], 0.0)) <= 4.0
        assert abs(_z([d.r_disc for d in decompositions], expected)) <= 4.0


def _decompose_for(inst, part, means, trace, seed=0):
    baseline = make_baseline(inst, part, means, compute_threshold_M(inst.mean, inst.p), seed)
    return regret_decompose(inst, baseline, trace), baseline.reference


class TestDecomposition:
    def test_discrete_trace_has_zero_learning_cost(self):
        arms = grid_arms(60)
        inst = Instance(arms, identity(), BERN, 30)
        part = build_partition(arms, 4)
        baseline = make_baseline(inst, part, bin_means_quadrature(identity(), part),
                                 compute_threshold_M(inst.mean, inst.p), 3)
        dec = regret_decompose(inst, baseline, baseline.reference)
        assert dec.r_fmab == 0.0
        assert dec.r_total == dec.r_disc
        assert dec.r_opt == dec.r_subopt == dec.r_boundary == 0.0

    def test_star_trace_flips_sign(self):
        arms = grid_arms(60)
        inst = Instance(arms, identity(), BERN, 30)
        part = build_partition(arms, 4)
        bm = bin_means_quadrature(identity(), part)
        star = oracle_star(inst, 1)
        dec, _ = _decompose_for(inst, part, bm, star)
        assert dec.r_total == 0.0
        assert dec.r_fmab == -dec.r_disc

    def test_identities_on_reference_instance(self):
        rng = np.random.default_rng(7)
        arms = sample_arms_uniform(60, 1, 7)
        inst = Instance(arms, random_piecewise(rng), BERN, 30)
        part = build_partition(arms, 4)
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
            arms = sample_arms_uniform(n, 1, 1000 + i)
            inst = Instance(arms, random_piecewise(rng), BERN, t)
            part = build_partition(arms, k)
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
        arms = sample_arms_uniform(150, 1, 2)
        inst = Instance(arms, identity(), BERN, 70)
        part = build_partition(arms, 5)
        bm = bin_means_empirical(inst, part)
        trace = ucbf_run(inst, part, 0.01, seed=5)
        dec, _ = _decompose_for(inst, part, bm, trace, seed=50)
        assert abs(dec.r_total - (dec.r_disc + dec.r_fmab)) <= 1e-9
        assert abs(dec.r_fmab - (dec.r_opt + dec.r_boundary + dec.r_subopt)) <= 1e-9

    def test_nonnegative_components_when_thresholds_align(self):
        # Monotone mean on grid arms with the budget cutting exactly at a
        # bin edge: optimal bins hold only above-threshold arms and
        # suboptimal bins only below-threshold arms.
        arms = grid_arms(100)
        inst = Instance(arms, identity(), BERN, 40)
        part = build_partition(arms, 5)
        bm = bin_means_quadrature(identity(), part)
        order, f_hat = rank_bins(part, bm, inst.T)
        ordered_means = np.asarray(bm)[order]
        assert f_hat >= 1
        assert (ordered_means[f_hat - 1] >= compute_threshold_M(inst.mean, inst.p)
                >= ordered_means[f_hat + 1])
        for seed in range(10):
            trace = ucbf_run(inst, part, 0.01, seed=seed)
            dec, _ = _decompose_for(inst, part, bm, trace, seed=100 + seed)
            assert dec.r_opt >= 0.0
            assert dec.r_subopt >= 0.0


def _indexed_regret(inst, part, order, f_hat, reference, trace):
    """The decomposition's terms by boolean indexing over each arm's int64
    bin rank: the formulas the masked-sum kernels must reproduce bit for bit."""
    means, m = inst.true_means, compute_threshold_M(inst.mean, inst.p)
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
            (sample_arms_uniform(3000, 3, 13), Sinusoid(0.3, 1.3, 0.5, dim=3), False),
        ],
    )
    def test_masked_sums_match_boolean_indexing(self, arms, mean, empirical):
        # Every policy's trace, and T distinct arms drawn at random, whose
        # extra arms reach the boundary bin and the worse bins alike; the
        # smaller budget empties no bin (f_hat = 0).
        rng = np.random.default_rng(arms.n)
        small = arms.n // 40
        for t_budget in (arms.n * 2 // 5, small):
            inst = Instance(arms, mean, BERN, t_budget)
            default = default_parameters(inst.n, inst.p, arms.dim)
            for policy_id, spec in POLICIES.items():
                k = cab_parameters(inst.T) if spec.cab_k else default.k
                part = build_partition(arms, k)
                bm = (bin_means_empirical(inst, part) if empirical
                      else bin_means_quadrature(mean, part))
                baseline = make_baseline(inst, part, bm,
                                         compute_threshold_M(inst.mean, inst.p), seed=k)
                reference = baseline.reference
                drawn = rng.choice(inst.n, inst.T, replace=False)
                order, f_hat = rank_bins(part, bm, inst.T)
                assert f_hat == 0 or t_budget != small
                for trace in (
                    reference if spec.run is None else spec.run(inst, part, default.delta, 21),
                    trace_of(inst.n, drawn, lambda: (drawn, None)),
                ):
                    dec = regret_decompose(inst, baseline, trace)
                    expected = _indexed_regret(inst, part, order, f_hat, reference, trace)
                    for term, value in expected.items():
                        assert getattr(dec, term) == value, (t_budget, policy_id, term)
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
        # The two masks equal those the ranking gives: the reference pulls
        # every arm of the f_hat best bins, some of the boundary bin's and
        # none of the bins below it.  Few distinct bin means tie bins in
        # the ranking.
        rng = np.random.default_rng(seed)
        arms = sample_arms_uniform(n, dim, seed)
        inst = Instance(arms, Constant(0.5, dim), BERN, max(1, round(budget * n)))
        part = build_partition(arms, k)
        bin_means = rng.integers(0, levels, part.bin_count)
        baseline = make_baseline(inst, part, bin_means, compute_threshold_M(inst.mean, inst.p),
                                 seed)
        order, f_hat = rank_bins(part, bin_means, inst.T)
        rank = np.empty(part.bin_count, dtype=np.int64)
        rank[order] = np.arange(part.bin_count)
        arm_rank = rank[part.assignment]
        boundary = arm_rank == f_hat
        pulled = baseline.reference.mask
        np.testing.assert_array_equal(baseline.boundary, boundary)
        np.testing.assert_array_equal(pulled[~boundary], arm_rank[~boundary] < f_hat)
        np.testing.assert_array_equal(np.flatnonzero(pulled), np.sort(baseline.reference.pulled))
        assert np.any(pulled & boundary)


# The mean of tests/golden/plateau.json: two ramps around a plateau, so
# grid arms tie in their means and bins tie in their bin means.
PLATEAU = PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3))

MASK_MEANS = {
    "sinusoid": lambda dim: Sinusoid(0.35, 1.15, 0.5, dim=dim),
    "plateau": lambda dim: PLATEAU,
    "constant": lambda dim: Constant(0.5, dim),
}


class TestTraceMasks:
    """An oracle's trace, which hands over a mask it forms anyway, gives
    the floats of the index-only path: ``_indexed_regret`` over its pull
    order, which scatters the pulled arms into a mask of its own."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 400),
        dim=st.integers(1, 2),
        k=st.integers(1, 8),
        kind=st.sampled_from(sorted(MASK_MEANS)),
        grid=st.booleans(),
        budget=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # The golden plateau sweep's smaller N and its budget, at its default K.
    @example(n=2000, dim=1, k=default_parameters(2000, 0.5).k, kind="plateau", grid=True,
             budget=0.5, seed=11)
    def test_a_mask_gives_the_floats_of_the_index_only_path(
        self, n, dim, k, kind, grid, budget, seed
    ):
        dim = 1 if kind == "plateau" or grid else dim
        arms = grid_arms(n) if grid else sample_arms_uniform(n, dim, seed)
        mean = MASK_MEANS[kind](dim)
        inst = Instance(arms, mean, BERN, max(1, round(budget * n)))
        part = build_partition(arms, k)
        bm = bin_means_quadrature(mean, part)
        baseline = make_baseline(inst, part, bm, compute_threshold_M(mean, inst.p), seed)
        ranking = rank_bins(part, bm, inst.T)
        # The baseline's own reference, whose decomposition reads the
        # baseline's sum, and another run of the same oracle.
        other = oracle_discrete(inst, part, *ranking, seed=seed + 1)
        for trace in (baseline.reference, other):
            np.testing.assert_array_equal(np.flatnonzero(trace.mask), np.sort(trace.pulled))
            plain = _indexed_regret(inst, part, *ranking, baseline.reference, trace)
            assert regret_total(inst, trace) == plain["r_total"]
            assert dataclasses.asdict(regret_decompose(inst, baseline, trace)) == plain

    @pytest.mark.parametrize("kind", sorted(MASK_MEANS))
    @pytest.mark.parametrize("dim, grid", [(1, True), (1, False), (2, False)])
    def test_a_star_trace_gives_the_bits_of_the_index_only_path(self, kind, dim, grid):
        dim = 1 if kind == "plateau" else dim
        arms = grid_arms(3000) if grid else sample_arms_uniform(3000, dim, 6)
        mean = MASK_MEANS[kind](dim)
        inst = Instance(arms, mean, BERN, 1100)
        part = build_partition(arms, 5)
        bm = bin_means_quadrature(mean, part)
        baseline = make_baseline(inst, part, bm, compute_threshold_M(mean, inst.p), 6)
        trace = oracle_star(inst, 6)
        plain = RegretDecomposition(**_indexed_regret(
            inst, part, *rank_bins(part, bm, inst.T), baseline.reference, trace))

        def bits(decomposition):
            return np.array(dataclasses.astuple(decomposition)).view(np.int64).tolist()

        assert trace.mask is inst.star_mask()
        s_pulled = float(inst.true_means[np.sort(trace.pulled)].sum())
        assert regret_total(inst, trace) == inst.top_mean_sum() - s_pulled == 0.0
        assert bits(regret_decompose(inst, baseline, trace)) == bits(plain)

    def test_a_mask_of_the_wrong_length_or_count_is_refused(self, monkeypatch):
        arms = grid_arms(4)
        inst = Instance(arms, identity(), BERN, 2)
        part = build_partition(arms, 2)
        bm = bin_means_quadrature(identity(), part)
        m = compute_threshold_M(inst.mean, inst.p)
        baseline = make_baseline(inst, part, bm, m, 0)
        assert regret_total(inst, trace_of(4, [2, 3])) == 0.0
        for trace, message in (
            (trace_of(5, [2, 3]), "trace mask length 5 != arm count 4"),
            (trace_of(4, [1, 2, 3]), "trace mask holds 3 arms != budget 2"),
            (trace_of(4, [3]), "trace mask holds 1 arms != budget 2"),
        ):
            with pytest.raises(ValueError, match=message):
                regret_total(inst, trace)
            with pytest.raises(ValueError, match=message):
                regret_decompose(inst, baseline, trace)
            # A reference run with such a mask fails its baseline.
            monkeypatch.setattr(policies, "oracle_discrete", lambda *args, t=trace: t)
            with pytest.raises(ValueError, match=message):
                make_baseline(inst, part, bm, m, 0)


class TestPullSetsOnly:
    """Regret, baseline and decomposition read only which arms a run
    pulled, so a sweep never builds the pull order or rewards of UCBF or
    an oracle."""

    def test_builders_never_run(self, monkeypatch):
        plateau = PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3))
        arms = grid_arms(2**13)
        inst = Instance(arms, plateau, RewardModel("clipped_gaussian", 0.1), 2**12)
        part = build_partition(arms, 8)
        bm = bin_means_quadrature(plateau, part)
        star = oracle_star(inst, 2)
        expected = make_baseline(inst, part, bm, compute_threshold_M(inst.mean, inst.p), 2)
        reference = expected.reference
        ucbf = ucbf_run(inst, part, 0.01, 2)

        def unbuilt(trace):
            def builder():
                raise AssertionError("a trace's builder ran")

            return PolicyTrace(trace.mask, builder)

        lazy_star, lazy_reference, lazy_ucbf = unbuilt(star), unbuilt(reference), unbuilt(ucbf)
        assert len(lazy_star) == len(lazy_reference) == len(lazy_ucbf) == inst.T
        assert regret_total(inst, lazy_star) == regret_total(inst, star) == 0.0
        assert regret_total(inst, lazy_ucbf) == regret_total(inst, ucbf)
        # The baseline's own reference run comes back unbuildable.
        monkeypatch.setattr(policies, "oracle_discrete", lambda *args: lazy_reference)
        baseline = make_baseline(inst, part, bm, compute_threshold_M(inst.mean, inst.p), 2)
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

        def tracked(self, mask, build):
            def counted():
                built.append(build.__qualname__)
                return build()

            made.append(build.__qualname__)
            init(self, mask, counted)

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
        arms = grid_arms(100)
        inst = Instance(arms, identity(), BERN, 50)
        part = build_partition(arms, 4)
        np.testing.assert_array_equal(part.counts, [24, 25, 25, 26])
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1],
                             compute_threshold_M(inst.mean, inst.p))
        assert report.max_count_dev == 1.0
        assert report.f == 2  # floor(p K) at p = 0.5, K = 4

    def test_exact_equipartition_with_midpoint_covariates(self):
        cov = ((np.arange(100) + 0.5) / 100).reshape(-1, 1)
        arms = ArmSet(cov)
        inst = Instance(arms, identity(), BERN, 50)
        part = build_partition(arms, 4)
        _, f_hat = rank_bins(part, bin_means_quadrature(identity(), part), inst.T)
        report = diagnostics(inst, part, f_hat, compute_threshold_M(inst.mean, inst.p))
        assert report.max_count_dev == 0.0
        assert report.count_dev_scaled == 0.0

    def test_m_hat_is_budget_order_statistic(self):
        arms = grid_arms(4)
        inst = Instance(arms, identity(), BERN, 2)
        part = build_partition(arms, 2)
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1],
                             compute_threshold_M(inst.mean, inst.p))
        assert report.m_hat == 0.75

    @pytest.mark.parametrize("case", ["constant", "plateau", "rounded"])
    def test_m_hat_is_the_least_star_mean(self, case):
        # m_hat is the cut of the star set's selection, read without a
        # gather: the least mean of the star set, ties at the cut included.
        rng = np.random.default_rng(7)
        if case == "rounded":
            means = np.round(rng.random(3001), 1)
            arms = grid_arms(means.size)
            mean = PiecewiseLinear((0.0, *arms.covariates[:, 0]), (means[0], *means))
        else:
            arms, mean = grid_arms(3000), Constant(0.5) if case == "constant" else PLATEAU
        for t_budget in (1, 7, arms.n // 3, arms.n // 2, arms.n):
            inst = Instance(arms, mean, BERN, t_budget)
            part = build_partition(arms, 5)
            report = diagnostics(inst, part, rank_bins(part, [0.5] * 5, inst.T)[1],
                                 compute_threshold_M(inst.mean, inst.p))
            assert report.m_hat == float(inst.true_means[inst.star_order()].min())

    def test_constant_mean_has_no_lipschitz_scale(self):
        arms = grid_arms(50)
        inst = Instance(arms, Constant(0.5), BERN, 25)
        part = build_partition(arms, 5)
        report = diagnostics(inst, part, rank_bins(part, [0.5] * 5, inst.T)[1],
                             compute_threshold_M(inst.mean, inst.p))
        assert report.m_hat_gap_scaled is None

    def test_json_round_trip(self):
        import json

        arms = grid_arms(50)
        inst = Instance(arms, identity(), BERN, 25)
        part = build_partition(arms, 5)
        bm = bin_means_quadrature(identity(), part)
        report = diagnostics(inst, part, rank_bins(part, bm, inst.T)[1],
                             compute_threshold_M(inst.mean, inst.p))
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["f"] == report.f
        assert data["f_gap"] == abs(report.f_hat - report.f)
