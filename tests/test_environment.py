import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcab.environment import (
    Constant,
    Instance,
    LowerBoundMember,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    Tabulated,
    bernoulli_kl,
    compute_threshold_M,
    grid_arms,
    instance_kl,
    make_instance,
    make_lower_bound_pair,
    mean_function_from_json,
    sample_arms_uniform,
    verify_margin,
    verify_weak_lipschitz,
)
from fcab.policies import oracle_star


def identity():
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0))


class TestArmSets:
    def test_uniform_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_arms_uniform(0, 1, 7)

    def test_uniform_mean_close_to_half(self):
        # CLT oracle: |mean - 0.5| should be far within 0.002 at n = 1e6
        # (3 sigma / sqrt(n) with sigma^2 = 1/12 is about 0.00087).
        arms = sample_arms_uniform(10**6, 1, 42)
        assert abs(arms.x.mean() - 0.5) < 0.002

    def test_uniform_is_deterministic(self):
        a = sample_arms_uniform(100, 2, 9)
        b = sample_arms_uniform(100, 2, 9)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_uniform_in_cube(self):
        arms = sample_arms_uniform(5000, 3, 1)
        assert arms.covariates.min() >= 0.0
        assert arms.covariates.max() <= 1.0

    def test_grid_small(self):
        np.testing.assert_allclose(grid_arms(4).x, [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(grid_arms(1).x, [1.0])

    def test_grid_ten_equally_spaced(self):
        x = grid_arms(10).x
        assert x[-1] == 1.0
        np.testing.assert_allclose(np.diff(x), 0.1)


class TestMeanFunctions:
    def test_constant(self):
        f = Constant(0.5)
        for x in (0.0, 0.3, 1.0):
            assert f.evaluate(x) == 0.5

    def test_piecewise_identity(self):
        assert identity().evaluate(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_piecewise_interpolates(self):
        f = PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        assert f.evaluate(0.25) == pytest.approx(0.5)
        assert f.lipschitz_L == pytest.approx(2.0)

    def test_piecewise_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.5), (0.0, 1.0))  # does not span [0, 1]
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.5, 0.5, 1.0), (0.0, 0.1, 0.2, 0.3))

    def test_values_stay_in_unit_interval(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 1.0), (0.0, 1.5))
        with pytest.raises(ValueError):
            Sinusoid(amplitude=0.7, offset=0.5)

    def test_sinusoid_range(self):
        f = Sinusoid(amplitude=0.4, frequency=1.0, offset=0.5)
        xs = np.linspace(0, 1, 1001)
        v = f.evaluate(xs)
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert f.evaluate(0.25) == pytest.approx(0.9)

    def test_tabulated_interpolates(self):
        f = Tabulated((0.0, 1.0, 0.0))
        assert f.evaluate(0.25) == pytest.approx(0.5)

    def test_json_round_trip(self):
        originals = [
            Constant(0.3),
            identity(),
            Sinusoid(amplitude=0.25, frequency=2.0, offset=0.5),
            Tabulated((0.1, 0.9, 0.4)),
            LowerBoundMember(role=1, p=0.4, l_tilde=0.5, half_width=0.02, margin_Q=12.0),
        ]
        xs = np.linspace(0, 1, 101)
        for f in originals:
            g = mean_function_from_json(json.loads(json.dumps(f.to_json())))
            np.testing.assert_allclose(g.evaluate(xs), f.evaluate(xs))


class TestThreshold:
    def test_linear_mean_exact(self):
        # measure{x >= A} = 1 - A < 0.3 exactly at A = 0.7
        assert compute_threshold_M(identity(), 0.3) == 0.7

    def test_linear_mean_other_p(self):
        assert compute_threshold_M(identity(), 0.5, resolution=10**5) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_analytic_short_circuit(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        for member in (pair.m0, pair.m1):
            assert compute_threshold_M(member, 0.5) == 0.5

    def test_full_budget_is_grid_minimum(self):
        # At p = 1 the declared analytic level (1/2 here) does not apply:
        # the threshold is the smallest mean on the grid.
        f = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6).m0
        grid_min = f.evaluate(np.arange(10**4) / 10**4).min()
        assert compute_threshold_M(f, 1.0, resolution=10**4) == grid_min < 0.5

    def test_lower_bound_member_grid_path(self):
        # Bypassing the analytic value, the grid quantile lands within the
        # documented L/resolution error of 1/2.
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        grid_only = dataclasses.replace(pair.m0, analytic_M=None)
        m = compute_threshold_M(grid_only, 0.5, resolution=10**6)
        assert m == pytest.approx(0.5, abs=1e-5)

    def test_sinusoid_symmetry(self):
        f = Sinusoid(amplitude=0.4, frequency=1.0, offset=0.5)
        m = compute_threshold_M(f, 0.5)
        # Lipschitz constant 0.8*pi bounds the grid error at resolution 1e6.
        assert m == pytest.approx(0.5, abs=3e-6)

    def test_resolution_rejected(self):
        with pytest.raises(ValueError):
            compute_threshold_M(identity(), 0.3, resolution=100)

    def test_quantile_sandwich(self):
        # Defining property on the grid itself: exceeding M + 1/R drops the
        # fraction below p, exceeding M - 1/R keeps it at p - 2/R or more.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = rng.integers(3, 8)
            bps = np.sort(rng.random(k - 2))
            bps = np.concatenate(([0.0], bps, [1.0]))
            if np.any(np.diff(bps) <= 0):
                continue
            vals = rng.random(k)
            f = PiecewiseLinear(tuple(bps), tuple(vals))
            p = float(rng.uniform(0.1, 0.9))
            r = 10**4
            m = compute_threshold_M(f, p, resolution=r)
            grid_vals = f.evaluate(np.arange(r) / r)
            assert np.mean(grid_vals >= m + 1.0 / r) < p
            assert np.mean(grid_vals >= m - 1.0 / r) >= p - 2.0 / r


class TestLowerBoundPair:
    def test_reference_geometry(self):
        # Direct evaluation of the construction formulas.
        n, p, L, alpha = 10**6, 0.5, 0.5, 0.23
        lt = min(L, 0.5)
        hw = alpha * (n * lt**2) ** (-1.0 / 3.0)
        pair = make_lower_bound_pair(p, L, alpha, n)
        assert pair.lb_half_width == pytest.approx(hw, abs=1e-12)
        assert hw == pytest.approx(0.0036510, abs=1e-6)
        assert pair.x0 == pytest.approx(0.4926980, abs=1e-6)
        assert pair.x1 == pytest.approx(0.5073020, abs=1e-6)
        assert lt * hw == pytest.approx(0.0018255, abs=1e-6)

    def test_members_agree_outside_window(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        xs = np.concatenate(
            (np.linspace(0.0, pair.x0, 200), np.linspace(pair.x1, 1.0, 200))
        )
        np.testing.assert_array_equal(pair.m0.evaluate(xs), pair.m1.evaluate(xs))
        assert pair.m0.evaluate(0.0) == pair.m1.evaluate(0.0)

    def test_members_differ_inside_window(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        mid = pair.x0 + pair.lb_half_width / 2
        assert pair.m0.evaluate(mid) != pair.m1.evaluate(mid)

    def test_value_at_x0_is_half(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        assert pair.m0.evaluate(pair.x0) == pytest.approx(0.5, abs=1e-12)
        assert pair.m1.evaluate(pair.x0) == pytest.approx(0.5, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        for p in (0.3, 0.5, 0.7):
            for L in (0.3, 0.5, 1.0):
                pair = make_lower_bound_pair(p, L, 0.23, 10**6)
                xs = np.linspace(0, 1, 20001)
                for m in (pair.m0, pair.m1):
                    v = m.evaluate(xs)
                    assert v.min() >= 0.0 and v.max() <= 1.0

    def test_window_violation_rejected(self):
        with pytest.raises(ValueError):
            make_lower_bound_pair(0.5, 0.5, 0.6, 10**6)  # alpha above 0.5
        with pytest.raises(ValueError):
            make_lower_bound_pair(0.5, 0.5, 0.23, 100)  # alpha below 20 N^(-2/3)
        with pytest.raises(ValueError):
            make_lower_bound_pair(0.001, 0.5, 0.4, 10**4)  # bumps do not fit


class TestValidators:
    def test_linear_is_weakly_lipschitz(self):
        report = verify_weak_lipschitz(identity(), M=0.7, L=1.0, grid=1500)
        assert report.passed

    def test_step_function_fails(self):
        # Jump across M: the bound cannot absorb the jump near the step.
        f = Tabulated(tuple([0.2] * 500 + [0.8] * 500))
        report = verify_weak_lipschitz(f, M=0.5, L=1.0, grid=2000)
        assert not report.passed
        assert report.worst_violation > 0.1

    def test_lower_bound_members_pass_lipschitz(self):
        pair = make_lower_bound_pair(0.5, 1.0, 0.23, 10**6)
        for m in (pair.m0, pair.m1):
            report = verify_weak_lipschitz(m, M=0.5, L=pair.L_tilde, grid=2000)
            assert report.passed

    def test_sampled_mode_on_large_grid(self):
        report = verify_weak_lipschitz(identity(), M=0.7, L=1.0, grid=5000)
        assert report.details["mode"] == "sampled"
        assert report.passed

    def test_margin_linear_pass(self):
        # measure{|0.7 - x| <= 0.1} = 0.2 = Q * eps at Q = 2.
        report = verify_margin(identity(), M=0.7, Q=2.0, eps_values=[0.1], grid=10**5)
        assert report.passed

    def test_margin_linear_fail(self):
        report = verify_margin(identity(), M=0.7, Q=1.0, eps_values=[0.1], grid=10**5)
        assert not report.passed

    def test_margin_lower_bound_members(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        q = 6.0 * max(1.0 / 0.5, 2.0)
        eps = [1.5 * pair.L_tilde * pair.lb_half_width, 0.01, 0.1]
        for m in (pair.m0, pair.m1):
            report = verify_margin(m, M=0.5, Q=q, eps_values=eps, grid=10**5)
            assert report.passed

    def test_margin_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            verify_margin(identity(), M=0.5, Q=2.0, eps_values=[1.5])

    def test_two_dimensional_lipschitz_uses_euclidean_distance(self):
        # m(x) = mean of coordinates is 1/sqrt(2)-Lipschitz in L2; it must
        # pass at L = 0.75 and fail well below the gradient norm.
        f = Sinusoid(amplitude=0.45, frequency=0.15, offset=0.5, dim=2)
        m = compute_threshold_M(f, 0.5, resolution=10**4)
        good = verify_weak_lipschitz(f, M=m, L=f.lipschitz_L * 1.05, grid=1200, seed=1)
        assert good.passed
        bad = verify_weak_lipschitz(f, M=m, L=f.lipschitz_L * 0.25, grid=1200, seed=1)
        assert not bad.passed


class TestRewards:
    def test_bernoulli_degenerate(self):
        rng = np.random.default_rng(0)
        model = RewardModel("bernoulli")
        assert np.all(model.sample(np.zeros(50), rng) == 0.0)
        assert np.all(model.sample(np.ones(50), rng) == 1.0)

    def test_bernoulli_frequency(self):
        # Binomial z-test at significance 1e-6 (two-sided z about 4.89).
        rng = np.random.default_rng(123)
        model = RewardModel("bernoulli")
        n = 10**6
        draws = model.sample(np.full(n, 0.5), rng)
        z = abs(draws.mean() - 0.5) / math.sqrt(0.25 / n)
        assert z < 4.8916
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_bernoulli_matches_mean_across_levels(self):
        rng = np.random.default_rng(7)
        model = RewardModel("bernoulli")
        n = 10**6
        for mean in (0.1, 0.37, 0.82):
            draws = model.sample(np.full(n, mean), rng)
            sd = math.sqrt(mean * (1 - mean) / n)
            assert abs(draws.mean() - mean) < 4.8916 * sd

    def test_clipped_gaussian_in_range(self):
        rng = np.random.default_rng(3)
        model = RewardModel("clipped_gaussian", sigma=0.3)
        draws = model.sample(np.full(10**4, 0.5), rng)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_mean_outside_unit_interval_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RewardModel("bernoulli").sample(np.array([1.2]), rng)


class TestBernoulliKl:
    def test_identical(self):
        assert bernoulli_kl(0.5, 0.5) == 0.0

    def test_quarter_three_quarters(self):
        expected = 0.5 * math.log(3.0)  # direct formula evaluation
        assert bernoulli_kl(0.25, 0.75) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_perturbation_bound(self):
        v = bernoulli_kl(0.45, 0.55)
        assert v == pytest.approx(0.1 * math.log(11.0 / 9.0), rel=1e-12)
        assert v <= 4 * 0.1**2

    def test_endpoints_rejected(self):
        for bad in ((0.0, 0.5), (0.5, 1.0), (1.0, 0.5)):
            with pytest.raises(ValueError):
                bernoulli_kl(*bad)

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, p, q):
        assert bernoulli_kl(p, q) >= 0.0


class TestInstanceKl:
    def test_identical_members_zero(self):
        import dataclasses

        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**5)
        twin = dataclasses.replace(pair, m1=pair.m0)
        assert instance_kl(twin, grid_arms(10**4)) == 0.0

    def test_kl_budget(self):
        # Sum of per-arm divergences stays under 70.4 alpha^3 once the bump
        # holds at least 31 grid arms.
        alpha = 0.23
        for n in (10**4, 10**5, 10**6):
            pair = make_lower_bound_pair(0.5, 0.5, alpha, n)
            assert n * pair.lb_half_width >= 31
            kl = instance_kl(pair, grid_arms(n))
            assert kl <= 70.4 * alpha**3
            assert kl > 0.0

    def test_order_invariance(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**4)
        arms = grid_arms(10**4)
        v0 = pair.m0.evaluate(arms.x)
        v1 = pair.m1.evaluate(arms.x)
        mask = v0 != v1
        forward = float(np.sum(bernoulli_kl(v0[mask], v1[mask])))
        backward = float(np.sum(bernoulli_kl(v0[mask][::-1], v1[mask][::-1])))
        assert forward == pytest.approx(backward, rel=1e-12)
        assert instance_kl(pair, arms) == pytest.approx(forward, rel=1e-12)

    def test_requires_grid_arms(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**4)
        with pytest.raises(ValueError):
            instance_kl(pair, sample_arms_uniform(100, 1, 0))


class TestInstances:
    def test_budget_bounds(self):
        arms = grid_arms(10)
        with pytest.raises(ValueError):
            make_instance(arms, identity(), RewardModel("bernoulli"), 0)
        with pytest.raises(ValueError):
            make_instance(arms, identity(), RewardModel("bernoulli"), 11)

    def test_fields(self):
        arms = grid_arms(100)
        inst = make_instance(arms, identity(), RewardModel("bernoulli"), 30,
                             threshold_resolution=10**4)
        assert inst.p == pytest.approx(0.3)
        assert inst.threshold_M == pytest.approx(0.7, abs=1e-3)
        np.testing.assert_allclose(inst.true_means, arms.x)

    def test_star_order_ties_break_by_index(self):
        arms = grid_arms(4)
        inst = make_instance(arms, Constant(0.5), RewardModel("bernoulli"), 2)
        np.testing.assert_array_equal(inst.star_order(), [0, 1])

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                st.integers(0, 2),
                st.booleans(),
                st.integers(1, n),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_star_set_matches_full_stable_sort(self, case):
        # Means rounded to 0-2 decimals, or all equal, so ties fall at the cut.
        values, decimals, constant, t_budget = case
        means = np.full(len(values), values[0]) if constant else np.round(values, decimals)
        n = means.size
        inst = Instance(grid_arms(n), Constant(0.5), RewardModel("bernoulli"),
                        t_budget, t_budget / n, 0.5, means)
        prefix = np.argsort(-means, kind="stable")[:t_budget]
        np.testing.assert_array_equal(inst.star_order(), np.sort(prefix))
        np.testing.assert_array_equal(oracle_star(inst, 0).pulled, prefix)
        assert inst.m_hat == means[prefix[-1]]
        assert inst.top_mean_sum() == float(means[np.sort(prefix)].sum())
