import inspect
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcab import environment
from fcab.analysis import diagnostics
from fcab.environment import (
    _mean_mass,
    Constant,
    Instance,
    LowerBoundMember,
    MeanFunction,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    Tabulated,
    bernoulli_kl,
    compute_threshold_M,
    grid_arms,
    make_lower_bound_pair,
    mean_kl,
    sample_arms_uniform,
    verify_margin,
    verify_weak_lipschitz,
)
from fcab.policies import build_partition, oracle_star


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
        assert abs(arms.covariates[:, 0].mean() - 0.5) < 0.002

    def test_uniform_is_deterministic(self):
        a = sample_arms_uniform(100, 2, 9)
        b = sample_arms_uniform(100, 2, 9)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_uniform_in_cube(self):
        arms = sample_arms_uniform(5000, 3, 1)
        assert arms.covariates.min() >= 0.0
        assert arms.covariates.max() <= 1.0

    def test_grid_small(self):
        np.testing.assert_allclose(grid_arms(4).covariates[:, 0], [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(grid_arms(1).covariates[:, 0], [1.0])

    def test_grid_ten_equally_spaced(self):
        x = grid_arms(10).covariates[:, 0]
        assert x[-1] == 1.0
        np.testing.assert_allclose(np.diff(x), 0.1)


class TestMeanFunctions:
    def test_constant(self):
        f = Constant(0.5)
        for x in (0.0, 0.3, 1.0):
            assert f.evaluate([x]) == [0.5]

    def test_piecewise_identity(self):
        assert identity().evaluate([0.3]) == pytest.approx([0.3], abs=1e-15)

    def test_piecewise_interpolates(self):
        f = PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
        assert f.evaluate([0.25]) == pytest.approx([0.5])
        assert f.lipschitz_L == pytest.approx(2.0)

    def test_piecewise_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.5), (0.0, 1.0))  # does not span [0, 1]
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 0.5, 0.5, 1.0), (0.0, 0.1, 0.2, 0.3))

    def test_supplied_lipschitz_skips_the_slopes(self):
        # A slope between these breakpoints overflows; a supplied constant is kept.
        f = PiecewiseLinear((0.0, 1e-320, 1.0), (0.0, 1.0, 0.5), lipschitz_L=1.0)
        assert f.lipschitz_L == 1.0 and f.evaluate([0.5]) == pytest.approx([0.75])

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
        assert f.evaluate([0.25]) == pytest.approx([0.9])

    def test_tabulated_interpolates(self):
        f = Tabulated((0.0, 1.0, 0.0))
        assert f.evaluate([0.25]) == pytest.approx([0.5])
        # It is the piecewise-linear function through the grid points.
        assert f == PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))

    def test_evaluate_takes_arrays_only(self):
        for f in (Constant(0.5), identity(), Sinusoid(), Sinusoid(dim=2)):
            with pytest.raises(ValueError, match="dimension"):
                f.evaluate(0.3)
        assert Sinusoid(dim=2).evaluate([[0.25, 0.25]]).shape == (1,)

    def test_json_round_trip(self):
        # One JSON object of each kind reads as the function built directly.
        cases = [
            ('{"kind": "constant", "value": 0.3}', Constant(0.3)),
            ('{"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0, 1]}',
             identity()),
            ('{"kind": "sinusoid", "amplitude": 0.25, "frequency": 2.0, "offset": 0.5}',
             Sinusoid(amplitude=0.25, frequency=2.0, offset=0.5)),
            ('{"kind": "tabulated", "grid_values": [0.1, 0.9, 0.4]}', Tabulated((0.1, 0.9, 0.4))),
            ('{"kind": "lower_bound_member", "role": 1, "p": 0.4, "l_tilde": 0.5, '
             '"half_width": 0.02}', LowerBoundMember(role=1, p=0.4, l_tilde=0.5, half_width=0.02)),
        ]
        xs = np.linspace(0, 1, 101)
        for text, f in cases:
            g = MeanFunction.from_json(json.loads(text))
            np.testing.assert_array_equal(g.evaluate(xs), f.evaluate(xs))

    def test_null_optional_parameter_takes_its_default(self):
        spec = {"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0.2, 0.8],
                "lipschitz_L": None}
        assert MeanFunction.from_json(spec).lipschitz_L == pytest.approx(0.6)  # derived


def exceedance(f, level):
    """measure{m >= level} of a piecewise-linear mean, piece by piece."""
    total = 0.0
    for (x0, x1), (v0, v1) in zip(itertools.pairwise(f.breakpoints),
                                  itertools.pairwise(f.values)):
        if v0 == v1:
            total += (x1 - x0) * (v0 >= level)
        else:
            total += (x1 - x0) * min(max((max(v0, v1) - level) / abs(v1 - v0), 0.0), 1.0)
    return total


def grid_quantile(f, p, r=10**5):
    """Reference threshold of a 1-d mean: the smallest of its values at the
    left endpoints i/r whose exceedance count drops below p * r (the 1e-9
    absorbs the float error of an integral p * r).  It lies within
    lipschitz_L / r of the exact level."""
    return np.sort(f.evaluate(np.arange(r) / r))[r - math.ceil(p * r - 1e-9)]


class TestThreshold:
    def test_linear_mean_exact(self):
        # measure{x >= A} = 1 - A < 0.3 exactly at A = 0.7
        assert compute_threshold_M(identity(), 0.3) == 0.7

    def test_linear_mean_other_p(self):
        assert compute_threshold_M(identity(), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_analytic_short_circuit(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        for member in (pair.m0, pair.m1):
            assert compute_threshold_M(member, 0.5) == 0.5

    def test_lower_bound_members_share_one_half(self):
        for p in (0.3, 0.5, 0.7):
            for lips in (0.3, 0.5, 1.0):
                pair = make_lower_bound_pair(p, lips, 0.23, 10**6)
                for member in (pair.m0, pair.m1):
                    assert abs(compute_threshold_M(member, p) - 0.5) <= 1e-12

    def test_full_budget_is_grid_minimum(self):
        # At p = 1 the threshold is the smallest mean, here the value at 0,
        # which a grid from 0 finds too.
        f = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6).m0
        grid_min = f.evaluate(np.arange(10**4) / 10**4).min()
        assert compute_threshold_M(f, 1.0) == grid_min < 0.5

    def test_full_budget_is_minimum_for_every_kind(self):
        assert Constant(0.3).threshold(1.0) == 0.3
        assert Tabulated((0.6, 0.2, 0.9)).threshold(1.0) == 0.2
        # A sinusoid reaches offset - |amplitude| once its phase passes the
        # trough, whatever the sign of the amplitude or the dimension...
        for f in (Sinusoid(0.35, 1.15), Sinusoid(-0.35, 1.15), Sinusoid(0.35, 1.15, dim=3)):
            assert f.threshold(1.0) == pytest.approx(0.15, abs=1e-12)
        # ...and stays at or above its offset on half a period.
        assert Sinusoid(0.3, 0.5, 0.5).threshold(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sinusoid_symmetry(self):
        # Over one full period the sine is nonnegative on exactly half.
        f = Sinusoid(amplitude=0.4, frequency=1.0, offset=0.5)
        assert compute_threshold_M(f, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_negative_amplitude_mirrors_positive(self):
        # With offset 1/2, m_- = 1 - m_+, so M_-(p) = 1 - M_+(1 - p).
        for d in (1, 2):
            for p in (0.2, 0.5, 0.9):
                pos, neg = Sinusoid(0.35, 1.15, dim=d), Sinusoid(-0.35, 1.15, dim=d)
                assert neg.threshold(p) == pytest.approx(1.0 - pos.threshold(1.0 - p), abs=1e-12)

    def test_zero_amplitude_is_its_offset(self):
        f = Sinusoid(amplitude=0.0, frequency=1.15, offset=0.4, dim=2)
        for p in (0.3, 1.0):
            assert f.threshold(p) == 0.4
        assert f.box_mean(np.array([0.1, 0.2]), np.array([0.3, 0.9])) == 0.4

    def test_resolution_is_ignored(self):
        assert compute_threshold_M(identity(), 0.3, 100) == 0.7
        with pytest.raises(ValueError):
            compute_threshold_M(identity(), 0.0)

    def test_one_dimensional_thresholds_match_a_grid(self):
        r = 10**5
        rng = np.random.default_rng(17)
        means = [Sinusoid(0.35, 1.15), Sinusoid(-0.35, 1.15), Sinusoid(0.2, 3.7, 0.4),
                 Tabulated((0.1, 0.9, 0.4, 0.6))]
        for f in means:
            for p in (0.1, 0.3, 0.5, 0.77, 1.0):
                assert abs(f.threshold(p) - grid_quantile(f, p, r)) <= f.lipschitz_L / r
        for _ in range(10):
            f = PiecewiseLinear(tuple(np.linspace(0.0, 1.0, 6)), tuple(rng.random(6)))
            p = float(rng.uniform(0.05, 0.95))
            assert abs(f.threshold(p) - grid_quantile(f, p, r)) <= f.lipschitz_L / r

    @pytest.mark.parametrize("dim, expected", [(2, 0.4087098), (3, 0.3694791), (5, 0.3464148)])
    def test_sinusoid_threshold_matches_monte_carlo(self, dim, expected):
        f = Sinusoid(amplitude=0.35, frequency=1.15, offset=0.5, dim=dim)
        p, n, h = 0.5, 4 * 10**5, 0.01
        m = f.threshold(p)
        assert m == pytest.approx(expected, abs=1e-7)
        values = f.evaluate(np.random.default_rng(dim).random((n, dim)))
        q = float(np.quantile(values, 1.0 - p))
        # The sample quantile has sd sqrt(p (1 - p) / n) / g(M), with g the
        # density of the mean's law at M, estimated as the sample fraction
        # within h of q over 2 h.
        density = np.mean(np.abs(values - q) <= h) / (2.0 * h)
        assert abs(m - q) <= 5.0 * math.sqrt(p * (1.0 - p) / n) / density

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_mean_mass_equals_the_fraction_form(self, dim):
        # Each CDF of the coordinate mean stepped through in Fraction, then
        # the difference rounded once, as the threshold summed it before.
        def cdf(u):
            s = Fraction(u) * dim
            terms = ((-1) ** k * math.comb(dim, k) * (s - k) ** dim
                     for k in range(math.floor(s) + 1))
            return sum(terms) / math.factorial(dim)

        rng = np.random.default_rng(dim)
        edges = np.arange(dim + 1) / dim
        us = np.concatenate((
            [0.0, 1.0, 1e-12, 1.0 - 2.0**-53], edges, np.nextafter(edges, 2.0),
            rng.random(60), (rng.random(30) * 2**-20 + rng.integers(0, dim, 30)) / dim,
        ))
        us = np.unique(np.clip(us, 0.0, 1.0))
        pairs = [(float(a), float(b)) for a in us[::3] for b in us if a < b]
        assert len(pairs) > 1000
        for u0, u1 in pairs:
            assert _mean_mass(u0, u1, dim) == float(cdf(u1) - cdf(u0)), (u0, u1)

    def test_sinusoid_thresholds_keep_their_bits(self):
        # The closed-form column of ROADMAP's threshold table (amplitude
        # 0.35, frequency 1.15, p = 0.5), as the Fraction form gave it.
        expected = {1: "0x1.1c08765deba82p-1", 2: "0x1.a284d32519856p-2",
                    3: "0x1.7a58bd0dd8eb5p-2", 5: "0x1.62ba9148eb1aap-2"}
        for dim, bits in expected.items():
            assert Sinusoid(0.35, 1.15, 0.5, dim=dim).threshold(0.5).hex() == bits

    def test_quantile_sandwich(self):
        # Defining property, from the exact exceedance: just above M the
        # measure falls below p, just below it it is at least p.
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
            m = compute_threshold_M(f, p)
            assert exceedance(f, m + 1e-9) < p <= exceedance(f, m - 1e-9)

    def test_plateau_keeps_the_infimum(self):
        # A plateau at 0.8 of length 0.4: every p in (0, 0.4] lands on it.
        f = PiecewiseLinear((0.0, 0.3, 0.7, 1.0), (0.2, 0.8, 0.8, 0.3))
        for p in (0.05, 0.3, 0.39):
            assert f.threshold(p) == 0.8
        # A plateau at the bottom holds the threshold of every p above the
        # measure that climbs off it.
        g = PiecewiseLinear((0.0, 0.5, 1.0), (0.2, 0.2, 0.9))
        for p in (0.6, 0.9, 1.0):
            assert g.threshold(p) == 0.2
        assert g.threshold(0.25) == pytest.approx(0.55, abs=1e-12)


class TestBoxMean:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_sinusoid_matches_gauss_legendre(self, dim):
        # A 10-point Gauss-Legendre rule per axis integrates this smooth
        # mean over boxes of width <= 1 to about machine precision.
        nodes, weights = np.polynomial.legendre.leggauss(10)
        rng = np.random.default_rng(dim)
        for f in (Sinusoid(0.35, 1.15, 0.5, dim), Sinusoid(-0.2, 2.5, 0.4, dim)):
            for _ in range(3):
                lo = rng.random(dim) * 0.5
                hi = lo + 0.05 + rng.random(dim) * 0.45
                axes = [lo[a] + (hi[a] - lo[a]) * (nodes + 1.0) / 2.0 for a in range(dim)]
                pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
                w = np.prod(np.meshgrid(*[weights / 2.0] * dim, indexing="ij"), axis=0).ravel()
                assert f.box_mean(lo, hi) == pytest.approx(float(w @ f.evaluate(pts)), abs=1e-12)


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

    @pytest.mark.parametrize("L", [0.2, 2.0])
    def test_pair_carries_its_design(self, L):
        pair = make_lower_bound_pair(0.5, L, 0.23, 10**5)
        assert pair.L == L
        assert pair.margin_Q == 6.0 * max(1.0 / L, 2.0)
        assert (pair.N, pair.p, pair.alpha_lb) == (10**5, 0.5, 0.23)

    def test_members_agree_outside_window(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        xs = np.concatenate(
            (np.linspace(0.0, pair.x0, 200), np.linspace(pair.x1, 1.0, 200))
        )
        np.testing.assert_array_equal(pair.m0.evaluate(xs), pair.m1.evaluate(xs))
        assert pair.m0.evaluate([0.0]) == pair.m1.evaluate([0.0])

    def test_members_differ_inside_window(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        mid = pair.x0 + pair.lb_half_width / 2
        assert pair.m0.evaluate([mid]) != pair.m1.evaluate([mid])

    def test_value_at_x0_is_half(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        assert pair.m0.evaluate([pair.x0]) == pytest.approx([0.5], abs=1e-12)
        assert pair.m1.evaluate([pair.x0]) == pytest.approx([0.5], abs=1e-12)

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
        report = verify_weak_lipschitz(identity(), L=1.0)
        assert report.passed
        assert report.worst_violation == 0.0

    def test_step_function_fails(self):
        # Jump across M: the bound cannot absorb the jump near the step.
        f = Tabulated(tuple([0.2] * 500 + [0.8] * 500))
        report = verify_weak_lipschitz(f, L=1.0)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.6 - 1.0 / 999, rel=1e-12)
        assert report.details["worst_x"] == pytest.approx(499 / 999, rel=1e-12)

    def test_lower_bound_members_pass_lipschitz(self):
        pair = make_lower_bound_pair(0.5, 1.0, 0.23, 10**6)
        for m in (pair.m0, pair.m1):
            report = verify_weak_lipschitz(m, L=pair.l_tilde)
            assert report.passed
            assert abs(report.worst_violation) <= report.slack

    def test_margin_linear_pass(self):
        # measure{|0.7 - x| <= 0.1} = 0.2 = Q * eps at Q = 2.
        report = verify_margin(identity(), M=0.7, Q=2.0, eps_values=[0.1])
        assert report.passed
        assert report.details["per_eps"][0]["measure"] == pytest.approx(0.2, rel=1e-12)

    def test_margin_linear_fail(self):
        report = verify_margin(identity(), M=0.7, Q=1.0, eps_values=[0.1])
        assert not report.passed

    def test_margin_lower_bound_members(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**6)
        q = 6.0 * max(1.0 / 0.5, 2.0)
        eps = [1.5 * pair.l_tilde * pair.lb_half_width, 0.01, 0.1]
        for m in (pair.m0, pair.m1):
            report = verify_margin(m, M=0.5, Q=q, eps_values=eps)
            assert report.passed

    def test_margin_measure_is_exact_on_the_pair(self):
        # Outside the bumps m moves away from 1/2 at slope L~, inside them
        # it stays within L~ * h, so at eps = c L~ h (c >= 1) the measure is
        # (2c + 4) h against Q eps = 6 c h: 7/9, 2/3 and 1/2 of the bound.
        for p in (0.3, 0.5, 0.7):
            for lips in (0.3, 0.5, 1.0):
                pair = make_lower_bound_pair(p, lips, 0.23, 10**6)
                eps = [c * pair.l_tilde * pair.lb_half_width for c in (1.5, 2.0, 4.0)]
                for m in (pair.m0, pair.m1):
                    rows = verify_margin(m, M=0.5, Q=pair.margin_Q, eps_values=eps).details
                    ratios = [row["measure"] / row["bound"] for row in rows["per_eps"]]
                    assert ratios == pytest.approx([7 / 9, 2 / 3, 1 / 2], rel=1e-12)

    def test_margin_plateau_counts_in_full_or_not_at_all(self):
        # A plateau at 0.5 on [0.25, 0.75], slope 2 elsewhere: with the
        # plateau inside [M - eps, M + eps] it counts whole, else not at all.
        f = PiecewiseLinear((0.0, 0.25, 0.75, 1.0), (0.0, 0.5, 0.5, 1.0))
        rows = verify_margin(f, M=0.5, Q=100.0, eps_values=[0.1]).details["per_eps"]
        assert rows[0]["measure"] == pytest.approx(0.5 + 2 * 0.05, rel=1e-12)
        rows = verify_margin(f, M=0.7, Q=100.0, eps_values=[0.1]).details["per_eps"]
        assert rows[0]["measure"] == pytest.approx(0.1, rel=1e-12)

    def test_margin_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            verify_margin(identity(), M=0.5, Q=2.0, eps_values=[1.5])

    def test_validators_reject_a_two_dimensional_mean(self):
        for f in (Sinusoid(amplitude=0.45, frequency=0.15, offset=0.5, dim=2),
                  Constant(0.5, dim=2)):
            with pytest.raises(ValueError, match="one-dimensional"):
                verify_weak_lipschitz(f, L=1.0)
            with pytest.raises(ValueError, match="one-dimensional"):
                verify_margin(f, M=0.5, Q=2.0, eps_values=[0.1])

    def test_validators_reject_a_mean_that_is_not_piecewise_linear(self):
        for f in (Sinusoid(amplitude=0.45, frequency=0.15, offset=0.5), Constant(0.5)):
            with pytest.raises(ValueError, match="piecewise-linear"):
                verify_weak_lipschitz(f, L=1.0)
            with pytest.raises(ValueError, match="piecewise-linear"):
                verify_margin(f, M=0.5, Q=2.0, eps_values=[0.1])


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


def _grid_means(pair):
    """The two members' means at the grid arms of the pair's N."""
    x = grid_arms(pair.N).covariates
    return pair.m0.evaluate(x), pair.m1.evaluate(x)


class TestInstanceKl:
    def test_identical_members_zero(self):
        v0, _ = _grid_means(make_lower_bound_pair(0.5, 0.5, 0.23, 10**5))
        assert mean_kl(v0, v0.copy()) == 0.0

    def test_kl_budget(self):
        # Sum of per-arm divergences stays under 70.4 alpha^3 once the bump
        # holds at least 31 grid arms.
        alpha = 0.23
        for n in (10**4, 10**5, 10**6):
            pair = make_lower_bound_pair(0.5, 0.5, alpha, n)
            assert n * pair.lb_half_width >= 31
            kl = mean_kl(*_grid_means(pair))
            assert kl <= 70.4 * alpha**3
            assert kl > 0.0

    def test_order_invariance(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.23, 10**4)
        v0, v1 = _grid_means(pair)
        mask = v0 != v1
        forward = float(np.sum(bernoulli_kl(v0[mask], v1[mask])))
        backward = float(np.sum(bernoulli_kl(v0[mask][::-1], v1[mask][::-1])))
        assert forward == pytest.approx(backward, rel=1e-12)
        assert mean_kl(v0, v1) == pytest.approx(forward, rel=1e-12)


class TestInstances:
    def test_budget_bounds(self):
        arms = grid_arms(10)
        with pytest.raises(ValueError):
            Instance(arms, identity(), RewardModel("bernoulli"), 0)
        with pytest.raises(ValueError):
            Instance(arms, identity(), RewardModel("bernoulli"), 11)
        with pytest.raises(ValueError, match="dimension must match"):
            Instance(sample_arms_uniform(10, 2, 0), identity(), RewardModel("bernoulli"), 5)

    def test_fields(self):
        arms = grid_arms(100)
        inst = Instance(arms, identity(), RewardModel("bernoulli"), 30)
        assert inst.p == pytest.approx(0.3)
        assert inst.threshold_M == pytest.approx(0.7, abs=1e-3)
        np.testing.assert_allclose(inst.true_means, arms.covariates[:, 0])

    def test_constructor_takes_the_problem_only(self):
        assert list(inspect.signature(Instance).parameters) == ["arms", "mean", "rewards", "T"]

    def test_threshold_is_computed_on_first_read_only(self, monkeypatch):
        calls = []

        def counting(f, p):
            calls.append(p)
            return compute_threshold_M(f, p)

        monkeypatch.setattr(environment, "compute_threshold_M", counting)
        inst = Instance(grid_arms(100), identity(), RewardModel("bernoulli"), 30)
        assert calls == []
        assert inst.threshold_M == inst.threshold_M == compute_threshold_M(identity(), 0.3)
        assert calls == [0.3]

    def test_star_order_ties_break_by_index(self):
        arms = grid_arms(4)
        inst = Instance(arms, Constant(0.5), RewardModel("bernoulli"), 2)
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
        # The line through the means at the grid arms: np.interp returns a
        # breakpoint's value exactly.
        arms = grid_arms(n)
        mean = PiecewiseLinear((0.0, *arms.covariates[:, 0]), (means[0], *means))
        inst = Instance(arms, mean, RewardModel("bernoulli"), t_budget)
        np.testing.assert_array_equal(inst.true_means, means)
        prefix = np.argsort(-means, kind="stable")[:t_budget]
        np.testing.assert_array_equal(inst.star_order(), np.sort(prefix))
        np.testing.assert_array_equal(oracle_star(inst, 0).pulled, prefix)
        # One bin holds every arm, so the budget empties no bin: f_hat = 0.
        assert diagnostics(inst, build_partition(inst.arms, 1), 0).m_hat == means[prefix[-1]]
        assert inst.top_mean_sum() == float(means[np.sort(prefix)].sum())
