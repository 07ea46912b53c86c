import math

import numpy as np
import pytest

from fcab import policies
from fcab.environment import (
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    compute_threshold_M,
    grid_arms,
    make_instance,
)
from fcab.experiments import (
    ExperimentConfig,
    FixedP,
    KRule,
    PowerLaw,
    derive_seed,
    fit_exponent,
    lower_bound_protocol,
    run_sweep,
    run_trial,
    sweep_csv_text,
    SWEEP_CSV_HEADER,
)
from fcab.policies import corollary_parameters

BERN = RewardModel("bernoulli")


def small_config(**overrides):
    base = dict(
        mean_function=PiecewiseLinear((0.0, 1.0), (0.0, 1.0)),
        reward_model=BERN,
        policies=("ucbf", "oracle-star", "random"),
        n_grid=(64, 128),
        regime=FixedP(0.5),
        replications=3,
        master_seed=11,
        threshold_resolution=10**4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            small_config(n_grid=(20,))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="valid ids"):
            small_config(policies=("ucbf", "thompson"))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            PowerLaw(0.5)
        with pytest.raises(ValueError):
            PowerLaw(1.2)

    def test_power_law_budget_rounding(self):
        # round-half-up of 0.5 * N^alpha
        reg = PowerLaw(0.7)
        for n in (100, 1000, 8192):
            assert reg.budget_for(n) == int(math.floor(0.5 * n**0.7 + 0.5))

    def test_fixed_p_budget(self):
        assert FixedP(1.0).budget_for(50) == 50
        assert FixedP(0.3).budget_for(100) == 30


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(1, 100, "ucbf", 0) == derive_seed(1, 100, "ucbf", 0)

    def test_golden_values(self):
        # Frozen outputs: a change here silently invalidates every stored
        # sweep, so the derivation is pinned.
        assert derive_seed(0, 30, "ucbf", 0) == 7144888790447853344
        assert derive_seed(1, 100, "random", 3) == 17755507345596525761
        assert derive_seed(2**32, 8192, "oracle-star", 199) == 16745408526421785023

    def test_distinct_across_fields(self):
        base = derive_seed(1, 100, "ucbf", 0)
        assert derive_seed(2, 100, "ucbf", 0) != base
        assert derive_seed(1, 101, "ucbf", 0) != base
        assert derive_seed(1, 100, "random", 0) != base
        assert derive_seed(1, 100, "ucbf", 1) != base

    def test_trial_is_pure(self):
        cfg = small_config()
        a = run_trial(cfg, 64, "ucbf", 0, keep_trace=True)
        b = run_trial(cfg, 64, "ucbf", 0, keep_trace=True)
        assert a.regret == b.regret
        np.testing.assert_array_equal(a.trace.pulled, b.trace.pulled)
        np.testing.assert_array_equal(a.trace.rewards, b.trace.rewards)

    def test_rep_results_independent_of_replication_count(self):
        # The per-trial seed does not involve the replication total.
        c3 = small_config(replications=3)
        c5 = small_config(replications=5)
        for rep in range(3):
            assert (
                run_trial(c3, 64, "random", rep).regret
                == run_trial(c5, 64, "random", rep).regret
            )


class TestTrials:
    def test_full_budget_zero_regret_all_policies(self):
        cfg = small_config(
            regime=FixedP(1.0),
            policies=("ucbf", "oracle-star", "oracle-discrete", "random"),
            n_grid=(60,),
        )
        for policy in cfg.policies:
            for rep in range(2):
                assert run_trial(cfg, 60, policy, rep).regret == 0.0

    def test_full_budget_threshold_is_one_rule(self):
        # At p = 1 the trial, make_instance and the threshold
        # function all take the minimum of the mean on the threshold grid.
        f = Sinusoid(amplitude=0.35, frequency=1.15, offset=0.5)
        cfg = small_config(mean_function=f, regime=FixedP(1.0), n_grid=(64,))
        trial = run_trial(cfg, 64, "ucbf", 0)
        expected = compute_threshold_M(f, 1.0, 10**4)
        assert trial.decomposition.threshold_M == expected
        assert make_instance(grid_arms(64), f, BERN, 64, 10**4).threshold_M == expected
        assert trial.regret == 0.0

    def test_oracle_star_zero_for_all_reps(self):
        cfg = small_config(policies=("oracle-star",), replications=5)
        for rep in range(5):
            assert run_trial(cfg, 128, "oracle-star", rep).regret == 0.0

    def test_cab_policy_uses_cab_k(self):
        cfg = small_config(policies=("ucbf", "ucbf-cab-k"), n_grid=(512,))
        t = FixedP(0.5).budget_for(512)
        r = run_trial(cfg, 512, "ucbf-cab-k", 0)
        assert r.k == max(1, math.floor(math.sqrt(t) / math.log(t) + 1e-9))

    def test_unknown_policy_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            run_trial(cfg, 64, "oracle-discrete", 0)

    def test_grid_covariates(self):
        cfg = small_config(covariates="grid", n_grid=(64,), policies=("random",))
        a = run_trial(cfg, 64, "random", 0, keep_trace=True)
        assert a.trace is not None
        assert a.p == 0.5

    def test_two_dimensional_trial(self):
        cfg = small_config(
            mean_function=Sinusoid(amplitude=0.3, frequency=1.0, offset=0.5, dim=2),
            dim=2,
            n_grid=(400,),
            policies=("ucbf", "oracle-star"),
        )
        r = run_trial(cfg, 400, "ucbf", 0)
        assert r.regret >= 0.0
        d = r.decomposition
        assert abs(d.r_total - (d.r_disc + d.r_fmab)) <= 1e-9
        assert abs(d.r_fmab - (d.r_opt + d.r_boundary + d.r_subopt)) <= 1e-9
        assert run_trial(cfg, 400, "oracle-star", 0).regret == 0.0


class TestSweep:
    def test_row_cardinality(self):
        cfg = small_config()
        result = run_sweep(cfg)
        assert len(result.rows) == len(cfg.n_grid) * len(cfg.policies)
        assert not result.errors

    def test_single_replication_zero_std(self):
        cfg = small_config(replications=1)
        result = run_sweep(cfg)
        assert all(row.regret_std == 0.0 for row in result.rows)

    def test_serial_and_parallel_agree(self):
        cfg = small_config()
        serial = sweep_csv_text(run_sweep(cfg, threads=1))
        parallel = sweep_csv_text(run_sweep(cfg, threads=2))
        assert serial == parallel

    def test_csv_schema(self):
        cfg = small_config(replications=1)
        text = sweep_csv_text(run_sweep(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(cfg.n_grid) * len(cfg.policies)
        assert all(line.endswith(",0") for line in lines[1:])  # wall_ms pinned

    def test_cell_error_recorded(self):
        # An explicit K that shatters the grid into mostly-singleton bins
        # (only 5 of 55 bins hold two arms, 10 reachable arms against
        # T = 30) makes the budget unreachable for ucbf; the cell fails,
        # others survive.
        cfg = small_config(
            n_grid=(60,),
            covariates="grid",
            policies=("ucbf", "oracle-star"),
            k_rule=KRule(kind="explicit", k=55),
        )
        result = run_sweep(cfg)
        assert len(result.errors) == 1
        assert result.errors[0][0] == "ucbf"
        assert len(result.rows) == 1

    def test_aggregates_match_manual_recomputation(self):
        cfg = small_config(policies=("random",), n_grid=(64,), replications=5)
        row = run_sweep(cfg).rows[0]
        regs = np.array(
            [run_trial(cfg, 64, "random", rep).regret for rep in range(5)]
        )
        assert row.regret_mean == float(regs.mean())
        assert row.regret_std == float(regs.std())
        q10, q50, q90 = np.quantile(regs, [0.1, 0.5, 0.9])
        assert (row.q10, row.q50, row.q90) == (float(q10), float(q50), float(q90))

    def test_all_cores_thread_setting(self):
        cfg = small_config(n_grid=(64,), replications=2)
        a = sweep_csv_text(run_sweep(cfg, threads=0))
        b = sweep_csv_text(run_sweep(cfg, threads=1))
        assert a == b

    def test_power_law_k_matches_corollary_rule(self):
        cfg = small_config(
            regime=PowerLaw(0.85),
            n_grid=(256, 512),
            policies=("ucbf",),
            replications=2,
        )
        result = run_sweep(cfg)
        for row in result.rows:
            k = math.floor(
                0.85 ** (2 / 3)
                * (2 * row.t_budget) ** (1 / (3 * 0.85))
                * math.log(2 * row.t_budget) ** (-2 / 3)
                + 1e-9
            )
            assert row.k == max(1, k)
            assert row.k == corollary_parameters(row.t_budget, 0.85)


class TestFitExponent:
    def test_exact_cube_root(self):
        pts = [(t, t ** (1 / 3)) for t in (10, 100, 1000)]
        fit = fit_exponent(pts)
        assert fit.slope == pytest.approx(1 / 3, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_slope_zero(self):
        fit = fit_exponent([(10, 7.0), (100, 7.0), (1000, 7.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_noisy_square_root(self):
        rng = np.random.default_rng(0)
        ts = np.logspace(1, 4, 12)
        pts = [(t, math.sqrt(t) * (1.0 + 0.01 * rng.standard_normal())) for t in ts]
        fit = fit_exponent(pts)
        assert abs(fit.slope - 0.5) < 0.02

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (100, 2.0)])
        with pytest.raises(ValueError):
            fit_exponent([(10, 1.0), (100, -2.0), (1000, 3.0)])


class TestLowerBoundProtocol:
    def test_report_fields(self):
        report = lower_bound_protocol(
            n=2000, p=0.5, lipschitz_L=0.5, alpha_lb=0.3,
            policy_id="ucbf", replications=5, master_seed=3,
        )
        t = 1000
        assert report.t_budget == t
        expected_threshold = 0.01 * t ** (1 / 3) * 0.5 ** (-1 / 3)
        assert report.threshold == pytest.approx(expected_threshold, rel=1e-12)
        assert report.kl <= report.kl_bound
        assert 0.0 <= report.max_frequency <= 1.0
        assert report.max_frequency == max(report.frequency_m0, report.frequency_m1)

    def test_reference_threshold_value(self):
        report = lower_bound_protocol(
            n=10**5, p=0.5, lipschitz_L=0.5, alpha_lb=0.23,
            policy_id="oracle-star", replications=2, master_seed=1,
        )
        assert report.threshold == pytest.approx(0.46416, abs=1e-5)

    def test_oracle_never_clears_threshold(self):
        report = lower_bound_protocol(
            n=2000, p=0.5, lipschitz_L=0.5, alpha_lb=0.3,
            policy_id="oracle-star", replications=10, master_seed=5,
        )
        assert report.frequency_m0 == 0.0
        assert report.frequency_m1 == 0.0

    def test_parameter_window_violation(self):
        with pytest.raises(ValueError):
            lower_bound_protocol(
                n=100, p=0.5, lipschitz_L=0.5, alpha_lb=0.23,
                policy_id="ucbf", replications=2, master_seed=0,
            )

    def test_threads_do_not_change_frequencies(self):
        kw = dict(
            n=2000, p=0.5, lipschitz_L=0.5, alpha_lb=0.3,
            policy_id="ucbf", replications=6, master_seed=9,
        )
        a = lower_bound_protocol(threads=1, **kw)
        b = lower_bound_protocol(threads=2, **kw)
        assert (a.frequency_m0, a.frequency_m1) == (b.frequency_m0, b.frequency_m1)
        assert a.regret_mean_m0 == b.regret_mean_m0


class TestPolicyRegistry:
    RUNNERS = {
        "ucbf": "ucbf_run",
        "ucbf-cab-k": "ucbf_run",
        "oracle-star": "oracle_star",
        "oracle-discrete": "oracle_discrete",
        "random": "baseline_random",
    }

    def test_runners_are_looked_up_at_call_time(self, monkeypatch):
        # Wrappers set on the module attributes, as a tracer sets them, must
        # see the registry's calls.
        assert set(policies.POLICIES) == set(self.RUNNERS)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                trace = fn(*args, **kwargs)
                calls.append((name, trace.policy_id))
                return trace

            return wrapper

        for name in set(self.RUNNERS.values()):
            monkeypatch.setattr(policies, name, counting(name, getattr(policies, name)))
        cfg = small_config(policies=tuple(policies.POLICIES), n_grid=(512,))
        for policy_id, name in self.RUNNERS.items():
            calls.clear()
            run_trial(cfg, 512, policy_id, 0)
            assert calls[0] == (name, policy_id)  # the policy's run comes first
        for policy_id, spec in policies.POLICIES.items():
            kw = dict(n=2000, p=0.5, lipschitz_L=0.5, alpha_lb=0.3, policy_id=policy_id,
                      replications=1, master_seed=0)
            calls.clear()
            if spec.lower_bound:
                lower_bound_protocol(**kw)
                assert calls == [(self.RUNNERS[policy_id], policy_id)] * 2
            else:
                with pytest.raises(ValueError, match="not supported"):
                    lower_bound_protocol(**kw)

    @pytest.mark.parametrize("policy_id", ["ucbf", "ucbf-cab-k"])
    def test_lower_bound_report_k_is_the_runs_k(self, monkeypatch, policy_id):
        # The report's K must be the bins per axis the policy's runs got.
        seen = []
        run = policies.ucbf_run

        def counting(instance, partition, delta, seed, policy_id="ucbf"):
            seen.append(partition.k_per_axis)
            return run(instance, partition, delta, seed, policy_id)

        monkeypatch.setattr(policies, "ucbf_run", counting)
        report = lower_bound_protocol(n=3000, p=0.3, lipschitz_L=0.5, alpha_lb=0.3,
                                      policy_id=policy_id, replications=2, master_seed=1)
        assert len(seen) == 4
        assert set(seen) == {report.k}
        assert report.t_budget == 900
