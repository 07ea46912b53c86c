import collections
import dataclasses
import logging
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcab import analysis, experiments, policies
from fcab.environment import (
    ConfigError,
    Instance,
    PiecewiseLinear,
    RewardModel,
    Sinusoid,
    Tabulated,
    compute_threshold_M,
    grid_arms,
    make_lower_bound_pair,
)
from fcab.experiments import (
    _deciles,
    ExperimentConfig,
    FixedP,
    KRule,
    PowerLaw,
    TrialResult,
    choose_k,
    derive_seed,
    fit_exponent,
    lower_bound_protocol,
    run_sweep,
    run_trial,
    sweep_csv_text,
    SWEEP_CSV_HEADER,
)
from fcab.policies import default_parameters

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
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def trial(config, n, policy_id, rep, keep_trace=True):
    """One policy's TrialResult from the (N, rep) task that runs them all."""
    outcomes = run_trial(config, n, rep, keep_trace)
    return outcomes[config.policies.index(policy_id)]


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

    def test_dimension_is_the_mean_functions(self):
        cfg = small_config(mean_function=Sinusoid(0.3, 1.0, 0.5, dim=2))
        assert cfg.dim == cfg.mean_function.dim == 2
        assert "dim" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_cells_hold_t_and_ks_by_n_outside_equality(self):
        fields = dict(policies=("ucbf", "ucbf-cab-k"), n_grid=(4096,), regime=PowerLaw(0.9))
        cfg, twin = small_config(**fields), small_config(**fields)
        t = PowerLaw(0.9).budget_for(4096)
        ks = (default_parameters(4096, t / 4096).k, policies.cab_parameters(t))
        assert cfg.cells == {4096: (t, ks, default_parameters(4096, t / 4096).delta,
                                    compute_threshold_M(cfg.mean_function, t / 4096))}
        assert sorted(cfg.quadrature) == sorted(ks)
        assert "cells=" not in repr(cfg) and "quadrature=" not in repr(cfg)
        # Bin-means arrays would make == ambiguous and the config unhashable.
        assert cfg == twin and hash(cfg) == hash(twin)

    @pytest.mark.parametrize("fields", [
        dict(mean_function=Sinusoid(0.3, 1.0, 0.5, dim=2), k_rule=KRule("explicit", 10_000)),
        dict(policies=("ucbf", "thompson")),
    ], ids=["bin-cap", "unknown-policy"])
    def test_rejected_config_derives_no_threshold_or_bin_means(self, monkeypatch, fields):
        # Every error is reported before any threshold or bin-means work starts.
        calls = []

        def counted(*args):
            calls.append(args)

        monkeypatch.setattr(experiments, "compute_threshold_M", counted)
        monkeypatch.setattr(analysis, "bin_means_quadrature", counted)
        with pytest.raises(ConfigError):
            small_config(**fields)
        assert calls == []

    def test_cab_budget_error_comes_with_the_others(self):
        # N = 30 at p = 0.2 gives T = 6, short of the cab rule's 8.
        with pytest.raises(ConfigError) as exc:
            small_config(policies=("ucbf-cab-k",), n_grid=(30,), regime=FixedP(0.2),
                         covariates="sobol", bin_means_mode="exact")
        assert [path for path, _ in exc.value.errors] == ["$.N_grid", "$.covariates",
                                                          "$.bin_means"]

    def test_nan_eps_factor_is_a_range_error(self):
        pair = make_lower_bound_pair(0.5, 0.5, 0.3, 1000)
        for factors in ((float("nan"),), (1.5, float("nan")), (float("nan"), 1.5)):
            with pytest.raises(ConfigError, match=r"\$\.eps_factors: must be a non-empty"):
                experiments.validate_config(pair, factors)

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
        a = trial(cfg, 64, "ucbf", 0, keep_trace=True)
        b = trial(cfg, 64, "ucbf", 0, keep_trace=True)
        assert a.decomposition.r_total == b.decomposition.r_total
        np.testing.assert_array_equal(a.trace.pulled, b.trace.pulled)
        np.testing.assert_array_equal(a.trace.rewards, b.trace.rewards)

    def test_rep_results_independent_of_replication_count(self):
        # The per-trial seed does not involve the replication total.
        c3 = small_config(replications=3)
        c5 = small_config(replications=5)
        for rep in range(3):
            assert (
                trial(c3, 64, "random", rep).decomposition.r_total
                == trial(c5, 64, "random", rep).decomposition.r_total
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
                assert trial(cfg, 60, policy, rep).decomposition.r_total == 0.0

    def test_full_budget_threshold_is_one_rule(self):
        # At p = 1 the trial and the threshold function at the Instance's
        # p both take the minimum of the mean.
        f = Sinusoid(amplitude=0.35, frequency=1.15, offset=0.5)
        cfg = small_config(mean_function=f, regime=FixedP(1.0), n_grid=(64,))
        result = trial(cfg, 64, "ucbf", 0)
        expected = compute_threshold_M(f, 1.0)
        assert result.diagnostics.threshold_M == expected
        inst = Instance(grid_arms(64), f, BERN, 64)
        assert compute_threshold_M(inst.mean, inst.p) == expected
        assert result.decomposition.r_total == 0.0

    def test_oracle_star_zero_for_all_reps(self):
        cfg = small_config(policies=("oracle-star",), replications=5)
        for rep in range(5):
            assert trial(cfg, 128, "oracle-star", rep).decomposition.r_total == 0.0

    def test_cab_policy_uses_cab_k(self):
        cfg = small_config(policies=("ucbf", "ucbf-cab-k"), n_grid=(512,))
        t = FixedP(0.5).budget_for(512)
        r = trial(cfg, 512, "ucbf-cab-k", 0)
        assert r.diagnostics.k_per_axis == max(1, math.floor(math.sqrt(t) / math.log(t) + 1e-9))

    def test_grid_covariates(self):
        cfg = small_config(covariates="grid", n_grid=(64,), policies=("random",))
        a = trial(cfg, 64, "random", 0, keep_trace=True)
        assert a.trace is not None
        assert a.diagnostics.p == 0.5

    def test_two_dimensional_trial(self):
        cfg = small_config(
            mean_function=Sinusoid(amplitude=0.3, frequency=1.0, offset=0.5, dim=2),
            n_grid=(400,),
            policies=("ucbf", "oracle-star"),
        )
        r = trial(cfg, 400, "ucbf", 0)
        assert r.decomposition.r_total >= 0.0
        d = r.decomposition
        assert abs(d.r_total - (d.r_disc + d.r_fmab)) <= 1e-9
        assert abs(d.r_fmab - (d.r_opt + d.r_boundary + d.r_subopt)) <= 1e-9
        assert trial(cfg, 400, "oracle-star", 0).decomposition.r_total == 0.0


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

    def test_one_threshold_per_distinct_p(self, monkeypatch):
        # A tabulated mean's threshold costs a quarter of a second at 10^5
        # values, and M depends only on (mean, p): a sweep over two N with
        # four replications computes it once per distinct p.
        calls = []
        threshold = PiecewiseLinear.threshold

        def counted(self, p):
            calls.append(p)
            return threshold(self, p)

        monkeypatch.setattr(PiecewiseLinear, "threshold", counted)
        cfg = small_config(mean_function=Tabulated((0.2, 0.9, 0.4, 0.7)), policies=("random",),
                           replications=4)
        result = run_sweep(cfg)
        assert not result.errors and len(result.trials) == 8
        assert sorted(calls) == sorted({r.diagnostics.p for r in result.trials}) == [0.5]

    def test_plan_is_built_before_the_fork(self, monkeypatch):
        # M depends on (mean, p) and the quadrature bin means on (mean, K):
        # the config computes each once when it is built, in this process,
        # before any worker forks, so counters set here see every call.
        thresholds, bin_means = [], []
        threshold, quadrature = PiecewiseLinear.threshold, analysis.bin_means_quadrature

        def counted_threshold(self, p):
            thresholds.append(p)
            return threshold(self, p)

        def counted_bin_means(f, partition):
            bin_means.append(partition.k_per_axis)
            return quadrature(f, partition)

        monkeypatch.setattr(PiecewiseLinear, "threshold", counted_threshold)
        monkeypatch.setattr(analysis, "bin_means_quadrature", counted_bin_means)
        cfg = small_config(mean_function=Tabulated((0.2, 0.9, 0.4, 0.7)),
                           policies=("ucbf", "ucbf-cab-k", "oracle-discrete"),
                           n_grid=(64, 128, 256), regime=PowerLaw(0.9), replications=2)
        result = run_sweep(cfg, threads=2)
        assert not result.errors and len(result.trials) == 18
        ps = {r.diagnostics.p for r in result.trials}
        ks = {r.diagnostics.k_per_axis for r in result.trials}
        assert len(ps) == 3 and len(ks) > 1
        assert sorted(thresholds) == sorted(ps)
        assert sorted(bin_means) == sorted(ks)
        assert sweep_csv_text(result) == sweep_csv_text(run_sweep(cfg, threads=1))

    def test_one_run_trial_call_per_task(self, monkeypatch):
        # A tracer wraps ``experiments.run_trial``: the sweep reaches it
        # through the module for every (N, rep) task, in task order.
        calls = []
        run = experiments.run_trial

        def counted(config, n, rep, keep_trace=True):
            calls.append((n, rep))
            return run(config, n, rep, keep_trace)

        monkeypatch.setattr(experiments, "run_trial", counted)
        cfg = small_config()
        result = run_sweep(cfg, threads=1)
        assert not result.errors
        assert calls == [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cell_failing_in_some_reps(self, monkeypatch, threads):
        # random fails at N = 64 in reps 1 and 2 only: the cell reports rep
        # 1's error, and its reps 0 and 3 stay in ``trials``, in their place.
        cfg = small_config(policies=("oracle-star", "random"), replications=4)
        failing = {experiments._hash64(derive_seed(cfg.master_seed, 64, "random", rep), "run"): rep
                   for rep in (1, 2)}
        baseline_random = policies.baseline_random

        def flaky(instance, seed=0):
            if seed in failing:
                raise RuntimeError(f"rep {failing[seed]}")
            return baseline_random(instance, seed)

        monkeypatch.setattr(policies, "baseline_random", flaky)
        result = run_sweep(cfg, threads=threads)
        assert result.errors == [("random", 64, "RuntimeError: rep 1")]
        assert [(r.policy_id, r.n) for r in result.rows] == [
            ("oracle-star", 64), ("oracle-star", 128), ("random", 128)]
        keys = [(r.diagnostics.n, r.policy_id, r.rep) for r in result.trials]
        assert keys == [*((64, "oracle-star", rep) for rep in range(4)),
                        (64, "random", 0), (64, "random", 3),
                        *((128, p, rep) for p in cfg.policies for rep in range(4))]
        assert result.trials[5].decomposition == trial(cfg, 64, "random", 3).decomposition

    def test_aggregates_match_manual_recomputation(self):
        cfg = small_config(policies=("random",), n_grid=(64,), replications=5)
        row = run_sweep(cfg).rows[0]
        regs = np.array(
            [trial(cfg, 64, "random", rep).decomposition.r_total for rep in range(5)]
        )
        assert row.regret_mean == float(regs.mean())
        assert row.regret_std == float(regs.std())
        q10, q50, q90 = np.quantile(regs, [0.1, 0.5, 0.9])
        assert (row.q10, row.q50, row.q90) == (float(q10), float(q50), float(q90))

    @pytest.mark.parametrize("n", [*range(1, 41), 1000])
    def test_deciles_are_numpys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        samples = [
            rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6, size=n),  # scales 1e-3 .. 1e6
            rng.exponential(size=n) * 1e6,
            rng.integers(-3, 4, size=n).astype(float),  # ties
            rng.choice([0.0, -0.0], size=n),
            rng.choice([-0.0, 0.0, 1e-3, -1e-3, 1e6], size=n),
            np.full(n, -0.0),
            np.append(rng.normal(size=n - 1), np.nan),
        ]
        for x in samples:
            expected = np.quantile(x, [0.1, 0.5, 0.9])
            assert _deciles(x).tobytes() == expected.tobytes(), x
            assert _deciles(list(x)).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1e-3, 1.0, 1e6]) | st.floats(-1e6, 1e6), min_size=1,
        max_size=60,
    ))
    def test_deciles_match_numpy_on_any_finite_sample(self, values):
        x = np.array(values)
        assert _deciles(x).tobytes() == np.quantile(x, [0.1, 0.5, 0.9]).tobytes()

    def test_trials_in_task_order(self):
        cfg = small_config(replications=2)
        result = run_sweep(cfg, threads=2)
        keys = [(r.diagnostics.n, r.policy_id, r.rep) for r in result.trials]
        assert keys == [(n, p, rep) for n in cfg.n_grid for p in cfg.policies
                        for rep in range(2)]
        again = trial(cfg, 128, "random", 1, keep_trace=False)
        assert result.trials[-1].seed == again.seed
        assert result.trials[-1].decomposition == again.decomposition

    def test_all_cores_thread_setting(self):
        cfg = small_config(n_grid=(64,), replications=2)
        a = sweep_csv_text(run_sweep(cfg, threads=0))
        b = sweep_csv_text(run_sweep(cfg, threads=1))
        assert a == b

    def test_power_law_k_matches_default_rule(self):
        # Every budget regime bins with the paper-default K of (N, T/N).
        cfg = small_config(
            regime=PowerLaw(0.85),
            n_grid=(256, 512),
            policies=("ucbf",),
            replications=2,
        )
        result = run_sweep(cfg)
        for row in result.rows:
            assert row.k == default_parameters(row.n, row.t_budget / row.n, 1).k == 2


class TestPlan:
    """``config.cells[n]`` and ``config.quadrature`` hold what every (N,
    rep) task at N reads.  Under the power law at alpha = 0.9 the default
    and the cab K differ at each of these N, so every entry has two K."""

    @staticmethod
    def config(**overrides):
        return small_config(**{
            "mean_function": Sinusoid(0.35, 1.15, 0.5), "policies": ("ucbf", "ucbf-cab-k"),
            "n_grid": (4096, 8192, 16384), "regime": PowerLaw(0.9), "replications": 1,
            **overrides,
        })

    @pytest.mark.parametrize("mode", ["quadrature", "empirical"])
    def test_entry_holds_what_the_rules_give(self, mode):
        cfg = self.config(bin_means_mode=mode)
        assert list(cfg.cells) == list(cfg.n_grid)
        for n, (t, ks, delta, threshold_M) in cfg.cells.items():
            assert t == cfg.regime.budget_for(n)
            assert ks == tuple(choose_k(policy_id, cfg.k_rule, n, t, cfg.dim)
                               for policy_id in cfg.policies)
            assert len(set(ks)) == 2
            assert delta == default_parameters(n, t / n, cfg.dim).delta
            assert threshold_M == compute_threshold_M(cfg.mean_function, t / n)
            if mode == "empirical":
                assert cfg.quadrature == {}
                continue
            for k in ks:
                expected = analysis.bin_means_quadrature(
                    cfg.mean_function, policies.build_partition(grid_arms(n), k))
                np.testing.assert_array_equal(cfg.quadrature[k], expected)
                assert not cfg.quadrature[k].flags.writeable

    def test_each_k_is_chosen_once_per_sweep(self, monkeypatch):
        # The config derives each (N, policy) K once; the tasks read it.
        calls = collections.Counter()

        def counted(policy_id, k_rule, n, t, dim):
            calls[policy_id, n] += 1
            return choose_k(policy_id, k_rule, n, t, dim)

        monkeypatch.setattr(experiments, "choose_k", counted)
        cfg = small_config(n_grid=(64, 128, 256), replications=1)
        run_sweep(cfg)
        assert calls == {(p, n): 1 for p in cfg.policies for n in cfg.n_grid}

    def test_run_trial_derives_nothing(self, monkeypatch):
        # Once the config is built, a task computes none of what it holds.
        cfg = self.config(n_grid=(4096, 8192))
        before = [run_trial(cfg, n, 0) for n in cfg.n_grid]

        def derived(*args, **kwargs):
            raise AssertionError("derived in a task")

        monkeypatch.setattr(PowerLaw, "budget_for", derived)
        monkeypatch.setattr(experiments, "choose_k", derived)
        monkeypatch.setattr(policies, "default_parameters", derived)
        monkeypatch.setattr(experiments, "compute_threshold_M", derived)
        monkeypatch.setattr(analysis, "bin_means_quadrature", derived)
        for n, expected in zip(cfg.n_grid, before):
            outcomes = run_trial(cfg, n, 0)
            assert all(isinstance(outcome, TrialResult) for outcome in outcomes), outcomes
            assert [r.decomposition for r in outcomes] == [r.decomposition for r in expected]


class TestSharedSetUp:
    """One (N, rep) task builds the instance once, and the partition, bin
    means, ranking, reference oracle and diagnostics once per K, for every
    policy.  N = 4096 gives the default K = 3 and the cab K = 5."""

    COUNTED = [(experiments, "sample_arms_uniform"), (policies, "build_partition"),
               (analysis, "rank_bins"), (policies, "oracle_discrete"),
               (analysis, "diagnostics")]

    @pytest.mark.parametrize("extra, per_rep", [((), 1), (("ucbf-cab-k",), 2)])
    def test_set_up_runs_once_per_task_and_k(self, monkeypatch, extra, per_rep):
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, name in self.COUNTED:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        cfg = small_config(policies=("ucbf", "oracle-star", "oracle-discrete", "random", *extra),
                           n_grid=(4096,), replications=2)
        result = run_sweep(cfg)
        assert not result.errors
        assert {r.diagnostics.k_per_axis for r in result.trials} == ({3, 5} if extra else {3})
        assert calls == {"sample_arms_uniform": 2, "build_partition": 2 * per_rep,
                         "rank_bins": 2 * per_rep, "oracle_discrete": 2 * per_rep,
                         "diagnostics": 2 * per_rep}

    def test_results_do_not_depend_on_the_other_policies(self):
        alone = small_config(policies=("ucbf",), n_grid=(4096,))
        together = small_config(policies=tuple(policies.POLICIES), n_grid=(4096,))
        for rep in range(2):
            a, b = trial(alone, 4096, "ucbf", rep), trial(together, 4096, "ucbf", rep)
            assert (a.seed, a.decomposition, a.diagnostics) == (
                b.seed, b.decomposition, b.diagnostics)
            np.testing.assert_array_equal(a.trace.pulled, b.trace.pulled)
            np.testing.assert_array_equal(a.trace.rewards, b.trace.rewards)

    def test_policies_of_one_k_share_the_reference(self):
        cfg = small_config(policies=tuple(policies.POLICIES), n_grid=(4096,), replications=2)
        groups: dict = {}
        for r in run_sweep(cfg).trials:
            groups.setdefault((r.rep, r.diagnostics.k_per_axis), []).append(r)
            if r.policy_id == "oracle-discrete":
                assert r.decomposition.r_fmab == 0.0
        assert sorted(groups) == [(0, 3), (0, 5), (1, 3), (1, 5)]
        for group in groups.values():
            assert len({r.decomposition.r_disc for r in group}) == 1
            assert len({r.diagnostics for r in group}) == 1

    ORACLES = ("oracle-star", "oracle-discrete", "random")

    @staticmethod
    def peak_bytes_per_arm(policy_ids):
        """What one trial of these policies holds at once at N = 2^16, per
        arm, traced by tracemalloc once the config is built and a first
        trial has run."""
        n = 2**16
        cfg = small_config(policies=policy_ids, n_grid=(n,), replications=2,
                           mean_function=Sinusoid(0.35, 1.15, 0.5))
        run_trial(cfg, n, 0, keep_trace=False)
        tracemalloc.start()
        try:
            run_trial(cfg, n, 1, keep_trace=False)
            return tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()

    def test_oracle_trial_peak_memory_per_arm(self):
        # Tooling guard: about 25 bytes per arm (30 while the random
        # baseline and the discretised oracle also handed over their pull
        # sets as int64 indices, 40 while the instance kept
        # its covariates and the star set as int64 indices, 42 while the
        # baseline built a second mask of the reference's pull set, 43
        # while it kept four class masks, 58 while every partition sorted
        # its arms by bin and kept int64 bin ids).
        assert self.peak_bytes_per_arm(self.ORACLES) < 36

    def test_ucbf_trial_peak_memory_per_arm(self):
        # About 47 bytes per arm; 55 while the run handed over its pull
        # set as int64 indices, 64 while the instance kept its
        # covariates and the star set as int64 indices, 66 while the
        # baseline built a second mask of the reference's pull set, 67
        # while it kept four class masks, 71 while the run kept its 8-byte
        # sort by bin to its end, 75 while the partition kept it for the
        # trial's lifetime.
        assert self.peak_bytes_per_arm(("ucbf",)) < 62

    def test_set_up_error_fails_every_cell(self, monkeypatch):
        # The partition is built before any policy runs.
        def failing(arms, k):
            raise ValueError(f"bin count {k} exceeds the supported maximum")

        monkeypatch.setattr(policies, "build_partition", failing)
        cfg = small_config(n_grid=(64,))
        result = run_sweep(cfg)
        assert result.rows == [] and result.trials == []
        assert [(p, n) for p, n, _ in result.errors] == [(p, 64) for p in cfg.policies]
        assert all("bin count" in message for _, _, message in result.errors)

    def test_set_up_error_is_every_outcome(self, monkeypatch):
        # run_trial returns a set-up error as every policy's outcome; it never raises it.
        cfg = small_config(n_grid=(64,))

        def failing(arms, k):
            raise ValueError(f"bin count {k} exceeds the supported maximum")

        monkeypatch.setattr(policies, "build_partition", failing)
        k = cfg.cells[64][1][0]
        assert run_trial(cfg, 64, 0) == (
            [f"ValueError: bin count {k} exceeds the supported maximum"] * len(cfg.policies))


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

    def test_rejects_a_single_t(self):
        with pytest.raises(ValueError, match="two distinct T"):
            fit_exponent([(100, 1.0), (100, 2.0), (100, 3.0)])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("column", ["t", "regret"])
    def test_rejects_non_finite_points(self, capfd, bad, column):
        pts = [(10, 1.0), (100, 2.0), (1000, 3.0)]
        pts[1] = (bad, 2.0) if column == "t" else (100, bad)
        with pytest.raises(ValueError, match="finite"):
            fit_exponent(pts)
        assert capfd.readouterr().err == ""  # no LAPACK complaint reaches stderr


class TestStarOrderIsCalled:
    """The benchmark traces ``Instance.star_order`` as a layer of every
    workload, so every instance's selection goes through it, even where
    no policy reads the star set."""

    @staticmethod
    def record(monkeypatch):
        built, selected = [], []
        star_order = Instance.star_order

        class Recorded(Instance):
            def __post_init__(self, arms):
                super().__post_init__(arms)
                built.append(self)

        def counted(self):
            selected.append(self)
            return star_order(self)

        monkeypatch.setattr(Instance, "star_order", counted)
        monkeypatch.setattr(experiments, "Instance", Recorded)
        return built, selected

    def test_in_a_ucbf_only_sweep_trial(self, monkeypatch):
        built, selected = self.record(monkeypatch)
        cfg = small_config(policies=("ucbf",), n_grid=(512,))
        assert isinstance(run_trial(cfg, 512, 0)[0], TrialResult)
        assert len(built) == 1
        assert {id(i) for i in selected} == {id(i) for i in built}

    def test_in_the_lower_bound_protocol_at_one_worker(self, monkeypatch):
        built, selected = self.record(monkeypatch)
        lower_bound_protocol(make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
                             policy_id="ucbf", replications=2, master_seed=4, threads=1)
        assert len(built) == 2
        assert {id(i) for i in selected} == {id(i) for i in built}


class TestLowerBoundProtocol:
    def test_report_fields(self):
        report = lower_bound_protocol(
            make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
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
            make_lower_bound_pair(0.5, 0.5, 0.23, 10**5),
            policy_id="oracle-star", replications=2, master_seed=1,
        )
        assert report.threshold == pytest.approx(0.46416, abs=1e-5)

    def test_oracle_never_clears_threshold(self):
        report = lower_bound_protocol(
            make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
            policy_id="oracle-star", replications=10, master_seed=5,
        )
        assert report.frequency_m0 == 0.0
        assert report.frequency_m1 == 0.0

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError, match="need at least one replication"):
            lower_bound_protocol(make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
                                 policy_id="ucbf", replications=0, master_seed=0)

    def test_threads_do_not_change_frequencies(self):
        kw = dict(
            pair=make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
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
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in set(self.RUNNERS.values()):
            monkeypatch.setattr(policies, name, counting(name, getattr(policies, name)))
        # N = 512 gives the default and the cab K the same value, 2, so
        # oracle_discrete runs once, as the shared reference.
        cfg = small_config(policies=tuple(policies.POLICIES), n_grid=(512,))
        run_trial(cfg, 512, 0)
        assert calls == collections.Counter(self.RUNNERS.values())
        for policy_id, spec in policies.POLICIES.items():
            kw = dict(pair=make_lower_bound_pair(0.5, 0.5, 0.3, 2000), policy_id=policy_id,
                      replications=1, master_seed=0)
            calls.clear()
            if spec.run is not None:
                lower_bound_protocol(**kw)
                assert calls == {self.RUNNERS[policy_id]: 2}
            else:
                with pytest.raises(ValueError, match="not supported"):
                    lower_bound_protocol(**kw)

    @pytest.mark.parametrize("policy_id", ["ucbf", "ucbf-cab-k"])
    def test_lower_bound_report_k_is_the_runs_k(self, monkeypatch, policy_id):
        # The report's K must be the bins per axis the policy's runs got.
        seen = []
        run = policies.ucbf_run

        def counting(instance, partition, delta, seed):
            seen.append(partition.k_per_axis)
            return run(instance, partition, delta, seed)

        monkeypatch.setattr(policies, "ucbf_run", counting)
        report = lower_bound_protocol(make_lower_bound_pair(0.3, 0.5, 0.3, 3000),
                                      policy_id=policy_id, replications=2, master_seed=1)
        assert len(seen) == 4
        assert set(seen) == {report.k}
        assert report.t_budget == 900


def _task_and_pid(task):
    return task, os.getpid()


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerPool:
    @pytest.mark.parametrize(
        "threads, n_tasks, sizes",
        [(4, 2, [2]), (2, 5, [2]), (0, 3, [3]), (0, 20, [8]), (4, 1, []), (1, 6, [])],
    )
    def test_no_more_workers_than_tasks(self, monkeypatch, threads, n_tasks, sizes):
        # sizes: the number of forked workers, if any; else the tasks run here.
        # threads=0 counts the CPUs this process may run on.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        out = experiments._map(_task_and_pid, list(range(n_tasks)), threads)
        assert [task for task, _ in out] == list(range(n_tasks))
        pids = {pid for _, pid in out}
        if sizes:
            assert [len(pids)] == sizes and os.getpid() not in pids
        else:
            assert pids == {os.getpid()}
        _assert_no_children_left()

    @pytest.mark.parametrize("n_tasks, size", [(3, 3), (20, 8)])
    def test_without_affinity_threads_0_counts_every_cpu(self, monkeypatch, n_tasks, size):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        out = experiments._map(_task_and_pid, list(range(n_tasks)), 0)
        assert [task for task, _ in out] == list(range(n_tasks))
        assert len({pid for _, pid in out}) == size
        _assert_no_children_left()

    def test_workers_start_where_the_kernel_puts_them(self, monkeypatch):
        # Each task returns the affinity calls its worker made before it.
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 1}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: calls.append((pid, set(mask))), raising=False)
        out = experiments._map(lambda task: (task, list(calls)), list(range(8)), 4)
        assert out == [(task, []) for task in range(8)]
        assert calls == []
        _assert_no_children_left()

    def test_tasks_are_dealt_longest_first_to_the_least_loaded(self):
        # Greedy by hand: 1, 3 and 6 open the three workers; 4 joins 6 (7),
        # 5 joins 1 (9, the lower worker of a tie), 0 joins 3, 7 joins 6 and
        # 2 joins 3: every worker ends at 13.  Each runs its share in that
        # order, and the results still come back in task order.
        costs = [3, 9, 1, 9, 4, 4, 7, 2]
        out = experiments._map(lambda task: (task, os.getpid(), time.perf_counter_ns()),
                               list(range(8)), 3, costs=costs)
        assert [task for task, _, _ in out] == list(range(8))
        by_pid = collections.defaultdict(list)
        for task, pid, _ in sorted(out, key=lambda t: t[2]):
            by_pid[pid].append(task)
        assert sorted(by_pid.values()) == [[1, 5], [3, 0, 2], [6, 4, 7]]
        _assert_no_children_left()

    def test_sweep_deals_its_tasks_by_n(self, tmp_path, monkeypatch):
        # N = 64, 128 at 3 replications on 2 workers: the 128s go 0, 1, 0
        # and the 64s 1, 1, 0, where round robin would split tasks by parity.
        log = tmp_path / "tasks"
        run = experiments.run_trial

        def logging_run(config, n, rep, keep_trace=True):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {n} {rep}\n")
            return run(config, n, rep, keep_trace)

        monkeypatch.setattr(experiments, "run_trial", logging_run)
        run_sweep(small_config(), threads=2)
        by_pid = collections.defaultdict(list)
        for line in log.read_text().splitlines():
            pid, n, rep = line.split()
            by_pid[pid].append((int(n), int(rep)))
        assert sorted(by_pid.values()) == [[(128, 0), (128, 2), (64, 2)],
                                           [(128, 1), (64, 0), (64, 1)]]

    def test_each_worker_logs_what_it_spent(self, caplog):
        # Costs 1..5 on two workers: worker 0 gets tasks 4, 1, 0 (cost 8)
        # and worker 1 gets tasks 3, 2 (cost 7).
        with caplog.at_level(logging.INFO, logger="fcab"):
            out = experiments._map(_task_and_pid, list(range(5)), 2, costs=[1, 2, 3, 4, 5])
        lines = [r.getMessage() for r in caplog.records if r.name == "fcab"]
        assert len(lines) == 2
        for w, (line, (task, pid), tasks, cost) in enumerate(
                zip(lines, (out[4], out[3]), (3, 2), (8, 7))):
            fields = dict(item.split("=") for item in line.split()[2:])
            assert line.startswith(f"worker {w} ")
            assert fields.keys() == {"pid", "tasks", "cost", "busy_s", "minflt"}
            assert fields["pid"] == str(pid)
            assert (fields["tasks"], fields["cost"]) == (str(tasks), str(cost))
            assert float(fields["busy_s"]) >= 0 and int(fields["minflt"]) > 0

    @pytest.mark.parametrize("n_tasks", [6, 20, 31, 32, 200])
    def test_worker_w_runs_every_wth_task(self, n_tasks):
        by_pid = collections.defaultdict(list)
        for task, pid in experiments._map(_task_and_pid, list(range(n_tasks)), 3):
            by_pid[pid].append(task)
        assert sorted(by_pid.values()) == [list(range(w, n_tasks, 3)) for w in range(3)]

    def test_without_fork_tasks_run_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        out = experiments._map(_task_and_pid, list(range(4)), 2)
        assert out == [(task, os.getpid()) for task in range(4)]

    def test_lower_bound_run_with_two_tasks(self, tmp_path, monkeypatch):
        # One replication per member is two tasks: two workers, not four.
        log = tmp_path / "pids"
        run = policies.ucbf_run

        def logging_run(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return run(*args)

        monkeypatch.setattr(policies, "ucbf_run", logging_run)
        lower_bound_protocol(make_lower_bound_pair(0.5, 0.5, 0.3, 2000),
                             policy_id="ucbf", replications=1, master_seed=0, threads=4)
        pids = log.read_text().split()
        assert len(pids) == len(set(pids)) == 2
        assert str(os.getpid()) not in pids

    def test_lower_bound_builds_each_instance_once(self, tmp_path, monkeypatch):
        # Both members' instances are built here before the workers fork,
        # not once in every worker.
        log = tmp_path / "instances"
        make = experiments.Instance

        def logging_make(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return make(*args)

        monkeypatch.setattr(experiments, "Instance", logging_make)
        lower_bound_protocol(make_lower_bound_pair(0.5, 0.5, 0.3, 2500),
                             policy_id="ucbf", replications=3, master_seed=0, threads=2)
        assert log.read_text().split() == [str(os.getpid())] * 2

    def test_worker_exception_is_raised_here(self):
        def fail_on_three(task):
            if task == 3:
                raise ValueError(f"task {task} failed")
            return task

        with pytest.raises(ValueError, match="^task 3 failed$"):
            experiments._map(fail_on_three, list(range(6)), 2)
        _assert_no_children_left()

    def test_config_error_survives_a_pickle_round_trip(self):
        error = ConfigError([("$.a", "bad"), ("$.b[0]", "worse")])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ConfigError
        assert copy.errors == error.errors
        assert str(copy) == str(error) == "$.a: bad; $.b[0]: worse"

    def test_worker_config_error_is_raised_here_as_one(self):
        def fail_on_one(task):
            if task == 1:
                raise ConfigError([("$.N", f"task {task}")])
            return task

        with pytest.raises(ConfigError, match=r"^\$\.N: task 1$") as caught:
            experiments._map(fail_on_one, list(range(4)), 2)
        assert caught.value.errors == [("$.N", "task 1")]
        _assert_no_children_left()

    def test_unpicklable_exception_keeps_its_name_and_message(self):
        class Unpicklable(Exception):
            pass

        def fail(task):
            raise Unpicklable(f"task {task}")

        with pytest.raises(RuntimeError, match="^Unpicklable: task 0$"):
            experiments._map(fail, [0, 1], 2)
        _assert_no_children_left()

    @pytest.mark.parametrize(
        "leave, status",
        [(lambda: os._exit(3), 3),
         (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
         # A child that would unwind into the caller's code exits instead.
         (lambda: sys.exit(0), 1)],
    )
    def test_worker_that_sends_nothing(self, leave, status):
        def task(t):
            if t == 1:
                leave()
            return t

        with pytest.raises(RuntimeError, match=f"status {status} and sent no result"):
            experiments._map(task, list(range(4)), 2)
        _assert_no_children_left()

    def test_failure_here_kills_and_reaps_the_workers(self, monkeypatch):
        # The third fork fails while two workers sleep: both are killed,
        # not waited for.
        forks = []
        fork = os.fork

        def failing_fork():
            if len(forks) == 2:
                raise OSError("no more processes")
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        start = time.monotonic()
        with pytest.raises(OSError, match="no more processes"):
            experiments._map(lambda t: time.sleep(60), list(range(3)), 3)
        assert time.monotonic() - start < 30
        _assert_no_children_left()

    def test_failed_cell_stays_its_own_on_two_workers(self):
        cfg = small_config(n_grid=(60, 64), covariates="grid", policies=("ucbf", "oracle-star"),
                           k_rule=KRule(kind="explicit", k=55))
        result = run_sweep(cfg, threads=2)
        assert [(p, n) for p, n, _ in result.errors] == [("ucbf", 60), ("ucbf", 64)]
        assert [(r.policy_id, r.n) for r in result.rows] == [("oracle-star", 60),
                                                               ("oracle-star", 64)]

    def test_workers_keep_freed_memory_whoever_forked_them(self, monkeypatch):
        # A library caller of run_sweep or lower_bound_protocol never calls
        # _keep_freed_memory; each forked worker does, before its tasks.
        kept = []
        monkeypatch.setattr(experiments, "_keep_freed_memory", lambda: kept.append(True))
        assert experiments._map(lambda task: kept == [True], [0, 1], 2) == [True, True]
        assert kept == []

    def test_workers_keep_freed_memory(self):
        # Set before the fork, glibc's thresholds hold in every worker.
        kept, faults_forked = _faults("forked")
        if kept != "True":
            pytest.skip("no glibc mallopt here")
        _, faults_default = _faults("default")
        assert faults_default >= 10 * max(faults_forked, 1)


_FREE_AND_ALLOCATE = """
import resource, sys
import numpy as np
from fcab import experiments

kept = experiments._keep_freed_memory() if sys.argv[1] != "default" else None

def trial():
    arrays = [np.ones(2**18) for _ in range(4)]
    del arrays

def faults(task):
    trial()  # the first trial faults its pages in either way
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(30):
        trial()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

workers = 2 if sys.argv[1] == "forked" else 1
print(kept, max(experiments._map(faults, [0, 1], workers)))
"""


def _faults(mode: str):
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FREE_AND_ALLOCATE, mode], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    kept, faults = out.split()
    return kept, int(faults)


def test_freed_arrays_stay_in_the_heap():
    # 30 trials of four 2 MiB arrays: by default glibc returns every array
    # to the kernel on free and faults its 512 pages in again next time.
    kept, faults_kept = _faults("keep")
    if kept != "True":
        pytest.skip("no glibc mallopt here")
    _, faults_default = _faults("default")
    assert faults_default >= 10 * max(faults_kept, 1)
