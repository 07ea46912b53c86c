import contextlib
import copy
import inspect
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcab import environment, experiments, policies
from fcab.cli import ConfigError, parse_config, parse_lowerbound_config, run


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def minimal_experiment(**overrides):
    cfg = {
        "schema": 1,
        "mean_function": {
            "kind": "sinusoid", "amplitude": 0.35, "frequency": 1.15, "offset": 0.5,
        },
        "policies": ["ucbf", "oracle-star"],
        "N_grid": [64, 128],
        "regime": {"kind": "fixed_p", "p": 0.5},
        "replications": 2,
        "master_seed": 7,
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_valid_fills_defaults(self, tmp_path):
        path = write_json(tmp_path / "c.json", minimal_experiment())
        cfg = parse_config(path)
        assert cfg.reward_model.kind == "bernoulli"
        assert cfg.k_rule.kind == "paper_default"
        assert cfg.covariates == "uniform"
        assert cfg.dim == 1
        assert cfg.bin_means_mode == "quadrature"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    def test_alpha_window_cited(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            minimal_experiment(regime={"kind": "power_law", "alpha": 0.5}),
        )
        with pytest.raises(ConfigError, match=r"\(2/3, 1\]"):
            parse_config(path)

    def test_unknown_policy_lists_valid_ids(self, tmp_path):
        path = write_json(
            tmp_path / "c.json", minimal_experiment(policies=["ucbf", "thompson"])
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "ucbf-cab-k" in str(err.value)
        assert "$.policies" in str(err.value)

    def test_schema_version_checked(self, tmp_path):
        path = write_json(tmp_path / "c.json", minimal_experiment(schema=99))
        with pytest.raises(ConfigError, match="schema"):
            parse_config(path)

    def test_multiple_errors_reported_with_paths(self, tmp_path):
        cfg = minimal_experiment(N_grid=[10], replications=0)
        path = write_json(tmp_path / "c.json", cfg)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        message = str(err.value)
        assert "$.N_grid" in message
        assert "$.replications" in message

    def test_lowerbound_config(self, tmp_path):
        path = write_json(
            tmp_path / "lb.json",
            {"schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3},
        )
        cfg = parse_lowerbound_config(path)
        assert cfg["policy"] == "ucbf"
        assert cfg["replications"] == 100


class TestDispatch:
    def test_sweep_writes_csv_and_is_reproducible(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", minimal_experiment())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert run(["sweep", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        a = (out1 / "sweep.csv").read_bytes()
        b = (out2 / "sweep.csv").read_bytes()
        assert a == b

    def test_huge_gaussian_sigma_clips_quietly(self, tmp_path, capsys):
        # A draw of means + sigma * normal overflows to +-inf here and
        # clips to 1 or 0, as a large finite draw does, without a warning.
        cfg = write_json(tmp_path / "c.json", minimal_experiment(
            policies=["ucbf"], reward_model={"kind": "clipped_gaussian", "sigma": 1e308}))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path), "--threads", "1"]) == 0
        assert (tmp_path / "sweep.csv").exists()
        assert capsys.readouterr().err == ""

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", minimal_experiment(policies=["random"]))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        out1.mkdir()
        out2.mkdir()
        assert run(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["sweep", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "simulate", "lowerbound"])
    def test_seed_override_is_the_config_seed(self, tmp_path, command):
        cfg = minimal_experiment(policies=["ucbf", "random"]) if command != "lowerbound" else {
            "schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3, "replications": 4}
        flag = write_json(tmp_path / "flag.json", cfg)
        seeded = write_json(tmp_path / "seeded.json", dict(cfg, master_seed=99))
        outputs = []
        for path, extra in ((flag, ["--seed", "99"]), (seeded, [])):
            out = tmp_path / f"out{len(outputs)}"
            out.mkdir()
            assert run([command, "--config", path, "--out", str(out), *extra]) == 0
            (name,) = os.listdir(out)
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_simulate_full_budget_zero_regret(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            minimal_experiment(
                regime={"kind": "fixed_p", "p": 1.0},
                policies=["ucbf", "oracle-star", "random"],
                N_grid=[40],
            ),
        )
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "trials.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 6
        assert all(row["regret"] == 0.0 for row in rows)
        assert all(row["T"] == 40 for row in rows)

    def test_config_error_exit_code(self, tmp_path):
        path = write_json(tmp_path / "bad.json", minimal_experiment(N_grid=[5]))
        assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "overrides, json_path",
        [
            ({"dim": 2}, "$.dim"),  # the sinusoid is one-dimensional
            ({"dim": "2"}, "$.dim"),
            ({"threshold_resolution": 1e6}, "$.threshold_resolution"),
            ({"replications": True}, "$.replications"),
            ({"master_seed": True}, "$.master_seed"),
            ({"regime": {"kind": "fixed_p", "p": "0.5"}}, "$.regime.p"),
            ({"K_rule": {"kind": "explicit", "k": "3"}}, "$.K_rule.k"),
            # The cab K rule needs T >= 8; N = 30 at p = 0.2 gives T = 6.
            ({"policies": ["ucbf-cab-k"], "N_grid": [30], "regime": {"kind": "fixed_p", "p": 0.2}},
             "$.N_grid"),
            ({"K_rule": {"kind": "cab"}, "N_grid": [30, 640],
              "regime": {"kind": "fixed_p", "p": 0.2}}, "$.N_grid"),
            # Mean-function parameters have the JSON types of their constructor.
            ({"mean_function": {"kind": "sinusoid", "amplitude": 0.35, "frequency": True}},
             "$.mean_function.frequency"),
            ({"mean_function": {"kind": "sinusoid", "amplitude": "0.35"}},
             "$.mean_function.amplitude"),
            ({"mean_function": {"kind": "constant", "value": 0.5, "dim": 1.0}},
             "$.mean_function.dim"),
            ({"mean_function": {"kind": "piecewise_linear", "breakpoints": [0, "1"],
                                "values": [0.2, 0.8]}}, "$.mean_function.breakpoints"),
            ({"mean_function": {"kind": "piecewise_linear", "breakpoints": [0, 1],
                                "values": [0.2, None]}}, "$.mean_function.values"),
            ({"mean_function": {"kind": "tabulated", "grid_values": 0.5}},
             "$.mean_function.grid_values"),
            ({"mean_function": {"kind": "sinusoid", "phase": 0.1}}, "$.mean_function.phase"),
            # The margin constant belongs to the lower-bound pair, not to a mean.
            ({"mean_function": {"kind": "sinusoid", "margin_Q": 12.0}},
             "$.mean_function.margin_Q"),
            # A repeated N or policy would count the same trials twice in a cell.
            ({"N_grid": [64, 128, 64]}, "$.N_grid"),
            ({"policies": ["random", "ucbf", "random"]}, "$.policies"),
            # JSON parsing reads NaN and Infinity; a number must be finite.
            ({"mean_function": {"kind": "sinusoid", "amplitude": float("nan")}},
             "$.mean_function.amplitude"),
            ({"mean_function": {"kind": "piecewise_linear", "breakpoints": [0, 1],
                                "values": [0.2, 0.8], "lipschitz_L": float("nan")}},
             "$.mean_function.lipschitz_L"),
            # 10^4 bins per axis in two dimensions exceed the partition's limit.
            ({"mean_function": {"kind": "sinusoid", "dim": 2}, "dim": 2,
              "K_rule": {"kind": "explicit", "k": 10**4}}, "$.K_rule.k"),
            # The default K is 2 at dim 30: 2^30 bins exceed the partition's limit.
            ({"mean_function": {"kind": "constant", "value": 0.5, "dim": 30}, "dim": 30},
             "$.dim"),
            ({"threshold_resolution": 10**7 + 1}, "$.threshold_resolution"),
            # Thresholds are exact; no kind takes a declared one.
            *[({"mean_function": {**spec, "analytic_M": 0.5}}, "$.mean_function.analytic_M")
              for spec in ({"kind": "constant"}, {"kind": "sinusoid"},
                           {"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0, 1]},
                           {"kind": "tabulated", "grid_values": [0, 1]},
                           {"kind": "lower_bound_member"})],
            # 2^26 bins at dim 26.
            ({"mean_function": {"kind": "constant", "value": 0.5, "dim": 26}, "dim": 26},
             "$.dim"),
            # Past the cap on N * dim: one array of 10^12 floats is 7.28 TiB.
            ({"N_grid": [64, 10**12]}, "$.N_grid"),
            ({"N_grid": [10**400]}, "$.N_grid"),  # past the float range too
            # Only an explicit K rule reads k, and only clipped gaussian rewards sigma.
            ({"K_rule": {"kind": "cab", "k": 5}}, "$.K_rule.k"),
            ({"reward_model": {"kind": "bernoulli", "sigma": 0.3}}, "$.reward_model.sigma"),
            # A declared Lipschitz constant, finite as in the NaN case above, is nonnegative.
            ({"mean_function": {"kind": "piecewise_linear", "breakpoints": [0, 1],
                                "values": [0.2, 0.8], "lipschitz_L": -1}},
             "$.mean_function.lipschitz_L"),
        ],
    )
    def test_bad_dim_and_resolution_are_config_errors(
        self, tmp_path, capsys, overrides, json_path
    ):
        path = write_json(tmp_path / "bad.json", minimal_experiment(**overrides))
        assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 1
        assert f"config error at {json_path}:" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "mean_function, param, message",
        [
            ({"kind": "constant", "value": 1.5}, "value", "constant mean must lie in [0, 1]"),
            ({"kind": "constant", "dim": 0}, "dim", "dimension must be positive"),
            ({"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0.2, 0.5, 0.8]},
             "breakpoints", "breakpoints and values must be 1-d of equal length >= 2"),
            ({"kind": "piecewise_linear", "breakpoints": [0, 0.5], "values": [0.2, 0.8]},
             "breakpoints", "breakpoints must span [0, 1]"),
            ({"kind": "piecewise_linear", "breakpoints": [0, 0.6, 0.4, 1],
              "values": [0.2, 0.4, 0.6, 0.8]},
             "breakpoints", "breakpoints must be strictly increasing"),
            ({"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0.2, 1.5]},
             "values", "values must lie in [0, 1]"),
            ({"kind": "sinusoid", "frequency": 0}, "frequency", "frequency must be positive"),
            ({"kind": "sinusoid", "dim": 0}, "dim", "dimension must be positive"),
            ({"kind": "sinusoid", "amplitude": 0.6}, "amplitude",
             "sinusoid range must stay inside [0, 1]"),
            ({"kind": "tabulated", "grid_values": [0.2, 1.5]}, "grid_values",
             "values must lie in [0, 1]"),
            ({"kind": "tabulated", "grid_values": [0.5]}, "grid_values",
             "breakpoints and values must be 1-d of equal length >= 2"),
            ({"kind": "lower_bound_member", "role": 2}, "role", "role must be 0 or 1"),
            ({"kind": "lower_bound_member", "p": 1.5}, "p", "p must lie in (0, 1)"),
            ({"kind": "lower_bound_member", "half_width": 0.3}, "half_width",
             "bump width too large for this budget fraction"),
            ({"kind": "lower_bound_member", "l_tilde": 0.7}, "l_tilde",
             "slope must lie in (0, 0.5]"),
            ({"kind": "piecewise_linear", "breakpoints": [0, 1e-320, 1], "values": [0, 1, 0.5]},
             "breakpoints", "breakpoints too close: a slope overflows"),
        ],
    )
    def test_mean_function_range_error_names_its_parameter(
        self, tmp_path, capsys, mean_function, param, message
    ):
        path = write_json(tmp_path / "bad.json", minimal_experiment(mean_function=mean_function))
        assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error at $.mean_function.{param}: {message}"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_member_swept_off_its_own_p_reports_its_threshold(self, tmp_path):
        # Right of its bumps a lower-bound member built for p = 0.5 climbs
        # as 0.5 + l_tilde (x - x1), x1 = 0.52; at p = 0.3 its threshold is
        # that ramp's value at x = 0.7: 0.5 + 0.5 * 0.18 = 0.59.
        cfg = minimal_experiment(mean_function={"kind": "lower_bound_member", "p": 0.5},
                                 N_grid=[1000], regime={"kind": "fixed_p", "p": 0.3})
        path = write_json(tmp_path / "c.json", cfg)
        assert run(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
        assert rows and all(row["threshold_M"] == pytest.approx(0.59, abs=1e-12) for row in rows)

    @pytest.mark.parametrize(
        "command, cfg, json_path",
        [
            ("sweep", minimal_experiment(replication=50), "$.replication"),
            ("sweep", minimal_experiment(k_rule={"kind": "explicit", "k": 3}), "$.k_rule"),
            ("sweep", minimal_experiment(regime={"kind": "fixed_p", "p": 0.5, "alpha": 0.9}),
             "$.regime.alpha"),
            ("sweep", minimal_experiment(K_rule={"kind": "cab", "K": 3}), "$.K_rule.K"),
            ("sweep", minimal_experiment(reward_model={"kind": "bernoulli", "sd": 0.1}),
             "$.reward_model.sd"),
            ("lowerbound", {"schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3,
                            "replication": 600}, "$.replication"),
            ("validate", {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5,
                                                "alpha_lb": 0.3, "policy": "ucbf"}},
             "$.pair.policy"),
            ("validate", {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5,
                                                "alpha_lb": 0.3}, "grid": 2000}, "$.grid"),
            # Inside every kind of mean function, regime and reward model.
            *[("sweep", minimal_experiment(mean_function={**spec, "slope": 1.0}),
               "$.mean_function.slope")
              for spec in ({"kind": "constant"}, {"kind": "sinusoid"},
                           {"kind": "piecewise_linear", "breakpoints": [0, 1], "values": [0, 1]},
                           {"kind": "tabulated", "grid_values": [0, 1]},
                           {"kind": "lower_bound_member"})],
            ("sweep", minimal_experiment(regime={"kind": "power_law", "alpha": 0.9, "p": 0.5}),
             "$.regime.p"),
            ("sweep", minimal_experiment(reward_model={"kind": "clipped_gaussian", "sigma": 0.1,
                                                       "mu": 0.5}), "$.reward_model.mu"),
            # The pair's margin constant follows from L; it is not a parameter.
            ("validate", {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3,
                                                "margin_Q": 12.0}}, "$.pair.margin_Q"),
            # The validators are exact; they take no grid.
            *[("validate", {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5,
                                                  "alpha_lb": 0.3}, key: 2000}, f"$.{key}")
              for key in ("lipschitz_grid", "margin_grid")],
        ],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, cfg, json_path):
        path = write_json(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 1
        assert f"config error at {json_path}: unknown key" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_missing_config_exit_code(self, tmp_path):
        assert run(["sweep", "--config", "/no/such.json", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("lowerbound", None, "cannot read config file"),
            ("sweep", b'{"schema": 1, "N_grid": [\xff]}', "invalid JSON: 'utf-8' codec"),
            ("lowerbound", b'{"schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3, '
                           b'"replications": 2, "replications": 3}',
             "invalid JSON: repeated key 'replications'"),
            ("validate", b'{"schema": 1, "pair": {"N": 1000, "p": 0.5, "p": 0.4, "L": 0.5, '
                         b'"alpha_lb": 0.3}}', "invalid JSON: repeated key 'p'"),
        ],
        ids=["directory", "undecodable", "repeated-key", "repeated-nested-key"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, command, content,
                                               message):
        path = tmp_path / "c.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error at $: {message}")

    def test_runtime_error_exit_code(self, tmp_path):
        # The ucbf cell fails (K too fine for its budget); the random cell runs.
        cfg = write_json(
            tmp_path / "c.json",
            minimal_experiment(
                covariates="grid",
                policies=["random", "ucbf"],
                N_grid=[60],
                K_rule={"kind": "explicit", "k": 55},
            ),
        )
        for command, output in (("sweep", "sweep.csv"), ("simulate", "trials.jsonl")):
            argv = [command, "--config", cfg, "--out", str(tmp_path), "--threads", "2"]
            assert run(argv) == 2
            assert not (tmp_path / output).exists()  # never without its failed cells

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_lowerbound_trial_error_exit_code(self, tmp_path, capsys, monkeypatch, threads):
        def fail(*args):
            raise ValueError("no pulls left")

        monkeypatch.setattr(policies, "ucbf_run", fail)
        cfg = write_json(tmp_path / "lb.json", dict(LOWERBOUND_CONFIG, policy="ucbf"))
        argv = ["lowerbound", "--config", cfg, "--out", str(tmp_path), "--threads", threads]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: ValueError: no pulls left\n"
        assert not (tmp_path / "lb_report.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "lowerbound"])
    def test_negative_seed_override_rejected(self, tmp_path, capsys, command):
        cfg = minimal_experiment() if command == "sweep" else {
            "schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3}
        path = write_json(tmp_path / "c.json", cfg)
        assert run([command, "--config", path, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error at $.master_seed")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--config", "c.json", "--threads", "abc"],
            ["sweep", "--config", "c.json", "--threads", "-1"],
            ["sweep", "--out", "."],
            ["validate", "--config", "c.json", "--seed", "5"],
            ["validate", "--config", "c.json", "--threads", "2"],
            ["sweep", "--config", "c.json", "--bogus"],
            [],
        ],
        ids=["bad-threads", "negative-threads", "no-config", "validate-seed",
             "validate-threads", "unknown-flag", "no-command"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        assert run(argv) == 1
        assert "usage: fcab" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert run(argv) == 0
        assert "usage: fcab" in capsys.readouterr().out

    def test_missing_out_dir(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", minimal_experiment())
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "nope")]) == 1

    def test_lowerbound_report(self, tmp_path):
        cfg = write_json(
            tmp_path / "lb.json",
            {
                "schema": 1, "N": 2000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3,
                "policy": "ucbf", "replications": 4, "master_seed": 3,
            },
        )
        assert run(["lowerbound", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "lb_report.json").read_text())
        assert report["kl"] <= report["kl_bound"]
        assert report["replications"] == 4

    def test_lowerbound_builds_the_pair_once(self, tmp_path, monkeypatch):
        builds = []
        build = experiments.make_lower_bound_pair

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(experiments, "make_lower_bound_pair", counting)
        cfg = write_json(tmp_path / "lb.json", {"schema": 1, "N": 2000, "p": 0.5, "L": 0.5,
                                                "alpha_lb": 0.3, "replications": 2})
        assert run(["lowerbound", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert builds == [(0.5, 0.5, 0.3, 2000)]

    @pytest.mark.parametrize(
        "overrides, json_path",
        [
            ({"alpha_lb": 0.9}, "$.alpha_lb"),  # above the (20 N^(-2/3), 0.5] window
            ({"alpha_lb": 0.1}, "$.alpha_lb"),  # below it: 20 * 1000^(-2/3) = 0.2
            ({"p": 0.05, "alpha_lb": 0.5}, "$.alpha_lb"),  # bumps wider than p
            ({"p": 1.5}, "$.p"),
            ({"L": 0.0}, "$.L"),
            ({"master_seed": -5}, "$.master_seed"),
            ({"master_seed": "abc"}, "$.master_seed"),
            ({"N": 1000.7}, "$.N"),
            ({"p": "0.5"}, "$.p"),
            ({"replications": True}, "$.replications"),
            ({"master_seed": True}, "$.master_seed"),
            ({"policy": "oracle-discrete"}, "$.policy"),  # the reference, run by sweeps only
            ({"N": 10**400}, "$.N"),  # an integer past the float range
            ({"L": 1e-300}, "$.L"),  # N * L^2 underflows to 0
        ],
    )
    def test_bad_lowerbound_config_is_config_error(
        self, tmp_path, capsys, overrides, json_path
    ):
        cfg = {"schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3,
               "replications": 2}
        cfg.update(overrides)
        path = write_json(tmp_path / "lb.json", cfg)
        assert run(["lowerbound", "--config", path, "--out", str(tmp_path)]) == 1
        assert f"config error at {json_path}:" in capsys.readouterr().err
        assert not (tmp_path / "lb_report.json").exists()

    def test_validate_lower_bound_pair(self, tmp_path):
        cfg = write_json(
            tmp_path / "val.json",
            {
                "schema": 1,
                "pair": {"N": 10**6, "p": 0.5, "L": 0.5, "alpha_lb": 0.23},
            },
        )
        assert run(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["all_passed"] is True
        for member in ("m0", "m1"):
            assert report["members"][member]["weak_lipschitz"]["passed"]
            assert report["members"][member]["margin"]["passed"]

    @pytest.mark.parametrize(
        "overrides, json_path",
        [
            ({"pair": {"N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.9}}, "$.pair.alpha_lb"),
            ({"pair": {"N": 1000, "p": 1.5, "L": 0.5, "alpha_lb": 0.3}}, "$.pair.p"),
            ({"pair": {"N": 1000, "p": 0.5, "L": 0.5}}, "$.pair.alpha_lb"),
            ({"pair": {"N": "1000", "p": 0.5, "L": 0.5, "alpha_lb": 0.3}}, "$.pair.N"),
            ({"pair": None}, "$.pair"),
            # Removed keys, now unknown whatever their value.
            ({"lipschitz_grid": 10}, "$.lipschitz_grid"),
            ({"lipschitz_grid": 2000.0}, "$.lipschitz_grid"),
            ({"margin_grid": 0}, "$.margin_grid"),
            ({"margin_grid": True}, "$.margin_grid"),
            ({"eps_factors": []}, "$.eps_factors"),
            ({"eps_factors": [1.5, -2.0]}, "$.eps_factors"),
            ({"eps_factors": ["2"]}, "$.eps_factors"),
            ({"eps_factors": [1e6]}, "$.eps_factors"),  # an epsilon of 1 or more
            ({"eps_factors": [float("nan")]}, "$.eps_factors"),
            ({"pair": {"N": 1000, "p": 0.5, "L": 1e-300, "alpha_lb": 0.3}}, "$.pair.L"),
        ],
    )
    def test_bad_validate_config_is_config_error(
        self, tmp_path, capsys, overrides, json_path
    ):
        cfg = {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3}}
        cfg.update(overrides)
        path = write_json(tmp_path / "val.json", cfg)
        assert run(["validate", "--config", path, "--out", str(tmp_path)]) == 1
        assert f"config error at {json_path}:" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()

    @pytest.mark.parametrize(
        "command, cfg, json_path",
        [
            ("lowerbound", {"schema": 1, "N": 1000, "p": 0.5, "L": 10**400, "alpha_lb": 0.3},
             "$.L"),
            ("validate", {"schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 10**400,
                                                "alpha_lb": 0.3}}, "$.pair.L"),
        ],
    )
    def test_integer_past_the_float_range_is_config_error(
        self, tmp_path, capsys, command, cfg, json_path
    ):
        path = write_json(tmp_path / "c.json", cfg)
        assert '"L": 1' + "0" * 400 + "," in open(path).read()
        assert run([command, "--config", path, "--out", str(tmp_path)]) == 1
        assert f"config error at {json_path}: must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.json"]

    def test_simulate_byte_deterministic(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", minimal_experiment(N_grid=[64]))
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            out.mkdir()
            argv = ["simulate", "--config", cfg, "--out", str(out), "--threads", threads]
            assert run(argv) == 0
            outputs.append((out / "trials.jsonl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["sweep", "simulate", "lowerbound"])
    def test_runs_never_import_numpy_ma(self, tmp_path, command):
        # np.quantile and np.unique import numpy.ma, 12-22 ms per process
        # that no output reads; a fresh process must end without it.
        if command == "lowerbound":
            cfg = dict(LOWERBOUND_CONFIG, policy="ucbf", replications=2)
        else:
            cfg = minimal_experiment(
                policies=["ucbf", "ucbf-cab-k", "oracle-star", "oracle-discrete", "random"]
            )
        path = write_json(tmp_path / "c.json", cfg)
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        script = ("import sys; from fcab.cli import run; "
                  "code = run(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
        done = subprocess.run(
            [sys.executable, "-c", script, command, "--config", path, "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.split() == ["0", "False"], done.stderr

    def test_info_log_ends_with_resource_use(self, tmp_path):
        # FCAB_LOG=info adds one last line on stderr and changes no output.
        cfg = write_json(tmp_path / "c.json", minimal_experiment())
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        runs = {}
        for level in ("error", "info"):
            out = tmp_path / level
            out.mkdir()
            runs[level] = subprocess.run(
                [sys.executable, "-m", "fcab.cli", "sweep", "--config", cfg,
                 "--out", str(out), "--threads", "2"],
                env=dict(os.environ, PYTHONPATH=src, FCAB_LOG=level),
                capture_output=True, text=True, timeout=120,
            )
            assert runs[level].returncode == 0
        assert runs["info"].stdout == runs["error"].stdout == ""
        assert runs["error"].stderr == ""
        assert ((tmp_path / "info" / "sweep.csv").read_bytes()
                == (tmp_path / "error" / "sweep.csv").read_bytes())
        lines = runs["info"].stderr.splitlines()
        assert sum(" resources " in line for line in lines) == 1
        match = re.search(
            r"resources keep_freed_memory=(True|False) minflt=(\d+) children_minflt=(\d+) "
            r"peak_rss_mb=\d+\.\d children_peak_rss_mb=\d+\.\d$",
            lines[-1],
        )
        assert match
        assert int(match[2]) > 0 and int(match[3]) > 0  # two workers ran and exited

    @pytest.mark.parametrize("command", ["sweep", "lowerbound"])
    def test_two_workers_leave_no_process_running(self, tmp_path, command):
        cfg = dict(LOWERBOUND_CONFIG, policy="ucbf", replications=3) if command == "lowerbound" \
            else minimal_experiment()
        path = write_json(tmp_path / "c.json", cfg)
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        # The CLI leads a process group of its own, which its workers join.
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcab.cli", command, "--config", path,
             "--out", str(tmp_path), "--threads", "2"],
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            with pytest.raises(ProcessLookupError):  # nobody is left in the group
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", minimal_experiment(N_grid=[64]))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".fcab-tmp-")]
        assert leftovers == []


# A tiny valid config of each protocol, and per JSON path in it: the JSON
# type the value must have, values out of range, and whether the key is
# required.  Integer path parts index lists.
SWEEP_CONFIG = {
    "schema": 1,
    "mean_function": {"kind": "sinusoid", "amplitude": 0.35, "frequency": 1.15, "dim": 1},
    "reward_model": {"kind": "bernoulli"},
    "policies": ["ucbf", "oracle-star"],
    "N_grid": [30],
    "regime": {"kind": "fixed_p", "p": 0.5},
    "K_rule": {"kind": "explicit", "k": 1},
    "replications": 1,
    "master_seed": 3,
    "covariates": "uniform",
    "dim": 1,
    "bin_means": "quadrature",
}
SWEEP_FIELDS = {
    ("schema",): (int, [0, 2], True),
    ("mean_function",): (dict, [], True),
    ("mean_function", "kind"): (str, ["cubic"], True),
    ("mean_function", "amplitude"): (float, [0.6, -0.7], False),
    ("mean_function", "frequency"): (float, [0.0, -1.15], False),
    ("mean_function", "dim"): (int, [0, -1, 2], False),
    ("reward_model",): (dict, [], False),
    ("reward_model", "kind"): (str, ["poisson", "clipped_gaussian"], True),
    ("policies",): (list, [[], ["thompson"], ["ucbf", "ucbf"]], True),
    ("policies", 0): (str, ["thompson"], False),
    ("N_grid",): (list, [[], [29], [64, 10], [64, 64]], True),
    ("N_grid", 0): (int, [29, 0, -64], False),
    ("regime",): (dict, [], True),
    ("regime", "kind"): (str, ["linear"], True),
    ("regime", "p"): (float, [0.0, -0.5, 1.5], True),
    ("K_rule",): (dict, [], False),
    ("K_rule", "kind"): (str, ["magic"], False),
    ("K_rule", "k"): (int, [0, -3, 10**8], True),
    ("replications",): (int, [0, -1], False),
    ("master_seed",): (int, [-1], False),
    ("covariates",): (str, ["sobol"], False),
    ("dim",): (int, [0, 2], False),
    ("bin_means",): (str, ["exact"], False),
}
LOWERBOUND_CONFIG = {
    "schema": 1, "N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3,
    "policy": "oracle-star", "replications": 1, "master_seed": 0,
}
VALIDATE_CONFIG = {
    "schema": 1, "pair": {"N": 1000, "p": 0.5, "L": 0.5, "alpha_lb": 0.3},
    "eps_factors": [1.5, 2.0],
}
VALIDATE_FIELDS = {
    ("schema",): (int, [0, 2], True),
    ("pair",): (dict, [], True),
    ("pair", "N"): (int, [0, -5, 100], True),
    ("pair", "p"): (float, [0.0, 1.0, 1.5, 0.05], True),
    ("pair", "L"): (float, [0.0, -1.0], True),
    ("pair", "alpha_lb"): (float, [0.0, 0.1, 0.9], True),
    ("eps_factors",): (list, [[], [1.5, -2.0], [1e6]], False),
    ("eps_factors", 0): (float, [0.0, -1.5, 1e6], False),
}
LOWERBOUND_FIELDS = {
    ("schema",): (int, [0, 2], True),
    ("N",): (int, [0, -5, 100], True),
    ("p",): (float, [0.0, 1.0, 1.5, 0.05], True),
    ("L",): (float, [0.0, -1.0], True),
    ("alpha_lb",): (float, [0.0, 0.1, 0.9], True),
    ("policy",): (str, ["oracle-discrete", "thompson"], False),
    ("replications",): (int, [0], False),
    ("master_seed",): (int, [-1], False),
}
WRONG_TYPE = {
    int: [True, "7", 1.5, None, [1]],
    float: [False, "0.5", None, [0.5], float("nan"), float("inf")],
    str: [True, 1.5, None, ["x"]],
    list: [True, "x", 1.5, None],
    dict: [True, "x", 1.5, None, [1]],
}


@st.composite
def mutated_configs(draw):
    command, config, fields = draw(st.sampled_from([
        ("sweep", SWEEP_CONFIG, SWEEP_FIELDS),
        ("lowerbound", LOWERBOUND_CONFIG, LOWERBOUND_FIELDS),
        ("validate", VALIDATE_CONFIG, VALIDATE_FIELDS),
    ]))
    path = draw(st.sampled_from(list(fields)))
    kind, out_of_range, required = fields[path]
    mutations = [("set", v) for v in WRONG_TYPE[kind] + out_of_range]
    if required:
        mutations.append(("delete", None))
    if kind is dict or len(path) == 1:
        mutations.append(("extra", None))
    how, value = draw(st.sampled_from(mutations))
    cfg = copy.deepcopy(config)
    parent = cfg
    for part in path[:-1]:
        parent = parent[part]
    if how == "delete":
        del parent[path[-1]]
    elif how == "extra":
        # A key no parser reads: inside the object at the path, or beside
        # a top-level key.
        (parent[path[-1]] if kind is dict else parent)["unknown_key"] = 1
    else:
        parent[path[-1]] = value
    return command, cfg


def _run_config(command, cfg):
    with tempfile.TemporaryDirectory() as out:
        path = write_json(os.path.join(out, "config.json"), cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run([command, "--config", path, "--out", out])
        return rc, err.getvalue()


class TestMutatedConfigs:
    @pytest.mark.parametrize(
        "command, config",
        [("sweep", SWEEP_CONFIG), ("lowerbound", LOWERBOUND_CONFIG),
         ("validate", VALIDATE_CONFIG)],
    )
    def test_unmutated_config_runs(self, command, config):
        assert _run_config(command, config) == (0, "")

    @settings(max_examples=300, deadline=None)
    @given(mutated_configs())
    def test_every_mutation_is_a_config_error(self, case):
        rc, err = _run_config(*case)
        assert rc == 1, err
        assert "config error at $." in err


def _readable(annotation) -> bool:
    """Whether ``environment.from_json`` can read a parameter of this
    annotation: a JSON scalar, a list of one, an Optional of a readable
    annotation, or an fcab class with its own ``from_json`` or whose
    constructor's parameters are all readable."""
    args = typing.get_args(annotation)
    if type(None) in args:
        return len(args) == 2 and _readable(args[0])
    if typing.get_origin(annotation) is tuple:
        return len(args) == 2 and args[1] is Ellipsis and args[0] in (int, float, str)
    if annotation in (int, float, str):
        return True
    if not inspect.isclass(annotation) or not annotation.__module__.startswith("fcab."):
        return False
    return hasattr(annotation, "from_json") or all(
        _readable(param.annotation)
        for param in inspect.signature(annotation, eval_str=True).parameters.values()
    )


class TestConfigSignatures:
    @pytest.mark.parametrize(
        "ctor",
        [experiments.ExperimentConfig, *environment._MEAN_KINDS.values(), experiments.FixedP,
         experiments.PowerLaw, experiments.KRule, environment.RewardModel,
         environment.make_lower_bound_pair, experiments.lower_bound_config,
         experiments.validate_config],
        ids=lambda ctor: ctor.__name__,
    )
    def test_every_parameter_is_readable_from_json(self, ctor):
        params = inspect.signature(ctor, eval_str=True).parameters
        unreadable = [name for name, param in params.items() if not _readable(param.annotation)]
        assert params and unreadable == []

    @pytest.mark.parametrize(
        "annotation", [inspect.Parameter.empty, bool, list, dict, tuple, tuple[float],
                       typing.Any, typing.Optional[list], ConfigError]
    )
    def test_guard_rejects_what_the_reader_cannot_read(self, annotation):
        assert not _readable(annotation)
