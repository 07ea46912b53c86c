"""Command-line front end: config-driven simulate / sweep / lowerbound /
validate subcommands with deterministic, atomically-written outputs.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  The log
level comes from the FCAB_LOG environment variable (error, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile

from . import experiments, policies
from .environment import (
    GRID,
    UNIFORM,
    make_lower_bound_pair,
    mean_function_from_json,
    reward_model_from_json,
    verify_margin,
    verify_weak_lipschitz,
)

log = logging.getLogger("fcab")


class ConfigError(Exception):
    """Invalid configuration; carries (json_path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.errors))


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename, so a
    failure never leaves a partially-written output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fcab-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError([("$", f"config file not found: {path}")])
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([("$", f"invalid JSON: {exc}")])
    if not isinstance(data, dict):
        raise ConfigError([("$", "config must be a JSON object")])
    return data


def _check_schema(data: dict, errors: list) -> None:
    if "schema" not in data:
        errors.append(("$.schema", "missing schema version"))
    elif data["schema"] != 1:
        errors.append(("$.schema", f"unsupported schema version {data['schema']!r}"))


def _master_seed(data: dict, errors: list):
    master_seed = data.get("master_seed", 0)
    if not isinstance(master_seed, int) or master_seed < 0:
        errors.append(("$.master_seed", "must be a nonnegative integer"))
    return master_seed


def parse_config(path: str) -> experiments.ExperimentConfig:
    """Parse and validate an experiment config, reporting every schema
    problem with its JSON path."""
    data = _load_json(path)
    errors: list = []
    _check_schema(data, errors)

    mean_function = None
    if "mean_function" not in data:
        errors.append(("$.mean_function", "missing"))
    else:
        try:
            mean_function = mean_function_from_json(data["mean_function"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(("$.mean_function", str(exc)))

    reward_model = None
    try:
        reward_model = reward_model_from_json(data.get("reward_model", {"kind": "bernoulli"}))
    except ValueError as exc:
        errors.append(("$.reward_model", str(exc)))

    regime = None
    if "regime" not in data:
        errors.append(("$.regime", "missing"))
    else:
        try:
            regime = experiments.regime_from_json(data["regime"])
        except (ValueError, KeyError, TypeError) as exc:
            if isinstance(exc, ValueError) and "alpha" in str(exc):
                errors.append(("$.regime.alpha", "alpha must lie in the (2/3, 1] window"))
            else:
                errors.append(("$.regime", str(exc)))

    k_rule = experiments.KRule()
    if "K_rule" in data:
        try:
            k_rule = experiments.krule_from_json(data["K_rule"])
        except (ValueError, TypeError) as exc:
            errors.append(("$.K_rule", str(exc)))

    policy_list = data.get("policies")
    if not isinstance(policy_list, list) or not policy_list:
        errors.append(("$.policies", "must be a non-empty list of policy ids"))
        policy_list = []
    else:
        unknown = [p for p in policy_list if p not in policies.POLICY_IDS]
        if unknown:
            errors.append(
                (
                    "$.policies",
                    f"unknown ids {unknown}; valid ids: {list(policies.POLICY_IDS)}",
                )
            )

    n_grid = data.get("N_grid")
    if not isinstance(n_grid, list) or not n_grid:
        errors.append(("$.N_grid", "must be a non-empty list of integers"))
        n_grid = []
    elif any((not isinstance(n, int)) or n < 30 for n in n_grid):
        errors.append(("$.N_grid", "every N must be an integer of at least 30"))

    replications = data.get("replications", 1)
    if not isinstance(replications, int) or replications < 1:
        errors.append(("$.replications", "must be a positive integer"))

    master_seed = _master_seed(data, errors)

    covariates = data.get("covariates", UNIFORM)
    if covariates not in (UNIFORM, GRID):
        errors.append(("$.covariates", f"must be '{UNIFORM}' or '{GRID}'"))

    dim = data.get("dim", 1)
    if type(dim) is not int or dim < 1:
        errors.append(("$.dim", "must be a positive integer"))
    elif mean_function is not None and mean_function.dim != dim:
        errors.append(
            ("$.dim", f"the mean function is {mean_function.dim}-dimensional, not {dim}")
        )

    threshold_resolution = data.get("threshold_resolution", 10**6)
    if type(threshold_resolution) is not int or threshold_resolution < 1000:
        errors.append(("$.threshold_resolution", "must be an integer of at least 1000"))

    if errors:
        raise ConfigError(errors)
    try:
        return experiments.ExperimentConfig(
            mean_function=mean_function,
            reward_model=reward_model,
            policies=tuple(policy_list),
            n_grid=tuple(n_grid),
            regime=regime,
            replications=replications,
            master_seed=master_seed,
            k_rule=k_rule,
            covariates=covariates,
            dim=dim,
            bin_means_mode=data.get("bin_means", "quadrature"),
            threshold_resolution=threshold_resolution,
        )
    except ValueError as exc:
        raise ConfigError([("$", str(exc))])


def parse_lowerbound_config(path: str) -> dict:
    data = _load_json(path)
    errors: list = []
    _check_schema(data, errors)
    out = {}
    for key, kind in (("N", int), ("p", float), ("L", float), ("alpha_lb", float)):
        if key not in data:
            errors.append((f"$.{key}", "missing"))
        else:
            try:
                out[key] = kind(data[key])
            except (TypeError, ValueError):
                errors.append((f"$.{key}", f"must be a {kind.__name__}"))
    out["policy"] = data.get("policy", "ucbf")
    if out["policy"] not in ("ucbf", "ucbf-cab-k", "oracle-star", "random"):
        errors.append(("$.policy", "unsupported policy for the protocol"))
    out["replications"] = data.get("replications", 100)
    if not isinstance(out["replications"], int) or out["replications"] < 1:
        errors.append(("$.replications", "must be a positive integer"))
    out["master_seed"] = _master_seed(data, errors)
    if out.get("N", 1) < 1:
        errors.append(("$.N", "must be positive"))
    if not 0.0 < out.get("p", 0.5) < 1.0:
        errors.append(("$.p", "must lie in (0, 1)"))
    if not out.get("L", 1.0) > 0.0:
        errors.append(("$.L", "must be positive"))
    if not errors:
        try:
            make_lower_bound_pair(out["p"], out["L"], out["alpha_lb"], out["N"])
        except ValueError as exc:
            # N, p and L are valid here: what fails is alpha_lb's window or
            # the bump width it sets.
            errors.append(("$.alpha_lb", str(exc)))
    if errors:
        raise ConfigError(errors)
    return out


def parse_validate_config(path: str) -> dict:
    data = _load_json(path)
    errors: list = []
    _check_schema(data, errors)
    pair = data.get("pair")
    if not isinstance(pair, dict):
        errors.append(("$.pair", "missing lower-bound pair parameters"))
        pair = {}
    out = {"pair": {}}
    for key in ("N", "p", "L", "alpha_lb"):
        if key not in pair:
            errors.append((f"$.pair.{key}", "missing"))
        else:
            out["pair"][key] = pair[key]
    out["lipschitz_grid"] = data.get("lipschitz_grid", 2000)
    out["margin_grid"] = data.get("margin_grid", 10**5)
    out["eps_factors"] = data.get("eps_factors", [1.5, 2.0, 4.0])
    if not isinstance(out["eps_factors"], list) or not out["eps_factors"]:
        errors.append(("$.eps_factors", "must be a non-empty list"))
    if errors:
        raise ConfigError(errors)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    result = experiments.run_sweep(config, threads=args.threads)
    out = os.path.join(args.out, "sweep.csv")
    _atomic_write(out, experiments.sweep_csv_text(result))
    for row in result.rows:
        log.info(
            "cell policy=%s N=%d regret_mean=%.4f wall_ms=%.1f",
            row.policy_id, row.n, row.regret_mean, row.wall_ms,
        )
    if result.errors:
        for policy_id, n, message in result.errors:
            log.error("cell policy=%s N=%d failed: %s", policy_id, n, message)
        return 2
    log.info("wrote %s (%d rows)", out, len(result.rows))
    return 0


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    lines = []
    for n in config.n_grid:
        for policy_id in config.policies:
            for rep in range(config.replications):
                r = experiments.run_trial(config, n, policy_id, rep, keep_trace=False)
                record = {
                    "policy": policy_id,
                    "N": n,
                    "T": r.t_budget,
                    "K": r.k,
                    "p": r.p,
                    "rep": rep,
                    "seed": r.seed,
                    "regret": r.regret,
                }
                record.update(r.decomposition.to_json())
                record["diagnostics"] = r.diagnostics.to_json()
                lines.append(json.dumps(record, sort_keys=True))
    out = os.path.join(args.out, "trials.jsonl")
    _atomic_write(out, "\n".join(lines) + "\n")
    log.info("wrote %s (%d trials)", out, len(lines))
    return 0


def _cmd_lowerbound(args) -> int:
    cfg = parse_lowerbound_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    report = experiments.lower_bound_protocol(
        n=cfg["N"],
        p=cfg["p"],
        lipschitz_L=cfg["L"],
        alpha_lb=cfg["alpha_lb"],
        policy_id=cfg["policy"],
        replications=cfg["replications"],
        master_seed=cfg["master_seed"],
        threads=args.threads,
    )
    out = os.path.join(args.out, "lb_report.json")
    _atomic_write(out, _json_dumps(report.to_json()))
    log.info(
        "wrote %s (max frequency %.3f, target %.2f)",
        out, report.max_frequency, report.frequency_target,
    )
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_validate_config(args.config)
    p = cfg["pair"]
    pair = make_lower_bound_pair(p["p"], p["L"], p["alpha_lb"], p["N"])
    q = 6.0 * max(1.0 / p["L"], 2.0)
    eps = [f * pair.L_tilde * pair.lb_half_width for f in cfg["eps_factors"]]
    result = {
        "pair": {
            "p": pair.p,
            "L": p["L"],
            "alpha_lb": pair.alpha_lb,
            "N": p["N"],
            "l_tilde": pair.L_tilde,
            "lb_half_width": pair.lb_half_width,
            "x0": pair.x0,
            "x1": pair.x1,
            "margin_Q": q,
        },
        "members": {},
    }
    all_passed = True
    for name, member in (("m0", pair.m0), ("m1", pair.m1)):
        lip = verify_weak_lipschitz(
            member, M=0.5, L=pair.L_tilde, grid=cfg["lipschitz_grid"]
        )
        margin = verify_margin(member, M=0.5, Q=q, eps_values=eps, grid=cfg["margin_grid"])
        all_passed = all_passed and lip.passed and margin.passed
        result["members"][name] = {
            "weak_lipschitz": lip.to_json(),
            "margin": margin.to_json(),
        }
    result["all_passed"] = all_passed
    out = os.path.join(args.out, "validation.json")
    _atomic_write(out, _json_dumps(result))
    log.info("wrote %s (all_passed=%s)", out, all_passed)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcab",
        description="Finite continuum-armed bandit simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", _cmd_simulate),
        ("sweep", _cmd_sweep),
        ("lowerbound", _cmd_lowerbound),
        ("validate", _cmd_validate),
    ):
        s = sub.add_parser(name)
        s.add_argument("--config", required=True, help="path to the JSON config")
        s.add_argument("--out", default=".", help="output directory")
        s.add_argument("--seed", type=int, default=None, help="master seed override")
        s.add_argument(
            "--threads", type=int, default=1, help="worker processes (0 = all cores)"
        )
        s.set_defaults(handler=fn)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("FCAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def run(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 0:
        print("error: --threads must be nonnegative", file=sys.stderr)
        return 1
    if not os.path.isdir(args.out):
        print(f"error: output directory does not exist: {args.out}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        log.debug("unhandled error", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
