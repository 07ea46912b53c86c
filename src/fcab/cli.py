"""Command-line front end: config-driven simulate / sweep / lowerbound /
validate subcommands with deterministic, atomically-written outputs.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime error.
The log level comes from the FCAB_LOG environment variable (error, info,
debug); at info, the last line gives the run's page faults and peak memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import resource
import sys
from dataclasses import asdict

from . import experiments
from .environment import ConfigError, _field, from_json, verify_margin, verify_weak_lipschitz

log = logging.getLogger("fcab")


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename, so a
    failure never leaves a partially-written output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, ".fcab-tmp-" + os.urandom(8).hex())
    fh = open(tmp, "x")  # mode 0o666 less the umask, as a plain open; mkstemp's is 0o600
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key raises ValueError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _read_config(path: str, read, seed=None):
    """``read`` of the top-level object of the config file at ``path``,
    without its ``schema`` key, which must be 1; the errors of both are
    raised together.  A ``seed`` replaces the object's ``master_seed``
    before ``read`` runs, so its range is checked as the file's is.  A
    file that cannot be read or decoded, or that repeats a key in any
    object, is a configuration error at ``$``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError([("$", f"config file not found: {path}")])
    except OSError as exc:
        raise ConfigError([("$", f"cannot read config file: {exc}")])
    except ValueError as exc:  # undecodable bytes, bad JSON or a repeated key
        raise ConfigError([("$", f"invalid JSON: {exc}")])
    if not isinstance(data, dict):
        raise ConfigError([("$", "config must be a JSON object")])
    errors = []
    schema = _field(data, "schema", int, errors)
    if schema not in (None, 1):
        errors.append(("$.schema", f"unsupported schema version {schema!r}"))
    if seed is not None:
        data["master_seed"] = seed
    try:
        config = read({key: value for key, value in data.items() if key != "schema"})
    except ConfigError as exc:
        errors += exc.errors
    if errors:
        raise ConfigError(errors)
    return config


def parse_config(path: str, seed=None) -> experiments.ExperimentConfig:
    """Parse and validate an experiment config, reporting every schema
    problem with its JSON path."""
    return _read_config(path, experiments.ExperimentConfig.from_json, seed)


def parse_lowerbound_config(path: str, seed=None) -> dict:
    return _read_config(path, functools.partial(from_json, experiments.lower_bound_config), seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_sweep(args, name: str, text) -> int:
    """Run the config's sweep on ``--threads`` workers and write
    ``text(result)`` to ``name``.  When a cell fails, log it, write
    nothing (a file without the failed cells would read as complete) and
    return 2."""
    result = experiments.run_sweep(parse_config(args.config, args.seed), threads=args.threads)
    for row in result.rows:
        log.info(
            "cell policy=%s N=%d regret_mean=%.4f wall_ms=%.1f",
            row.policy_id, row.n, row.regret_mean, row.wall_ms,
        )
    for policy_id, n, message in result.errors:
        log.error("cell policy=%s N=%d failed: %s", policy_id, n, message)
    if result.errors:
        return 2
    out = os.path.join(args.out, name)
    _atomic_write(out, text(result))
    log.info("wrote %s (%d cells, %d trials)", out, len(result.rows), len(result.trials))
    return 0


def _trials_jsonl_text(result: experiments.SweepResult) -> str:
    """One JSON line per trial, in ``result.trials`` order: its cell,
    replication, seed, regret, decomposition and diagnostics.  The top
    level repeats the regret and the diagnostics' N, T, K, p, f, f_hat,
    m_hat and threshold_M, where parsers read them."""
    lines = []
    for r in result.trials:
        d = r.diagnostics
        lines.append(json.dumps(
            {"policy": r.policy_id, "N": d.n, "T": d.t_budget, "K": d.k_per_axis, "p": d.p,
             "rep": r.rep, "seed": r.seed, "regret": r.decomposition.r_total, "f": d.f,
             "f_hat": d.f_hat, "m_hat": d.m_hat, "threshold_M": d.threshold_M,
             **asdict(r.decomposition), "diagnostics": asdict(d)},
            sort_keys=True))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    return _write_sweep(args, "sweep.csv", experiments.sweep_csv_text)


def _cmd_simulate(args) -> int:
    return _write_sweep(args, "trials.jsonl", _trials_jsonl_text)


def _cmd_lowerbound(args) -> int:
    cfg = parse_lowerbound_config(args.config, args.seed)
    report = experiments.lower_bound_protocol(
        cfg["pair"], cfg["policy"], cfg["replications"], cfg["master_seed"], threads=args.threads
    )
    out = os.path.join(args.out, "lb_report.json")
    _atomic_write(out, _json_dumps(asdict(report)))
    log.info(
        "wrote %s (max frequency %.3f, target %.2f)",
        out, report.max_frequency, report.frequency_target,
    )
    return 0


def _cmd_validate(args) -> int:
    cfg = _read_config(args.config, functools.partial(from_json, experiments.validate_config))
    pair = cfg["pair"]
    result = {"pair": {key: value for key, value in vars(pair).items() if key not in ("m0", "m1")},
              "members": {}}
    all_passed = True
    for name, member in (("m0", pair.m0), ("m1", pair.m1)):
        lip = verify_weak_lipschitz(member, L=pair.l_tilde)
        margin = verify_margin(member, M=0.5, Q=pair.margin_Q, eps_values=cfg["eps"])
        all_passed = all_passed and lip.passed and margin.passed
        result["members"][name] = {
            "weak_lipschitz": asdict(lip),
            "margin": asdict(margin),
        }
    result["all_passed"] = all_passed
    out = os.path.join(args.out, "validation.json")
    _atomic_write(out, _json_dumps(result))
    log.info("wrote %s (all_passed=%s)", out, all_passed)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {text!r}")
    return value


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
        if name != "validate":
            s.add_argument("--seed", type=int, default=None, help="master seed override")
            s.add_argument("--threads", type=_nonnegative_int, default=1,
                           help="worker processes (0 = all cores)")
        s.set_defaults(handler=fn)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("FCAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _log_resources(allocator_kept: bool) -> None:
    """One info line: whether glibc took the setting that keeps freed
    memory, and the minor page faults and peak resident memory of this
    process and of its finished worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    log.info(
        "resources keep_freed_memory=%s minflt=%d children_minflt=%d "
        "peak_rss_mb=%.1f children_peak_rss_mb=%.1f",
        allocator_kept, own.ru_minflt, workers.ru_minflt,
        own.ru_maxrss / 1024, workers.ru_maxrss / 1024,
    )


def run(argv=None) -> int:
    allocator_kept = experiments._keep_freed_memory()
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is a configuration error; --help is not
        return 1 if exc.code else 0
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
    finally:
        _log_resources(allocator_kept)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
