"""Byte-identity of the CLI's outputs against committed files.

``tests/golden`` holds three sweep configs, a small lower-bound config and
the README's validate config, with the ``sweep.csv``, ``trials.jsonl``,
``lb_report.json`` and ``validation.json`` they produced.
``five_policy.json`` is a 1-d sinusoid (``ucbf-cab-k`` gives each task a
second K); ``plateau.json`` puts grid arms on a piecewise-linear plateau,
so many true means tie and oracle-star's order rests on its
ascending-index tie break; ``empirical_2d.json`` is a 2-d sinusoid ranked
by empirical bin means; ``validation.json`` holds the adversarial pair's
exact weak-Lipschitz certificates and margin measures.
``plateau_pulls.jsonl`` holds every policy's per-pull trace of one plateau
trial, so a change of pull order shows even where the regret does not.
Each five-policy row must also come out the same from a config that runs
only some of the five policies.  A change that alters a stream on purpose
regenerates these files by running the same commands (``python
tests/test_golden.py`` for the trace) and says so in ``CHANGES.md``.
"""

import ctypes
import dataclasses
import json
import pathlib

import pytest

from fcab import experiments, policies
from fcab.cli import parse_config, run
from fcab.environment import grid_arms

GOLDEN = pathlib.Path(__file__).parent / "golden"
WRITES = {"sweep": "sweep.csv", "simulate": "trials.jsonl", "lowerbound": "lb_report.json",
          "validate": "validation.json"}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "command, config, golden",
    [
        ("sweep", "five_policy.json", "sweep.csv"),
        ("simulate", "five_policy.json", "trials.jsonl"),
        ("sweep", "plateau.json", "plateau_sweep.csv"),
        ("simulate", "plateau.json", "plateau_trials.jsonl"),
        ("sweep", "empirical_2d.json", "empirical_2d_sweep.csv"),
        ("simulate", "empirical_2d.json", "empirical_2d_trials.jsonl"),
        ("lowerbound", "lowerbound.json", "lb_report.json"),
        ("validate", "validate.json", "validation.json"),
    ],
)
def test_output_is_byte_identical(tmp_path, command, config, golden, threads):
    # validate runs no workers, so it takes no --threads.
    argv = [command, "--config", str(GOLDEN / config), "--out", str(tmp_path)]
    if command != "validate":
        argv += ["--threads", str(threads)]
    assert run(argv) == 0
    assert (tmp_path / WRITES[command]).read_bytes() == (GOLDEN / golden).read_bytes()


def _rows(csv_path) -> dict:
    """``sweep.csv``'s rows keyed by (policy, N)."""
    _, *rows = csv_path.read_text().splitlines()
    return {tuple(row.split(",")[:2]): row for row in rows}


@pytest.mark.parametrize(
    "subset",
    [
        ["ucbf"], ["ucbf-cab-k"], ["oracle-star"], ["oracle-discrete"], ["random"],
        ["random", "ucbf"],
        ["oracle-discrete", "ucbf-cab-k"],
        ["random", "oracle-star", "ucbf-cab-k", "ucbf"],
        ["random", "oracle-discrete", "oracle-star", "ucbf-cab-k", "ucbf"],
    ],
)
def test_row_does_not_depend_on_the_other_policies(tmp_path, subset):
    config = json.loads((GOLDEN / "five_policy.json").read_text())
    config["policies"] = subset
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["sweep", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 0
    rows = _rows(tmp_path / "sweep.csv")
    assert set(rows) == {(policy, str(n)) for policy in subset for n in config["N_grid"]}
    golden = _rows(GOLDEN / "sweep.csv")
    for cell, row in rows.items():
        assert row == golden[cell]


def _no_libc(name):
    raise OSError("no C library here")


def _libc_without_mallopt(name):
    return object()


@pytest.mark.parametrize("cdll", [_no_libc, _libc_without_mallopt])
def test_output_without_mallopt_is_byte_identical(tmp_path, monkeypatch, cdll):
    # Off glibc, keeping freed memory is skipped and nothing else changes.
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert experiments._keep_freed_memory() is False
    argv = ["sweep", "--config", str(GOLDEN / "five_policy.json"), "--out", str(tmp_path)]
    assert run(argv) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def _plateau_pulls(tmp_path) -> bytes:
    """Every policy's trace of the plateau trial (N = 300, rep 0), each
    after a line naming the policy, as ``policies.write_trace_jsonl``
    writes it.  N = 300 lies outside ``plateau.json``'s grid, so the
    trial runs on the config with that grid."""
    config = dataclasses.replace(parse_config(str(GOLDEN / "plateau.json")), n_grid=(300,))
    out = b""
    for result in experiments.run_trial(config, 300, 0, keep_trace=True):
        path = tmp_path / f"{result.policy_id}.jsonl"
        partition = policies.build_partition(grid_arms(300), result.diagnostics.k_per_axis)
        policies.write_trace_jsonl(result.trace, path, partition)
        out += (json.dumps({"policy": result.policy_id}) + "\n").encode() + path.read_bytes()
    return out


def test_pull_trace_is_byte_identical(tmp_path):
    assert _plateau_pulls(tmp_path) == (GOLDEN / "plateau_pulls.jsonl").read_bytes()


if __name__ == "__main__":  # regenerate the trace: python tests/test_golden.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "plateau_pulls.jsonl").write_bytes(_plateau_pulls(pathlib.Path(tmp)))
