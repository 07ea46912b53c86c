"""Byte-identity of the CLI's outputs against committed files.

``tests/golden`` holds three sweep configs and a small lower-bound config,
with the ``sweep.csv``, ``trials.jsonl`` and ``lb_report.json`` they
produced.  ``five_policy.json`` is a 1-d sinusoid (``ucbf-cab-k`` gives
each task a second K); ``plateau.json`` puts grid arms on a
piecewise-linear plateau, so many true means tie and oracle-star's order
rests on its ascending-index tie break; ``empirical_2d.json`` is a 2-d
sinusoid ranked by empirical bin means.  ``plateau_pulls.jsonl`` holds
every policy's per-pull trace of one plateau trial, so a change of pull
order shows even where the regret does not.  A change that alters a
stream on purpose regenerates these files by running the same commands
(``python tests/test_golden.py`` for the trace) and says so in
``CHANGES.md``.
"""

import json
import pathlib

import pytest

from fcab import experiments, policies
from fcab.cli import parse_config, run
from fcab.environment import grid_arms

GOLDEN = pathlib.Path(__file__).parent / "golden"
WRITES = {"sweep": "sweep.csv", "simulate": "trials.jsonl", "lowerbound": "lb_report.json"}


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
    ],
)
def test_output_is_byte_identical(tmp_path, command, config, golden, threads):
    argv = [command, "--config", str(GOLDEN / config), "--out", str(tmp_path),
            "--threads", str(threads)]
    assert run(argv) == 0
    assert (tmp_path / WRITES[command]).read_bytes() == (GOLDEN / golden).read_bytes()


def _plateau_pulls(tmp_path) -> bytes:
    """Every policy's trace of the plateau trial (N = 300, rep 0), each
    after a line naming the policy, as ``policies.write_trace_jsonl``
    writes it."""
    config = parse_config(str(GOLDEN / "plateau.json"))
    out = b""
    for result in experiments.run_trial(config, 300, 0, keep_trace=True):
        path = tmp_path / f"{result.policy_id}.jsonl"
        partition = policies.build_partition(grid_arms(300), result.k)
        policies.write_trace_jsonl(result.trace, path, partition)
        out += (json.dumps({"policy": result.policy_id}) + "\n").encode() + path.read_bytes()
    return out


def test_pull_trace_is_byte_identical(tmp_path):
    assert _plateau_pulls(tmp_path) == (GOLDEN / "plateau_pulls.jsonl").read_bytes()


if __name__ == "__main__":  # regenerate the trace: python tests/test_golden.py
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "plateau_pulls.jsonl").write_bytes(_plateau_pulls(pathlib.Path(tmp)))
