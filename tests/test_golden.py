"""Byte-identity of the CLI's outputs against committed files.

``tests/golden`` holds three sweep configs and a small lower-bound config,
with the ``sweep.csv``, ``trials.jsonl`` and ``lb_report.json`` they
produced.  ``five_policy.json`` is a 1-d sinusoid (``ucbf-cab-k`` gives
each task a second K); ``plateau.json`` puts grid arms on a
piecewise-linear plateau, so many true means tie and oracle-star's order
rests on its ascending-index tie break; ``empirical_2d.json`` is a 2-d
sinusoid ranked by empirical bin means.  A change that alters a stream on
purpose regenerates these files by running the same commands and says so
in ``CHANGES.md``.
"""

import pathlib

import pytest

from fcab.cli import run

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
