"""Byte-identity of the CLI's outputs against committed files.

``tests/golden`` holds a five-policy sweep config (``ucbf-cab-k`` gives
each task a second K) and a small lower-bound config, with the
``sweep.csv``, ``trials.jsonl`` and ``lb_report.json`` they produced.  A
change that alters a stream on purpose regenerates these files by running
the same commands and says so in ``CHANGES.md``.
"""

import pathlib

import pytest

from fcab.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "command, config, output",
    [
        ("sweep", "five_policy.json", "sweep.csv"),
        ("simulate", "five_policy.json", "trials.jsonl"),
        ("lowerbound", "lowerbound.json", "lb_report.json"),
    ],
)
def test_output_is_byte_identical(tmp_path, command, config, output, threads):
    argv = [command, "--config", str(GOLDEN / config), "--out", str(tmp_path),
            "--threads", str(threads)]
    assert run(argv) == 0
    assert (tmp_path / output).read_bytes() == (GOLDEN / output).read_bytes()
