import functools
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import fcab
from fcab import cli, environment, experiments

MODULES = ["fcab", *(f"fcab.{m.name}" for m in pkgutil.iter_modules(fcab.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    # A stale entry in __all__ breaks ``from module import *``.
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= set(namespace)


REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
bench_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_workloads)


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_benchmark_setup_probe_runs(tmp_path, workload):
    # The benchmark's setup probe calls fcab functions, arguments and
    # config attributes that nothing else in the suite reaches.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bench_workloads.config_for(workload, 1)))
    job = {"mode": "setup", "command": bench_workloads.WORKLOADS[workload]["command"],
           "config": str(config)}
    done = subprocess.run([sys.executable, "bench/probe.py", json.dumps(job)], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["setup_s"] > 0


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_benchmark_traced_call_checks_out(tmp_path, monkeypatch, workload):
    # The benchmark's traced call at seed 1: its output passes the
    # benchmark's checks, every layer the workload uses records a call, and
    # tracing at one worker changes no byte of the output.
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import check
    import tracer

    spec = bench_workloads.WORKLOADS[workload]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bench_workloads.config_for(workload, 1)))

    def call(threads, trace):
        out = tmp_path / f"{threads}-{trace}"
        out.mkdir()
        job = {"mode": "cli", "trace": str(out / "spans.json") if trace else None,
               "argv": [spec["command"], "--config", str(config), "--out", str(out),
                        "--threads", str(threads)]}
        done = subprocess.run([sys.executable, "bench/probe.py", json.dumps(job)], cwd=REPO,
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, FCAB_LOG="error"))
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)["rc"], out / bench_workloads.OUTPUT_FILE[spec["command"]]

    rc, output = call(1, True)
    text = output.read_text()
    reference = json.loads((REPO / "bench" / "reference.json").read_text())
    assert check.check_output(workload, rc, text, reference, fcab)[0] == {}
    calls = tracer.summarise(json.loads((output.parent / "spans.json").read_text()))
    assert [name for name in tracer.SPANS
            if name not in spec["idle_spans"] and calls[name]["calls"] == 0] == []
    rc, untraced = call(spec["threads"], False)
    assert rc == 0 and untraced.read_bytes() == output.read_bytes()


def _readme_block(heading: str, language: str) -> str:
    """The first ```language block after the README line ``heading``."""
    text = (REPO / "README.md").read_text()
    after = text[text.index(f"\n{heading}\n"):]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("heading, reader", [
    ("### simulate / sweep config", cli.parse_config),
    ("### lowerbound config", cli.parse_lowerbound_config),
    ("### validate config", functools.partial(
        cli._read_config, read=functools.partial(environment.from_json,
                                                 experiments.validate_config))),
], ids=["sweep", "lowerbound", "validate"])
def test_readme_config_is_read(tmp_path, heading, reader):
    # Each documented config is one its command accepts.
    config = tmp_path / "config.json"
    config.write_text(_readme_block(heading, "json"))
    reader(str(config))


def test_readme_library_use_runs():
    exec(_readme_block("## Library use", "python"), {})


def test_one_version():
    # The version is written twice; a bump must change both.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["version"] == fcab.__version__
