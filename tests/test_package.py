import importlib
import importlib.util
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import fcab

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
