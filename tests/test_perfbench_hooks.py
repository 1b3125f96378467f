"""The benchmark harness under perfbench/ times and captures program
layers by replacing module attributes of epc_pinn (tracing.TARGETS and
run.Capture.NAMES). Every attribute it names must resolve, or a traced
benchmark run breaks on the renamed function. Its output checks must also
pass on the program's outputs, or every benchmark run fails its checks."""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _resolve(target: str):
    module, _, attr = target.partition(":")
    owner = importlib.import_module(f"epc_pinn.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")
    targets = [target for _, wrapped, _ in tracing.TARGETS for target in wrapped]
    targets += [f"cli:{name}" for name in run.Capture.NAMES]
    assert {"data:load_dataset", "data:join_on_cadastre", "data:build_matrices",
            "cli:predict_physical", "cli:reconstruct_energy"} <= set(targets)
    for target in targets:
        assert callable(_resolve(target)), target


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs a tiny cohort through the benchmark's
    calls: every output check passes, and each corrupted output fails it."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
