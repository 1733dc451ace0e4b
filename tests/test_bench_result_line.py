"""A traced benchmark run ends in a result line the benchmark gate can read.

The gate reads only the last stdout line of ``perfbench/run.py``.  A traced
run whose per-layer metric went absent (a ``TRACE_TARGETS`` span never
called) or whose value is not finite (printed by ``json.dumps`` as ``NaN``
or ``Infinity``) exits 0 but yields no usable result, so this runs one short
traced workload from a copy of the checkout and checks that line.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

from conftest import repo_root


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", ["orbit-run", "orbit-compare", "dem-zoom"])
def test_traced_run_ends_in_strict_json_with_every_per_layer_metric(tmp_path, workload):
    root = repo_root()
    copy = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", "results", "_work")
    shutil.copytree(root / "src", copy / "src", ignore=skip)
    shutil.copytree(root / "perfbench", copy / "perfbench", ignore=skip)
    shutil.copy(root / "BENCHMARK.json", copy)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=copy, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert line["correct"] is True
    per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    missing = [m["name"] for m in per_layer if m["name"] not in values]
    assert missing == []
    assert all(math.isfinite(values[m["name"]]) for m in per_layer), values
