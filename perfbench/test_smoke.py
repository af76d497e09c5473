"""Smoke test of the benchmark: every workload at a tiny scale.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = "0.05"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flowerpetals import cli  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    names = ["score", "fail_frac"] + ([] if trace else [m["name"] for m in declared])
    for name in names:
        assert f"{workload} {name} " in text
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_the_wrapped_functions(workload, tmp_path):
    before = spans.current_bindings()
    tally = run.Tally(reference=None)
    case = workloads.WORKLOADS[workload](tmp_path, 3, float(TINY))
    metrics, _, _ = run.measure_traced(case, cli, 0.0, tally)
    after = spans.current_bindings()
    assert all(a is b for a, b in zip(before, after)) and len(before) == len(after)
    assert tally.failed == 0 and tally.attempted >= 2
    assert metrics["cli.self_s"] > 0 and metrics["complexes.self_s"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
