"""Smoke test of the benchmark at toy sizes (``--scale tiny``), about a minute.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a failing operation is counted by its exception class, and that the work
counts of the traced run repeat exactly between two traced runs.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402


@functools.lru_cache(maxsize=None)
def run(workload, trace, seed=0, repeat=0):
    """Run the benchmark once per distinct argument tuple; ``repeat`` forces a rerun."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    lines, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert any(line.startswith("env: ") for line in lines)
    assert any(line.startswith("digest: ") for line in lines)


def test_known_quadrature_crash_is_counted():
    lines, result = run("stream", 1)
    assert result["metrics"]["budget.quadrature_errors"]["value"] >= 1
    probe = next(line for line in lines if line.startswith("known_bug_probe: "))
    assert json.loads(probe.split(": ", 1)[1]) == {"QuadratureError": 4}


def test_failing_operation_counts_against_ops_ok_frac():
    size = bench_run.SCALES["tiny"]
    inst = bench_run._instance(*size["crash_probe"], 0)
    dopt = bench_run.objectives.make_objective("dopt")
    smoothed = bench_run.lowner.SmoothedObjective(bench_run.lowner.exact_measure(dopt), dopt)
    p = bench_run.Pass()
    bench_run.audited_stream(p, smoothed, inst, "seq", 2.0, p_star=0.0)
    bench_run.audited_stream(p, smoothed, inst, "sim", 2.0, p_star=0.0)
    assert p.ops == [("stream", "QuadratureError")] * 2
    p.betas = [1.0]
    metrics = bench_run.end_to_end([p], 0.1)
    assert metrics["ops_ok_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", ["stream", "pipeline"])
def test_traced_counts_repeat_exactly(workload):
    _, first = run(workload, 1)
    _, second = run(workload, 1, repeat=1)
    for name in bench_run.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_missing_package_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
