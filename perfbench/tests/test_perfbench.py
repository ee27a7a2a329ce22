"""Self-test of the benchmark harness: each workload once at tiny N, in both modes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--sequences", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert any(
            line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"]
            for line in lines[:-1]
        ), m["name"]
    assert any(line.startswith("meta {") for line in lines[:-1])
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["path.audit_failures"] == 0 and metrics["path.audit_portions"] > 0
        assert 0 < metrics["kalman.oracle_samples"]
        assert metrics["kalman.oracle_max_rel_diff"] < 1e-9
        assert metrics["trace.hook_errors"] == 0


def test_reference_mismatch_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    wl = workloads.FineTrace(12, tmp_path)
    raw = wl.iterate(0)
    xi = wl.check(0, raw)[0][0]
    wl.verify(0, raw, [xi * (1 + 1e-9)], 1e-6)
    with pytest.raises(workloads.CheckFailed):
        wl.verify(0, raw, [xi * (1 + 1e-5)], 1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "run_cli", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
