"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        calls = result["metrics"]["algebra.StarAlgebra.commutant_basis.calls"]
        assert calls["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _classify(path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from worker import _call

    import qreduce.cli  # noqa: F401  (_call looks the module up)

    return _call(["classify", str(path)])


def test_oracle_counts_a_mismatched_verdict(tmp_path):
    manifest = workloads.write_cli_inputs(tmp_path, seed=5, n=3, per_kind=1)
    entry = next(e for e in manifest if e["kind"] == "complex")
    code, stdout, error = _classify(Path(entry["path"]))
    planted = workloads.Op(["classify", entry["path"]], "complex", 3)
    assert workloads.judge(planted, code, stdout, error).failed == 0
    for wrong in ("proper", "real", "reducible"):
        mismatched = workloads.Op(["classify", entry["path"]], wrong, 3)
        verdict = workloads.judge(mismatched, code, stdout, error)
        assert verdict.failed == 1 and verdict.notes


def test_without_program_sources_it_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-n8", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
