"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from holocone import symq, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_run_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    res = result(workload, 1, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_across_runs(workload):
    first, second = result(workload, 7, 1), result(workload, 7, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_injected_fault_is_a_failure_not_a_time():
    wl = workloads.Verify22(1, True, corrupt=verify.inject_extra_point)
    attempted, failed, metrics, _ = run.end_to_end(run.Run(wl), 0.0, 0.1)
    assert attempted >= 1 and failed == attempted
    assert metrics == {}


def test_serve_audit_catches_a_wrong_multiplicity(monkeypatch):
    wl = workloads.Serve(3, True)
    real = symq.holomorphic_multiplicity
    monkeypatch.setattr(symq, "holomorphic_multiplicity", lambda *a: real(*a) + 1)
    workloads.reset_caches()
    wl.wrong(wl.run_job())
    monkeypatch.undo()
    bad = wl.audit()
    assert bad and all(wl.requests[i][0] == "mult" for i in bad)


def test_serve_inputs_come_from_the_seed():
    assert workloads.Serve(5, True).requests == workloads.Serve(5, True).requests
    assert workloads.Serve(5, True).requests != workloads.Serve(6, True).requests


def test_fails_without_the_program_sources():
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "verify22", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
