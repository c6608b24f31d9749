"""Self-test of the benchmark at tiny job sizes (about two minutes).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _run(*args: str, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "1",
         *args],
        capture_output=True, text=True, timeout=300, cwd=script.parent.parent,
    )


def _result(*args: str):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def _units(doc):
    return {name: metric["unit"] for name, metric in doc["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_end_to_end_metrics_are_printed_and_checked(workload):
    doc = _result("--workload", workload, "--seed", "1", "--trace", "0")
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert _units(doc) == bench.END_TO_END
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_layer_metrics_are_printed_and_counts_repeat(workload):
    first, second = (
        _result("--workload", workload, "--seed", "0", "--trace", "1")
        for _ in range(2)
    )
    for doc in (first, second):
        assert doc["correct"], doc
        assert _units(doc) == bench.PER_LAYER
    for name in bench.exact_counts(workload):
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_corrupted_expected_digest_fails_the_job(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["tiny"]["mix-o1"]["1"]["ws"] *= 1.000001
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    doc = _result("--workload", "mix-o1", "--seed", "0", "--trace", "0",
                  "--expected", str(path))
    assert doc["failed"] > 0 and not doc["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mix-o1", "--trace", "0",
                script=copy / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""
