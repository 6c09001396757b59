"""Tests of the served-path benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs for about a second on two seeds that were never used
while the benchmark was tuned, the traced run is checked for complete
per-layer output, and the exact-output gate is shown to fail when one
collected output item has its low bit flipped.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Seeds kept out of every tuning run.
FRESH_SEEDS = (90017, 424243)


def bench(workload: str, seed: int, seconds: float, trace: int,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("seed", FRESH_SEEDS)
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_passes_gate_on_fresh_seed(workload, seed):
    completed = bench(workload, seed, 1, 0)
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    completed = bench(workload, FRESH_SEEDS[0], 2, 1)
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    # The layer rows plus `other` account for the measured time.
    assert abs(result["metrics"]["trace.other_share"]["value"]) <= 0.10
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert "other" in completed.stdout


def _flip_low_bit(pieces) -> int:
    """Flip the low bit of one item in the middle of collected output."""
    sizes = [piece.size for piece in pieces]
    target = sum(sizes) // 2
    offset = 0
    for piece in pieces:
        if offset + piece.size > target:
            piece.view("uint64")[target - offset] ^= 1
            return target
        offset += piece.size
    raise AssertionError("no output collected")


@pytest.mark.parametrize("workload", ["embed_initial_durable",
                                      "detect_bulk"])
def test_gate_fails_on_one_flipped_low_bit(workload, tmp_path):
    run.import_library()
    spec = run.WORKLOADS[workload]
    phase, _, _, _, _ = run.run_phase(spec, FRESH_SEEDS[1], 0.5, tmp_path,
                                      traced=False, setup_repeats=1)
    if phase.embed_outputs:
        pieces = phase.embed_outputs[0][2]
    else:
        pieces = phase.detect_results[0][2]
    pieces[:] = [piece.copy() for piece in pieces]
    index = _flip_low_bit(pieces)
    with pytest.raises(run.GateFailure, match=f"index {index}\\b"):
        run.check_phase(spec, FRESH_SEEDS[1], phase)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("embed_default", 1, 1, 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
