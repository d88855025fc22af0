"""Smoke test of the benchmark: every workload, both modes, a few requests each.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Each run keeps two inputs of its pool (``--smoke``). It must pass the
correctness gate, exit 0 and end with the result line, whose metrics are
exactly the ones BENCHMARK.json lists, with the units it lists.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=REPO, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("details: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("details: "):])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_match_spec(workload, trace):
    result, details = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    env = details["environment"]
    assert env["nproc"] >= 1 and env["src_lines"] > 0
    assert len(env["input_digest"][workload]) == 64


def test_inputs_depend_on_the_seed_only():
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        assert workload(7).digest() == workload(7).digest()
        assert workload(7).digest() != workload(8).digest()
