"""The benchmark's own tests: tiny runs of every workload, honest failure
accounting, and the missing-package exit.

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
_CACHE = {}


def tiny_run(workload, trace):
    """stdout lines and the parsed last line of one tiny run."""
    key = (workload, trace)
    if key not in _CACHE:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        _CACHE[key] = lines, json.loads(lines[-1])
    return _CACHE[key]


def test_declared_workloads_exist():
    # every workload runs on request; BENCHMARK.json declares those steady
    # enough for their bounds on the reference host (see README)
    declared = [w["name"] for w in SPEC["workloads"]]
    assert len(declared) >= 2 and set(declared) <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == DECLARED[trace]
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), name
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)


def test_deep_chains_makes_no_lp_solves():
    _, result = tiny_run("deep_chains", 1)
    assert result["metrics"]["simplex.solves"]["value"] == 0
    assert result["metrics"]["transfinite.iterate_calls"]["value"] > 0


def test_cap_failures_are_counted_not_skipped():
    lines, result = tiny_run("deep_chains", 0)
    # the tiny ladder is 3, 5, 64: one depth at or past the stage cap
    assert result["attempted"] % 3 == 0
    assert result["failed"] == result["attempted"] // 3
    assert result["correct"] is True  # a reported cap is not a wrong answer
    assert any("capped" in line for line in lines)


def test_wrong_reference_lands_in_failed(tmp_path):
    mods, cycles = run.setup("deep_chains", 3, 1, True, tmp_path)
    cycle = cycles[0]
    cycle[0].want_norm += 1
    out = run.Outcomes()
    out.run(cycle)
    kinds = {f["item"]: f["kind"] for f in out.failures}
    assert kinds == {"d3": "mismatch", "d64": "capped"}
    assert out.attempted == 3 and not out.correct


def test_crash_lands_in_failed(tmp_path):
    mods, cycles = run.setup("basis_identities", 3, 1, True, tmp_path)
    cycle = cycles[0]
    cycle[1].text = "{"
    out = run.Outcomes()
    out.run(cycle)
    assert [f["kind"] for f in out.failures] == ["error"]
    assert not out.correct


def test_tail_percentile():
    xs = [float(i) for i in range(1, 101)]
    value, percentile, n = run.tail(xs)
    assert (percentile, n) == (90.0, 100)
    assert value == pytest.approx(90.5, abs=1e-6)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 2)


def test_quantile_is_smooth_where_kinds_meet():
    # ten cheap and ten dear items: the median lies halfway between them,
    # not on whichever kind a single order statistic happens to pick
    assert run.quantile([1.0] * 10 + [3.0] * 10, 0.5) == pytest.approx(2.0, abs=1e-9)
    assert run.quantile([5.0], 0.5) == 5.0
    gaussian = sorted(random.Random(1).gauss(0, 1) for _ in range(2000))
    assert run.quantile(gaussian, 0.9) == pytest.approx(1.2816, abs=0.05)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "corpus_certify", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
