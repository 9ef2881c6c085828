"""The benchmark's own tests, at tiny input sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from child import run_pass  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_neutral_and_self_times_add_up(workload, tmp_path):
    w = WORKLOADS[workload]
    prepared = w.prepare(w.sizes["tiny"], 3, tmp_path)
    calls = [{"argv": list(c.argv), "csv": c.csv} for c in prepared.calls]
    plain = run_pass(calls)
    tracer = Tracer()
    traced = [run_pass(calls, tracer) for _ in range(2)]
    for rec in traced:
        assert [(o["stdout"], o["csv"]) for o in rec["outputs"]] == [
            (o["stdout"], o["csv"]) for o in plain["outputs"]
        ]
        assert all(o["code"] == 0 for o in rec["outputs"])
        layers = rec["layers"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) + layers["trace.unattributed_s"]
        assert total == pytest.approx(rec["wall_s"], rel=1e-9, abs=1e-9)
        assert 0 <= layers["trace.unattributed_s"] < 0.05 * rec["wall_s"]
    counts = [{k: v for k, v in rec["layers"].items() if not k.endswith("_s")} for rec in traced]
    assert counts[0] == counts[1]
    assert (plain["verdicts"], plain["rows"]) == (traced[0]["verdicts"], traced[0]["rows"])


def test_tracer_restores_every_binding():
    import cit.harness
    import cit.testers

    before = (cit.testers.binary_bin_statistics, cit.harness.make_instance, cit.harness._run_cell)
    with Tracer():
        assert cit.harness.make_instance is not before[1]
    assert (cit.testers.binary_bin_statistics, cit.harness.make_instance,
            cit.harness._run_cell) == before


def test_layer_attribution_on_minm():
    w = WORKLOADS["minm_binary"]
    prepared = w.prepare(w.sizes["tiny"], 3, Path("."))
    rec = run_pass([{"argv": list(c.argv), "csv": None} for c in prepared.calls], Tracer())
    layers = rec["layers"]
    assert layers["flattening.calls"] == layers["poly_estimator.calls"] == 0
    assert layers["harness.probes"] == layers["testers.calibrate.calls"] >= 1
    assert layers["testers.calls"] == layers["testers.kernel.calls"] == rec["verdicts"]
    assert 0 < layers["instances.distinct_frac"] < 1


def test_exits_without_result_when_sources_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("minm_binary", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
