"""The benchmark's own tests: tiny-size smoke runs and trace transparency.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_unit(workload, trace, section):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    # the registered invgauss defect is tallied apart, so nothing gated fails
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_draws_identical_variates(workload):
    env = workloads.Env(seed=11, scale=0.01)
    plain = {op.name: op.digest(op.run()) for op in workloads.WORKLOADS[workload](env, 0)}
    tracer = tracing.Tracer()
    traced_env = workloads.Env(seed=11, scale=0.01, rng_stream=tracer.rng_stream, tracer=tracer)
    with tracing.installed(tracer):
        traced = {op.name: op.digest(op.run())
                  for op in workloads.WORKLOADS[workload](traced_env, 0)}
    assert traced == plain
    summary = tracer.summary()
    assert summary["calls"]["devroye.batch"] > 0 and summary["calls"]["devroye.rng"] > 0


def test_tracer_restores_module_attributes():
    from trunclc import core, diagnostics

    before = (core.truncate, diagnostics.ds_sample_batch, core.TruncatedTarget.cdf)
    with tracing.installed(tracing.Tracer()):
        assert diagnostics.ds_sample_batch is not before[1]
    assert (core.truncate, diagnostics.ds_sample_batch, core.TruncatedTarget.cdf) == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()  # inactive: records nothing
    with tracing.installed(tracer):
        outer()
    s = tracer.summary()
    assert {k: n for k, n in s["calls"].items() if n} == {"outer": 1, "inner": 2}
    assert s["self_s"]["outer"] == pytest.approx(s["total_s"]["outer"] - s["total_s"]["inner"])
