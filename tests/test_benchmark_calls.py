"""The benchmark's operations still run, and pass their output gates.

``perfbench/workloads.py`` reaches into the package by name
(``families.exception_route``, ``diagnostics.OracleUnavailable``, ...).
This builds every bulk, scan and validate operation at a thousandth of its
size, runs each once and checks its gates, so a change that drops a name
the benchmark calls, or breaks an output it gates, fails next to the
package's own tests.  The checks ``workloads.KNOWN_DEFECTS`` names are
expected to fail and are left out, as the benchmark leaves them out.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_gate_passes(workload):
    env = workloads.Env(seed=1, scale=0.001)
    failed = []
    for op in workloads.WORKLOADS[workload](env, 0):
        for check, ok in op.check(op.run()):
            name = f"{workload}:{op.name}:{check}"
            if not ok and name not in workloads.KNOWN_DEFECTS:
                failed.append(name)
    assert failed == []
