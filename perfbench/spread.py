"""Run-to-run spread of the benchmark, and the baseline file.

    python3 perfbench/spread.py --workload bulk --runs 10
    python3 perfbench/spread.py --baseline perfbench/results/baseline.json

The first form runs ``run.py`` untraced for ``run_seconds`` (from
BENCHMARK.json) once for each seed 1..runs and prints, for each metric,
the median, the quartiles and the spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound in BENCHMARK.json.  The second collects every record in
``perfbench/out/`` into one baseline file: per workload and metric the ten
values, their median and spread, plus the traced per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def run_seeds(workload: str, runs: int) -> dict:
    values = defaultdict(list)
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    return values


def report(values: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for name, vs in values.items():
        if len(vs) < 2:
            print(f"{name:32s} {vs[0]:.6g}")
            continue
        s = spread(vs)
        print(f"{name:32s} median {s['median']:.6g}  spread {s['spread']:.3f}"
              f"  bound {bounds.get(name)}")


def baseline(path: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run

    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*-trace*.json"))]
    records = [rec for rec in records if rec["scale"] == 1.0]  # not the tests' small runs
    out = {"benchmark": {k: SPEC[k] for k in ("command", "run_seconds")}, "workloads": {}}
    for rec in records:
        w = out["workloads"].setdefault(rec["workload"], {"runs": [], "metrics": defaultdict(list)})
        w["env"] = rec["env"]
        w["runs"].append({"seed": rec["seed"], "trace": rec["trace"],
                          "attempted": rec["checks"]["attempted"],
                          "failed": rec["checks"]["failed"], "correct": rec["correct"]})
        derived = {k: {"value": v} for k, (v, _) in run.derived(rec).items()}
        for name, m in {**rec["metrics"], **derived}.items():
            w["metrics"][name].append(m["value"])
    for w in out["workloads"].values():
        w["metrics"] = {name: {"values": vs, **(spread(vs) if len(vs) > 1 else {})}
                        for name, vs in w["metrics"].items()}
    path.write_text(json.dumps(out, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    if args.baseline:
        baseline(args.baseline)
        return 0
    report(run_seeds(args.workload, args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
