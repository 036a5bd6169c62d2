"""Benchmark of the trunclc package: one workload per run.

    python3 perfbench/run.py --workload {bulk,scan,validate} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  The run sets up (timed in fresh
interpreters), then makes as many whole passes over the workload's
operations as fit in ``--seconds`` (at least one), as a closed loop on one
thread.  Every output passes through the workload's gates.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same inputs, checks that both give the
same variates bit for bit, and prints the per-layer metrics with the
tracing overhead.  Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and a full record,
environment included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 3


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile from the median up with ten samples above it.

    Returns ``(percentile, value, samples above)``.  With fewer than about
    twenty samples no percentile above the median qualifies and the median
    is returned as the tail.
    """
    xs = sorted(samples)
    if len(xs) > 10:
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for pct in range(99, 50, -1):
            above = sum(x > cuts[pct - 1] for x in xs)
            if above >= 10:
                return pct, cuts[pct - 1], above
    med = statistics.median(xs)
    return 50, med, sum(x > med for x in xs)


def measure_setup(workload: str, scale: float) -> dict:
    """Set-up timing from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(scale)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


class Pass:
    """Timings, gate verdicts and output digests of one pass."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.kinds: dict[str, str] = {}
        self.checks: list[tuple[str, bool]] = []
        self.digests: dict[str, bytes] = {}


def run_pass(workloads, name: str, env, p: int, tracer=None) -> Pass:
    """One pass; with a tracer, spans cover each ``op.run()`` and not the gates."""
    import tracing

    res = Pass()
    for op in workloads.WORKLOADS[name](env, p):
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = op.run()
            res.times[op.name] = time.perf_counter() - t0
        res.kinds[op.name] = op.kind
        res.digests[op.name] = op.digest(out)
        res.checks += [(f"{name}:{op.name}:{check}", ok) for check, ok in op.check(out)]
    return res


def end_to_end(passes: list[Pass], setup: list[dict]) -> tuple[dict, dict]:
    per_op = defaultdict(list)
    for ps in passes:
        for op, t in ps.times.items():
            per_op[op].append(t)
    pass_s = [sum(ps.times.values()) for ps in passes]
    all_times = [t for ts in per_op.values() for t in ts]
    pct, tail, above = tail_percentile(all_times)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (1e3 * statistics.median(all_times), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
    }
    detail = {"passes": len(passes), "ops": len(all_times), "op_kinds": passes[0].kinds,
              "pass_s": pass_s,
              "tail_percentile": pct, "tail_samples_above": above,
              "op_times_s": dict(per_op)}
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    env = workloads.Env(seed=seed, scale=scale)
    start = time.perf_counter()
    deadline = start + seconds
    setup = []

    def probe_setup():
        # spread over the run so that one slow spell of a shared machine
        # does not set the median; the probe's own time is not measuring time
        nonlocal deadline
        t0 = time.perf_counter()
        setup.append(measure_setup(name, scale))
        deadline += time.perf_counter() - t0

    probe_setup()
    passes, traced_passes = [], []
    tracer = tracing.Tracer() if trace else None
    traced_env = None
    if trace:
        traced_env = workloads.Env(seed=seed, scale=scale,
                                   rng_stream=tracer.rng_stream, tracer=tracer)
    p = 0
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(workloads, name, env, p))
        if trace:
            traced_passes.append(run_pass(workloads, name, traced_env, p, tracer))
        p += 1
        last = time.perf_counter() - t_pass
        if len(setup) < SETUP_RUNS and time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            probe_setup()
        # only whole passes, and only those expected to end by the deadline
        if time.perf_counter() + last > deadline:
            break
    while len(setup) < SETUP_RUNS:
        probe_setup()

    checks = [c for ps in passes + traced_passes for c in ps.checks]
    if trace:
        checks += [(f"{name}:{op}:traced_identical", ps.digests[op] == pt.digests[op])
                   for ps, pt in zip(passes, traced_passes) for op in ps.digests]
    # a known defect's checks are tallied apart: they fail on a share of the
    # passes that depends on the seed and the pass count, so they would make
    # ``failed`` differ between runs of the same code
    gated = [(c, ok) for c, ok in checks if c not in workloads.KNOWN_DEFECTS]
    failures = [c for c, ok in gated if not ok]
    known = {c: {"run": 0, "failed": 0} for c, _ in checks if c in workloads.KNOWN_DEFECTS}
    for c, ok in checks:
        if c in known:
            known[c]["run"] += 1
            known[c]["failed"] += not ok
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "env": {**environment(seed), "tracing_overhead_pct": None},
        "setup_runs": setup,
        "checks": {"attempted": len(gated), "failed": len(failures),
                   "failures": failures, "known_defects": known},
    }
    if trace:
        summary = tracer.summary()
        untraced = sum(sum(ps.times.values()) for ps in passes)
        traced = sum(sum(ps.times.values()) for ps in traced_passes)
        overhead = 100.0 * (traced / untraced - 1.0)
        metrics = tracing.layer_metrics(summary, len(traced_passes))
        metrics["cli.import_s"] = (statistics.median(r["import_s"] for r in setup), "s")
        metrics["trace.overhead_pct"] = (overhead, "%")
        record["env"]["tracing_overhead_pct"] = overhead
        record["span_summary"] = summary
        tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
    else:
        metrics, detail = end_to_end(passes, setup)
        record["detail"] = detail
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["correct"] = not failures
    return record


def derived(record: dict) -> dict:
    """The workload-specific names for the end-to-end figures, for reading."""
    import workloads

    m = {k: v["value"] for k, v in record["metrics"].items()}
    out = {}
    if "pass_s" not in m:
        return out
    w, detail = record["workload"], record["detail"]
    if w == "bulk":
        n = workloads.Env(record["seed"], record["scale"]).size(workloads.BULK_N, 2_000)
        for kind in (workloads.CONTINUOUS, workloads.DISCRETE):
            ops = [op for op, k in detail["op_kinds"].items() if k == kind]
            busy = sum(statistics.median(detail["op_times_s"][op]) for op in ops)
            out[f"{kind}_variates_per_s"] = (len(ops) * n / busy, "1/s")
        # a fresh-process call: the import in a new interpreter plus the call
        import_s = statistics.median(r["import_s"] for r in record["setup_runs"])
        calls = [t for op, k in detail["op_kinds"].items() if k == workloads.CLI
                 for t in detail["op_times_s"][op]]
        pct, tail, above = tail_percentile(calls)
        out["cli_call_p50_s"] = (import_s + statistics.median(calls), "s")
        out["cli_call_tail_s"] = (import_s + tail, "s")
        out["cli_call_tail_percentile"] = (pct, "%")
        out["cli_call_tail_calls_above"] = (above, "count")
    else:
        out[f"{w}_s"] = (m["pass_s"], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["bulk", "scan", "validate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor; below 1 only for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trunclc" / "__init__.py").is_file():
        print(f"perfbench: no trunclc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    record["derived"] = {k: {"value": v, "unit": u} for k, (v, u) in derived(record).items()}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['git_commit']}")
    for section in ("metrics", "derived"):
        for k, v in record[section].items():
            print(f"{k} {v['value']:.6g} {v['unit']}")
    for failure in record["checks"]["failures"]:
        print(f"# failed check: {failure}")
    for check, tally in record["checks"]["known_defects"].items():
        print(f"# known defect, not gated: {check} failed {tally['failed']} of {tally['run']}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["checks"]["attempted"],
        "failed": record["checks"]["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
