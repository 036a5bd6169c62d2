"""The benchmark's three workloads: inputs, timed operations and output gates.

Every operation is a closure over generated inputs: the seed picks the
random streams (and the scan seeds), the panels below are fixed.  ``run``
is the timed call into the program; ``check`` is the output gate, run
untimed, returning ``(name, passed)`` pairs; ``digest`` condenses the
program's output so a traced pass can be compared bit for bit with an
untraced one.  Layers are reached through module attributes
(``core.truncate``, ``devroye.ds_sample_batch``, ...) at call time, which
is what lets the tracer interpose without touching the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np
from scipy import stats as st

import trunclc.cli
from trunclc import core, devroye, diagnostics, families, reference

Z_MAX = 5.0          # |z| above this fails a mean test
ALPHA = 1e-6         # level of the KS and chi-square gates
ACCEPTANCE_K = 6.0   # standard errors allowed between acceptance and theory
KS_POINTS = 500      # subsample checked against TruncatedTarget.cdf

# ROADMAP item 3: invgauss is registered as log-concave but its log-density
# is convex beyond 2*lambda/3, so the sampler returns biased values without
# a flag.  Checks on this target are expected to fail until that is fixed
# (the z-test always does; the KS test on 500 values about half the time).
# They still run every pass, and each run prints and records how often they
# failed, but they are counted apart from ``attempted`` and ``failed`` and
# do not make the run incorrect.  Any other check on this target, the traced
# identity gate included, is gated as usual.
KNOWN_DEFECTS = frozenset(
    f"validate:invgauss(mu=1,lambda=0.3)]0.5,inf[:{check}" for check in ("ztest", "ks"))

CONTINUOUS, DISCRETE, CLI = "continuous", "discrete", "cli"

BULK_PANEL = [
    ("normal", {}, 1.0),
    ("normal", {}, 30.0),
    ("gamma", {"alpha": 2.0}, 5.0),
    ("epd", {"beta": 1.5}, 3.0),
    ("gamma", {"alpha": 0.5}, 0.5),  # shape < 1: the EPD route
    ("poisson", {"lambda": 50.0}, 50.0),
    ("binomial", {"n": 2048.0, "p": 0.27}, 553.0),
    ("nbinom", {"n": 10.0, "p": 0.5}, 900.0),
    ("geometric", {"p": 0.3}, 2000.0),
]

# the bulk panel plus two targets whose mass needs a fallback (tail sum,
# incomplete-gamma continued fraction) and the known invgauss defect
VALIDATE_PANEL = BULK_PANEL + [
    ("nbinom", {"n": 10.0, "p": 0.5}, 1000.0),
    ("gamma", {"alpha": 2.0}, 660.0),
    ("invgauss", {"mu": 1.0, "lambda": 0.3}, 0.5),
]
ITS_TARGETS = {"normal", "poisson"}  # shallow panel targets also checked through ITS

NORMAL_PROBES = np.arange(0.0, 51.0)
EXPONENTIAL_PROBES = np.arange(1.0, 1001.0)
SCAN_GRID = (
    [("normal", {}, NORMAL_PROBES, 1000, 38.0),
     ("gamma", {"alpha": 1.0, "lambda": 1.0}, EXPONENTIAL_PROBES, 500, 740.0)]
    + [("poisson", {"lambda": lam}, "auto", 500, None) for lam in (0.5, 5.0, 50.0, 500.0)]
    + [("binomial", {"n": n, "p": p}, "auto", 500, None)
       for n in (16.0, 256.0, 2048.0) for p in (0.05, 0.5)]
)

CLI_CALLS = [
    ("sample-plain",
     ["sample", "--dist", "normal", "--lower", "1"], 100_000),
    ("sample-csv",
     ["sample", "--dist", "binomial", "--param", "n=2048", "--param", "p=0.27",
      "--lower", "553", "--format", "csv"], 100_000),
    ("scan", ["scan", "--dist", "normal", "--probe", "0:50:1"], None),
    ("validate",
     ["validate", "ztest", "--dist", "gamma", "--param", "alpha=2",
      "--lower-grid", "1:5:1", "--z-threshold", str(Z_MAX)], 20_000),
]


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], bytes]


@dataclass
class Env:
    """What a pass needs besides its index: seed, size scale and hooks."""

    seed: int
    scale: float
    rng_stream: Callable = devroye.RngStream
    tracer: Optional[Any] = None

    def _seq(self, *key):
        return np.random.SeedSequence([self.seed, *key])

    def stream(self, *key):
        return self.rng_stream(_seq=self._seq(*key))

    def int_seed(self, *key) -> int:
        return int(self._seq(*key).generate_state(1)[0])

    def size(self, full: int, least: int) -> int:
        return max(least, int(full * self.scale))


def label(family, params, lower=None) -> str:
    ps = ",".join(f"{k}={v:g}" for k, v in params.items())
    return f"{family}({ps})" + ("" if lower is None else f"]{lower:g},inf[")


def kind_of(desc) -> str:
    return DISCRETE if desc.is_discrete else CONTINUOUS


def _target(family, params, lower):
    return core.truncate(families.build_descriptor(family, params), lower=lower)


def _values_digest(values) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest()


# ---------------------------------------------------------------------------
# statistical gates, shared by bulk, scan and validate

def ks_passes(target, values) -> bool:
    """KS test of the first KS_POINTS values against ``target.cdf``.

    For a discrete target the statistic is taken at each observed value and
    the integer below it, which is where the two step functions differ
    most; the continuous-law p-value is then conservative.
    """
    x = np.sort(np.asarray(values[:KS_POINTS], dtype=float))
    n = x.size
    if target.base.is_discrete:
        pts = np.unique(np.concatenate([x, x - 1.0]))
        cdf = np.atleast_1d(target.cdf(pts))
        d = float(np.max(np.abs(np.searchsorted(x, pts, side="right") / n - cdf)))
    else:
        cdf = np.atleast_1d(target.cdf(x))
        i = np.arange(1, n + 1)
        d = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    return st.kstwo.sf(d, n) >= ALPHA


def chi2_passes(target, values) -> bool:
    support = np.arange(values.min(), values.max() + 1.0)
    probs = np.exp(target.log_pdf(support))
    return diagnostics.chi_square_gof(values, support, probs, alpha=ALPHA).passed


def ztest_passes(target, batch) -> Optional[bool]:
    """Mean z-test against the truncated-mean oracle; None when no oracle exists."""
    try:
        oracle = diagnostics.truncated_mean_oracle(target.base, target.interval.lower)
    except diagnostics.OracleUnavailable:
        return None
    return diagnostics.z_test_mean(batch, oracle, threshold=Z_MAX).passed


# ---------------------------------------------------------------------------
# bulk: large batches over a fixed panel, then the same kind of work through
# the command line

BULK_N = 500_000


def bulk_ops(env: Env, p: int) -> list[Op]:
    n = env.size(BULK_N, 2_000)
    ops = []
    for i, (family, params, lower) in enumerate(BULK_PANEL):
        def run(family=family, params=params, lower=lower, i=i):
            t = _target(family, params, lower)
            return t, devroye.ds_sample_batch(t, n, env.stream(p, i))

        def check(result):
            t, batch = result
            theory = acceptance_theory(t)
            se = math.sqrt(theory * (1.0 - theory) / batch.proposals)
            out = [
                ("imputed", batch.n_imputed == 0),
                ("in_interval", bool(t.interval.contains(batch.values).all())),
                ("acceptance", abs(batch.acceptance_rate - theory) <= ACCEPTANCE_K * se),
                ("ks", ks_passes(t, batch.values)),
            ]
            z = ztest_passes(t, batch)
            if z is not None:
                out.append(("ztest", z))
            return out

        desc = families.build_descriptor(family, params)
        ops.append(Op(label(family, params, lower), kind_of(desc), run, check,
                      lambda r: _values_digest(r[1].values)))
    return ops + cli_ops(env, p)


def acceptance_theory(t) -> float:
    """1/4 (continuous), 1/(4 + f_I(m)) (discrete), 1/4 * P(I) on the EPD route."""
    if families.exception_route(t.base) is not None:
        return 0.25 * math.exp(t.log_mass)
    if t.base.is_discrete:
        return 1.0 / (4.0 + math.exp(min(t.log_peak, 0.0)))
    return 0.25


# ---------------------------------------------------------------------------
# scan: safety scans over four grids

def scan_ops(env: Env, p: int) -> list[Op]:
    ops = []
    for i, (family, params, probes, n_probe, eta_min) in enumerate(SCAN_GRID):
        n_probe = env.size(n_probe, 50)

        def run(family=family, params=params, probes=probes, n_probe=n_probe, i=i):
            return diagnostics.scan_safety(
                family, [params], probe_schedule=probes, method="both",
                n_probe=n_probe, seed=env.int_seed(p, i))

        def check(report, family=family, params=params, n_probe=n_probe,
                  eta_min=eta_min, i=i):
            out = [("endpoint_violations", not report.endpoint_violations())]
            if eta_min is not None:
                cell = report.rows[0]
                out.append(("eta_prime", cell.eta_prime >= eta_min))
                # the deepest depth the scan calls clean must also be right
                t = _target(family, params, cell.a_bar_prime)
                # a plain stream: in a traced pass the gate must record no spans
                batch = devroye.ds_sample_batch(
                    t, n_probe, devroye.RngStream(_seq=env._seq(p, i, 1)))
                if family == "normal":
                    out.append(("depth_ztest", ztest_passes(t, batch)))
                else:
                    # exponential: the excess over a is exactly exponential
                    excess = (batch.values - cell.a_bar_prime) * params["lambda"]
                    out.append(("depth_memoryless", st.kstest(excess, "expon").pvalue >= ALPHA))
            return out

        def digest(report):
            cells = [(c.a_bar, c.a_bar_prime, c.a_bar_dprime) for c in report.rows]
            return repr(cells).encode()

        desc = families.build_descriptor(family, params)
        ops.append(Op(label(family, params), kind_of(desc), run, check, digest))
    return ops


# ---------------------------------------------------------------------------
# validate: the self-check path, one operation per target

def validate_ops(env: Env, p: int) -> list[Op]:
    n = env.size(100_000, 2_000)
    ops = []
    for i, (family, params, lower) in enumerate(VALIDATE_PANEL):
        name = label(family, params, lower)

        def run(family=family, params=params, lower=lower, i=i):
            t = _target(family, params, lower)
            try:
                batch = devroye.ds_sample_batch(t, n, env.stream(p, i))
            except (core.DegenerateTargetError, core.SamplingBreakdownError):
                return None, [("refused", True)]
            if batch.n_imputed:
                return batch.values, [("flagged", True)]
            values = batch.values
            out = [("ks", ks_passes(t, values))]
            z = ztest_passes(t, batch)
            if z is not None:
                out.append(("ztest", z))
            if t.base.is_discrete and family != "geometric":
                out.append(("chi2", chi2_passes(t, values)))
            if family == "normal" and lower >= 30.0:
                qq = diagnostics.exp_tail_qq(batch, lower)
                out.append(("exp_tail_qq", st.kstwo.sf(qq.ks_statistic, qq.n) >= ALPHA))
            if family == "geometric":
                res = diagnostics.memorylessness_check(
                    params["p"], int(lower), n, env.stream(p, i, 1), alpha=ALPHA)
                out.append(("memoryless", res.passed))
            if family in ITS_TARGETS and z is not None and lower < 30.0:
                try:
                    its = reference.its_sample_batch(t, n, env.stream(p, i, 2),
                                                     devroye.ImputationPolicy("error"))
                    out.append(("its_ztest", ztest_passes(t, its)))
                except core.TruncationOverflow:
                    out.append(("its_refused", True))
            return values, out

        ops.append(Op(name, kind_of(families.build_descriptor(family, params)), run,
                      lambda r: r[1],
                      lambda r: b"" if r[0] is None else _values_digest(r[0])))
    return ops


# ---------------------------------------------------------------------------
# the command-line entry point, in process (part of bulk)

def cli_ops(env: Env, p: int) -> list[Op]:
    ops = []
    for i, (name, argv, n) in enumerate(CLI_CALLS):
        # seeded by the call's place in a bulk pass, after the panel's batches
        argv = argv + ["--seed", str(env.int_seed(p, len(BULK_PANEL) + i))]
        if n is not None:
            argv += ["--n", str(env.size(n, 1_000))]

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = trunclc.cli.main(argv)
            text = out.getvalue()
            if env.tracer is not None:
                env.tracer.bytes_out += len(text)
            return code, text

        def check(result, name=name, argv=argv):
            code, text = result
            return [("exit_code", code == 0),
                    ("complete_output", cli_output_complete(name, argv, text))]

        ops.append(Op(f"cli {name}", CLI, run, check,
                      lambda r: hashlib.sha256(r[1].encode()).digest()))
    return ops


def cli_output_complete(name: str, argv: list, stdout: str) -> bool:
    lines = stdout.splitlines()
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    try:
        if name == "sample-plain":
            values = np.array(lines, dtype=float)
            return values.size == n and bool(np.all(values > 1.0))
        if name == "sample-csv":
            rows = lines[1:-1]
            values = np.array([r.split(",")[0] for r in rows], dtype=float)
            return (lines[0] == "value,imputed" and lines[-1].startswith("# proposals=")
                    and values.size == n and bool(np.all(values > 553.0))
                    and all(r.endswith(",false") for r in rows))
        if name == "scan":
            header, row = lines[0].split(","), lines[1].split(",")
            return len(lines) == 2 and float(row[header.index("eta_prime")]) >= 38.0
        if name == "validate":
            header = lines[0].split(",")
            verdicts = [r.split(",")[header.index("verdict")] for r in lines[1:]]
            return len(verdicts) == 5 and all(v == "pass" for v in verdicts)
    except (ValueError, IndexError):
        return False
    raise ValueError(f"unknown CLI call {name!r}")


WORKLOADS = {"bulk": bulk_ops, "scan": scan_ops, "validate": validate_ops}


def build(workload: str, scale: float = 1.0):
    """What the workload sets up before its first operation (timed as setup_s)."""
    if workload == "bulk":
        return [_target(*spec) for spec in BULK_PANEL], trunclc.cli.build_parser()
    if workload == "validate":
        return [_target(*spec) for spec in VALIDATE_PANEL]
    if workload == "scan":
        return [families.build_descriptor(f, params) for f, params, *_ in SCAN_GRID]
    raise ValueError(f"unknown workload {workload!r}")
