"""Command-line surface: sampling, safety scanning, and validation.

All commands are deterministic given ``--seed`` (or the ``TRUNCLC_SEED``
environment variable) and emit machine-readable output: CSV with a header
row, JSON with one top-level object carrying ``meta`` and ``rows`` (both
written by :func:`~trunclc.diagnostics.format_table`), or plain values one
per line.  Numbers are printed in shortest round-trip decimal form.

Grammar: ``trunclc sample|scan FLAGS`` and ``trunclc validate TEST FLAGS``.
Each validate test (``ztest``, ``qq``, ``memoryless``) is a subcommand that
takes only the flags it reads, and its flags follow the test name:
``trunclc validate qq --dist normal --lower 3``.  The parser refuses any
other flag, so no flag is accepted and then ignored.

Exit codes: 0 clean, 1 runtime failure or failed validation verdict,
2 sampling completed but some variates were imputed, 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np
from scipy import special as sc

from .core import DegenerateTargetError, TruncationOverflow, truncate
from .devroye import ImputationPolicy, RngStream, ds_sample_batch
from .diagnostics import (
    OracleUnavailable,
    exp_tail_qq,
    format_table,
    memorylessness_check,
    scan_safety,
    truncated_mean_oracle,
    z_test_mean,
)
from .families import ParameterError, UnknownFamilyError, build_descriptor
from .reference import hit_or_miss_batch, its_sample_batch

USAGE_EXIT = 64
MAX_LATTICE = 1 << 20  # most points of a --probe or --lower-grid lattice

_IMPUTE_MODES = {"mode": "impute_mode", "error": "error", "inf": "impute_infinite"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _fmt(v: float, discrete: bool = False) -> str:
    if discrete and math.isfinite(v) and v == math.floor(v):
        return str(int(v))
    return repr(float(v))


def _fmt_all(values: np.ndarray, discrete: bool) -> list[str]:
    """``_fmt`` of each of ``values``.

    A discrete batch's finite integral values below 2^63 in magnitude go
    through one int64 cast and ``str``, which writes the same bytes in
    under half the time; every other value goes through ``_fmt``.
    """
    if not discrete:
        return [_fmt(v) for v in values.tolist()]
    bulk = np.isfinite(values) & (values == np.floor(values)) & (np.abs(values) < 2.0**63)
    out = list(map(str, np.where(bulk, values, 0.0).astype(np.int64).tolist()))
    for i in np.flatnonzero(~bulk).tolist():
        out[i] = _fmt(float(values[i]), True)
    return out


def _number(flag: str, text: str, kind=float):
    """``kind(text)``; a malformed field is a usage error naming ``flag``."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{flag}: {text!r} is not a valid {kind.__name__}") from None


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ParameterError(f"--param expects name=value, got {item!r}")
        k, _, v = item.partition("=")
        params[k] = _number(f"--param {k}", v)
    return params


def _parse_axis(spec: str):
    # name=start:stop:count:{linear|log|logit}
    name, _, rest = spec.partition("=")
    parts = rest.split(":")
    if not name or len(parts) != 4:
        raise ParameterError(
            f"--grid expects name=start:stop:count:scale, got {spec!r}"
        )
    start, stop, count = (_number("--grid", f, k) for f, k in zip(parts, (float, float, int)))
    if count < 1:
        raise ParameterError(f"--grid count must be >= 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParameterError(f"--grid axis ends must be finite, got {spec!r}")
    scale = parts[3]
    if scale == "linear":
        vals = np.linspace(start, stop, count)
    elif scale == "log":
        if not (start > 0.0 and stop > 0.0):
            raise ParameterError(f"--grid log axis ends must be > 0, got {spec!r}")
        vals = np.geomspace(start, stop, count)
    elif scale == "logit":
        if not (0.0 < start < 1.0 and 0.0 < stop < 1.0):
            raise ParameterError(f"--grid logit axis ends must lie in (0, 1), got {spec!r}")
        vals = sc.expit(np.linspace(sc.logit(start), sc.logit(stop), count))
    else:
        raise ParameterError(f"--grid scale must be linear, log or logit, got {scale!r}")
    return name, vals.tolist()


def _parse_probe(spec: str):
    if spec in ("auto", "geometric-progression"):
        return "auto" if spec == "auto" else "geometric"
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "linear"):
        raise ParameterError(
            f"--probe expects start:stop:step[:linear], auto, or geometric-progression; got {spec!r}"
        )
    return _lattice("--probe", parts[:3])


def _lattice(flag: str, fields) -> np.ndarray:
    """``start, start + step, ...`` up to ``stop`` inclusive, for a ``flag`` spec."""
    start, stop, step = (_number(flag, f) for f in fields)
    if not step > 0.0:
        raise ParameterError(f"{flag} step must be > 0, got {step!r}")
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ParameterError(f"{flag} values must be finite, got {':'.join(fields)!r}")
    if not start <= stop:
        raise ParameterError(f"{flag} stop must be >= start, got {':'.join(fields)!r}")
    # np.arange's point count, checked before it allocates
    if not (stop + 0.5 * step - start) / step <= MAX_LATTICE:
        raise ParameterError(
            f"{flag} lattice {':'.join(fields)!r} has more than {MAX_LATTICE} points")
    points = np.arange(start, stop + 0.5 * step, step)
    if np.any(np.diff(points) <= 0.0):
        raise ParameterError(
            f"{flag} step {step!r} is below the spacing of doubles in {':'.join(fields)!r}")
    return points


def _finite(text: str) -> float:
    """``float(text)``; argparse refuses a value that is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> _Parser:
    shared = _Parser(add_help=False)  # every command
    shared.add_argument("--dist", required=True)
    shared.add_argument("--param", action="append", metavar="NAME=VALUE")
    shared.add_argument("--seed", type=int, default=None)
    table = _Parser(add_help=False, parents=[shared])  # commands that write a table
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    check = _Parser(add_help=False, parents=[table])  # each validate test
    check.add_argument("--n", type=int, default=100_000)

    parser = _Parser(prog="trunclc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", parents=[shared], help="generate truncated variates")
    p_sample.add_argument("--lower", type=float, default=-math.inf)
    p_sample.add_argument("--upper", type=float, default=math.inf)
    p_sample.add_argument("--n", type=int, default=1)
    p_sample.add_argument("--method", choices=["devroye", "its", "hitormiss"],
                          default="devroye")
    p_sample.add_argument("--impute", choices=["mode", "error", "inf"], default="error")
    p_sample.add_argument("--format", choices=["csv", "json", "plain"], default="plain")
    p_sample.set_defaults(run=cmd_sample)

    p_scan = sub.add_parser("scan", parents=[table], help="map sampler breakdown depths")
    p_scan.add_argument("--grid", action="append", metavar="NAME=START:STOP:COUNT:SCALE")
    p_scan.add_argument("--probe", default="auto")
    p_scan.add_argument("--method", choices=["its", "devroye", "both"], default="both")
    p_scan.add_argument("--n-probe", type=int, default=1000)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(run=cmd_scan)

    p_val = sub.add_parser("validate", help="statistical validation of sampler output")
    p_val.set_defaults(run=cmd_validate)
    tests = p_val.add_subparsers(dest="test", required=True)
    p_z = tests.add_parser("ztest", parents=[check], help="sample mean against the oracle")
    lowers = p_z.add_mutually_exclusive_group(required=True)
    lowers.add_argument("--lower", type=_finite)
    lowers.add_argument("--lower-grid", metavar="START:STOP:STEP")
    p_z.add_argument("--method", choices=["devroye", "its"], default="devroye")
    p_z.add_argument("--z-threshold", type=float, default=3.5)
    for name, text in (("qq", "tail excess against the exponential(lower)"),
                       ("memoryless", "geometric lack of memory")):
        p_test = tests.add_parser(name, parents=[check], help=text)
        p_test.add_argument("--lower", type=_finite, required=True)
    return parser


def cmd_sample(args) -> int:
    if not args.lower < args.upper:
        raise ParameterError(f"--lower must be < --upper, got {args.lower!r} and {args.upper!r}")
    params = _parse_params(args.param)
    desc = build_descriptor(args.dist, params)
    target = truncate(desc, lower=args.lower, upper=args.upper)
    policy = ImputationPolicy(mode=_IMPUTE_MODES[args.impute])
    rng = RngStream(args.seed)
    # looked up at each call: perfbench's tracer swaps the module's samplers
    sampler = {"devroye": ds_sample_batch, "its": its_sample_batch,
               "hitormiss": hit_or_miss_batch}[args.method]
    batch = sampler(target, args.n, rng, policy)
    disc = desc.is_discrete
    rate = batch.acceptance_rate
    stats = (f"proposals={batch.proposals} accepts={batch.accepts} "
             f"acceptance_rate={_fmt(rate)}")
    if args.format == "plain":
        # one write for the whole batch: a print per value costs more than
        # formatting it
        sys.stdout.write("\n".join(_fmt_all(batch.values, disc)) + "\n")
        print(stats, file=sys.stderr)
    elif args.format == "csv":
        rows = "".join(f"{v},{'true' if f else 'false'}\n"
                       for v, f in zip(_fmt_all(batch.values, disc), batch.imputed.tolist()))
        sys.stdout.write(f"value,imputed\n{rows}# {stats}\n")
    else:
        rows = [{"value": (int(v) if disc and math.isfinite(v) else v), "imputed": f}
                for v, f in zip(batch.values.tolist(), batch.imputed.tolist())]
        sys.stdout.write(format_table("json", None, rows, meta={
            "family": args.dist, "params": params,
            "lower": args.lower, "upper": args.upper,
            "method": args.method, "seed": args.seed, "n": args.n,
            "proposals": batch.proposals, "accepts": batch.accepts,
            "acceptance_rate": None if math.isnan(rate) else rate,
        }))
    return 2 if batch.imputed.any() else 0


def cmd_scan(args) -> int:
    params = _parse_params(args.param)
    grid = None
    if args.grid:
        axes = dict(map(_parse_axis, args.grid))
        if len(axes) < len(args.grid):
            raise ParameterError("--grid names an axis more than once")
        grid = [{**params, **dict(zip(axes, combo))}
                for combo in itertools.product(*axes.values())]
    elif params:
        grid = [params]
    report = scan_safety(
        args.dist, param_grid=grid, probe_schedule=_parse_probe(args.probe),
        method=args.method, n_probe=args.n_probe, seed=args.seed,
    )
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _ztest_rows(args, desc, lowers):
    rows = []
    streams = RngStream(args.seed).spawn(len(lowers))
    for a, stream in zip(lowers, streams):
        row = {
            "test": "ztest", "family": args.dist,
            "params": ";".join(f"{k}={_fmt(v)}" for k, v in desc.params.items()),
            "lower": a, "n": args.n,
        }
        try:
            oracle = truncated_mean_oracle(desc, a)
            target = truncate(desc, lower=a)
            if args.method == "devroye":
                batch = ds_sample_batch(target, args.n, stream)
            else:
                batch = its_sample_batch(target, args.n, stream,
                                         ImputationPolicy("error"))
            if (~batch.imputed).sum() < 2:
                row["verdict"] = "degenerate_target"
            else:
                res = z_test_mean(batch, oracle, threshold=args.z_threshold)
                row.update(res.to_dict())
        except (OracleUnavailable, DegenerateTargetError):
            row["verdict"] = "oracle_unavailable"
        except TruncationOverflow:
            row["verdict"] = "fail"
        rows.append(row)
    return rows


_ZTEST_COLUMNS = ["test", "family", "params", "lower", "n", "n_imputed",
                  "sample_mean", "sample_sd", "oracle_mean", "z", "threshold",
                  "verdict"]


def cmd_validate(args) -> int:
    desc = build_descriptor(args.dist, _parse_params(args.param))
    if args.test == "ztest":
        lowers = [args.lower]
        if args.lower_grid is not None:
            parts = args.lower_grid.split(":")
            if len(parts) != 3:
                raise ParameterError(f"--lower-grid expects start:stop:step, got {args.lower_grid!r}")
            lowers = list(_lattice("--lower-grid", parts))
        rows = _ztest_rows(args, desc, lowers)
        sys.stdout.write(format_table(args.format, _ZTEST_COLUMNS, rows, meta={
            "test": "ztest", "family": args.dist, "seed": args.seed,
            "z_threshold": args.z_threshold,
        }))
        n_fail = sum(r["verdict"] == "fail" for r in rows)
        n_excl = sum(r["verdict"] in ("oracle_unavailable", "degenerate_target")
                     for r in rows)
        print(f"cells={len(rows)} failed={n_fail} excluded={n_excl}",
              file=sys.stderr)
        return 1 if n_fail else 0
    if args.test == "qq":
        if not 0.0 < args.lower < math.inf:
            raise ParameterError(f"qq requires 0 < --lower < inf, got {args.lower!r}")
        target = truncate(desc, lower=args.lower)
        batch = ds_sample_batch(target, args.n, RngStream(args.seed))
        qq = exp_tail_qq(batch, args.lower)
        rows = [{"test": "qq", "p": p, "empirical": e, "theoretical": t}
                for p, e, t in zip(qq.percentiles, qq.empirical, qq.theoretical)]
        sys.stdout.write(format_table(args.format, list(rows[0]), rows, meta={
            "test": "qq", "family": args.dist, "lower": args.lower,
            "n": qq.n, "seed": args.seed, "ks_statistic": qq.ks_statistic}))
        if args.format == "csv":
            print(f"# ks_statistic={_fmt(qq.ks_statistic)} n={qq.n}")
        return 0
    # memoryless
    if args.dist != "geometric":
        raise ParameterError("memoryless test is defined for the geometric family")
    res = memorylessness_check(desc.params["p"], args.lower, args.n,
                               RngStream(args.seed))
    rows = [{
        "test": "memoryless", "family": args.dist,
        "params": f"p={_fmt(desc.params['p'])}", "lower": args.lower,
        "n": res.n, "statistic": res.statistic, "df": res.df,
        "critical": res.critical, "alpha": res.alpha,
        "verdict": "pass" if res.passed else "fail",
    }]
    sys.stdout.write(format_table(args.format, list(rows[0]), rows,
                                  meta={"test": "memoryless", "seed": args.seed}))
    return 0 if res.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        source = "--seed"
        if args.seed is None:
            source = "TRUNCLC_SEED"
            args.seed = _number(source, os.environ.get(source, "0"), int)
        if args.seed < 0:
            raise ParameterError(f"{source} must be >= 0, got {args.seed}")
        for flag in ("--n", "--n-probe"):
            size = getattr(args, flag[2:].replace("-", "_"), 1)
            if size < 1:
                raise ParameterError(f"{flag} must be >= 1, got {size}")
        return args.run(args)
    except (UnknownFamilyError, ParameterError) as exc:
        print(f"trunclc: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"trunclc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
