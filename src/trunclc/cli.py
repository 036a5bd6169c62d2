"""Command-line surface: sampling, safety scanning, and validation.

All commands are deterministic given ``--seed`` (or the ``TRUNCLC_SEED``
environment variable) and emit machine-readable output: CSV with a header
row, JSON with one top-level object carrying ``meta`` and ``rows``, or
plain values one per line.  Numbers are printed in shortest round-trip
decimal form.

Exit codes: 0 clean, 1 runtime failure or failed validation verdict,
2 sampling completed but some variates were imputed, 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
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
    memorylessness_check,
    scan_safety,
    truncated_mean_oracle,
    z_test_mean,
)
from .families import ParameterError, UnknownFamilyError, build_descriptor
from .reference import hit_or_miss_batch, its_sample_batch

USAGE_EXIT = 64

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


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ParameterError(f"--param expects name=value, got {item!r}")
        k, _, v = item.partition("=")
        try:
            params[k] = float(v)
        except ValueError:
            raise ParameterError(f"--param {k}: {v!r} is not a number") from None
    return params


def _parse_axis(spec: str):
    # name=start:stop:count:{linear|log|logit}
    name, _, rest = spec.partition("=")
    parts = rest.split(":")
    if not name or len(parts) != 4:
        raise ParameterError(
            f"--grid expects name=start:stop:count:scale, got {spec!r}"
        )
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3]
    if scale == "linear":
        vals = np.linspace(start, stop, count)
    elif scale == "log":
        vals = np.geomspace(start, stop, count)
    elif scale == "logit":
        lo, hi = sc.logit(start), sc.logit(stop)
        vals = sc.expit(np.linspace(lo, hi, count))
    else:
        raise ParameterError(f"--grid scale must be linear, log or logit, got {scale!r}")
    return name, vals


def _parse_probe(spec: str):
    if spec in ("auto", "geometric-progression"):
        return "auto" if spec == "auto" else "geometric"
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "linear"):
        raise ParameterError(
            f"--probe expects start:stop:step[:linear], auto, or geometric-progression; got {spec!r}"
        )
    return _lattice("--probe", *map(float, parts[:3]))


def _lattice(flag: str, start: float, stop: float, step: float) -> np.ndarray:
    """``start, start + step, ...`` up to ``stop`` inclusive, for a ``flag`` spec."""
    if not step > 0.0:
        raise ParameterError(f"{flag} step must be > 0, got {step!r}")
    return np.arange(start, stop + 0.5 * step, step)


def _default_seed() -> int:
    return int(os.environ.get("TRUNCLC_SEED", "0"))


def build_parser() -> _Parser:
    parser = _Parser(prog="trunclc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="generate truncated variates")
    p_sample.add_argument("--dist", required=True)
    p_sample.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_sample.add_argument("--lower", type=float, default=-math.inf)
    p_sample.add_argument("--upper", type=float, default=math.inf)
    p_sample.add_argument("--n", type=int, default=1)
    p_sample.add_argument("--method", choices=["devroye", "its", "hitormiss"],
                          default="devroye")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--impute", choices=["mode", "error", "inf"], default="error")
    p_sample.add_argument("--format", choices=["csv", "json", "plain"], default="plain")

    p_scan = sub.add_parser("scan", help="map sampler breakdown depths")
    p_scan.add_argument("--dist", required=True)
    p_scan.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_scan.add_argument("--grid", action="append", metavar="NAME=START:STOP:COUNT:SCALE")
    p_scan.add_argument("--probe", default="auto")
    p_scan.add_argument("--method", choices=["its", "devroye", "both"], default="both")
    p_scan.add_argument("--n-probe", type=int, default=1000)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="statistical validation of sampler output")
    p_val.add_argument("test", choices=["ztest", "qq", "memoryless"])
    p_val.add_argument("--dist", required=True)
    p_val.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_val.add_argument("--lower", type=float, default=None)
    p_val.add_argument("--lower-grid", metavar="START:STOP:STEP", default=None)
    p_val.add_argument("--n", type=int, default=100_000)
    p_val.add_argument("--method", choices=["devroye", "its"], default="devroye")
    p_val.add_argument("--z-threshold", type=float, default=3.5)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def cmd_sample(args) -> int:
    desc = build_descriptor(args.dist, _parse_params(args.param))
    target = truncate(desc, lower=args.lower, upper=args.upper)
    policy = ImputationPolicy(mode=_IMPUTE_MODES[args.impute])
    seed = args.seed if args.seed is not None else _default_seed()
    rng = RngStream(seed)
    if args.n < 1:
        raise ParameterError(f"--n must be >= 1, got {args.n}")
    if args.method == "devroye":
        batch = ds_sample_batch(target, args.n, rng, policy)
    elif args.method == "its":
        batch = its_sample_batch(target, args.n, rng, policy)
    else:
        batch = hit_or_miss_batch(target, args.n, rng, policy=policy)
    disc = desc.is_discrete
    rate = batch.acceptance_rate
    stats = (f"proposals={batch.proposals} accepts={batch.accepts} "
             f"acceptance_rate={_fmt(rate)}")
    if args.format == "plain":
        # one write for the whole batch: a print per value costs more than
        # formatting it
        sys.stdout.write("".join(f"{_fmt(v, disc)}\n" for v in batch.values.tolist()))
        print(stats, file=sys.stderr)
    elif args.format == "csv":
        rows = "".join(f"{_fmt(v, disc)},{'true' if f else 'false'}\n"
                       for v, f in zip(batch.values.tolist(), batch.imputed.tolist()))
        sys.stdout.write(f"value,imputed\n{rows}# {stats}\n")
    else:
        doc = {
            "meta": {
                "family": args.dist,
                "params": {k: float(v) for k, v in _parse_params(args.param).items()},
                "lower": args.lower, "upper": args.upper,
                "method": args.method, "seed": seed, "n": args.n,
                "proposals": batch.proposals, "accepts": batch.accepts,
                "acceptance_rate": None if math.isnan(rate) else rate,
            },
            "rows": [
                {"value": (int(v) if disc and math.isfinite(v) else v),
                 "imputed": bool(f)}
                for v, f in zip(batch.values, batch.imputed)
            ],
        }
        print(json.dumps(doc, indent=2))
    return 2 if batch.imputed.any() else 0


def cmd_scan(args) -> int:
    params = _parse_params(args.param)
    seed = args.seed if args.seed is not None else _default_seed()
    grid = None
    if args.grid:
        axes = [_parse_axis(g) for g in args.grid]
        names = [n for n, _ in axes]
        grid = [
            {**params, **dict(zip(names, combo))}
            for combo in itertools.product(*(vals for _, vals in axes))
        ]
    elif params:
        grid = [params]
    if args.n_probe < 1:
        raise ParameterError(f"--n-probe must be >= 1, got {args.n_probe}")
    report = scan_safety(
        args.dist, param_grid=grid, probe_schedule=_parse_probe(args.probe),
        method=args.method, n_probe=args.n_probe, seed=seed,
    )
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _ztest_rows(args, desc, lowers, seed):
    rows = []
    streams = RngStream(seed).spawn(len(lowers))
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
    seed = args.seed if args.seed is not None else _default_seed()
    if args.test == "ztest":
        if args.lower_grid:
            parts = args.lower_grid.split(":")
            if len(parts) != 3:
                raise ParameterError(f"--lower-grid expects start:stop:step, got {args.lower_grid!r}")
            lowers = list(_lattice("--lower-grid", *map(float, parts)))
        elif args.lower is not None:
            lowers = [args.lower]
        else:
            raise ParameterError("ztest requires --lower or --lower-grid")
        rows = _ztest_rows(args, desc, lowers, seed)
        _emit_rows(rows, _ZTEST_COLUMNS, args.format, meta={
            "test": "ztest", "family": args.dist, "seed": seed,
            "z_threshold": args.z_threshold,
        })
        n_fail = sum(r["verdict"] == "fail" for r in rows)
        n_excl = sum(r["verdict"] in ("oracle_unavailable", "degenerate_target")
                     for r in rows)
        print(f"cells={len(rows)} failed={n_fail} excluded={n_excl}",
              file=sys.stderr)
        return 1 if n_fail else 0
    if args.test == "qq":
        if args.lower is None:
            raise ParameterError("qq requires --lower")
        target = truncate(desc, lower=args.lower)
        batch = ds_sample_batch(target, args.n, RngStream(seed))
        qq = exp_tail_qq(batch, args.lower)
        rows = [{"test": "qq", "p": p, "empirical": e, "theoretical": t}
                for p, e, t in zip(qq.percentiles, qq.empirical, qq.theoretical)]
        _emit_rows(rows, ["test", "p", "empirical", "theoretical"], args.format,
                   meta={"test": "qq", "family": args.dist, "lower": args.lower,
                         "n": qq.n, "seed": seed, "ks_statistic": qq.ks_statistic})
        if args.format == "csv":
            print(f"# ks_statistic={_fmt(qq.ks_statistic)} n={qq.n}")
        return 0
    # memoryless
    if args.lower is None:
        raise ParameterError("memoryless requires --lower")
    if args.dist != "geometric":
        raise ParameterError("memoryless test is defined for the geometric family")
    res = memorylessness_check(desc.params["p"], int(args.lower), args.n,
                               RngStream(seed))
    rows = [{
        "test": "memoryless", "family": args.dist,
        "params": f"p={_fmt(desc.params['p'])}", "lower": args.lower,
        "n": res.n, "statistic": res.statistic, "df": res.df,
        "critical": res.critical, "alpha": res.alpha,
        "verdict": "pass" if res.passed else "fail",
    }]
    _emit_rows(rows, ["test", "family", "params", "lower", "n", "statistic",
                      "df", "critical", "alpha", "verdict"], args.format,
               meta={"test": "memoryless", "seed": seed})
    return 0 if res.passed else 1


def _emit_rows(rows, columns, fmt, meta):
    if fmt == "json":
        print(json.dumps({"meta": meta, "rows": rows}, indent=2, default=float))
        return
    print(",".join(columns))
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, float):
                cells.append(_fmt(v))
            else:
                cells.append(str(v))
        print(",".join(cells))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sample":
            return cmd_sample(args)
        if args.command == "scan":
            return cmd_scan(args)
        return cmd_validate(args)
    except (UnknownFamilyError, ParameterError) as exc:
        print(f"trunclc: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"trunclc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
