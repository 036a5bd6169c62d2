"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math

import numpy as np
import pytest
from scipy import stats as st

from trunclc import (
    RngStream,
    build_descriptor,
    chi_square_gof,
    ds_sample_batch,
    exp_tail_qq,
    hit_or_miss_batch,
    memorylessness_check,
    scan_safety,
    truncate,
    truncated_mean_oracle_normal,
    z_test_mean,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def truncated_pmf(desc, lo, hi):
    ks = np.arange(math.floor(lo) + 1, math.floor(hi) + 1, dtype=float)
    p = np.exp(np.asarray(desc.log_pdf(ks), dtype=float))
    return ks, p / p.sum()


def test_01_continuous_acceptance_rate():
    """Untruncated standard normal: acceptance = 0.25 +/- 0.005 over ~1e6 proposals."""
    t = truncate(build_descriptor("normal", mu=0, sigma=1))
    batch = ds_sample_batch(t, 255_000, RngStream(101))
    rate = batch.acceptance_rate
    ok = batch.proposals >= 1_000_000 and abs(rate - 0.25) <= 0.005
    report("1 (continuous 25% acceptance)", ok,
           f"rate={rate:.5f} over {batch.proposals} proposals")


def test_02_discrete_acceptance_rate():
    """Poisson acceptance = 1/(4 + f_I(m)) +/- 0.01, always in [0.20, 0.25]."""
    lines = []
    ok = True
    for i, lam in enumerate((0.5, 5.0, 50.0)):
        t = truncate(build_descriptor("poisson", {"lambda": lam}))
        batch = ds_sample_batch(t, 210_000, RngStream(210 + i))
        want = 1.0 / (4.0 + math.exp(t.log_peak))
        rate = batch.acceptance_rate
        ok &= abs(rate - want) <= 0.01 and 0.20 <= rate <= 0.25 + 1e-9
        lines.append(f"lambda={lam}: rate={rate:.4f} expected={want:.4f}")
    report("2 (discrete 20-25% acceptance)", ok, "; ".join(lines))


def test_03_normal_tail_depth():
    """Clean 1e5 variates at 38 sigma; scanner eta' in [37, 39], eta <= 10."""
    t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=38.0)
    batch = ds_sample_batch(t, 100_000, RngStream(303))
    clean = batch.is_clean(t)
    rep = scan_safety("normal", probe_schedule=np.arange(0.0, 51.0),
                      method="both", n_probe=1000, seed=3)
    cell = rep.rows[0]
    ok = clean and 37.0 <= cell.eta_prime <= 39.0 and cell.eta <= 10.0
    report("3 (normal tail depth)", ok,
           f"clean_batch={clean} eta={cell.eta:.2f} eta_prime={cell.eta_prime:.2f}")


def test_04_exponential_depth_ordering():
    """gamma(1,1): rejection-sampler depth at least 10x the quantile route's."""
    rep = scan_safety("gamma", param_grid=[{"alpha": 1.0, "lambda": 1.0}],
                      probe_schedule=np.arange(1.0, 1001.0), method="both",
                      n_probe=1000, seed=5)
    cell = rep.rows[0]
    ratio = cell.eta_prime / cell.eta
    ok = math.isfinite(ratio) and ratio >= 10.0
    report("4 (exponential depth ordering)", ok,
           f"eta={cell.eta:.1f} eta_prime={cell.eta_prime:.1f} ratio={ratio:.1f}")


def test_05_exactness_small_instances():
    """Chi-square / KS at alpha = 0.001 against independent oracles."""
    lines = []
    ok = True
    discrete_cases = [
        ("poisson", {"lambda": 3.0}, 4.0, 9.0),
        ("binomial", {"n": 10, "p": 0.5}, 6.0, 10.0),
        ("geometric", {"p": 0.3}, 2.0, 12.0),
    ]
    for i, (family, params, lo, hi) in enumerate(discrete_cases):
        d = build_descriptor(family, params)
        t = truncate(d, lower=lo, upper=hi)
        batch = ds_sample_batch(t, 100_000, RngStream(500 + i))
        ks, probs = truncated_pmf(d, lo, hi)
        res = chi_square_gof(batch.values, ks, probs, alpha=0.001)
        ok &= res.passed
        lines.append(f"{family}: chi2={res.statistic:.1f} crit={res.critical:.1f}")
    continuous_cases = [
        ("normal", {"mu": 0.0, "sigma": 1.0}, 1.0),
        ("gamma", {"alpha": 2.0, "lambda": 1.0}, 5.0),
    ]
    for i, (family, params, lo) in enumerate(continuous_cases):
        d = build_descriptor(family, params)
        t = truncate(d, lower=lo)
        batch = ds_sample_batch(t, 100_000, RngStream(550 + i))
        res = st.kstest(batch.values, lambda x: t.cdf(x))
        ok &= res.pvalue > 0.001
        lines.append(f"{family}: KS p={res.pvalue:.3f}")
    report("5 (exactness oracles)", ok, "; ".join(lines))


def test_06_z_test_lattice():
    """Normal mean Z-test on the lattice a = 0, 0.5, ..., 38 at n = 1e5."""
    lowers = np.arange(0.0, 38.0 + 0.25, 0.5)
    streams = RngStream(606).spawn(len(lowers))
    zs = []
    for a, stream in zip(lowers, streams):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=float(a))
        batch = ds_sample_batch(t, 100_000, stream)
        res = z_test_mean(batch, truncated_mean_oracle_normal(float(a)), threshold=4.0)
        zs.append(res.z)
    zs = np.asarray(zs)
    frac = float((np.abs(zs) > 2.0).mean())
    ok = bool(np.all(np.abs(zs) < 4.0)) and 0.005 <= frac <= 0.15
    report("6 (Z-test lattice)", ok,
           f"cells={zs.size} max|Z|={np.abs(zs).max():.2f} frac(|Z|>2)={frac:.3f}")


def test_07_geweke_tail_approximation():
    """1e6 variates at ]38.45, inf[: KS to exponential(38.45) below 0.005."""
    a = 38.45
    t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=a)
    batch = ds_sample_batch(t, 1_000_000, RngStream(707))
    qq = exp_tail_qq(batch, a)
    ok = batch.is_clean(t) and qq.ks_statistic < 0.005
    report("7 (Geweke tail approximation)", ok,
           f"KS={qq.ks_statistic:.5f} n={qq.n}")


def test_08_memorylessness_deep():
    """Shifted excess laws at alpha = 0.001 under deep truncation."""
    geo = memorylessness_check(0.5, 20, 100_000, RngStream(808))
    t = truncate(build_descriptor("gamma", alpha=1.0, **{"lambda": 1.0}), lower=25.0)
    batch = ds_sample_batch(t, 100_000, RngStream(809))
    ks = st.kstest(batch.values - 25.0, st.expon.cdf)
    ok = geo.passed and ks.pvalue > 0.001
    report("8 (memorylessness)", ok,
           f"geometric chi2={geo.statistic:.1f} crit={geo.critical:.1f}; "
           f"exponential KS p={ks.pvalue:.3f}")


def test_09_gamma_below_one_route():
    """gamma(0.5, 1) drawn as exp(Y), Y = log X log-concave: mean and KS."""
    t = truncate(build_descriptor("gamma", alpha=0.5, **{"lambda": 1.0}))
    batch = ds_sample_batch(t, 100_000, RngStream(909))
    se = math.sqrt(0.5) / math.sqrt(batch.values.size)
    mean_ok = abs(batch.values.mean() - 0.5) <= 4.0 * se
    ks = st.kstest(batch.values, st.gamma(0.5).cdf)
    ok = mean_ok and ks.pvalue > 0.001 and not batch.imputed.any()
    report("9 (gamma alpha<1 route)", ok,
           f"mean={batch.values.mean():.4f} (4SE={4*se:.4f}) KS p={ks.pvalue:.3f}")


def test_10_hit_or_miss_cost_law():
    """Trial counts are geometric(P(I)): mean within 3 SE, GOF at 0.001."""
    lines = []
    ok = True
    for i, z in enumerate((0.0, 1.0, 2.0)):
        t = truncate(build_descriptor("normal", mu=0, sigma=1), lower=z)
        p_hit = math.exp(t.log_mass)
        batch = hit_or_miss_batch(t, 10_000, RngStream(1000 + i))
        se = math.sqrt((1.0 - p_hit) / p_hit**2) / math.sqrt(batch.trials.size)
        mean_ok = abs(batch.trials.mean() - 1.0 / p_hit) <= 3.0 * se
        kmax = int(batch.trials.max())
        support = np.arange(1, kmax + 1, dtype=float)
        probs = p_hit * (1.0 - p_hit) ** (support - 1.0)
        gof = chi_square_gof(batch.trials.astype(float), support, probs, alpha=0.001)
        ok &= mean_ok and gof.passed
        lines.append(f"z={z}: mean={batch.trials.mean():.3f} 1/P={1/p_hit:.3f} "
                     f"chi2={gof.statistic:.1f}/{gof.critical:.1f}")
    report("10 (hit-or-miss cost law)", ok, "; ".join(lines))


def test_11_binomial_grid_properties():
    """Desk-scale 5x5 grid: rejection depth >= quantile depth cellwise.

    The p = 1/2 "cone" of the contour figures is reported, not asserted:
    it reflects the quantile internals of one specific library stack, and
    at small n the support edge (largest at small p) dominates instead.
    """
    ns = [8, 32, 128, 512, 2048]
    ps = [0.1, 0.27, 0.5, 0.73, 0.9]
    grid = [{"n": n, "p": p} for n in ns for p in ps]
    rep = scan_safety("binomial", param_grid=grid, probe_schedule="auto",
                      method="both", n_probe=300, seed=11)
    violations = rep.endpoint_violations()
    both = [c for c in rep.rows
            if math.isfinite(c.eta) and math.isfinite(c.eta_prime)]
    # reported profile: per n, the quantile-route margin across p
    for n in ns:
        row = [c for c in rep.rows if c.params["n"] == n]
        profile = " ".join(
            f"p={c.params['p']:.2f}:eta={c.eta:5.1f}" for c in row)
        print(f"  binomial n={n}: {profile}")
    ok = len(violations) == 0 and len(both) >= 20
    report("11 (binomial grid ordering)", ok,
           f"cells_with_both={len(both)} ordering_violations={len(violations)}")
