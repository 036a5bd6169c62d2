"""Golden outputs: fixed-seed CLI bytes, exit codes and batch contents.

Each CLI case calls ``trunclc.cli.main`` and digests (sha256) its stdout
and stderr, plus its exit code; each batch case digests the
values, imputation flags, trial counts and proposal accounting of one
sampler call; each demo case digests the stdout of one script in
``demos/`` (the digest of ``python demos/<name>.py | sha256sum``); each
family case digests the four callables of one family member on a fixed
grid.  Each is compared with the value recorded when the case was added.
A refactor that changes any variate, any breakdown depth, any density or
tail value or any byte of formatting fails here.  Regenerate a digest only
for a change that is meant to alter output, and say so in CHANGES.md.

numpy's float64 ``exp``, ``log``, ``log1p``, ``expm1`` and ``power`` differ
in their last bits between its AVX-512 and AVX2 kernels, and some digests
hash those bits.  So the digests are computed in a child process with the
AVX-512 dispatch off (``SIMD_ENV``), the same on any x86-64 CPU: numpy
reads the variable only when it is imported.

Run as a script (``python tests/test_golden.py``), the module prints each
case's current digest next to its recorded one, marks every mismatch and
exits 1 if there is one; with ``--json`` it prints the digests computed in
its own process as JSON, which is how the child reports them.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # a script imports the package from the source tree
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trunclc import (
    ImputationPolicy,
    RngStream,
    build_descriptor,
    ds_sample_batch,
    hit_or_miss_batch,
    truncate,
)
from trunclc.cli import main

N = ["--n", "40", "--seed", "11"]

CASES = {
    "normal_1": ["sample", "--dist", "normal", "--lower", "1", *N],
    "normal_30_csv": ["sample", "--dist", "normal", "--lower", "30", "--format", "csv", *N],
    "gamma_2": ["sample", "--dist", "gamma", "--param", "alpha=2", "--lower", "5", *N],
    "gamma_half_log_scale": ["sample", "--dist", "gamma", "--param", "alpha=0.5",
                             "--lower", "0.2", "--upper", "3", "--format", "json", *N],
    "poisson": ["sample", "--dist", "poisson", "--param", "lambda=5", "--lower", "9", *N],
    "binomial": ["sample", "--dist", "binomial", "--param", "n=60", "--param", "p=0.3",
                 "--lower", "25", "--format", "csv", *N],
    "nbinom": ["sample", "--dist", "nbinom", "--param", "n=10", "--param", "p=0.5",
               "--lower", "20", *N],
    "geometric": ["sample", "--dist", "geometric", "--param", "p=0.3", "--lower", "6",
                  "--format", "json", *N],
    "degenerate_mode": ["sample", "--dist", "normal", "--lower", "40", "--impute", "mode",
                        "--format", "csv", *N],
    "degenerate_inf": ["sample", "--dist", "normal", "--lower", "40", "--impute", "inf",
                       "--format", "json", *N],
    "degenerate_error": ["sample", "--dist", "normal", "--lower", "40", "--impute", "error",
                         *N],
    "its_clean": ["sample", "--dist", "normal", "--lower", "1", "--method", "its",
                  "--format", "csv", *N],
    "its_deep_mode": ["sample", "--dist", "normal", "--lower", "10", "--method", "its",
                      "--impute", "mode", "--format", "csv", *N],
    "its_deep_error": ["sample", "--dist", "normal", "--lower", "10", "--method", "its",
                       "--impute", "error", *N],
    "its_poisson": ["sample", "--dist", "poisson", "--param", "lambda=5", "--lower", "9",
                    "--method", "its", "--impute", "mode", "--format", "csv", *N],
    "hitormiss": ["sample", "--dist", "normal", "--lower", "0.5", "--method", "hitormiss",
                  "--format", "csv", *N],
    "hitormiss_poisson": ["sample", "--dist", "poisson", "--param", "lambda=5",
                          "--lower", "8", "--method", "hitormiss", *N],
    "scan_csv": ["scan", "--dist", "normal", "--n-probe", "20", "--seed", "3"],
    "scan_json": ["scan", "--dist", "poisson", "--grid", "lambda=2:20:2:log",
                  "--probe", "0:60:4", "--n-probe", "20", "--seed", "4", "--format", "json"],
    # the benchmark's scan families: depths past n and into the tail-sum
    # fallback; the -745 limit, with ITS saturated beyond a ~ 33
    "scan_binomial_json": ["scan", "--dist", "binomial", "--param", "n=2048", "--param", "p=0.5",
                           "--n-probe", "20", "--seed", "8", "--format", "json"],
    "scan_exponential": ["scan", "--dist", "gamma", "--param", "alpha=1", "--probe", "1:1000:7",
                         "--n-probe", "20", "--seed", "9"],
    "validate_ztest": ["validate", "ztest", "--dist", "normal", "--lower-grid", "0:30:10",
                       "--n", "400", "--seed", "5"],
    "validate_qq": ["validate", "qq", "--dist", "normal", "--lower", "3", "--n", "400",
                    "--seed", "6", "--format", "json"],
    "validate_memoryless": ["validate", "memoryless", "--dist", "geometric",
                            "--param", "p=0.3", "--lower", "5", "--n", "2000", "--seed", "7"],
}

GOLDEN = {
    "binomial": (0, "83fa6534640dbfcc328899dfac63fc5e542ede78255693f03ba4a4454d4f2542"),
    "degenerate_error": (1, "9045d764fded9de2a95fd0e9d539e7ed69adc760ebdca3684736f8f7186749eb"),
    "degenerate_inf": (2, "12a507a93c14fb6aab3d79f04fd1144a4cf4614bc619ca7b4b131faacf9bbcc1"),
    "degenerate_mode": (2, "5020c20d1d1dd4d7dc5935b5dd23bf47373584ed424cabec71a1c974c1aa482b"),
    "gamma_2": (0, "dda5d3547e298981cc810054e87e9684187c4bfda1f8114e04c30405b3d0f07f"),
    "gamma_half_log_scale": (0, "f9bea26eed9ffefc52cb80a49eeed28604f60cd438a38db72072cf27cdece82c"),
    "geometric": (0, "17766513e0eeaa40db92cb2922b0b37f6f727c9da276e0d97814d5d936008004"),
    "hitormiss": (0, "9be06eb45090c20df276f00a694a03b412ed7209997a8ecf1bf0ab635ef0e8d4"),
    "hitormiss_poisson": (0, "91241a74f3aa79f0866c05997043a20d87ee05a42718807bb5a35db82948623c"),
    "its_clean": (0, "8911d9b841d43b41605aff7fb09ef50e3751fed426f785843d0992a3e027cc3d"),
    "its_deep_error": (1, "f992af69a499bdcb6bb17b4a4268131df2d3a0fbe9a06aa5c9399d17a8fe5254"),
    "its_deep_mode": (2, "eb7618d4b77d03dae6c6b56538288154e100e46d5a794e64020649bd87cba2a6"),
    "its_poisson": (0, "4f0bc78b79610bab3696d3823029b378a30ccd3515e1d49cdfa4dfd3b2da9b0f"),
    "nbinom": (0, "cb5d8e50afb35c07f1f28dde587f864b88b292897ac246f1e45f938d12fb4abb"),
    "normal_1": (0, "e1a22717a704e9ddb528684559a87f0b34fc3e860a8572319041b97fce0bdda6"),
    "normal_30_csv": (0, "df2a4fc5aa4e14cf42c2756c7ae5e9df910224f57139e464b1bf2f3718b9e2d4"),
    "poisson": (0, "f8e8c0460469f49e2df049fd1bc1c279b9d232bbed05ec654b704700fea30c61"),
    "scan_csv": (0, "8364125d8b4ce9f3aab55f1be34d95b2a1b4fc01c7113b4a77f7ed434ed8ef81"),
    "scan_json": (0, "9c7550992b5d118a993e818e714eac1be9e8eea121bfd3938dd30196749803f2"),
    "scan_binomial_json": (0, "f0e3bff1d3c41eca74d3936912e8cd4808349ac885c59c6d90a279a05617ece0"),
    "scan_exponential": (0, "e26e6cf412748d82d6b31588ff66b7cf9ac58481caeb79e2f38dc673a6278e8c"),
    "validate_memoryless": (0, "78adab951ee288bef84baa882651e6e48c72b4dfb50e401ee229e6a2cf1894bd"),
    "validate_qq": (0, "f962cb16c0c8ec3a718bedc535c105b2c51eacec43d00f87edd06555831c37b7"),
    "validate_ztest": (0, "ec6aa4d36ba56c15a7941ae6c37cdef5441d636ef5edfad9af018ad0c3f03ab0"),
    "devroye_binomial_20000": "56e640701872b4a0753de93e8a5f9684b60bbdfa1bb6a97ae28208070cc2ee68",
    "devroye_cap_continuous": "a049a763d3562d8dc152c5e8e336ae03094faa062fcbb23ef0cf555edb41bf16",
    "devroye_cap_discrete": "46c9fae52688b74bbc8befd35fc6e71c9cedb5ac0f2981de8d4a084c9faf8816",
    "devroye_cap_log_scale": "0e1ddcd9a7dcc5755e849c0a86bfe9f218d9a2bef516ec56c6e6f0c31c379f2b",
    "devroye_gamma_tiny_shape": "377a0326120a1de24d19d267e6c0a84a63001b0706dcffedecd60b4c994da821",
    "devroye_geometric_20000": "1ee91b8c8f49f5d9a6ec68e30963714bad1d6dd8545ac5cfd7b6d2ef926eb4d1",
    "devroye_invgauss_20000": "e9a8185a8adbd873b216e19af9489bb271291e8f058aaaad2adc554808add4c0",
    "devroye_nbinom_20000": "3e06e84376cda297ba14c24a87334de8995e836ba8114bd9f6ef15121aa636d0",
    "devroye_poisson_20000": "dc10c50a09e87ad3b226d777df854fc33a26d9f3d2c214614efbb0933a416d49",
    "hit_or_miss_cap": "b16d127888d3390596c889760b763268509cc3d4f169aaa69f95abd91e193626",
    "hit_or_miss_gamma_half": "77c729f70617a60b38f4bb741753f32941c6ac946f58a4b291b440783f05ee51",
    "hit_or_miss_invgauss": "c2315bece0351981cea978f0448003f7f29ac912b93dcb253599c73b39d63d39",
    "hit_or_miss_trials": "61f8810356b649c597d044850d974da6ccdb806e071ba3bf26d3c1cc4f9488ca",
}

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_GOLDEN = {
    "01_deep_tail_sampling": "1b89effa366c6436b076b487ec1273625f6d7f97ef439979327430bc142f9db2",
    "02_safety_scan": "fe3df99a07b6354571e4c913e7d5c867bf6969959d842bdca8498782c1581e36",
    "03_validate_output": "84f638c0cb63fd2b283c0f8ff713437ce89017884f7f10cc4b1f9d3f767b9468",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def cli_digest(name):
    """The exit code of CLI case ``name`` and the digest of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(CASES[name]))
    return code, digest(out.getvalue(), err.getvalue())


def demo_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _target(family, lower, **params):
    return truncate(build_descriptor(family, params), lower=lower)


CAP = ImputationPolicy(max_iterations=2)

# batches the CLI cannot reach: per-variate trials and the iteration caps
BATCH_CASES = {
    "hit_or_miss_trials": lambda: hit_or_miss_batch(
        _target("normal", 1.5, mu=0, sigma=1), 300, RngStream(12)),
    "hit_or_miss_cap": lambda: hit_or_miss_batch(
        _target("poisson", 12, **{"lambda": 5}), 200, RngStream(13),
        policy=ImputationPolicy(max_iterations=30)),
    "devroye_cap_continuous": lambda: ds_sample_batch(
        _target("normal", 2, mu=0, sigma=1), 300, RngStream(14), CAP),
    "devroye_cap_discrete": lambda: ds_sample_batch(
        _target("binomial", 30, n=60, p=0.3), 300, RngStream(15), CAP),
    "devroye_cap_log_scale": lambda: ds_sample_batch(
        _target("gamma", 2, alpha=0.5), 300, RngStream(16), CAP),
    # the log-X route: a law log-convex in x past its mode, one whose
    # draws underflow onto the support's end, and hit-or-miss on both laws
    "devroye_invgauss_20000": lambda: ds_sample_batch(
        _target("invgauss", 0.5, mu=1, **{"lambda": 0.3}), 20_000, RngStream(21)),
    "devroye_gamma_tiny_shape": lambda: ds_sample_batch(
        truncate(build_descriptor("gamma", alpha=1e-3)), 2_000, RngStream(22)),
    "hit_or_miss_gamma_half": lambda: hit_or_miss_batch(
        truncate(build_descriptor("gamma", alpha=0.5), 0.5, 3.0), 300, RngStream(23)),
    "hit_or_miss_invgauss": lambda: hit_or_miss_batch(
        _target("invgauss", 2, mu=1, **{"lambda": 0.3}), 300, RngStream(24)),
    # discrete batches large enough that both kinds of round occur: early
    # rounds whose proposals span fewer lattice points than there are
    # proposals, and later, smaller rounds whose proposals span more
    "devroye_poisson_20000": lambda: ds_sample_batch(
        _target("poisson", 50, **{"lambda": 50}), 20_000, RngStream(17)),
    "devroye_binomial_20000": lambda: ds_sample_batch(
        _target("binomial", 553, n=2048, p=0.27), 20_000, RngStream(18)),
    "devroye_nbinom_20000": lambda: ds_sample_batch(
        _target("nbinom", 900, n=10, p=0.5), 20_000, RngStream(19)),
    "devroye_geometric_20000": lambda: ds_sample_batch(
        _target("geometric", 2000, p=0.3), 20_000, RngStream(20)),
}


def batch_digest(name) -> str:
    b = BATCH_CASES[name]()
    trials = b.trials if b.trials is not None else np.zeros(0)
    return digest(
        b.values.astype("<f8").tobytes(), b.imputed.tobytes(),
        trials.astype("<i8").tobytes(), f"{b.proposals} {b.accepts} {b.method}",
    )


# one member per builder branch: both regimes of the poisson tails, both
# binomial sizes of the scans, gamma's closed form, series and log scale
FAMILY_MEMBERS = {
    "normal": ("normal", {}),
    "poisson_0.5": ("poisson", {"lambda": 0.5}),
    "poisson_50": ("poisson", {"lambda": 50}),
    "binomial_40_0.3": ("binomial", {"n": 40, "p": 0.3}),
    "binomial_2048_0.5": ("binomial", {"n": 2048, "p": 0.5}),
    "nbinom_10_0.5": ("nbinom", {"n": 10, "p": 0.5}),
    "geometric_0.3": ("geometric", {"p": 0.3}),
    "gamma_2": ("gamma", {"alpha": 2}),
    "gamma_1": ("gamma", {"alpha": 1}),
    "gamma_0.5": ("gamma", {"alpha": 0.5}),
    "invgauss_1_0.3": ("invgauss", {"mu": 1, "lambda": 0.3}),
    "epd_1.5": ("epd", {"beta": 1.5}),
    "epd_3": ("epd", {"beta": 3}),
    # saddle-point kernel branches the members above miss: every Stirling
    # error on the series, the two edges alone, p near 1 with the edge at n,
    # and a non-integer n < 1 whose Stirling error is a scalar
    "poisson_1e5": ("poisson", {"lambda": 1e5}),
    "binomial_1_0.5": ("binomial", {"n": 1, "p": 0.5}),
    "binomial_1e5_0.97": ("binomial", {"n": 1e5, "p": 0.97}),
    "nbinom_0.5_0.9": ("nbinom", {"n": 0.5, "p": 0.9}),
}

FAMILY_GOLDEN = {
    "binomial_1_0.5": "e70d146eaa53242adb51aaf54de5a993fc04e99b86eaa9c5a8d437141ccefa68",
    "binomial_1e5_0.97": "d4eed6cde671f89b2752f86ec4f1ce0402aa316963791389d08dc94d23cf8e71",
    "binomial_2048_0.5": "a5d7b5861cf22eacb22f00e0a745cfdd337e2f0ac9286a2aafd7c063ba80f567",
    "binomial_40_0.3": "8136c8aa44af63a25b03cacd9e2447ebe5402f2b3a99236aa7be7acb82b6414a",
    "epd_1.5": "65e539c18ec9653cd0ac534bdbbf9e1fbe65a7ec8b86f345db2d7dc93ee55c55",
    "epd_3": "0dc3b162ecf36499dd16d70bcb3598c711e3085f9e006be1365ff9acb7f12571",
    "gamma_0.5": "5692e9b12285f6b413013209d7ec2a5e8ebb99ac2dc73806a6cb4cfbfbd3ed54",
    "gamma_1": "c50f6c02f4f6e81e39a144a051e6a9e5ac57b8416ed5c368605a6d8c3616cde9",
    "gamma_2": "cb4812640dbfd6a8c79c2f4b9181a317422e5afe5a210ed80fd2f45a94fd1297",
    "geometric_0.3": "dd20c0eb3a5a5584a020c607fcb7cafc58c060501d6976517b965d984d7aebfc",
    "invgauss_1_0.3": "da46b376382374aba4caed4428afb60db4f61b17490757b6e7c9f65138a431d1",
    "nbinom_0.5_0.9": "a8faaefe3cf195801071ba900865e0f2e7722a74a885eacdcd9f03199891611c",
    "nbinom_10_0.5": "cb9c6e0a1a0eb1cf20981a37d4b66001404c393523e66e720a2d4f80b6b939ca",
    "normal": "6c99cf0a6cdbc93c640a8921a0e9ffff4f7a1f0b2298268bc73538f680ad81df",
    "poisson_0.5": "5d63aa7775b2f0d99fdd3e9c49f1b9771151485786f92a00d7b98c58ad51589e",
    "poisson_1e5": "be7c2ae767a07e5c98590c4bb7458bf6d934202e84fae9b6b5752e875d8ef106",
    "poisson_50": "12994a4537e4bf2bdd0383a40dbf848ac4defef31761053abf2f23090515f6fb",
}

# depths in units of sigma from mu, far enough to reach the tail-sum and
# continued-fraction fallbacks; finite, as some callables are not defined
# at +-inf for every member
_Z = np.concatenate([np.arange(-6.0, 60.0, 0.5), [200.0, 1e3, 1e4]])
_Q = np.array([0.0, 1e-300, 1e-17, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-16, 1.0])


def family_digest(name) -> str:
    family, params = FAMILY_MEMBERS[name]
    d = build_descriptor(family, params)
    x = d.mu + d.sigma * _Z
    if d.is_discrete:
        # the lattice points, points between them and left of the support
        k = np.floor(x)
        x = np.concatenate([x, k, k + 0.5, [-1.0, -0.5]])
    return digest(*(f(x).astype("<f8").tobytes() for f in (d.log_pdf, d.log_cdf, d.log_sf)),
                  d.quantile(_Q).astype("<f8").tobytes())


KINDS = {
    "cli": (CASES, cli_digest, GOLDEN),
    "batch": (BATCH_CASES, batch_digest, GOLDEN),
    "demo": (DEMO_GOLDEN, demo_digest, DEMO_GOLDEN),
    "family": (FAMILY_MEMBERS, family_digest, FAMILY_GOLDEN),
}

SIMD_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def current_digests() -> dict:
    """``{kind: {name: digest}}`` of every case, a CLI case's digest with its
    exit code, computed by a child process under ``SIMD_ENV`` with warnings
    raised as errors, but for numpy's import-time warning on a CPU family
    that has no such features."""
    child = subprocess.run([sys.executable, "-W", "error", "-W", "ignore::ImportWarning",
                            __file__, "--json"],
                           env={**os.environ, **SIMD_ENV}, capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the golden child process failed:\n{child.stderr}")
    return {kind: {name: tuple(d) if isinstance(d, list) else d for name, d in got.items()}
            for kind, got in json.loads(child.stdout).items()}


@pytest.fixture(scope="module")
def current():
    """One child's digests for every case (a failure, too, is raised once per module)."""
    return current_digests()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name, current):
    assert current["cli"][name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_output_is_golden(name, current):
    assert current["batch"][name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_output_is_golden(name, current):
    assert current["demo"][name] == DEMO_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FAMILY_MEMBERS))
def test_family_callables_are_golden(name, current):
    assert current["family"][name] == FAMILY_GOLDEN[name]


def compare_all() -> int:
    """Print every case's current digest next to its recorded one, a CLI
    case's with its exit code; return the number of mismatches."""

    def show(d):
        return f"exit {d[0]} {d[1]}" if isinstance(d, tuple) else d

    mismatches = 0
    for kind, current in current_digests().items():
        recorded = KINDS[kind][2]
        for name in sorted(current):
            now, want = current[name], recorded[name]
            mismatches += now != want
            print(f"{'ok' if now == want else 'MISMATCH':8} {kind:6} {name:24} "
                  f"current {show(now)} recorded {show(want)}")
    print(f"{mismatches} mismatch(es)")
    return mismatches


if __name__ == "__main__":
    if sys.argv[1:] == ["--json"]:
        print(json.dumps({kind: {name: digest(name) for name in sorted(cases)}
                          for kind, (cases, digest, _) in KINDS.items()}))
    else:
        sys.exit(1 if compare_all() else 0)
