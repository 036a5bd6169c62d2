"""Golden outputs: fixed-seed CLI bytes, exit codes and batch contents.

Each CLI case runs ``trunclc.cli.main`` in process and compares the
sha256 digest of its stdout and stderr, plus its exit code, against the
value recorded when the case was added; each batch case digests the
values, imputation flags, trial counts and proposal accounting of one
sampler call; each demo case digests the stdout of one script in
``demos/`` (the digest of ``python demos/<name>.py | sha256sum``).  A refactor that changes any variate,
any breakdown depth or any byte of formatting fails here.  Regenerate a
digest only for a change that is meant to alter output, and say so in
CHANGES.md.
"""

import hashlib
import runpy
from pathlib import Path

import numpy as np
import pytest

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
    "gamma_half_epd": ["sample", "--dist", "gamma", "--param", "alpha=0.5",
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
    "validate_ztest": ["validate", "ztest", "--dist", "normal", "--lower-grid", "0:30:10",
                       "--n", "400", "--seed", "5"],
    "validate_qq": ["validate", "qq", "--dist", "normal", "--lower", "3", "--n", "400",
                    "--seed", "6", "--format", "json"],
    "validate_memoryless": ["validate", "memoryless", "--dist", "geometric",
                            "--param", "p=0.3", "--lower", "5", "--n", "2000", "--seed", "7"],
}

GOLDEN = {
    "binomial": (0, "66cd953296a9cb172d12acb5341d1055efc8578b8db301a853acef83ba128885"),
    "degenerate_error": (1, "9045d764fded9de2a95fd0e9d539e7ed69adc760ebdca3684736f8f7186749eb"),
    "degenerate_inf": (2, "12a507a93c14fb6aab3d79f04fd1144a4cf4614bc619ca7b4b131faacf9bbcc1"),
    "degenerate_mode": (2, "5020c20d1d1dd4d7dc5935b5dd23bf47373584ed424cabec71a1c974c1aa482b"),
    "gamma_2": (0, "351e010d921ed5216110ed3a69113ee6697f5f0053eafa3a5e42536bfff6831e"),
    "gamma_half_epd": (0, "710a8753fa23a924c8bfc11eaa398bcfa3598171b3321b2d93991da0e9bd1a8e"),
    "geometric": (0, "28c17c7391cdce453bd7dbc9bebc56f75314fcd8b2b2e6cd545eeaf195757a40"),
    "hitormiss": (0, "464db24a6aa9a706badf0d4d0ab6dc5464ba7a70a2f358e28527be84a024c3fa"),
    "hitormiss_poisson": (0, "58e8c58fda9e4df6772697cf23ec14fcf78907226ce378e5027c234d5d711842"),
    "its_clean": (0, "4323d4adad7f60266461fcb29426b7518c2f55f9b991cf6226976276f1265acc"),
    "its_deep_error": (1, "f992af69a499bdcb6bb17b4a4268131df2d3a0fbe9a06aa5c9399d17a8fe5254"),
    "its_deep_mode": (2, "eb7618d4b77d03dae6c6b56538288154e100e46d5a794e64020649bd87cba2a6"),
    "its_poisson": (0, "7292212d11f1b79215ea0d4226d9d363e23ca7356c077e36c2c0cdc0be393a03"),
    "nbinom": (0, "33e2c06a9a16def642d35befc07cae10c4c4442ba72a15b276c82527706aead9"),
    "normal_1": (0, "d09f2ca29845f58321ebc7cd6126feb6cc14581e333b9f260972a0c3b8181fd2"),
    "normal_30_csv": (0, "b32888c670d970311195bc2a5fdb3a43984c9f4efe3232f6b33550112c68655a"),
    "poisson": (0, "fb28aaa53019dfd5c21adec858163017d3e3cd6ac6191e4ed2eccf497a584564"),
    "scan_csv": (0, "787a1f639c9fddc4d7e0357e0588e2ec0dfb10f1155a38277227e9aaf9852bdb"),
    "scan_json": (0, "65af3119607033f6944232a9f9a929f6a6a429d40ada091ed1dee748995f77ca"),
    "validate_memoryless": (0, "ec241c152cd9fbd0571032add5114ef523bb3ec13ae581939e0fd805496ee776"),
    "validate_qq": (0, "15840b8e9ada0fa18333d14cdf9e875142bbd9ede8f44ce8f87fe505b07dc555"),
    "validate_ztest": (0, "2deec019a43f2f229354e272fe28fb7c6a86514ff578b35146c22ba8ed70dff6"),
    "devroye_binomial_20000": "9758362409d0efae839388abd4cb63c0623198ec92a88da714393be21c0468a5",
    "devroye_cap_continuous": "f5b660f6862a2aa5a095698c675a9e2a543424f7e2e6026efc899c6fc3fd4cad",
    "devroye_cap_discrete": "15ecdc83d723082a54a257d8787890c7421deda7db2fa698c2feabb1c6419415",
    "devroye_cap_epd": "5edbd61e12fafbabb72eb72d7e7872709a9024bd3831ff73ecc3f4f43891b6d8",
    "devroye_geometric_20000": "44b2b87f00ab5ac881aaa7daaa6ccb371d552066792b1d2bcf21009a9bb7bc2f",
    "devroye_nbinom_20000": "36b81bb90a983ae39251d7182b5f3c133a2ec23f12ab1382b7d4d820c007cd56",
    "devroye_poisson_20000": "71c74717c5d159302c878835ff39c8e51188f1c7fe0736490a34eb06189fd1f9",
    "hit_or_miss_cap": "9cbd6b0a64cf9a02e50f910db80f2e4bf3e8e2f5c5994f2baee79cf1abd62e54",
    "hit_or_miss_trials": "c3bf618e32ab1f38a0d4555a606b95735a3ed86cc3e6a5b440bf61ec0e7a5d45",
}

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_GOLDEN = {
    "01_deep_tail_sampling": "4c96f23000af9a0924d49d85350a1cd37e972a04c4416a85856a4dd872819f30",
    "02_safety_scan": "6bceff87bcef7e70ad750b203e78770f4a6ea730f65c50cb4c7de10f8865acc8",
    "03_validate_output": "f1624706f7aea25037c51f98c2466623bbb8319c8de02f6d77c27aa2edae39e1",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def run_case(capsys, name):
    code = main(list(CASES[name]))
    out, err = capsys.readouterr()
    return code, digest(out, err)


def _target(family, lower, **params):
    return truncate(build_descriptor(family, params), lower=lower)


CAP = ImputationPolicy(max_iterations=2)

# batches the CLI cannot reach: per-variate trials and the iteration caps
BATCH_CASES = {
    "hit_or_miss_trials": lambda: hit_or_miss_batch(
        _target("normal", 1.5, mu=0, sigma=1), 300, RngStream(12)),
    "hit_or_miss_cap": lambda: hit_or_miss_batch(
        _target("poisson", 12, **{"lambda": 5}), 200, RngStream(13), max_trials=30),
    "devroye_cap_continuous": lambda: ds_sample_batch(
        _target("normal", 2, mu=0, sigma=1), 300, RngStream(14), CAP),
    "devroye_cap_discrete": lambda: ds_sample_batch(
        _target("binomial", 30, n=60, p=0.3), 300, RngStream(15), CAP),
    "devroye_cap_epd": lambda: ds_sample_batch(
        _target("gamma", 2, alpha=0.5), 300, RngStream(16), CAP),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(capsys, name):
    assert run_case(capsys, name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_output_is_golden(name):
    assert batch_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_output_is_golden(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_GOLDEN[name]
