"""Random-variate generation for truncated log-concave distributions.

The package builds truncated targets from log-space distribution
descriptors, samples them exactly with a universal rejection envelope,
provides inverse-transform and hit-or-miss reference samplers, and ships
a diagnostic harness that maps each sampler's safety margin under extreme
truncation and validates sampler output statistically.
"""

from .core import (
    DegenerateTargetError,
    DistributionDescriptor,
    SamplingBreakdownError,
    TruncatedTarget,
    TruncationInterval,
    TruncationOverflow,
    log_interval_mass,
    support_bounds,
    truncate,
)
from .devroye import (
    ImputationPolicy,
    RngStream,
    SampleBatch,
    ds_sample_batch,
)
from .diagnostics import (
    GofResult,
    OracleUnavailable,
    QQResult,
    SafetyReport,
    ValidationResult,
    brute_force_truncated_moments,
    chi_square_gof,
    exp_tail_qq,
    memorylessness_check,
    scan_safety,
    truncated_mean_oracle,
    truncated_mean_oracle_normal,
    truncated_mean_oracle_poisson,
    z_test_mean,
)
from .families import (
    FamilySpec,
    ParameterError,
    ParamSpec,
    UnknownFamilyError,
    build_descriptor,
    check_log_concavity,
    list_families,
    register_family,
)
from .logspace import log1mexp, log_diff_exp
from .reference import hit_or_miss_batch, its_sample_batch

__version__ = "0.1.0"

__all__ = [
    "DegenerateTargetError",
    "DistributionDescriptor",
    "FamilySpec",
    "GofResult",
    "ImputationPolicy",
    "OracleUnavailable",
    "ParamSpec",
    "ParameterError",
    "QQResult",
    "RngStream",
    "SafetyReport",
    "SampleBatch",
    "SamplingBreakdownError",
    "TruncatedTarget",
    "TruncationInterval",
    "TruncationOverflow",
    "UnknownFamilyError",
    "ValidationResult",
    "brute_force_truncated_moments",
    "build_descriptor",
    "check_log_concavity",
    "chi_square_gof",
    "ds_sample_batch",
    "exp_tail_qq",
    "hit_or_miss_batch",
    "its_sample_batch",
    "list_families",
    "log1mexp",
    "log_diff_exp",
    "log_interval_mass",
    "memorylessness_check",
    "register_family",
    "scan_safety",
    "support_bounds",
    "truncate",
    "truncated_mean_oracle",
    "truncated_mean_oracle_normal",
    "truncated_mean_oracle_poisson",
    "z_test_mean",
]
