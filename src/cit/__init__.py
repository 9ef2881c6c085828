"""Conditional-independence testing for discrete distributions.

A library and experiment CLI for testing whether samples from a discrete
joint distribution on [l1] x [l2] x [n] are conditionally independent in
the first two coordinates given the third, in the sublinear-sample
regime, together with the unbiased polynomial-estimation machinery,
marginal flattening, and the adversarial instance ensembles used as
empirical test beds.
"""

__version__ = "0.1.0"

from .dist_core import (
    JointDistribution,
    ci_distance_proxy,
    conditional_mutual_information,
    mixture_q,
    sample_fixed,
    sample_poissonized,
    tv_distance,
)
from .flattening import (
    FlatteningCoefficients,
    SplitSpec,
    implicit_flattening,
    rescaled_l2_value,
    split_distribution,
)
from .harness import ExperimentPlan, PowerRow, find_min_m, run_power_experiment
from .instances import EnsembleSpec, gen_binary_ensemble, gen_nnn, gen_random_ci, \
    gen_random_far, make_instance, moment_match_check, paninski_reduction
from .poly_estimator import (
    Fingerprint,
    HomogeneousPolynomial,
    MomentReport,
    expected_square,
    homogenize,
    l2_diff_polynomial,
    l2_estimator,
    oracle_moments,
    tail_term_bound,
    unbiased_estimate,
)
from .testers import (
    TesterConfig,
    Verdict,
    calibrate_threshold,
    sample_complexity_binary,
    sample_complexity_general,
    test_binary,
    test_cmi,
    test_general,
)

__all__ = [
    "EnsembleSpec",
    "ExperimentPlan",
    "Fingerprint",
    "FlatteningCoefficients",
    "HomogeneousPolynomial",
    "JointDistribution",
    "MomentReport",
    "PowerRow",
    "SplitSpec",
    "TesterConfig",
    "Verdict",
    "calibrate_threshold",
    "ci_distance_proxy",
    "conditional_mutual_information",
    "expected_square",
    "find_min_m",
    "gen_binary_ensemble",
    "gen_nnn",
    "gen_random_ci",
    "gen_random_far",
    "homogenize",
    "implicit_flattening",
    "l2_diff_polynomial",
    "l2_estimator",
    "make_instance",
    "mixture_q",
    "moment_match_check",
    "oracle_moments",
    "paninski_reduction",
    "rescaled_l2_value",
    "run_power_experiment",
    "sample_complexity_binary",
    "sample_complexity_general",
    "sample_fixed",
    "sample_poissonized",
    "split_distribution",
    "tail_term_bound",
    "test_binary",
    "test_cmi",
    "test_general",
    "tv_distance",
    "unbiased_estimate",
]
