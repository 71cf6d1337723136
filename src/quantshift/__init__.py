"""Class-prevalence quantification under dataset shift.

Three estimators (Classify & Count / CDE-Iterate, Adjusted Classify & Count,
EM maximum likelihood) evaluated either exactly against population models or
empirically against stratified Monte Carlo samples.
"""

from .classify import (
    ALWAYS_CLASS_0,
    ALWAYS_CLASS_1,
    CostPair,
    ThresholdClassifier,
    adapt_threshold,
    bayes_classifier,
    cost_weighted_error,
    weighted_bayes_classifier,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_table,
    parse_config,
    run_experiment,
)
from .metrics import accuracy, f_measure, relative_error
from .models import (
    BinormalParams,
    DensityRatio,
    GridCdf,
    InvalidThreshold,
    PopulationModel,
    binormal_density_ratio,
    binormal_population,
    posterior,
)
from .numerics import (
    Bracket,
    NonFinite,
    NoSignChange,
    RngStream,
    find_root_bracketed,
    integrate_interval,
)
from .quantify import (
    DegenerateClassifier,
    EstimateStatus,
    PopulationEvaluator,
    PrevalenceEstimate,
    SampleEvaluator,
    acc_estimate,
    cde_iterate,
    em_estimate,
    fixed_point_residual,
    training_rates,
)
from .sampling import (
    EnvelopeViolation,
    LabeledDataset,
    stratified_sample,
)
from .shift import (
    NoInteriorSolution,
    ShiftKind,
    ShiftScenario,
    UnresolvedMeasure,
    covariate_shift_identity_check,
    decompose_mixture,
    make_test_population,
)

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_CLASS_0",
    "ALWAYS_CLASS_1",
    "BinormalParams",
    "Bracket",
    "ConfigError",
    "CostPair",
    "DegenerateClassifier",
    "DensityRatio",
    "EnvelopeViolation",
    "EstimateStatus",
    "ExperimentConfig",
    "GridCdf",
    "InvalidThreshold",
    "LabeledDataset",
    "NoInteriorSolution",
    "NoSignChange",
    "NonFinite",
    "PopulationEvaluator",
    "PopulationModel",
    "PrevalenceEstimate",
    "ResultTable",
    "RngStream",
    "SampleEvaluator",
    "ShiftKind",
    "ShiftScenario",
    "ThresholdClassifier",
    "UnresolvedMeasure",
    "acc_estimate",
    "accuracy",
    "adapt_threshold",
    "bayes_classifier",
    "binormal_density_ratio",
    "binormal_population",
    "cde_iterate",
    "cost_weighted_error",
    "covariate_shift_identity_check",
    "decompose_mixture",
    "em_estimate",
    "emit_table",
    "f_measure",
    "find_root_bracketed",
    "fixed_point_residual",
    "integrate_interval",
    "make_test_population",
    "parse_config",
    "posterior",
    "relative_error",
    "run_experiment",
    "stratified_sample",
    "training_rates",
]
