"""Conditional variable screening for the Cox proportional hazards model.

The package fits low-dimensional marginal Cox models around a known
conditioning set of covariates and ranks the remaining candidates by the
CS-MPLE, CS-Wald and CS-PLIK statistics, alongside marginal baselines
(PSIS, CORS, CRIS), seeded simulation designs and benchmark metrics.
"""

from .baselines import BaselineResult, cors, cris, ipw_weights
from .benchmark import ALL_METHODS, run_benchmark
from .cox import CoxFit, fit, log_partial_likelihood, score_and_information
from .data import (
    ColumnSchema,
    ConditioningSet,
    SurvivalDataset,
    read_csv,
    standardize,
    validate,
    write_csv,
)
from .diagnostics import CLEModel, cle_predict, cond_linear_cov, fit_cle, signal_strength
from .errors import (
    CalibrationError,
    ConfigError,
    CoxScreenError,
    CSVParseError,
    NonIdentifiableError,
    SeparationError,
    ValidationError,
)
from .metrics import BenchmarkSummary, ReplicateScore, mms, summarize, tpr
from .screening import (
    CovariateScreenRecord,
    ScreeningResult,
    default_conditioning,
    default_top_k,
    screen,
    select_by_threshold,
    select_top_k,
)
from .simulate import (
    SimConfig,
    SimReplicate,
    calibrate_censoring,
    example_config,
    gen_covariates,
    gen_replicate,
    gen_survival_times,
)

__version__ = "0.1.0"
