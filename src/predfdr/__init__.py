"""Posterior-predictive outlier scoring with batch Bayesian FDR thresholds."""

__version__ = "0.1.0"

from .bfdr import (
    BfdrConfig,
    CapacityError,
    ScoreBatch,
    ThresholdResult,
    classic_bfdr,
    gbfdr,
    gbfdr_changepoint,
    gbfdr_looped,
    gbfdr_vectorized,
    mc_fdr_inverse,
    moment_derivative_check,
)
from .decision import (
    LossParams,
    bayes_rule,
    bfdr_coupled_rule,
    c_algebra,
    c_algebra_inv,
    expected_loss,
    loss_eval,
)
from .predictive import (
    NigParams,
    StudentTPredictive,
    nig_update,
    posterior_predictive,
    score,
    t_cdf,
)
from .pipeline import DIFFUSE_PRIOR, DetectConfig, DetectionReport, detect, lagged_scores
from .simgen import SimData, SimSpec, gen_data, gen_signal
from .bench import BenchSpec, run_bench

__all__ = [
    "__version__",
    "BfdrConfig",
    "CapacityError",
    "ScoreBatch",
    "ThresholdResult",
    "classic_bfdr",
    "gbfdr",
    "gbfdr_changepoint",
    "gbfdr_looped",
    "gbfdr_vectorized",
    "mc_fdr_inverse",
    "moment_derivative_check",
    "LossParams",
    "bayes_rule",
    "bfdr_coupled_rule",
    "c_algebra",
    "c_algebra_inv",
    "expected_loss",
    "loss_eval",
    "NigParams",
    "StudentTPredictive",
    "nig_update",
    "posterior_predictive",
    "score",
    "t_cdf",
    "DIFFUSE_PRIOR",
    "DetectConfig",
    "DetectionReport",
    "detect",
    "lagged_scores",
    "SimData",
    "SimSpec",
    "gen_data",
    "gen_signal",
    "BenchSpec",
    "run_bench",
]
