"""Functional extreme-value statistics.

Estimators of the extreme-value index as a curve over a time grid,
tail empirical processes of sampled stochastic processes, the limiting
Gaussian field driven by an exponent measure, and a batch experiment
harness with a CLI front end.
"""

from funcevt.path_model import (
    TimeGrid,
    PathSample,
    ParetoPaths,
    MarginalModel,
    make_grid,
    pareto_transform,
    DataError,
)
from funcevt.process_sim import (
    KernelSpec,
    SimConfig,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from funcevt.estimators import (
    estimate_curves,
    EstimatorCurves,
)
from funcevt.tail_process import (
    TailField,
    build_tail_field,
    tail_quantile_stat,
    OscillationConfig,
    oscillation_diagnostic,
)
from funcevt.exponent_measure import (
    MeasureOracle,
    covariance_matrix,
)
from funcevt.limit_theory import (
    second_order_bias,
    LimitParams,
    TrueFunctions,
    LimitField,
    functional_x_grid,
    simulate_limit_field,
    LimitFunctionals,
    limit_functionals,
    simulate_limit_functionals,
    Gm0Variances,
    limit_variances_gm0,
    second_order_check,
)
from funcevt.harness import (
    ExperimentConfig,
    config_hash,
    save_config,
    load_config,
    run_replications,
    standardize,
    summarize,
    run_experiment,
    check_report,
    export_report,
    load_report,
)

__version__ = "0.1.0"
