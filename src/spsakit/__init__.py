"""Real- and complex-field SPSA optimizers with quantum application benchmarks.

The package bundles:

* ``estimators`` — gain schedules, perturbation sampling, and the
  simultaneous-perturbation gradient/Hessian/metric estimators in both fields
* ``optimizers`` — the six methods (SPSA, CSPSA, 2SPSA, 2CSPSA, QN-SPSA,
  QN-CSPSA), scalar preconditioning, blocking, and resampling
* ``quantum`` — a dense statevector simulator with shot-noise measurement
* ``applications`` — VQE, GRAPE, and SGQT packaged as objective oracles
* ``bench`` — seeded ensembles and per-iteration convergence statistics
* ``cli`` — the ``spsakit`` command-line experiment runner
"""

from .estimators import (
    GAIN_PRESETS,
    GainSchedule,
    gains_at,
    gradient_estimate,
    hessian_estimate,
    metric_estimate,
    sample_perturbation,
)
from .optimizers import (
    OptimizerConfig,
    RunTrace,
    estimate_blocking_tolerance,
    method_label,
    postprocess_gidi,
    postprocess_spall,
    run,
)
from .applications import GrapeProblem, Problem, SgqtProblem, VqeProblem
from .bench import (
    EnsembleSpec,
    IterationStatistics,
    calibrate_first_order_gain,
    run_ensemble,
    run_single,
    summarize_at_budget,
    summarize_final,
)

__version__ = "0.1.0"
