"""staleness-lab: stability analysis of gradient descent with stale updates.

Modules
-------
charpoly   characteristic polynomials, delay models, optimizer specs
roots      deterministic simultaneous root iteration, batched by shape
stability  closed-form and certified crossing thresholds, curve fits
dynamics   delay-recurrence simulators, escape times, power iteration
pssim      parameter-server emulator: schedulers, runs, delay histograms
cli        staleness-lab command line
"""

from .charpoly import (
    MOMENTUM,
    PLAIN,
    SHIFTED_MOMENTUM,
    DelayModel,
    OptimizerSpec,
    Polynomial,
    char_poly,
    char_poly_momentum,
    char_poly_plain,
    char_poly_shifted,
    char_poly_stochastic,
    pmf_discrete_gaussian,
    pmf_uniform,
)
from .dynamics import (
    CONVERGED,
    DIVERGED,
    UNDECIDED,
    EscapeCurve,
    QuadraticProblem,
    SimConfig,
    SimVerdict,
    empirical_threshold,
    escape_time_curve,
    power_iteration,
    simulate_expectation,
    simulate_sgd,
)
from .errors import NoConvergence, NoThreshold, UndecidedAtProbe
from .pssim import PSRun, RoundRobin, SampledDelay, delay_histogram, ps_empirical_threshold, run_ps
from .roots import RootSet, all_roots, all_roots_many
from .stability import (
    CurveRow,
    ThresholdCurve,
    ThresholdResult,
    analytic_threshold_plain,
    numeric_threshold,
    scale_lr,
    taylor_inverse_threshold,
    threshold_curve,
)

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "UNDECIDED",
    "CurveRow",
    "DelayModel",
    "EscapeCurve",
    "MOMENTUM",
    "NoConvergence",
    "NoThreshold",
    "OptimizerSpec",
    "PLAIN",
    "PSRun",
    "Polynomial",
    "QuadraticProblem",
    "RootSet",
    "RoundRobin",
    "SHIFTED_MOMENTUM",
    "SampledDelay",
    "SimConfig",
    "SimVerdict",
    "ThresholdCurve",
    "ThresholdResult",
    "UndecidedAtProbe",
    "all_roots",
    "all_roots_many",
    "analytic_threshold_plain",
    "char_poly",
    "char_poly_momentum",
    "char_poly_plain",
    "char_poly_shifted",
    "char_poly_stochastic",
    "delay_histogram",
    "empirical_threshold",
    "escape_time_curve",
    "numeric_threshold",
    "pmf_discrete_gaussian",
    "pmf_uniform",
    "power_iteration",
    "ps_empirical_threshold",
    "run_ps",
    "scale_lr",
    "simulate_expectation",
    "simulate_sgd",
    "taylor_inverse_threshold",
    "threshold_curve",
    "__version__",
]
