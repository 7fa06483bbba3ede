"""staleness-lab: stability analysis of gradient descent with stale updates.

Modules
-------
charpoly   characteristic polynomials, delay models, optimizer specs
roots      deterministic simultaneous root iteration, batched by shape
stability  closed-form and certified crossing thresholds, curve fits
dynamics   delay-recurrence simulators, escape times, power iteration
pssim      parameter-server emulator: schedulers, runs, delay histograms
cli        staleness-lab command line

Importing the package loads none of them: each public name below loads its
home module on first use (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "charpoly": ("MOMENTUM", "PLAIN", "SHIFTED_MOMENTUM", "DelayModel", "OptimizerSpec", "Polynomial",
                 "char_poly", "char_poly_momentum", "char_poly_plain", "char_poly_shifted",
                 "char_poly_stochastic", "pmf_discrete_gaussian", "pmf_uniform"),
    "dynamics": ("CONVERGED", "DIVERGED", "UNDECIDED", "EscapeCurve", "QuadraticProblem", "SimConfig",
                 "SimVerdict", "empirical_threshold", "escape_time_curve", "power_iteration",
                 "simulate_expectation", "simulate_sgd"),
    "errors": ("NoConvergence", "NoThreshold", "UndecidedAtProbe"),
    "pssim": ("PSRun", "RoundRobin", "SampledDelay", "delay_histogram", "ps_empirical_threshold",
              "run_ps"),
    "roots": ("RootSet", "all_roots", "all_roots_many"),
    "stability": ("CurveRow", "ThresholdCurve", "ThresholdResult", "analytic_threshold_plain",
                  "numeric_threshold", "scale_lr", "taylor_inverse_threshold", "threshold_curve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return [*globals(), *_HOME]
