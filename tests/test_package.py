"""The lazily loaded package keeps the API it had when it imported every module."""

import importlib

import pytest

import staleness_lab

# every public name, under the module that defines it
HOMES = {
    "charpoly": {"MOMENTUM", "PLAIN", "SHIFTED_MOMENTUM", "DelayModel", "OptimizerSpec",
                 "Polynomial", "char_poly", "char_poly_momentum", "char_poly_plain",
                 "char_poly_shifted", "char_poly_stochastic", "pmf_discrete_gaussian",
                 "pmf_uniform"},
    "dynamics": {"CONVERGED", "DIVERGED", "UNDECIDED", "EscapeCurve", "QuadraticProblem",
                 "SimConfig", "SimVerdict", "empirical_threshold", "escape_time_curve",
                 "power_iteration", "simulate_expectation", "simulate_sgd"},
    "errors": {"NoConvergence", "NoThreshold", "UndecidedAtProbe"},
    "pssim": {"PSRun", "RoundRobin", "SampledDelay", "delay_histogram",
              "ps_empirical_threshold", "run_ps"},
    "roots": {"RootSet", "all_roots", "all_roots_many"},
    "stability": {"CurveRow", "ThresholdCurve", "ThresholdResult", "analytic_threshold_plain",
                  "numeric_threshold", "scale_lr", "taylor_inverse_threshold",
                  "threshold_curve"},
}
PUBLIC = {"__version__"}.union(*HOMES.values())


def test_all_holds_exactly_the_public_names():
    assert len(staleness_lab.__all__) == len(PUBLIC) == 46
    assert set(staleness_lab.__all__) == PUBLIC


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items()
                                        for name in sorted(names)])
def test_each_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"staleness_lab.{home}")
    assert getattr(staleness_lab, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from staleness_lab import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["__version__"] == staleness_lab.__version__ == "0.1.0"


def test_dir_lists_every_public_name():
    listing = dir(staleness_lab)
    assert "__all__" in listing and PUBLIC <= set(listing)


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="module 'staleness_lab' has no attribute 'nope'"):
        staleness_lab.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from staleness_lab import nope", {})
    assert not hasattr(staleness_lab, "nope")
