"""One definition of a valid input, seen from every public entry point.

Step sizes and curvatures are positive and finite, relative tolerances are
finite and at least float resolution (2**-52), momenta lie in [0, 1),
every delay, constant or in a pmf's support, is an integer in [0, MAX_TAU],
and every count (steps, workers, dimensions, root sweeps) is an integer
>= 1; numpy integers count as integers, bools do not.  Each rejected input
raises ValueError at once, never a NaN, a truncated delay, an AttributeError
or an allocation sized by the bad value.
"""

import inspect
import math

import numpy as np
import pytest

from staleness_lab.charpoly import (
    MAX_TAU,
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
from staleness_lab.dynamics import (
    QuadraticProblem,
    SimConfig,
    empirical_threshold,
    escape_time_curve,
    power_iteration,
    simulate_expectation,
    simulate_sgd,
)
from staleness_lab.pssim import RoundRobin, SampledDelay, ps_empirical_threshold, run_ps
from staleness_lab.roots import all_roots, all_roots_many
from staleness_lab.stability import (
    CurveRow,
    analytic_threshold_plain,
    numeric_threshold,
    scale_lr,
    taylor_inverse_threshold,
    threshold_curve,
)
from staleness_lab.svgchart import render_line_chart

PROBLEM = QuadraticProblem([[1.0]])
PMF = pmf_uniform(1, 3)
OPT = OptimizerSpec("plain", 0.1)
QUADRATIC = Polynomial((2.0, -3.0, 1.0))  # (z - 1)(z - 2), solved in 4 sweeps

# Entry point -> call with the checked argument replaced by x.
POSITIVE = {
    "OptimizerSpec eta": lambda x: OptimizerSpec("plain", x),
    "char_poly_plain eta": lambda x: char_poly_plain(x, 1.0, 3),
    "char_poly_plain a": lambda x: char_poly_plain(0.1, x, 3),
    "char_poly_momentum eta": lambda x: char_poly_momentum(x, 1.0, 3, 0.5),
    "char_poly_momentum a": lambda x: char_poly_momentum(0.1, x, 3, 0.5),
    "char_poly_shifted eta": lambda x: char_poly_shifted(x, 1.0, 3, 0.5),
    "char_poly_shifted a": lambda x: char_poly_shifted(0.1, x, 3, 0.5),
    "char_poly_stochastic eta": lambda x: char_poly_stochastic(x, 1.0, PMF),
    "char_poly_stochastic a": lambda x: char_poly_stochastic(0.1, x, PMF),
    "char_poly a": lambda x: char_poly(OPT, x, DelayModel.constant(3)),
    "analytic_threshold_plain a": lambda x: analytic_threshold_plain(x, 3),
    "scale_lr eta0": lambda x: scale_lr(x, 3),
    "numeric_threshold a": lambda x: numeric_threshold("plain", x, 3),
    "threshold_curve a": lambda x: threshold_curve("plain", x, [3]),
    "escape_time_curve eta": lambda x: escape_time_curve(PROBLEM, "plain", 3, [x]),
    "power_iteration tol": lambda x: power_iteration(lambda v: v, 2, tol=x),
}
BAD_POSITIVE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0.0, "negative": -1.0}

# A relative tolerance is also no finer than float resolution, 2**-52.
REL_TOL = {
    "numeric_threshold rel_tol": lambda x: numeric_threshold("plain", 1.0, 3, rel_tol=x),
    "threshold_curve rel_tol": lambda x: threshold_curve("plain", 1.0, [3], rel_tol=x),
    "empirical_threshold rel_tol": lambda x: empirical_threshold(PROBLEM, "plain", 3, rel_tol=x),
    "ps_empirical_threshold rel_tol": lambda x: ps_empirical_threshold(PROBLEM, RoundRobin(4),
                                                                       "plain", rel_tol=x),
}
BAD_REL_TOL = {**BAD_POSITIVE, "1e-17": 1e-17, "1e-300": 1e-300}

MOMENTUM = {
    "OptimizerSpec m": lambda x: OptimizerSpec("momentum", 0.1, x),
    "char_poly_momentum m": lambda x: char_poly_momentum(0.1, 1.0, 3, x),
    "char_poly_shifted m": lambda x: char_poly_shifted(0.1, 1.0, 3, x),
    "numeric_threshold m": lambda x: numeric_threshold("momentum", 1.0, 3, m=x),
    "threshold_curve m": lambda x: threshold_curve("momentum", 1.0, [3], m=x),
    "empirical_threshold m": lambda x: empirical_threshold(PROBLEM, "momentum", 3, m=x),
    "ps_empirical_threshold m": lambda x: ps_empirical_threshold(PROBLEM, RoundRobin(4),
                                                                 "momentum", m=x),
    "escape_time_curve m": lambda x: escape_time_curve(PROBLEM, "momentum", 3, [0.1], m=x),
}
BAD_MOMENTUM = {"nan": math.nan, "inf": math.inf, "negative": -0.1, "1": 1.0}

DELAY = {
    "DelayModel.constant": lambda x: DelayModel.constant(x),
    "DelayModel.pmf": lambda x: DelayModel.pmf({x: 1.0}),
    "pmf_uniform lo": lambda x: pmf_uniform(x, 5),
    "pmf_uniform hi": lambda x: pmf_uniform(1, x),
    "pmf_discrete_gaussian": lambda x: pmf_discrete_gaussian(x),
    "char_poly_plain": lambda x: char_poly_plain(0.1, 1.0, x),
    "char_poly_momentum": lambda x: char_poly_momentum(0.1, 1.0, x, 0.5),
    "char_poly_shifted": lambda x: char_poly_shifted(0.1, 1.0, x, 0.5),
    "char_poly_stochastic": lambda x: char_poly_stochastic(0.1, 1.0, x),
    "char_poly": lambda x: char_poly(OPT, 1.0, x),
    "analytic_threshold_plain": lambda x: analytic_threshold_plain(1.0, x),
    "taylor_inverse_threshold": lambda x: taylor_inverse_threshold(x),
    "scale_lr": lambda x: scale_lr(0.1, x),
    "numeric_threshold": lambda x: numeric_threshold("plain", 1.0, x),
    "threshold_curve": lambda x: threshold_curve("plain", 1.0, [x]),
    "SimConfig": lambda x: SimConfig(OPT, x),
    "empirical_threshold": lambda x: empirical_threshold(PROBLEM, "plain", x),
    "escape_time_curve": lambda x: escape_time_curve(PROBLEM, "plain", x, [0.1]),
}
BAD_DELAY = {"2.5": 2.5, "3.0": 3.0, "True": True, "nan": math.nan, "inf": math.inf,
             "negative": -1, "MAX_TAU + 1": MAX_TAU + 1, "text": "3", "None": None}

# Entry point -> call with the checked count replaced by x; the last word
# of the name is the parameter its error message names.
COUNT = {
    "SimConfig max_steps": lambda x: SimConfig(OPT, 3, max_steps=x),
    "SimConfig record_every": lambda x: SimConfig(OPT, 3, record_every=x),
    "escape_time_curve max_steps": lambda x: escape_time_curve(PROBLEM, "plain", 3, [0.1],
                                                               max_steps=x),
    "run_ps steps": lambda x: run_ps(PROBLEM, RoundRobin(1), OPT, x),
    "empirical_threshold probe_steps": lambda x: empirical_threshold(PROBLEM, "plain", 3,
                                                                     probe_steps=x),
    "ps_empirical_threshold probe_steps": lambda x: ps_empirical_threshold(
        PROBLEM, RoundRobin(4), "plain", probe_steps=x),
    "power_iteration d": lambda x: power_iteration(lambda v: v, x),
    "power_iteration max_iter": lambda x: power_iteration(lambda v: v, 2, max_iter=x),
    "RoundRobin n_workers": lambda x: RoundRobin(x),
    "all_roots max_iter": lambda x: all_roots(QUADRATIC, max_iter=x),
    # checked before any polynomial, so even with none
    "all_roots_many max_iter": lambda x: all_roots_many([], max_iter=x),
}
BAD_COUNT = {"2.5": 2.5, "3.0": 3.0, "True": True, "nan": math.nan, "inf": math.inf,
             "0": 0, "negative": -1, "text": "3"}

# Entry point -> call with the seed replaced by x; the last word of the
# name is the parameter its error message names.
SGD_PROBLEM = QuadraticProblem([[1.0]], components=[[[0.5]], [[1.5]]])
SEED = {
    "SimConfig seed": lambda x: SimConfig(OPT, 3, seed=x),
    "SampledDelay seed": lambda x: SampledDelay(PMF, seed=x),
    "simulate_sgd seed": lambda x: simulate_sgd(SGD_PROBLEM, SimConfig(OPT, 3), seed=x),
    "run_ps seed": lambda x: run_ps(SGD_PROBLEM, RoundRobin(2), OPT, 10, seed=x, mode="sgd"),
    "run_ps init_seed": lambda x: run_ps(PROBLEM, RoundRobin(2), OPT, 10, init="random_unit",
                                         init_seed=x),
    "power_iteration seed": lambda x: power_iteration(lambda v: v, 2, seed=x),
}
BAD_SEED = {"2.5": 2.5, "3.0": 3.0, "True": True, "False": False, "nan": math.nan,
            "inf": math.inf, "negative": -1, "text": "3"}

# Delays inside [0, MAX_TAU] whose pmf support is not.
SUPPORT_PAST_MAX_TAU = {
    "DelayModel.pmf": lambda: DelayModel.pmf({1: 0.5, MAX_TAU + 1: 0.5}),
    "DelayModel": lambda: DelayModel((1, 2 * MAX_TAU), (0.5, 0.5)),
    "pmf_uniform": lambda: pmf_uniform(1, MAX_TAU + 1),
    "pmf_discrete_gaussian": lambda: pmf_discrete_gaussian(MAX_TAU // 2 + 1),
}


def _table(entries, values):
    return [pytest.param(call, x, id=f"{name}-{label}")
            for name, call in entries.items() for label, x in values.items()]


@pytest.mark.parametrize("call, x", _table(POSITIVE, BAD_POSITIVE) + _table(REL_TOL, BAD_REL_TOL)
                         + _table(MOMENTUM, BAD_MOMENTUM) + _table(DELAY, BAD_DELAY))
def test_rejected_input_raises_value_error(call, x):
    with pytest.raises(ValueError):
        call(x)


@pytest.mark.parametrize("name, x", [pytest.param(name, x, id=f"{name}-{label}")
                                     for name in COUNT for label, x in BAD_COUNT.items()])
def test_rejected_count_raises_value_error_naming_it(no_run, name, x):
    # before any probe or run is stepped
    with pytest.raises(ValueError, match=rf"\b{name.split()[-1]} must be"):
        COUNT[name](x)


@pytest.mark.parametrize("name, x", [pytest.param(name, x, id=f"{name}-{label}")
                                     for name in SEED for label, x in BAD_SEED.items()])
def test_rejected_seed_raises_value_error_naming_it(no_run, name, x):
    # before any run is stepped
    with pytest.raises(ValueError, match=rf"\b{name.split()[-1]} must be"):
        SEED[name](x)


@pytest.mark.parametrize("name", SEED)
def test_seeds_accept_none_and_numpy_integers(name):
    def result(x):
        value = SEED[name](x)
        return repr(value.norms if hasattr(value, "norms") else value)

    result(None)
    assert result(np.uint16(3)) == result(3)


def test_numpy_integer_seeds_are_stored_as_int():
    assert type(SimConfig(OPT, 3, seed=np.int64(3)).seed) is int
    assert type(SampledDelay(PMF, seed=np.uint16(3)).seed) is int


# Entry point -> call with the verdict lines replaced by (blowup, decay).
VERDICT_LINES = {
    "SimConfig": lambda b, d: SimConfig(OPT, 3, blowup_factor=b, decay_factor=d),
    "run_ps round robin": lambda b, d: run_ps(PROBLEM, RoundRobin(4), OPT, 100,
                                              blowup_factor=b, decay_factor=d),
    "run_ps sampled": lambda b, d: run_ps(PROBLEM, SampledDelay(PMF), OPT, 100,
                                          blowup_factor=b, decay_factor=d),
    "escape_time_curve": lambda b, d: escape_time_curve(
        PROBLEM, "plain", 3, [0.1], blowup_factor=b, decay_factor=d),
}
BAD_VERDICT_LINES = {"blowup 1": (1.0, 1e-6), "blowup 0.5": (0.5, 1e-6),
                     "blowup nan": (math.nan, 1e-6), "blowup inf": (math.inf, 1e-6),
                     "decay 1": (1e6, 1.0),
                     "decay 2": (1e6, 2.0), "decay 0": (1e6, 0.0), "decay negative": (1e6, -1.0),
                     "decay nan": (1e6, math.nan)}


@pytest.mark.parametrize("call, lines", _table(VERDICT_LINES, BAD_VERDICT_LINES))
def test_rejected_verdict_lines_raise_before_any_run(no_run, call, lines):
    with pytest.raises(ValueError, match=r"need blowup_factor > 1 > decay_factor > 0"):
        call(*lines)


# Library values refused outright, with the words their ValueError must hold.
REFUSED = {
    "Polynomial inf": (lambda: Polynomial((1.0, math.inf)), r"coefficient 1 is not finite \(inf\)"),
    "Polynomial -inf": (lambda: Polynomial((-math.inf, 0.0, 1.0)),
                        r"coefficient 0 is not finite \(-inf\)"),
    "Polynomial nan": (lambda: Polynomial((math.nan, 1.0)), r"coefficient 0 is not finite \(nan\)"),
    "QuadraticProblem.diagonal empty": (lambda: QuadraticProblem.diagonal([]),
                                        "hessian must be a non-empty square matrix"),
    "QuadraticProblem 0x0": (lambda: QuadraticProblem(np.zeros((0, 0))),
                             "hessian must be a non-empty square matrix"),
    "QuadraticProblem no components": (lambda: QuadraticProblem([[1.0]], np.zeros((0, 1, 1))),
                                       "components must be a non-empty stack"),
    "DelayModel zero in a pmf": (lambda: DelayModel((0, 1), (0.5, 0.5)),
                                 "pmf delays must be positive integers"),
    "DelayModel lengths": (lambda: DelayModel((1, 2), (1.0,)),
                           "delays and probs must be equal-length, non-empty"),
    "DelayModel order": (lambda: DelayModel((2, 1), (0.5, 0.5)),
                         "delays must be strictly increasing"),
    "DelayModel negative prob": (lambda: DelayModel((1, 2), (1.5, -0.5)),
                                 r"probabilities must lie in \(0, 1\]"),
    "QuadraticProblem component inf": (lambda: QuadraticProblem([[1.0]], components=[[[math.inf]]]),
                                       "component entries must be finite"),
    "QuadraticProblem component asymmetric": (
        lambda: QuadraticProblem(np.eye(2), components=[[[1.0, 2.0], [0.0, 1.0]]]),
        "every component must be symmetric"),
    "OptimizerSpec variant": (lambda: OptimizerSpec("adam", 0.1),
                              r"variant must be one of \('plain', 'momentum', 'shifted'\)"),
    "pmf_discrete_gaussian 0": (lambda: pmf_discrete_gaussian(0), "mu must be a positive integer"),
    "run_ps mode": (lambda: run_ps(PROBLEM, RoundRobin(2), OPT, 10, mode="bogus"),
                    "mode must be 'expectation' or 'sgd'"),
    "CurveRow failed": (lambda: CurveRow(x=1.0, result=None, error="e").inv_a_eta,
                        "failed row has no threshold"),
    "render_line_chart ragged": (lambda: render_line_chart(["x", "y"], [(1.0,)]),
                                 "row width must match header width"),
    "render_line_chart no data": (lambda: render_line_chart(["x", "y"], [(None, 1.0)]),
                                  "no numeric data to plot"),
    # a curve with no step size builds no SimConfig to check its other settings
    "escape_time_curve no etas": (lambda: escape_time_curve(PROBLEM, "plain", 3, []),
                                  "etas must name at least one step size"),
    "escape_time_curve no etas, bad variant and m": (
        lambda: escape_time_curve(PROBLEM, "bogus", 3, [], m=5.0),
        "etas must name at least one step size"),
    "escape_time_curve no etas, bad delay and max_steps": (
        lambda: escape_time_curve(PROBLEM, "plain", -4, [], max_steps=0),
        "etas must name at least one step size"),
    "escape_time_curve etas descending": (
        lambda: escape_time_curve(PROBLEM, "plain", 3, [0.2, 0.1]),
        "etas must be strictly ascending"),
    "escape_time_curve etas repeated": (
        lambda: escape_time_curve(PROBLEM, "plain", 3, [0.1, 0.1]),
        "etas must be strictly ascending"),
}


@pytest.mark.parametrize("call, words", REFUSED.values(), ids=REFUSED.keys())
def test_refused_value_raises_value_error_saying_why(call, words):
    with pytest.raises(ValueError, match=words):
        call()


# Curvatures so small that a search's step sizes overflow to inf, and every
# threshold search of one delay: each refuses the curvature by name before it
# steps or certifies at eta = inf.
OVERFLOWING_A = [5e-311, 1e-309, 1e-320, 5e-324]
SEARCHES = {
    "numeric_threshold": lambda a: numeric_threshold("plain", a, 0),
    "empirical_threshold": lambda a: empirical_threshold(QuadraticProblem([[a]]), "plain", 0),
    "ps_empirical_threshold round robin": lambda a: ps_empirical_threshold(
        QuadraticProblem([[a]]), RoundRobin(1), "plain"),
    "ps_empirical_threshold sampled": lambda a: ps_empirical_threshold(
        QuadraticProblem([[a]]), SampledDelay(PMF), "plain"),
}


@pytest.mark.parametrize("search", SEARCHES.values(), ids=SEARCHES.keys())
@pytest.mark.parametrize("a", OVERFLOWING_A)
def test_a_curvature_whose_step_sizes_overflow_is_refused_by_name(search, a):
    with pytest.raises(ValueError) as caught:
        search(a)
    assert str(caught.value) == f"a = {a!r} is too small: its step sizes overflow to inf"


@pytest.mark.parametrize("a", OVERFLOWING_A)
def test_a_sweep_marks_each_overflowing_row_failed_by_name(a):
    curve = threshold_curve("plain", a, [0, 1, 2])
    assert [row.error for row in curve.rows] == \
        [f"a = {a!r} is too small: its step sizes overflow to inf"] * 3


def test_a_tiny_curvature_whose_step_sizes_stay_finite_still_answers():
    assert numeric_threshold("plain", 1e-300, 0).bracket == (2e+300, 2.000000015625e+300)
    found = empirical_threshold(QuadraticProblem([[1e-300]]), "plain", 0, probe_steps=10_000)
    assert found.bracket == (1.9894335203468552e+300, 2.0170645414627836e+300)


def test_a_zero_delay_is_only_the_constant_model():
    # one rule for every constructor: a point mass at 0 is the constant delay 0
    assert DelayModel.pmf({0: 1.0}) == DelayModel((0,), (1.0,)) == DelayModel.constant(0)


def test_root_solver_takes_no_tolerance():
    # its convergence rule is roots.UPDATE_TOL, so no NaN or negative one can be passed
    assert list(inspect.signature(all_roots).parameters) == ["p", "max_iter"]
    assert list(inspect.signature(all_roots_many).parameters) == ["polys", "max_iter"]


def test_worker_count_induces_a_delay_within_max_tau():
    assert RoundRobin(MAX_TAU + 1).max_delay == MAX_TAU
    with pytest.raises(ValueError, match=rf"n_workers - 1 must be in \[0, {MAX_TAU}\]"):
        RoundRobin(MAX_TAU + 2)


@pytest.mark.parametrize("call", SUPPORT_PAST_MAX_TAU.values(), ids=SUPPORT_PAST_MAX_TAU.keys())
def test_pmf_support_past_max_tau_is_rejected(call):
    with pytest.raises(ValueError, match=r"tau must be in \[0, 10000\]"):
        call()


def test_error_text_names_the_input():
    with pytest.raises(ValueError, match="a must be positive and finite"):
        analytic_threshold_plain(math.nan, 3)
    with pytest.raises(ValueError, match=r"m must lie in \[0, 1\)"):
        OptimizerSpec("momentum", 0.1, 1.0)
    with pytest.raises(ValueError, match="tau must be an integer"):
        DelayModel.constant(2.5)


def _result(value):
    if hasattr(value, "rows"):  # a threshold curve
        return [row.result.eta_star for row in value.rows]
    if hasattr(value, "eta_star"):
        return value.eta_star
    return value


# The trajectory searches take their delay through SimConfig.
@pytest.mark.parametrize("name", [n for n in DELAY
                                  if n not in ("empirical_threshold", "escape_time_curve")])
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_numpy_integer_delays_are_accepted(name, kind):
    want, got = DELAY[name](3), DELAY[name](kind(3))
    assert _result(got) == _result(want)
    if isinstance(got, DelayModel):
        assert all(type(d) is int for d in got.delays)


def test_numpy_integer_delay_is_stored_as_int():
    assert type(SimConfig(OPT, np.int64(3)).delay.tau) is int
    assert type(DelayModel.constant(np.int64(MAX_TAU)).tau) is int


# Each count's result with an int, as a plain comparable value.
COUNT_RESULTS = {
    "SimConfig max_steps": lambda n: simulate_expectation(
        PROBLEM, SimConfig(OPT, 3, max_steps=n, record_trace=True)).trace,
    "SimConfig record_every": lambda n: simulate_expectation(
        PROBLEM, SimConfig(OPT, 3, max_steps=40, record_every=n, record_trace=True)).trace,
    "escape_time_curve max_steps": lambda n: escape_time_curve(
        PROBLEM, "plain", 3, [0.1, 0.5], max_steps=n).rows,
    "run_ps steps": lambda n: run_ps(PROBLEM, RoundRobin(2), OPT, n).norms,
    "empirical_threshold probe_steps": lambda n: empirical_threshold(
        PROBLEM, "plain", 3, probe_steps=n).bracket,
    "ps_empirical_threshold probe_steps": lambda n: ps_empirical_threshold(
        PROBLEM, RoundRobin(4), "plain", probe_steps=n).bracket,
    "power_iteration d": lambda n: power_iteration(lambda v: 2.0 * v, n, seed=0),
    "power_iteration max_iter": lambda n: power_iteration(lambda v: 2.0 * v, 3, max_iter=n,
                                                          seed=0),
    "RoundRobin n_workers": lambda n: run_ps(PROBLEM, RoundRobin(n), OPT, 60).norms,
    "all_roots max_iter": lambda n: all_roots(QUADRATIC, max_iter=n),
    "all_roots_many max_iter": lambda n: all_roots_many([QUADRATIC], max_iter=n),
}


@pytest.mark.parametrize("name", COUNT_RESULTS)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_numpy_integer_counts_are_accepted(name, kind):
    n = 20_000 if "probe_steps" in name else 5
    assert COUNT_RESULTS[name](kind(n)) == COUNT_RESULTS[name](n)


def test_numpy_integer_counts_are_stored_as_int():
    cfg = SimConfig(OPT, 3, max_steps=np.int64(7), record_every=np.uint16(2))
    assert type(cfg.max_steps) is int and type(cfg.record_every) is int
    assert type(RoundRobin(np.int32(4)).n_workers) is int


# A checked float comes back as a Python float, so a numpy number reaches no
# arithmetic, field or CSV cell.
NP_ONE, NP_HALF = np.float64(1.0), np.float64(0.5)
FLOAT_RESULT_FIELDS = ("eta_star", "tolerance", "m", "a", "max_root_residual", "crossing_angle")


def test_numpy_curvature_writes_the_same_threshold_csv():
    want = threshold_curve("plain", 1.0, [1, 2]).to_csv()
    assert threshold_curve("plain", NP_ONE, [1, 2]).to_csv() == want


def test_numpy_subnormal_curvature_brackets_as_a_float_does():
    # numpy scalar arithmetic warns where the float bracket overflows its sum
    a = 5.84678727693734e-309
    want = (1.7103409869758758e+308, 1.7103410003379149e+308)
    assert numeric_threshold("plain", a, 1).bracket == want
    assert numeric_threshold("plain", np.float64(a), 1).bracket == want


def test_numpy_step_size_and_momentum_are_stored_as_float():
    spec = OptimizerSpec("momentum", np.float64(0.1), np.float32(0.5))
    assert type(spec.eta) is float and type(spec.m) is float
    assert spec == OptimizerSpec("momentum", 0.1, 0.5)


@pytest.mark.parametrize("search", [
    lambda: numeric_threshold("momentum", NP_ONE, 3, m=NP_HALF, rel_tol=np.float64(1e-6)),
    lambda: threshold_curve("momentum", NP_ONE, [3], m=NP_HALF, rel_tol=np.float64(1e-6)),
    lambda: empirical_threshold(PROBLEM, "momentum", 3, m=NP_HALF, rel_tol=np.float64(0.05)),
    lambda: ps_empirical_threshold(PROBLEM, RoundRobin(4), "momentum", m=NP_HALF,
                                   rel_tol=np.float64(0.05)),
], ids=["numeric_threshold", "threshold_curve", "empirical_threshold", "ps_empirical_threshold"])
def test_numpy_inputs_give_float_result_fields(search):
    found = search()
    if hasattr(found, "rows"):
        [row] = found.rows
        found = row.result
    assert [type(getattr(found, f)) for f in FLOAT_RESULT_FIELDS] == [float] * 6
    assert [type(x) for x in found.bracket] == [float, float]
