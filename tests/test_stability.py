import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import companion_max_magnitude, companion_roots, grid_threshold

from staleness_lab import stability
from staleness_lab.charpoly import (DelayModel, OptimizerSpec, as_delay, char_poly, pmf_discrete_gaussian,
                                   pmf_uniform)
from staleness_lab.errors import NoConvergence, NoThreshold
from staleness_lab.stability import (
    METHOD_BISECTION,
    ThresholdCurve,
    analytic_threshold_plain,
    numeric_threshold,
    scale_lr,
    taylor_inverse_threshold,
    threshold_curve,
)


def _crossing(variant, m, delay):
    """The ``(k, theta)`` crossing the search of one delay picks."""
    return stability._crossings([stability._Split(variant, m, as_delay(delay))])[0]


class TestClosedForm:
    def test_tau_zero_is_two_over_a(self):
        assert analytic_threshold_plain(1.0, 0) == 2.0
        assert analytic_threshold_plain(4.0, 0) == 0.5

    def test_tau_eight_frozen(self):
        assert analytic_threshold_plain(1.0, 8) == 0.18453671892660398

    def test_scales_inversely_with_a(self):
        for tau in (1, 7, 33):
            assert analytic_threshold_plain(2.5, tau) == pytest.approx(
                analytic_threshold_plain(1.0, tau) / 2.5, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_threshold_plain(0.0, 4)
        with pytest.raises(ValueError):
            analytic_threshold_plain(1.0, -1)


class TestTaylorInverse:
    def test_frozen_values(self):
        assert taylor_inverse_threshold(1) == 3.0 / math.pi
        assert taylor_inverse_threshold(64) == 41.061975317709

    def test_error_small_for_all_tau(self):
        worst = max(
            abs(1.0 / analytic_threshold_plain(1.0, tau) - taylor_inverse_threshold(tau))
            for tau in range(1, 65)
        )
        assert worst < 0.05

    def test_rejects_tau_zero(self):
        with pytest.raises(ValueError):
            taylor_inverse_threshold(0)


class TestLrHelpers:
    def test_scale_lr_frozen(self):
        assert scale_lr(0.8, 8) == 0.07391982714328925

    def test_scale_lr_is_threshold_ratio_linearized(self):
        # x = pi / (4 tau + 2) stands in for the exact ratio sin(x) / sin(pi/2),
        # so the rule overshoots by x / sin(x): pi / 2 at tau 0
        for tau in range(65):
            x = math.pi / (4 * tau + 2)
            exact_ratio = analytic_threshold_plain(1.0, tau) / analytic_threshold_plain(1.0, 0)
            assert scale_lr(0.8, tau) / (0.8 * exact_ratio) == pytest.approx(x / math.sin(x), rel=1e-12)


def _search_corpus():
    """Plain, momentum and shifted at tau 0..64, uniform pmfs 1..1 to 1..64
    and discrete Gaussians 1..30."""
    cases = []
    for tau in range(65):
        cases.append(("plain", 0.0, DelayModel.constant(tau)))
        cases += [(v, m, DelayModel.constant(tau))
                  for v in ("momentum", "shifted") for m in (0.5, 0.9)]
    cases += [("plain", 0.0, pmf_uniform(1, hi)) for hi in range(1, 65)]
    cases += [("plain", 0.0, pmf_discrete_gaussian(mu)) for mu in range(1, 31)]
    return cases


class TestNumericThreshold:
    def test_matches_closed_form_within_tolerance(self):
        for tau in (0, 1, 3, 8, 17, 33):
            r = numeric_threshold("plain", 1.0, DelayModel.constant(tau))
            assert abs(r.eta_star - analytic_threshold_plain(1.0, tau)) <= 1e-6

    def test_tau_eight_frozen_bisection_value(self):
        r = numeric_threshold("plain", 1.0, DelayModel.constant(8))
        assert r.eta_star == 0.18453671923828124
        assert r.method == METHOD_BISECTION

    def test_result_metadata(self):
        r = numeric_threshold("momentum", 1.0, DelayModel.constant(4), m=0.5)
        lo, hi = r.bracket
        assert lo < r.eta_star < hi
        assert hi - lo <= r.tolerance * r.eta_star
        assert (r.variant, r.m, r.a) == ("momentum", 0.5, 1.0)
        assert r.max_root_residual <= 1e-9

    def test_accepts_bare_int_delay(self):
        assert numeric_threshold("plain", 1.0, 8).eta_star == \
            numeric_threshold("plain", 1.0, DelayModel.constant(8)).eta_star

    def test_threshold_scales_exactly_with_a(self):
        r1 = numeric_threshold("plain", 1.0, DelayModel.constant(8))
        r2 = numeric_threshold("plain", 2.0, DelayModel.constant(8))
        assert r2.eta_star == r1.eta_star / 2.0

    def test_momentum_frozen_triple(self):
        got = [numeric_threshold("momentum", 1.0, DelayModel.constant(16), m=m).eta_star
               for m in (0.0, 0.5, 0.9)]
        assert got == [0.09516383178710938, 0.0904911359863281, 0.07488019702148435]
        assert got[0] > got[1] > got[2]

    def test_shifted_frozen_triple(self):
        got = [numeric_threshold("shifted", 1.0, DelayModel.constant(16), m=m).eta_star
               for m in (0.0, 0.5, 0.9)]
        assert got == [0.09516383178710938, 0.11197219287109375, 0.12261014306640622]
        assert got[0] < got[1] < got[2]

    def test_agrees_with_coarse_grid_oracle(self):
        # independent coarse sweep over companion-matrix magnitudes
        for variant, m in (("plain", 0.0), ("momentum", 0.6), ("shifted", 0.6)):
            dm = DelayModel.constant(4)

            def stable(eta):
                p = char_poly(OptimizerSpec(variant, eta, m), 1.0, dm)
                return companion_max_magnitude(p.coeffs) < 1.0

            steps = 4000
            last_stable = grid_threshold(stable, 1e-3, 1.0, steps=steps)
            cell = (1.0 - 1e-3) / (steps - 1)
            got = numeric_threshold(variant, 1.0, dm, m=m).eta_star
            assert last_stable <= got <= last_stable + cell

    def test_stochastic_uniform_frozen(self):
        r = numeric_threshold("plain", 1.0, pmf_uniform(1, 9))
        assert r.eta_star == 0.3799540458984375

    def test_point_mass_pmf_equals_constant(self):
        pm = DelayModel((6,), (1.0,))
        assert numeric_threshold("plain", 1.0, pm).eta_star == \
            numeric_threshold("plain", 1.0, DelayModel.constant(6)).eta_star

    def test_stochastic_threshold_above_worst_case(self):
        # spreading mass below the max delay can only help
        mixed = numeric_threshold("plain", 1.0, pmf_uniform(1, 9)).eta_star
        worst = analytic_threshold_plain(1.0, 9)
        assert mixed > worst

    def test_tau_zero_momentum_boundary_is_the_closed_form(self):
        # at tau=0 both momentum variants cross at eta*a = 2(1+m)/(1-m):
        # 38 at m = 0.9 and 398 at m = 0.99
        for variant in ("momentum", "shifted"):
            for m in (0.8, 0.9, 0.99):
                r = numeric_threshold(variant, 1.0, DelayModel.constant(0), m=m)
                want = 2.0 * (1.0 + m) / (1.0 - m)
                lo, hi = r.bracket
                assert lo <= want <= hi
                assert abs(r.eta_star - want) <= r.tolerance * want

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("pmf", [pmf_uniform(1, 4), pmf_uniform(1, 16),
                                     pmf_discrete_gaussian(8)], ids=["1..4", "1..16", "g8"])
    def test_momentum_with_pmf_matches_an_oracle_bisection(self, pmf, m):
        # bisection on companion-matrix magnitudes, to well below rel_tol
        def stable(eta):
            p = char_poly(OptimizerSpec("momentum", eta, m), 1.3, pmf)
            return companion_max_magnitude(p.coeffs) < 1.0

        lo, hi = 1e-6, 2e-6
        while stable(hi):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if stable(mid) else (lo, mid)
        r = numeric_threshold("momentum", 1.3, pmf, m=m)
        assert abs(r.eta_star - lo) <= r.tolerance * lo

    def test_rejects_shifted_with_random_delay(self):
        with pytest.raises(ValueError, match="shifted momentum needs a constant delay"):
            numeric_threshold("shifted", 1.0, pmf_uniform(1, 4), m=0.5)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0, 1e-17, 1e-300])
    def test_rejects_bad_rel_tol_before_the_crossing_scan(self, monkeypatch, rel_tol):
        monkeypatch.setattr(stability, "_crossings", None)
        with pytest.raises(ValueError, match="rel_tol"):
            numeric_threshold("plain", 1.0, DelayModel.constant(3), rel_tol=rel_tol)

    @pytest.mark.parametrize("variant, m, a, delay", [
        *[(v, m, 1.0, tau) for v, m in (("plain", 0.0), ("momentum", 0.5), ("shifted", 0.5))
          for tau in (0, 1, 16, 257)],
        *[("plain", 0.0, a, pmf_uniform(1, 64)) for a in (1e-200, 1.0, 1e200)],
    ])
    def test_bracket_meets_the_finest_tolerance(self, variant, m, a, delay):
        # at 2**-52 the bisection runs down to adjacent floats, whose gap still meets it
        r = numeric_threshold(variant, a, delay, m=m, rel_tol=2.0 ** -52)
        lo, hi = r.bracket
        assert 0.0 < hi - lo <= r.tolerance * r.eta_star
        assert lo <= r.eta_star < hi

    def test_adjacent_ends_report_the_stable_one(self):
        # the midpoint of adjacent floats rounds onto one of them; eta* is
        # then lo, below the exact edge 2 sin(pi / 10) = 0.6180339887498948482...
        r = numeric_threshold("plain", 1.0, 2, rel_tol=2.0 ** -52)
        assert r.bracket == (0.6180339887498948, 0.6180339887498949)
        assert r.eta_star == 0.6180339887498948

    def test_bisection_continues_where_the_ends_sum_overflows(self):
        # lo + hi overflows near the float maximum; the midpoint 0.5 lo + 0.5 hi
        # still halves the bracket down to the tolerance
        r = numeric_threshold("plain", 5.84678727693734e-309, 1)
        assert r.bracket == (1.7103409869758758e+308, 1.7103410003379149e+308)
        assert r.bracket[0] <= r.eta_star < r.bracket[1]

    def test_a_subnormal_threshold_stops_at_adjacent_floats(self):
        # near the float maximum eta* is subnormal: bisection stops at
        # adjacent floats, 4.2e-16 of eta* apart, the one miss of the tolerance
        r = numeric_threshold("plain", 1.7e308, 0, rel_tol=2.0 ** -52)
        lo, hi = r.bracket
        assert (lo, hi) == (1.176470588235294e-308, 1.1764705882352945e-308)
        assert hi == np.nextafter(lo, math.inf)
        gap = (hi - lo) / r.eta_star
        assert gap == pytest.approx(4.2e-16, rel=0.01) and gap > r.tolerance

    def test_frozen_digest_over_a_corpus(self):
        # every search's bracket, crossing and residual, bit for bit
        cases = _search_corpus()
        h = hashlib.sha256()
        for variant, m, delay in cases:
            r = numeric_threshold(variant, 1.0, delay, m=m)
            h.update(repr((r.eta_star, r.bracket, r.crossing_angle, r.max_root_residual)).encode())
        assert len(cases) == 419
        assert h.hexdigest() == "e8043e244fd8949ae4e5e9561c8c7fdf7ae3fb8278016337246bd401f81d3356"


class TestBoundaryCrossing:
    def test_plain_crossing_angle_and_closed_form(self):
        for tau in list(range(301)) + [10_000]:
            r = numeric_threshold("plain", 1.0, DelayModel.constant(tau))
            theta = math.pi / (2 * tau + 1)
            assert r.crossing_angle == pytest.approx(theta, rel=1e-11)
            want = analytic_threshold_plain(1.0, tau)
            assert abs(r.eta_star - want) <= r.tolerance * want
            assert r.max_root_residual <= 1e-12

    def test_certificate_rejects_a_wrong_crossing(self, monkeypatch):
        crossings = stability._crossings

        def too_far(splits):
            return [(1.5 * k, theta) for k, theta in crossings(splits)]

        monkeypatch.setattr(stability, "_crossings", too_far)
        with pytest.raises(NoConvergence, match="certificate"):
            numeric_threshold("plain", 1.0, DelayModel.constant(8))

    def test_crossing_lies_in_the_bracket_at_the_results_angle(self):
        for variant, m, delay in (("plain", 0.0, 8), ("shifted", 0.9, 5),
                                  ("plain", 0.0, pmf_uniform(1, 12))):
            k, theta = _crossing(variant, m, delay)
            r = numeric_threshold(variant, 1.0, delay, m=m)
            assert theta == r.crossing_angle
            assert r.bracket[0] <= k <= r.bracket[1]

    @pytest.mark.parametrize("variant,m,delay", [
        ("plain", 0.0, pmf_uniform(1, 64)),
        ("plain", 0.0, pmf_discrete_gaussian(32)),
        ("momentum", 0.99, DelayModel.constant(0)),
        ("momentum", 0.99, DelayModel.constant(16)),
        ("shifted", 0.99, DelayModel.constant(16)),
    ])
    def test_bracket_straddles_companion_radius(self, variant, m, delay):
        def rho(eta):
            return companion_max_magnitude(char_poly(OptimizerSpec(variant, eta, m), 1.0, delay).coeffs)

        lo, hi = numeric_threshold(variant, 1.0, delay, m=m).bracket
        assert rho(lo) <= 1.0 + 1e-9 and rho(hi) >= 1.0 - 1e-9
        assert rho(lo * (1 - 1e-4)) < 1.0 < rho(hi * (1 + 1e-4))


def _one_step_crossing(variant, m, delay):
    """The crossing with no cut and no guess: every bracket of the scan
    bisected one level per evaluation of ``w`` until none can narrow, then
    the pick over all of them."""
    split = stability._Split(variant, m, delay)
    lo, hi, f_lo, _ = stability._scan(split)
    lo_pos = f_lo > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not ((mid > lo) & (mid < hi)).any():
            break
        same = (split.w(mid).imag > 0.0) == lo_pos
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    pick, = stability._picks(split, None, [lo])
    return pick


def _bisect_together(splits, scans):
    """``_bisect_brackets`` over the searches of ``splits``, stacked as a
    sweep's block stacks them."""
    if len(splits) == 1:
        return stability._bisect_brackets(splits[0], None, scans)
    return stability._bisect_brackets(stability._Split.stacked(splits), list(range(len(splits))), scans)


# (variant, m, delay): many brackets each, and one whose cut keeps some
_REFERENCE_CASES = [
    ("plain", 0.0, DelayModel.constant(300)),
    ("plain", 0.0, DelayModel.constant(1000)),
    ("plain", 0.0, pmf_uniform(1, 200)),
    ("plain", 0.0, pmf_discrete_gaussian(40)),
    ("momentum", 0.99, DelayModel.constant(64)),
    ("shifted", 0.9, DelayModel.constant(64)),
    ("plain", 0.0, DelayModel((2, 39), (0.8, 0.2))),
]


@pytest.fixture
def bisected(monkeypatch):
    """How many brackets each ``_bisect_brackets`` call carries, in order."""
    counts = []
    bisect = stability._bisect_brackets

    def counting(split, searches, scans):
        counts.append(sum(len(scan[0]) for scan in scans))
        return bisect(split, searches, scans)

    monkeypatch.setattr(stability, "_bisect_brackets", counting)
    return counts


@pytest.fixture
def w_calls(monkeypatch):
    """How many angles each ``_Split.w`` call evaluates, in order."""
    sizes = []
    w = stability._Split.w

    def counting(self, theta, owner=None):
        sizes.append(theta.size)
        return w(self, theta, owner)

    monkeypatch.setattr(stability._Split, "w", counting)
    return sizes


@pytest.fixture
def picked(monkeypatch):
    """Each ``_picks`` call's split, and the polynomials it evaluated, in
    order."""
    calls, evaluated = [], []
    picks, call = stability._picks, stability._CirclePoly.__call__

    def counting_call(self, theta, owner=None):
        evaluated.append(self)
        return call(self, theta, owner)

    def counting_picks(split, searches, lows):
        evaluated.clear()
        found = picks(split, searches, lows)
        calls.append((split, list(evaluated)))
        return found

    monkeypatch.setattr(stability._CirclePoly, "__call__", counting_call)
    monkeypatch.setattr(stability, "_picks", counting_picks)
    return calls


@pytest.fixture
def stacks(monkeypatch):
    """How many splits each ``_Split.stacked`` call stacks, in order."""
    sizes = []
    stacked = stability._Split.stacked.__func__

    def counting(cls, splits):
        sizes.append(len(splits))
        return stacked(cls, splits)

    monkeypatch.setattr(stability._Split, "stacked", classmethod(counting))
    return sizes


class TestCrossingCut:
    """Only the brackets that can hold the smallest ``k`` are bisected, each
    along its guessed path; the crossing is the one-step search's over every
    bracket, bit for bit."""

    @pytest.mark.parametrize("variant,m,delay", _REFERENCE_CASES)
    def test_crossing_equals_bisecting_every_bracket_one_step_at_a_time(self, variant, m, delay):
        want = _one_step_crossing(variant, m, delay)
        assert _crossing(variant, m, delay) == want

    @pytest.mark.parametrize("variant,m,delay", _REFERENCE_CASES)
    def test_brackets_left_after_the_cut_are_bisected_and_picked_again(
            self, monkeypatch, bisected, variant, m, delay):
        # an unbounded slack puts the cut at inf, as a first bracket with no
        # positive k does, so every other bracket survives it
        monkeypatch.setattr(stability, "CUT_SLACK", math.inf)
        n = len(stability._scan(stability._Split(variant, m, delay))[0])
        want = _one_step_crossing(variant, m, delay)
        assert _crossing(variant, m, delay) == want
        assert bisected == [1, n - 1]

    def test_the_cut_keeps_a_bracket_that_can_hold_the_edge(self, bisected):
        _crossing("plain", 0.0, DelayModel((2, 39), (0.8, 0.2)))
        assert len(bisected) == 2 and bisected[0] == 1 and bisected[1] >= 1

    @pytest.mark.parametrize("variant,m,delay", [
        ("plain", 0.0, DelayModel.constant(256)),
        ("shifted", 0.9, DelayModel.constant(64)),
        ("plain", 0.0, pmf_uniform(1, 64)),
    ])
    def test_a_search_evaluates_w_eight_times(self, bisected, w_calls, variant, m, delay):
        # bisecting every bracket one level at a time takes 50 or more; the
        # guessed paths take 6, 7 and 3 calls, and the pick takes none
        _crossing(variant, m, delay)
        assert bisected == [1]
        assert len(w_calls) <= 8

    def test_a_search_with_no_bracket_picks_from_one_a_and_one_b(self, bisected, w_calls, picked):
        # plain tau 0 crosses at z = -1 alone, where eta*a = 2
        assert _crossing("plain", 0.0, DelayModel.constant(0)) == (2.0, math.pi)
        assert bisected == [0] and w_calls == []
        (split, evaluated), = picked
        assert evaluated == [split.a, split.b]

    @pytest.mark.parametrize("guess", ["lower end", "upper end", "midpoint", "random"])
    def test_the_guess_moves_no_bracket(self, monkeypatch, guess):
        # every search of the reference cases alone, and a plain sweep of
        # constant and pmf delays bisected one kind at a time, as it is batched
        sweep = [stability._Split("plain", 0.0, as_delay(d))
                 for d in [*range(0, 40, 3), pmf_uniform(1, 12), pmf_uniform(3, 20),
                           pmf_discrete_gaussian(6)]]
        groups = [[stability._Split(*case)] for case in _REFERENCE_CASES]
        groups += [[s for s in sweep if s.kind == kind] for kind in {s.kind for s in sweep}]

        def lows():
            return [[lo.tobytes() for lo in _bisect_together(splits, [stability._scan(s) for s in splits])]
                    for splits in groups]

        want = lows()
        rng = np.random.default_rng(7)
        monkeypatch.setattr(stability, "_guess", {
            "lower end": lambda lo, hi, f_lo, f_hi: lo,
            "upper end": lambda lo, hi, f_lo, f_hi: hi,
            "midpoint": lambda lo, hi, f_lo, f_hi: 0.5 * (lo + hi),
            "random": lambda lo, hi, f_lo, f_hi: rng.uniform(lo, hi),
        }[guess])
        assert lows() == want


def _certified_ends(variant, m, delay, rel_tol=1e-8):
    """The search at ``a = 1``, its split and the two ends of its bracket."""
    r = numeric_threshold(variant, 1.0, delay, m=m, rel_tol=rel_tol)
    split = stability._Split(variant, m, delay)
    return r, split, stability._BracketEnds(split, *r.bracket)


def _root_counts(ends, theta, vals):
    """The roots inside each end's circle counted from the samples, as the
    certificate counts them; None where a count does not resolve."""
    _, _, turns, resolved = stability._phase_resolved(ends, theta, vals)
    return [round(float(t) / math.pi) if ok else None for t, ok in zip(turns, resolved)]


class TestCertificate:
    def test_counts_are_the_even_grids_with_any_hint(self):
        # at both bracket ends of every corpus search, with the crossing
        # angle as the hint and with a hint a radian away from it
        for variant, m, delay in _search_corpus():
            r, split, ends = _certified_ends(variant, m, delay)
            want = _root_counts(ends, *ends.even())
            assert want[0] == split.degree and want[1] < split.degree
            theta = r.crossing_angle
            for hint in (theta, (theta + 1.0) % math.pi):
                assert _root_counts(ends, *ends.grid(hint)) == want

    def test_counts_equal_the_companion_eigenvalues_inside(self):
        # a search to rel_tol 1e-4 keeps its bracket ends far enough from the
        # edge to count against eigenvalues: at 1e-8 the crossing root lies
        # within 1e-9 of the circle in 204 of these 218 counts
        counted = skipped = 0
        for variant, m, delay in _search_corpus():
            if delay.max_delay > 16:
                continue
            r, split, ends = _certified_ends(variant, m, delay, rel_tol=1e-4)
            got = _root_counts(ends, *ends.grid(r.crossing_angle))
            for eta, radius, inside in zip(r.bracket, (1.0 + 1e-12, 1.0 - 1e-12), got):
                coeffs = char_poly(OptimizerSpec(variant, eta, m), 1.0, delay).coeffs
                modulus = np.abs(companion_roots(coeffs))
                if np.any(np.abs(modulus - radius) < 1e-9):
                    skipped += 1
                    continue
                counted += 1
                assert inside == np.count_nonzero(modulus < radius)
        assert counted + skipped == 218 and skipped <= 5

    @pytest.mark.parametrize("degree,hint", [(1, math.pi), (5, 0.0), (64, 0.3), (257, 1e-9)])
    def test_grid_holds_the_even_angles_and_the_hint(self, degree, hint):
        ends = stability._BracketEnds(stability._Split("plain", 0.0, DelayModel.constant(degree - 1)),
                                      0.5, 0.7)
        even, _ = ends.even()
        n = stability._grid_size(degree)
        # as dense as n even angles on [0, pi], from an FFT of power-of-two size
        half = even.size - 1
        assert half >= n - 1 and half & (half - 1) == 0
        assert even[0] == 0.0 and even[-1] == math.pi
        theta, vals = ends.grid(hint)
        assert np.isin(even, theta).all() and hint in theta
        assert theta[0] == 0.0 and theta[-1] == math.pi and (np.diff(theta) > 0.0).all()
        near = np.abs(theta - hint)
        assert np.count_nonzero((near > 0.0) & (near < 1e-12)) >= 2
        # the FFT's values are each row's at its angle
        scale = np.abs(ends.table).sum(axis=1, keepdims=True)
        assert np.abs(vals - ends(theta)).max() <= 1e-13 * scale.max()

    @pytest.mark.parametrize("variant,m,delay", [
        ("plain", 0.0, DelayModel.constant(256)),
        ("shifted", 0.9, DelayModel.constant(64)),
        ("plain", 0.0, pmf_uniform(1, 64)),
    ])
    def test_a_certificate_takes_one_fft_and_three_tables(self, monkeypatch, variant, m, delay):
        # the FFT covers both ends on the even grid; exponential tables only
        # the cluster around the crossing and each round of refinement
        ffts, tables = [], []
        rfft, call = np.fft.rfft, stability._BracketEnds.__call__

        def counting_rfft(*args, **kwargs):
            ffts.append(1)
            return rfft(*args, **kwargs)

        def counting_call(self, theta):
            tables.append(theta.size)
            return call(self, theta)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(stability._BracketEnds, "__call__", counting_call)
        numeric_threshold(variant, 1.0, delay, m=m)
        assert len(ffts) == 1 and 1 <= len(tables) <= 3

    def test_a_row_that_cannot_resolve_stops_alone(self):
        # a zero on the circle at theta = 1 stops its row when float
        # resolution runs out, about 16 cuts deep; one at 1e-150, beside the
        # sample at 0, when the MAX_REFINE checks run out; z - 0.5 resolves
        # beside them and turns by pi over [0, pi]
        zeros = np.array([np.exp(1j), np.exp(1e-150j), 0.5])[:, None]

        def f(theta):
            return np.exp(1j * theta) - zeros

        theta = np.linspace(0.0, math.pi, 9)
        thetas, _, turn, resolved = stability._phase_resolved(f, theta, f(theta))
        assert resolved.tolist() == [False, False, True]
        assert round(turn[2] / math.pi) == 1
        assert len(thetas) == stability.MAX_REFINE - 1
        assert np.abs(thetas[-1] - 1.0).min() > 0.5
        assert np.abs(np.concatenate(thetas) - 1.0).min() < 1e-12

    def test_near_one_momentum_resolves_above_the_rounding_floor(self):
        # With m this close to 1, |P| of a bracket end at the crossing angle,
        # (k_hi - k_lo) |B| there, nears the rounding floor eps sum |c| of the
        # expanded polynomial, and whether a count resolves is up to
        # rounding.  Either way the search is certified or does not resolve;
        # four times above the floor it must be certified, and a hundred
        # times below it the samples near the crossing are rounding alone.
        for m in (0.99999, 0.999999, 1 - 1e-7):
            for tau in (1, 16, 100, 1000):
                split = stability._Split("momentum", m, DelayModel.constant(tau))
                k_star, theta = _crossing("momentum", m, tau)
                k_lo, k_hi = stability._bisect_eta(
                    lambda k: k <= k_star, 1.0, stability.BRACKET_START, 1e-8,
                    method=METHOD_BISECTION, variant="momentum", m=m, delay=split.delay).bracket
                floor = np.finfo(float).eps * np.abs(split.at(k_star).coefs).sum()
                gap = (k_hi - k_lo) * abs(split.b(np.array([theta]))[0]) / floor
                try:
                    r = numeric_threshold("momentum", 1.0, tau, m=m)
                except NoConvergence as e:
                    assert "did not resolve" in str(e) and gap < 4.0
                else:
                    assert r.method == METHOD_BISECTION and gap > 0.01


class TestThresholdCurve:
    def test_rows_and_fit(self):
        curve = threshold_curve("plain", 1.0, [4, 8, 16, 32])
        assert [r.x for r in curve.rows] == [4, 8, 16, 32]
        for r in curve.rows:
            assert r.inv_a_eta == pytest.approx(1.0 / r.result.eta_star)
        assert curve.slope == pytest.approx(2.0 / math.pi, rel=0.01)
        assert curve.r_squared > 0.999

    def test_pmf_rows_use_expected_delay(self):
        curve = threshold_curve("plain", 1.0, [pmf_uniform(1, 3), pmf_uniform(1, 9)])
        assert [r.x for r in curve.rows] == [2.0, 5.0]

    def test_failed_row_is_recorded_not_raised(self, no_threshold_at_tau_zero):
        curve = threshold_curve("shifted", 1.0, [0, 4, 8], m=0.9)
        assert curve.rows[0].result is None
        assert "stable" in curve.rows[0].error
        assert curve.rows[1].result is not None
        assert math.isfinite(curve.slope)

    def test_csv_shape(self, tmp_path):
        curve = threshold_curve("plain", 1.0, [2, 4])
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "tau_or_Etau,eta_star,inv_a_eta,method,max_root_residual"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2.0"
        assert float(first[1]) == curve.rows[0].result.eta_star
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        assert path.read_text() == text

    def test_csv_failed_row_cell_layout(self, no_threshold_at_tau_zero):
        curve = threshold_curve("shifted", 1.0, [0, 4], m=0.9)
        line = curve.to_csv().strip().split("\n")[1]
        assert line.startswith("0.0,")
        assert ",failed," in line

    def test_rows_near_the_float_maximum_stay_finite(self):
        # at a = 1e-309 the thresholds lie near the float maximum, where the
        # bracket ends' sum overflows; the fit is the one a = 1 gives
        curve = threshold_curve("plain", 1e-309, range(12, 65))
        assert all(math.isfinite(row.result.eta_star) for row in curve.rows)
        assert curve.r_squared >= 0.999999

    def test_single_row_has_nan_fit(self):
        curve = threshold_curve("plain", 1.0, [4])
        assert math.isnan(curve.slope) and math.isnan(curve.r_squared)


_CORPUS_DIGEST = "e8043e244fd8949ae4e5e9561c8c7fdf7ae3fb8278016337246bd401f81d3356"

_plain_delay = hs.one_of(
    hs.integers(0, 40),
    hs.tuples(hs.integers(1, 40), hs.integers(1, 40)).map(lambda b: pmf_uniform(min(b), max(b))),
    hs.integers(1, 20).map(pmf_discrete_gaussian),
)
_sweep = hs.one_of(
    hs.tuples(hs.just("plain"), hs.just(0.0), hs.lists(_plain_delay, min_size=1, max_size=6)),
    hs.tuples(hs.sampled_from(("momentum", "shifted")), hs.floats(0.0, 0.99),
              hs.lists(hs.integers(0, 40), min_size=1, max_size=6)),
)


def _fields(r):
    return (r.eta_star, r.bracket, r.crossing_angle, r.max_root_residual)


class TestBatchedSweep:
    @settings(max_examples=80, deadline=None, database=None)
    @given(_sweep, hs.integers(-4, 4), hs.sampled_from((1e-8, 1e-6, 1e-4)))
    def test_rows_equal_searches_one_delay_at_a_time(self, sweep, j, rel_tol):
        variant, m, delays = sweep
        a = 1.5**j
        curve = threshold_curve(variant, a, delays, m=m, rel_tol=rel_tol)
        assert len(curve.rows) == len(delays)
        for row, delay in zip(curve.rows, delays):
            alone = numeric_threshold(variant, a, delay, m=m, rel_tol=rel_tol)
            assert row.error is None
            assert _fields(row.result) == _fields(alone)

    def test_corpus_as_curves_hashes_to_the_frozen_digest(self):
        cases = _search_corpus()
        families: dict = {}
        for variant, m, delay in cases:
            families.setdefault((variant, m), []).append(delay)
        found = {}
        for (variant, m), delays in families.items():
            curve = threshold_curve(variant, 1.0, delays, m=m)
            found.update(((variant, m, d), row.result) for d, row in zip(delays, curve.rows))
        h = hashlib.sha256()
        for case in cases:
            h.update(repr(_fields(found[case])).encode())
        assert h.hexdigest() == _CORPUS_DIGEST

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_rows_do_not_depend_on_the_block(self, monkeypatch, block):
        sweeps = [("plain", 0.0, [*range(13), pmf_uniform(1, 12), pmf_uniform(2, 3), pmf_uniform(3, 20),
                                  pmf_discrete_gaussian(4)]),
                  ("shifted", 0.9, list(range(13)))]
        want = [threshold_curve(v, 1.0, delays, m=m).rows for v, m, delays in sweeps]
        monkeypatch.setattr(stability, "BRACKET_BLOCK", block)
        assert [threshold_curve(v, 1.0, delays, m=m).rows for v, m, delays in sweeps] == want

    def test_every_bracket_ends_where_it_would_alone(self):
        # not just the crossing each search keeps: exhausted brackets stand
        # still while the rest of the batch narrows
        for variant, m, delays in [("plain", 0.0, [pmf_uniform(1, 12), pmf_uniform(3, 20),
                                                   pmf_discrete_gaussian(6)]),
                                   ("plain", 0.0, list(range(0, 40, 3))),
                                   ("momentum", 0.99, list(range(0, 40, 3)))]:
            splits = [stability._Split(variant, m, DelayModel.constant(d) if isinstance(d, int)
                                       else d) for d in delays]
            scans = [stability._scan(split) for split in splits]
            together = _bisect_together(splits, scans)
            assert sum(map(len, together)) > 10 * len(splits)
            for split, scan, lows in zip(splits, scans, together):
                alone, = stability._bisect_brackets(split, None, [scan])
                assert np.array_equal(lows, alone)

    def test_a_sweep_block_picks_with_one_evaluation_a_round(self, w_calls, picked):
        # each round's picks over the 65 searches are one evaluation of A
        # and one of B, not 65, and the picks call no w: the 9 w calls are
        # the bisection's
        threshold_curve("plain", 1.0, range(65))
        assert len(w_calls) <= 10
        assert 1 <= len(picked) <= 2
        for split, evaluated in picked:
            assert evaluated == [split.a, split.b]

    def test_a_sweep_block_builds_its_stack_once(self, stacks):
        # one block for each kind, sparse and dense A and B, each stacked once
        # for both rounds of bisection and of picks
        threshold_curve("plain", 1.0, [*range(13), pmf_uniform(1, 12), pmf_uniform(2, 3),
                                       pmf_uniform(3, 20), DelayModel((2, 39), (0.8, 0.2))])
        assert stacks == [15, 2]

    def test_a_bisection_call_takes_at_most_a_block_of_angles(self, w_calls):
        # the first rounds of this sweep carry many searches, so their paths
        # are cut short to fit the block (uncut, the largest would take 4,457)
        threshold_curve("plain", 1.0, range(1001))
        assert stability.BRACKET_BLOCK // 2 < max(w_calls) <= stability.BRACKET_BLOCK

    def test_one_batched_crossing_call_per_curve(self, monkeypatch):
        calls = []
        crossings = stability._crossings

        def counting(splits):
            calls.append(len(splits))
            return crossings(splits)

        monkeypatch.setattr(stability, "_crossings", counting)
        threshold_curve("plain", 1.0, [0, 4, pmf_uniform(1, 12), 9])
        assert calls == [4]

    def test_failed_rows_stay_in_place_and_in_order(self, no_threshold_at_tau_zero):
        delays = [3, 0, pmf_uniform(1, 12), 0, 7]
        curve = threshold_curve("plain", 1.0, delays)
        assert [r.x for r in curve.rows] == [3.0, 0.0, 6.5, 0.0, 7.0]
        for row, delay in zip(curve.rows, delays):
            if delay == 0:
                assert row.result is None and "stable" in row.error
                with pytest.raises(NoThreshold):
                    numeric_threshold("plain", 1.0, delay)
            else:
                assert row.error is None
                assert _fields(row.result) == _fields(numeric_threshold("plain", 1.0, delay))
