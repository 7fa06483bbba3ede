"""The verdict tracker against the verdict rule written out one step at a time.

``dynamics._track`` judges a run block by block, and skips the run-length
scan on blocks whose distances all lie inside the verdict lines.  Here it is
fed synthetic 1-D states whose block boundaries the test controls (through
``BLOCK_CAP``), and everything it returns is compared with a per-step
reference: the verdict, the escape step, the step count, the amplification,
the recorded distances and the kept states.
"""

import math

import numpy as np
import pytest

from staleness_lab import dynamics
from staleness_lab.dynamics import CONVERGED, DIVERGED, UNDECIDED

LO, HI = 1e-6, 1e6  # the verdict lines of a run starting at distance 1
BELOW, MID = 1e-7, 0.5


def _reference(states, window, max_steps, every):
    """The verdict rule, one step at a time."""
    norms = [1.0]
    below = 0
    status, escape, t = UNDECIDED, None, 0
    for y in states[:max_steps]:
        t += 1
        mag = abs(y)
        norms.append(mag)
        if not mag <= HI:  # non-finite diverges
            status, escape = DIVERGED, t
            break
        below = below + 1 if mag < LO else 0
        if below >= window:
            status = CONVERGED
            break
    recorded = None
    if every:
        recorded = norms[::every]
        if t % every:
            recorded.append(norms[t])
    return status, escape, t, norms[t], recorded


def _track(states, window, max_steps, every):
    """``_track`` over ``states``, padded with quiet steps past their end."""
    pos = 0

    def advance(n):
        nonlocal pos
        block = states[pos:pos + n]
        block = block + [MID] * (n - len(block))
        pos += n
        return np.array(block)

    return dynamics._track(advance, 1.0, 1.0, window, max_steps, 1e6, 1e-6,
                           every=every, keep_states=True)


def _check(states, window, max_steps=None, every=3):
    if max_steps is None:
        max_steps = len(states)
    verdict, norms = _track(states, window, max_steps, every)
    status, escape, t, mag, recorded = _reference(states, window, max_steps, every)
    assert (verdict.status, verdict.escape_step, verdict.steps) == (status, escape, t)
    assert verdict.amplification == (mag if math.isfinite(mag) else math.inf)
    kept = np.array([1.0] + states[:t]).reshape(-1, 1)
    np.testing.assert_array_equal(verdict.states, kept)
    if every:
        np.testing.assert_array_equal(norms, recorded)
    else:
        assert norms is None


def _below_run(k):
    return [BELOW * (-1) ** i for i in range(k)]


CAPS = (1, 2, 3, 5, 8, dynamics.BLOCK_CAP)


@pytest.fixture(params=CAPS, ids=lambda c: f"cap{c}")
def cap(request, monkeypatch):
    monkeypatch.setattr(dynamics, "BLOCK_CAP", request.param)
    return request.param


class TestEdgesOfTheLines:
    @pytest.mark.parametrize("window", [2, 4])
    def test_magnitudes_exactly_on_the_lines_decide_nothing(self, cap, window):
        states = [LO, -HI, HI, -LO] * 10
        _check(states, window)

    def test_just_past_hi_diverges(self, cap):
        _check([MID] * 7 + [HI, math.nextafter(HI, math.inf)] + [MID] * 5, 3)

    def test_just_under_lo_counts_as_below(self, cap):
        _check([MID] * 4 + [math.nextafter(LO, 0.0)] * 6 + [MID], 6)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 5, 6, 11])
    def test_mid_block_non_finite_diverges(self, cap, bad, at):
        states = [MID] * 16
        states[at] = bad
        _check(states, 4)

    def test_nan_inside_a_below_run_diverges(self, cap):
        _check(_below_run(3) + [math.nan] + _below_run(10), 5)


class TestRunsBelowLo:
    def test_blocks_of_one_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "BLOCK_CAP", 1)
        for k in range(1, 7):
            _check([MID] * 3 + _below_run(k) + [MID] * 3, 4, every=1)

    def test_run_spanning_blocks_converges(self, cap):
        for start in range(0, 9):
            _check([MID] * start + _below_run(12) + [MID] * 4, 7)

    def test_quiet_block_resets_the_run(self, cap):
        # a short run ends a block, a quiet stretch follows, then another
        # short run: together they are long enough, but they are not one run
        for first in range(1, 5):
            for gap in (1, 2, 5, 9):
                states = [MID] * 3 + _below_run(first) + [MID] * gap + _below_run(4) + [MID] * 8
                _check(states, 5, every=1)

    def test_budget_ends_inside_a_run(self, cap):
        _check([MID] * 2 + _below_run(10), 20, max_steps=9)

    def test_random_sequences(self, cap):
        rng = np.random.default_rng(11)
        levels = [MID, -MID, BELOW, -BELOW, LO, HI, 2 * HI, math.nan, math.inf]
        weights = np.array([30, 30, 30, 30, 3, 3, 1, 1, 1], dtype=float)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            picks = rng.choice(len(levels), size=n, p=weights / weights.sum())
            states = [levels[i] for i in picks]
            _check(states, int(rng.integers(2, 8)), every=int(rng.integers(0, 4)))
