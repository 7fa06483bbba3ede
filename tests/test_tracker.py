"""The verdict tracker against the verdict rule written out one step at a time.

``dynamics._track`` judges a run block by block, and skips the run-length
scan on blocks whose distances all lie inside the verdict lines.  Here it is
fed synthetic 1-D states whose block boundaries the test controls (through
``BLOCK_CAP``), and everything it returns is compared with a per-step
reference: the verdict, the escape step, the step count, the amplification,
the recorded distances and the kept states.  The same tracker judges runs
stepped as the columns of one array: there it is held to the same reference
column by column, each column's verdict must be the one it gives that
column alone, and each column must leave the array at the end of the block
where its verdict falls.
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

    def advance(n, cols):
        nonlocal pos
        assert cols is None
        block = states[pos:pos + n]
        block = block + [MID] * (n - len(block))
        pos += n
        return np.array(block).reshape(-1, 1)

    (verdict,), norms = dynamics._track(advance, 1.0, 1.0, 1, window, max_steps, 1e6, 1e-6,
                                        every=every, keep_states=True)
    return verdict, norms


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


def _track_columns(columns, window, max_steps):
    """``_track`` over ``columns`` as one array, each padded with quiet steps.

    Returns the verdicts and, per column, the step range of the last block
    it was stepped in.  No block holds more than ``8 * BLOCK_CAP`` states
    unless it is one step long.
    """
    live = list(range(len(columns)))
    last_block = {}
    pos = 0

    def advance(n, cols):
        nonlocal live, pos
        if cols is not None:
            live = [live[c] for c in cols]
        assert n == 1 or n * len(live) <= 8 * dynamics.BLOCK_CAP
        block = [(columns[r] + [MID] * (pos + n))[pos:pos + n] for r in live]
        for r in live:
            last_block[r] = (pos, pos + n)
        pos += n
        return np.array(block).T

    verdicts, norms = dynamics._track(advance, 1.0, 1.0, len(columns), window, max_steps,
                                      1e6, 1e-6)
    assert norms is None
    return verdicts, last_block


def _check_columns(columns, window, max_steps=None):
    if max_steps is None:
        max_steps = max(map(len, columns))
    verdicts, last_block = _track_columns(columns, window, max_steps)
    assert len(verdicts) == len(columns)
    for states, verdict in zip(columns, verdicts):
        padded = states + [MID] * (max_steps - len(states))
        status, escape, t, mag, _ = _reference(padded, window, max_steps, 0)
        assert (verdict.status, verdict.escape_step, verdict.steps) == (status, escape, t)
        assert verdict.amplification == (mag if math.isfinite(mag) else math.inf)
        assert (verdict.trace, verdict.states, verdict.clipped_delays) == (None, None, 0)
        # the same tracker at width 1, on this column alone
        alone, _ = _track(states, window, max_steps, 0)
        assert ((alone.status, alone.escape_step, alone.steps, alone.amplification)
                == (verdict.status, verdict.escape_step, verdict.steps, verdict.amplification))
    for c, verdict in enumerate(verdicts):
        # a column leaves the array at the end of the block where it ends
        start, end = last_block[c]
        assert start < verdict.steps <= end
        if verdict.status == UNDECIDED:
            assert end == max_steps


class TestColumns:
    """``_track`` judges each column of an array as it judges one run."""

    def test_columns_ending_in_the_first_block(self, cap):
        columns = [[2 * HI], [MID, -2 * HI], _below_run(3), [MID] * 3 + _below_run(3),
                   [MID] * 40]
        _check_columns(columns, 3, max_steps=40)

    def test_several_columns_ending_in_one_block(self, cap):
        columns = [[MID] * 9 + [2 * HI], [MID] * 9 + [math.nan], [MID] * 6 + _below_run(4),
                   [MID] * 8 + [-2 * HI], [MID] * 30]
        _check_columns(columns, 4, max_steps=30)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_column_going_non_finite_mid_block(self, cap, bad):
        columns = [[MID] * 13 + [bad] + [MID] * 20, _below_run(2) + [MID] * 31,
                   [MID] * 20 + _below_run(9), [-MID] * 34]
        _check_columns(columns, 6)

    @pytest.mark.parametrize("max_steps", [7, 23, 61])
    def test_undecided_at_a_budget_off_the_span_and_block(self, cap, max_steps):
        # window 5 (a span of 4 steps); the budgets divide by no block size
        columns = [[MID] * 70, [MID] * (max_steps - 2) + _below_run(4),
                   [MID] * (max_steps - 1) + [2 * HI], _below_run(max_steps + 3)]
        _check_columns(columns, 5, max_steps=max_steps)

    def test_wide_arrays_take_shorter_blocks(self, cap):
        # 40 columns: a block holds at most 8 * cap states, so it ends
        # sooner than _track's, and widens as columns leave
        columns = [[MID] * (3 * k) + _below_run(5) for k in range(20)]
        columns += [[MID] * (5 * k) + [2 * HI] for k in range(20)]
        _check_columns(columns, 5, max_steps=120)

    def test_random_columns(self, cap):
        rng = np.random.default_rng(12)
        levels = [MID, -MID, BELOW, -BELOW, LO, HI, 2 * HI, math.nan, math.inf]
        weights = np.array([30, 30, 30, 30, 3, 3, 1, 1, 1], dtype=float)
        for _ in range(30):
            columns = []
            for _ in range(int(rng.integers(1, 9))):
                picks = rng.choice(len(levels), size=int(rng.integers(1, 60)),
                                   p=weights / weights.sum())
                columns.append([levels[i] for i in picks])
            _check_columns(columns, int(rng.integers(2, 8)), int(rng.integers(1, 70)))
