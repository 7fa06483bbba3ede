import pytest

from staleness_lab import stability
from staleness_lab.errors import NoThreshold


@pytest.fixture
def no_threshold_at_tau_zero(monkeypatch):
    """Make every threshold search at constant delay 0 fail with NoThreshold.

    No real configuration fails any more, so the failed-row plumbing of
    sweeps and the CLI is exercised through this stand-in.
    """
    crossings = stability._crossings

    def failing(splits):
        return [
            NoThreshold("stable at every step size; no boundary crossing")
            if split.delay.is_constant and split.delay.tau == 0 else found
            for split, found in zip(splits, crossings(splits))
        ]

    monkeypatch.setattr(stability, "_crossings", failing)
