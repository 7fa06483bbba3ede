import pytest

from staleness_lab import stability
from staleness_lab.errors import NoThreshold


@pytest.fixture
def no_threshold_at_tau_zero(monkeypatch):
    """Make every threshold search at constant delay 0 fail with NoThreshold.

    No real configuration fails any more, so the failed-row plumbing of
    sweeps and the CLI is exercised through this stand-in.
    """
    crossing = stability.boundary_crossing

    def failing(variant, m, delay):
        if delay.is_constant and delay.tau == 0:
            raise NoThreshold("stable at every step size; no boundary crossing")
        return crossing(variant, m, delay)

    monkeypatch.setattr(stability, "boundary_crossing", failing)
