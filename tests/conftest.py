import sys

import pytest

from staleness_lab import dynamics, pssim, stability  # noqa: F401 (pssim: for no_run)
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


@pytest.fixture
def no_run(monkeypatch):
    """Unbind ``dynamics._run``, which starts every run, wherever it is bound.

    A test using this fails with a TypeError if any simulator or server run
    starts, so it shows that a check comes before every step.
    """
    start = dynamics._run
    bound = [module for name, module in list(sys.modules.items())
             if name.startswith("staleness_lab") and getattr(module, "_run", None) is start]
    assert {m.__name__ for m in bound} >= {"staleness_lab.dynamics", "staleness_lab.pssim"}
    for module in bound:
        monkeypatch.setattr(module, "_run", None)
