"""Exceptions shared across the library.

Failures carry their best partial result so callers can inspect how close an
iteration got instead of losing the work.
"""

from __future__ import annotations


class NoConvergence(RuntimeError):
    """An iterative solve hit its iteration cap before meeting tolerance."""

    def __init__(self, message: str, best=None, iterations: int | None = None):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


class NoThreshold(RuntimeError):
    """No stability boundary was found.

    Raised when no root of the characteristic polynomial ever reaches the
    unit circle, or when a simulator search finds its runs unstable already
    at the smallest probe.
    """


class UndecidedAtProbe(RuntimeError):
    """A threshold probe stayed undecided even after its step budget doubled."""

    def __init__(self, message: str, eta: float, max_steps: int):
        super().__init__(message)
        self.eta = eta
        self.max_steps = max_steps
