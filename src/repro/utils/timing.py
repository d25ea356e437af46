"""The wall clock for code that must time itself with tracing off.

Phase times come from :mod:`repro.obs` spans (``phase_totals`` over a
trace). :class:`Stopwatch` covers what has to work untraced: per-task
wall times, executor busy time and the resilience deadlines.
"""

from __future__ import annotations

import time


class Stopwatch:
    """One-shot elapsed-seconds measure.

    The sanctioned raw-clock access for per-task wall times (linter
    rule QF008 flags direct ``time.perf_counter()`` calls outside this
    module and :mod:`repro.obs`, so ad-hoc timing stays discoverable).
    """

    __slots__ = ("_start",)

    def __init__(self):
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start

