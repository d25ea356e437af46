"""Unified event counters for the QF-RAMAN stack.

One registry replaces the ad-hoc counts scattered through the code
(SCF iteration tallies, cache hit/miss attributes, rigid-dedupe
rotation counts). Producers call
``counters().inc(name)``; consumers read ``counters().as_dict()`` or
export through :mod:`repro.obs.export`.

The registry is *process-local*: worker processes accumulate into
their own copy (inherited at fork) and ship the per-task delta back to
the parent inside the task result (see
:func:`repro.obs.tracer.telemetry_shipment`), where the executor merges
it. Counter names are dotted, lowercase, and part of the stable
contract documented in ``docs/observability.md``.

Counting is always on — an integer add per *aggregated* event (never
per matrix element) is far below measurement noise, which is why there
is no null-counters object mirroring the
:class:`~repro.obs.tracer.NullTracer`.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["Counters", "counters", "reset_counters"]


class Counters:
    """Named monotonically increasing integer counters."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = defaultdict(int)

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` (default 1) to counter ``name``."""
        self._counts[name] += int(n)

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        """Name-sorted plain-dict snapshot."""
        return dict(sorted(self._counts.items()))

    def snapshot(self) -> dict[str, int]:
        """Cheap copy for later :meth:`delta_since` comparison."""
        return dict(self._counts)

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Increments accumulated since ``snapshot`` (zero deltas
        omitted) — the payload a worker ships back to its parent."""
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self._counts.items()
            if value != snapshot.get(name, 0)
        }

    def merge(self, other: "Counters | dict[str, int]") -> "Counters":
        """Add another registry (or a shipped delta dict) into this one."""
        items = other.items() if isinstance(other, dict) else \
            other._counts.items()
        for name, value in items:
            self._counts[name] += int(value)
        return self

    def reset(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


_GLOBAL = Counters()


def counters() -> Counters:
    """The process-wide registry every producer reports into."""
    return _GLOBAL


def reset_counters() -> None:
    """Clear the process-wide registry (tests and fresh CLI runs)."""
    _GLOBAL.reset()
