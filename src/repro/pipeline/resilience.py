"""Fault-tolerance policy and accounting: retries, timeouts, skips.

The paper's master/leader/worker machinery survives straggling and
dying workers across 96,000 nodes by reissuing unfinished tasks —
finished fragments live in the master's result store and are never
recomputed (§V-A). QF fragment methods make this cheap: every piece is
an independent, restartable unit. That dispatch protocol *is* the
executor (:mod:`repro.pipeline.executor`): every backend retries,
times out and checkpoints per fragment. This module holds what
configures and records it:

:class:`ResiliencePolicy`
    Per-fragment retry with exponential backoff and deterministic
    jitter, per-attempt wall-clock timeouts with speculative reissue
    of stragglers (process backend), and a failure policy:
    ``fail_fast`` aborts on the first exhausted fragment;
    ``skip_and_report`` degrades gracefully — the run completes, the
    partial Eq. (1) assembly omits the missing pieces, and the skipped
    fragments are flagged in the RunManifest. An executor without a
    policy makes one attempt per fragment, fails fast and has no
    timeout (:data:`DEFAULT_POLICY`).

:class:`ResilienceReport`
    What one ``run`` did: checkpoints written, retries, reissues,
    timeouts, corrupted results, pool restarts, skipped fragments.

Every recovery path is deterministic and exercisable via the
``QF_FAULTS`` injection seam (:mod:`repro.pipeline.faults`); semantics
and the fault grammar are documented in ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

__all__ = [
    "DEFAULT_POLICY",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "ResiliencePolicy",
    "ResilienceReport",
]

FAIL_FAST = "fail_fast"
SKIP_AND_REPORT = "skip_and_report"
_POLICIES = (FAIL_FAST, SKIP_AND_REPORT)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard to try before declaring a fragment lost.

    ``max_attempts`` counts the first execution: 1 means no retries.
    Backoff before attempt ``k >= 2`` is
    ``backoff_s * backoff_factor**(k - 2)``, stretched by a
    deterministic jitter fraction derived from (seed, label, attempt)
    — reproducible run-to-run, decorrelated across fragments.
    ``timeout_s`` bounds one attempt's wall clock: the process backend
    speculatively reissues a straggler the moment it exceeds it (the
    first valid result wins); the in-process backends detect the
    overrun only after the attempt returns and keep the valid result.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    timeout_s: float | None = None
    failure_policy: str = FAIL_FAST
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.failure_policy not in _POLICIES:
            raise ValueError(
                f"failure_policy must be one of {_POLICIES}, "
                f"got {self.failure_policy!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, "
                             f"got {self.timeout_s}")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError("backoff_s >= 0, backoff_factor >= 1, "
                             "jitter >= 0 required")

    def backoff(self, label: str, attempt: int) -> float:
        """Seconds to wait before launching ``attempt`` (1-based)."""
        if attempt <= 1 or self.backoff_s == 0.0:  # qf: exact-zero — disabled-backoff guard
            return 0.0
        base = self.backoff_s * self.backoff_factor ** (attempt - 2)
        digest = hashlib.sha256(
            f"{self.seed}|{label}|{attempt}".encode()
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (1.0 + self.jitter * frac)

    def as_dict(self) -> dict:
        return asdict(self)


#: the policy of an executor built without one: a single attempt per
#: fragment, fail-fast, no timeout
DEFAULT_POLICY = ResiliencePolicy(max_attempts=1)


@dataclass
class ResilienceReport:
    """What the fault-tolerance layer did during one ``run``.

    Embedded (as a dict) in the run's
    :class:`~repro.pipeline.executor.ThroughputReport`, and through it
    in the :class:`~repro.obs.manifest.RunManifest` — production runs
    must be auditable for how many results needed a second chance.
    """

    policy: dict = field(default_factory=dict)
    n_tasks: int = 0
    store_writes: int = 0
    retries: int = 0
    reissues: int = 0
    timeouts: int = 0
    corrupted: int = 0
    pool_restarts: int = 0
    attempts: dict = field(default_factory=dict)     # label -> attempts used
    failures: dict = field(default_factory=dict)     # label -> [descriptions]
    skipped: list = field(default_factory=list)      # [{label, index, ...}]

    def as_dict(self) -> dict:
        return asdict(self)
