"""End-to-end QF-RAMAN driver.

Chains the full workflow of the paper: geometry → QF decomposition →
per-piece DFPT responses (the master/leader/worker payload) →
Eq. (1) assembly → Raman spectrum via dense diagonalization or the
Lanczos/GAGQ solver. Also exposes the bridge that maps a decomposition
onto the simulated supercomputers for timing studies.
"""

from repro.pipeline.canonical import (
    CanonicalStore,
    canonical_key,
    canonicalize,
)
from repro.pipeline.executor import (
    FragmentExecutor,
    FragmentExecutorError,
    FragmentTask,
    ThroughputReport,
    make_executor,
)
from repro.pipeline.faults import FaultPlan, InjectedFault
from repro.pipeline.qf_raman import PipelineResult, QFRamanPipeline
from repro.pipeline.resilience import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    ResiliencePolicy,
    ResilienceReport,
    ResilientExecutor,
)
from repro.pipeline.rigid import kabsch_rotation, rotate_response

__all__ = [
    "PipelineResult",
    "QFRamanPipeline",
    "CanonicalStore",
    "canonical_key",
    "canonicalize",
    "FragmentExecutor",
    "FragmentExecutorError",
    "FragmentTask",
    "ThroughputReport",
    "make_executor",
    "FaultPlan",
    "InjectedFault",
    "FAIL_FAST",
    "SKIP_AND_REPORT",
    "ResiliencePolicy",
    "ResilienceReport",
    "ResilientExecutor",
    "kabsch_rotation",
    "rotate_response",
]
