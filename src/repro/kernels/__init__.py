"""Per-fragment compute kernels and their optimizations (paper §V-C/D).

* :mod:`repro.kernels.strength_reduction` — the two symmetry
  optimizations of Fig. 6, implemented on real grid/basis data with
  exact FLOP accounting (3 GEMM → 1 GEMM for H(1); 2 GEMM + 2 GEMV →
  1 + 1 for the response-density gradient).
* :mod:`repro.kernels.batched` — elastic GEMM batching: stride-32
  padding, grouping by padded shape, stacked matmul execution.
* :mod:`repro.kernels.worker` — the instrumented four-phase DFPT cycle
  (P(1) → n(1)(r) → Poisson → H(1)) whose FLOP counts drive the
  Table I reproduction.

These are the paper's §V-C/D mechanisms, reproduced and measured on
their own; the QM path (SCF, integrals, response) does not import this
package.
"""

from repro.kernels.strength_reduction import (
    h1_integration_naive,
    h1_integration_symmetric,
    rho1_gradient_naive,
    rho1_gradient_symmetric,
)
from repro.kernels.batched import BatchedGemmExecutor, pad_to_stride
from repro.kernels.worker import DFPTCycleResult, run_dfpt_cycle

__all__ = [
    "h1_integration_naive",
    "h1_integration_symmetric",
    "rho1_gradient_naive",
    "rho1_gradient_symmetric",
    "BatchedGemmExecutor",
    "pad_to_stride",
    "DFPTCycleResult",
    "run_dfpt_cycle",
]
