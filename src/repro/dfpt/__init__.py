"""Density-functional / Hartree-Fock perturbation theory.

Per-fragment response machinery of the QF-RAMAN worker:

* :mod:`repro.dfpt.cphf` — coupled-perturbed HF for homogeneous
  electric fields → the polarizability tensor, one direct solve of the
  MO orbital Hessian (the paper's DFPT response cycle
  P(1) → n(1)(r) → v(1) → H(1), folded into one matrix).
* :mod:`repro.dfpt.gradient` — analytic nuclear gradients (exact-ERI
  and density-fitted paths).
* :mod:`repro.dfpt.hessian` — the atomic-displacement loop: Hessian by
  central differences of analytic gradients and the Raman tensor
  dα/dR by central differences of CPHF polarizabilities. This mirrors
  the paper's leader (generates displacements) / worker (one DFPT run
  per displacement) split.
"""

from repro.dfpt.cphf import CPHF, polarizability
from repro.dfpt.gradient import gradient
from repro.dfpt.hessian import FragmentResponse, fragment_response

__all__ = [
    "CPHF",
    "polarizability",
    "gradient",
    "FragmentResponse",
    "fragment_response",
]
