"""Vibrational spectroscopy solvers.

* :mod:`repro.spectra.modes` — mass-weighted Hessians and the dense
  full-diagonalization baseline (what the paper calls computationally
  infeasible beyond ~10^5 atoms).
* :mod:`repro.spectra.lanczos` — Lanczos tridiagonalization by the
  plain three-term recurrence: no stored basis, O(n) memory and O(kn)
  time per functional.
* :mod:`repro.spectra.gagq` — the generalized averaged Gauss quadrature
  augmentation (paper §V-E, Eq. 5-8): spectra as matrix functionals
  d^T δ(ω - H) d without any full diagonalization.
* :mod:`repro.spectra.raman` — Raman activities and broadened spectra,
  via either solver.
"""

from repro.spectra.modes import (
    NormalModes,
    mass_weighted_hessian,
    normal_modes,
)
from repro.spectra.lanczos import lanczos
from repro.spectra.gagq import gauss_quadrature_functional, gagq_matrix
from repro.spectra.raman import (
    RamanSpectrum,
    raman_activities,
    raman_spectrum_dense,
    raman_spectrum_lanczos,
)

__all__ = [
    "NormalModes",
    "mass_weighted_hessian",
    "normal_modes",
    "lanczos",
    "gauss_quadrature_functional",
    "gagq_matrix",
    "RamanSpectrum",
    "raman_activities",
    "raman_spectrum_dense",
    "raman_spectrum_lanczos",
]
