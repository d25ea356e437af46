"""Molecular integrals over contracted cartesian Gaussians.

The McMurchie–Davidson scheme, vectorized:

* :mod:`repro.integrals.engine` — the engine used by the SCF and DFPT
  code: one-electron matrices, the exact ERI tensor and the
  density-fitting 2-/3-center integrals, dipole integrals, and
  first-derivative integrals for analytic gradients.
* :mod:`repro.integrals.batched` — the class-grouped pair-block build
  and the flat-index scatters it uses.

The scalar reference (memoized recursions, any angular momentum) lives
in ``tests/integrals/mcmurchie.py``, as the independent oracle for the
engine.

The only screening is at the shell-pair level: the pair-block build
drops every shell pair whose Gaussian-product prefactor falls below
``batched.PAIR_PREFACTOR_SCREEN``. Every kept pair is contracted
against every other, with no integral-level bound: on fragment-sized
pieces a bound screens almost nothing (``docs/performance.md``).

The engine is tested against the scalar reference to 1e-11..1e-12
absolute (the two differ in floating-point evaluation order), against
finite differences and literature SCF energies, and bit for bit against
the per-pair loop oracle in ``tests/integrals/oracle.py``.
"""

from repro.integrals.engine import IntegralEngine

__all__ = ["IntegralEngine"]
