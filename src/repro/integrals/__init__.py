"""Molecular integrals over contracted cartesian Gaussians.

The McMurchie–Davidson scheme, vectorized:

* :mod:`repro.integrals.engine` — the engine used by the SCF and DFPT
  code: one-electron matrices, Schwarz-screened ERI tensor, dipole
  integrals, and first-derivative integrals for analytic gradients.
* :mod:`repro.integrals.batched` — the class-grouped pair-block build
  and the flat-index scatters it uses.

The scalar reference (memoized recursions, any angular momentum) lives
in ``tests/integrals/mcmurchie.py``, as the independent oracle for the
engine.

Schwarz screening uses the Cauchy–Schwarz bound
``|(ab|cd)| <= sqrt((ab|ab)) * sqrt((cd|cd))`` to skip shell-pair-block
combinations whose bound falls below ``IntegralEngine.schwarz_cutoff``;
skipped integrals are set to zero, so every ERI element is exact or
bounded in magnitude by the cutoff. The engine default is 0 (screening
off); :class:`repro.scf.rhf.RHF` enables it at 1e-12, far below SCF
convergence noise. Counters in ``IntegralEngine.screen_stats`` record
how many pair-block combinations were evaluated vs. screened.

The engine is tested against the scalar reference to 1e-11..1e-12
absolute (the two differ in floating-point evaluation order), against
finite differences and literature SCF energies, and bit for bit against
the per-pair loop oracle in ``tests/integrals/oracle.py``.
"""

from repro.integrals.engine import IntegralEngine

__all__ = ["IntegralEngine"]
