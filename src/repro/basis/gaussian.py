"""Contracted Gaussian shells and basis-set construction.

A :class:`Shell` is a contraction of primitive cartesian Gaussians of a
single angular momentum l on one center; a :class:`BasisSet` is the
ordered list of shells for a geometry plus the shell→function offsets.

Cartesian component ordering for p shells is (x, y, z). Primitive
coefficients stored on the shell already include primitive norms; the
contraction is then renormalized so each basis function has unit
self-overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.basis.sto3g import STO3G
from repro.geometry.atoms import Geometry

#: cartesian angular components per l: l=0 -> [(0,0,0)], l=1 -> x,y,z
CARTESIAN_COMPONENTS: dict[int, list[tuple[int, int, int]]] = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    2: [
        (2, 0, 0), (1, 1, 0), (1, 0, 1),
        (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ],
}


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, lmn: tuple[int, int, int]) -> float:
    """Normalization constant of a primitive cartesian Gaussian."""
    i, j, k = lmn
    l = i + j + k
    num = (2.0 * alpha / math.pi) ** 0.75 * (4.0 * alpha) ** (l / 2.0)
    den = math.sqrt(
        _double_factorial(2 * i - 1)
        * _double_factorial(2 * j - 1)
        * _double_factorial(2 * k - 1)
    )
    return num / den


@dataclass
class Shell:
    """A contracted shell: angular momentum, center, primitives.

    ``coefs`` include primitive norms and the contraction norm, i.e.
    the basis function is ``sum_k coefs[k] * x^i y^j z^k exp(-exps[k] r^2)``
    with unit self-overlap for every cartesian component.
    """

    l: int
    center: np.ndarray
    exps: np.ndarray
    coefs: np.ndarray
    atom_index: int = -1

    @property
    def nfuncs(self) -> int:
        return len(CARTESIAN_COMPONENTS[self.l])

    @property
    def components(self) -> list[tuple[int, int, int]]:
        return CARTESIAN_COMPONENTS[self.l]


def make_shell(l: int, center, exps, raw_coefs, atom_index: int = -1) -> Shell:
    """Build a normalized contracted shell from raw contraction coefficients."""
    center = np.asarray(center, dtype=float).reshape(3)
    exps = np.asarray(exps, dtype=float)
    raw = np.asarray(raw_coefs, dtype=float)
    if exps.shape != raw.shape:
        raise ValueError("exponent/coefficient length mismatch")
    # attach primitive norms (all cartesian components of one l share a norm
    # only for l<=1; use the axial component's norm which is the standard
    # convention for s/p and for the d components used in gradients we
    # normalize each component separately at integral time)
    lmn0 = CARTESIAN_COMPONENTS[l][0]
    coefs = raw * np.array([primitive_norm(a, lmn0) for a in exps])
    # contraction normalization: <phi|phi> over primitives (same-center overlap)
    li = sum(lmn0)
    s = 0.0
    for ca, aa in zip(coefs, exps):
        for cb, ab in zip(coefs, exps):
            p = aa + ab
            s += (
                ca
                * cb
                * _double_factorial(2 * lmn0[0] - 1)
                * _double_factorial(2 * lmn0[1] - 1)
                * _double_factorial(2 * lmn0[2] - 1)
                * (math.pi / p) ** 1.5
                / (2.0 * p) ** li
            )
    coefs = coefs / math.sqrt(s)
    return Shell(l=l, center=center, exps=exps, coefs=coefs, atom_index=atom_index)


@dataclass
class BasisSet:
    """Ordered shells for a geometry with function offsets."""

    shells: list[Shell]
    offsets: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.offsets:
            off = 0
            self.offsets = []
            for sh in self.shells:
                self.offsets.append(off)
                off += sh.nfuncs
            self._nbf = off
        else:
            self._nbf = self.offsets[-1] + self.shells[-1].nfuncs

    @property
    def nbf(self) -> int:
        """Total number of basis functions."""
        return self._nbf

    @property
    def nshells(self) -> int:
        return len(self.shells)

    def function_atom_map(self) -> np.ndarray:
        """Map basis-function index -> atom index (for gradients)."""
        out = np.empty(self.nbf, dtype=int)
        for sh, off in zip(self.shells, self.offsets):
            out[off: off + sh.nfuncs] = sh.atom_index
        return out


def build_basis(geometry: Geometry, name: str = "sto-3g") -> BasisSet:
    """Construct the basis set for a geometry.

    The one registered set is ``"sto-3g"`` (shipped data).
    """
    if name.lower() not in ("sto-3g", "sto3g"):
        raise ValueError(f"unknown basis {name!r}")
    shells: list[Shell] = []
    for atom_index, symbol in enumerate(geometry.symbols):
        try:
            entries = STO3G[symbol]
        except KeyError:
            raise KeyError(
                f"no STO-3G data for element {symbol!r}; "
                f"supported: {sorted(STO3G)}"
            ) from None
        for (l, exps, coefs) in entries:
            shells.append(
                make_shell(l, geometry.coords[atom_index], exps, coefs, atom_index)
            )
    return BasisSet(shells)
