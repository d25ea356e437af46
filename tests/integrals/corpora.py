"""Random s/p/d shell corpora shared by the integral property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.basis.gaussian import BasisSet, make_shell

shell_spec = st.tuples(
    st.integers(min_value=0, max_value=2),            # l: s/p/d
    st.integers(min_value=0, max_value=3),            # center index
    st.integers(min_value=1, max_value=3),            # n primitives
)
shell_strategy = st.lists(shell_spec, min_size=1, max_size=6)
#: the nbf^4 ERI derivative (3 x nbf^4 doubles) stays small with <= 4 shells
small_shell_strategy = st.lists(shell_spec, min_size=1, max_size=4)


def random_system(spec, seed):
    """(basis, charges, centers) for shells ``spec`` on 4 random centers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(4, 3))
    shells = []
    for l, ci, k in spec:
        exps = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
        coefs = rng.uniform(0.2, 1.0, size=k)
        shells.append(make_shell(l, centers[ci], exps, coefs, atom_index=ci))
    basis = BasisSet(shells)
    charges = np.ones(4)
    return basis, charges, centers
