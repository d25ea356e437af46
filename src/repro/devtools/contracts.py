"""Runtime numerical sanitizer: array contracts at API boundaries.

The QF pipeline silently assumes invariants the type system cannot
express — Hermitian Fock/Hessian blocks, finite response densities,
symmetric polarizability tensors, deterministic worker results. A
violation surfaces as a *wrong spectrum*, not a crash. This module
makes those invariants checkable at the hot public APIs:

- :func:`check_array` — validate one ndarray (finiteness, symmetry,
  shape, dtype) and raise a structured :class:`ContractViolation`.
- :func:`array_contract` — decorator form for functions whose return
  value is the array to check.
- :func:`check_response` — the fragment-level composite: Hessian
  symmetry + finiteness, Raman-tensor finiteness, polarizability
  symmetry, with the producing fragment's label in the error.
- :func:`response_digest` / :func:`digests_match` — cross-process
  determinism: a stable content hash of a fragment response, used by
  the executor's serial-vs-pool comparison mode
  (``QF_SANITIZE_DETERMINISM=1``).

Checks only run when sanitizing is active: set ``QF_SANITIZE=1`` in the
environment (inherited by pool workers) or enter the :func:`sanitize`
context manager. When inactive every entry point reduces to a single
truthiness test — measured well under the 5% wall-overhead budget.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from functools import wraps

import numpy as np

__all__ = [
    "ContractViolation",
    "sanitize_enabled",
    "sanitize",
    "check_array",
    "array_contract",
    "check_response",
    "response_digest",
    "digests_match",
    "determinism_check_enabled",
]

#: truthy values accepted for QF_SANITIZE / QF_SANITIZE_DETERMINISM
_TRUTHY = {"1", "true", "yes", "on"}

# nesting depth of sanitize(True) minus explicit sanitize(False) masks;
# module-global so the decorator fast path is one comparison + one
# os.environ lookup
_forced: list[bool] = []


class ContractViolation(ValueError):
    """A numerical invariant was violated at an API boundary.

    Carries enough structure for the caller (or a test) to identify the
    producing computation: the contract ``rule`` that failed, the
    ``name`` of the offending array, and a ``context`` string naming
    the fragment / phase when available.
    """

    def __init__(self, message: str, *, name: str = "",
                 rule: str = "", context: str = ""):
        self.name = name
        self.rule = rule
        self.context = context
        prefix = f"[{context}] " if context else ""
        super().__init__(f"{prefix}{message}")


def sanitize_enabled() -> bool:
    """True when contracts should be enforced (env or context manager)."""
    if _forced:
        return _forced[-1]
    return os.environ.get("QF_SANITIZE", "").lower() in _TRUTHY


def determinism_check_enabled() -> bool:
    """True when the serial-vs-pool digest comparison should run."""
    return sanitize_enabled() and os.environ.get(
        "QF_SANITIZE_DETERMINISM", "").lower() in _TRUTHY


@contextmanager
def sanitize(enabled: bool = True):
    """Force sanitizing on (or off) for the dynamic extent of the block.

    Overrides ``QF_SANITIZE`` in both directions; nests correctly.
    """
    _forced.append(enabled)
    try:
        yield
    finally:
        _forced.pop()


def _fail(message: str, name: str, rule: str, context: str) -> None:
    raise ContractViolation(message, name=name, rule=rule, context=context)


def check_array(
    name: str,
    arr,
    *,
    finite: bool = True,
    symmetric: bool = False,
    shape: tuple | None = None,
    dtype=None,
    atol: float = 1.0e-8,
    context: str = "",
    force: bool = False,
):
    """Validate one array against its contract; returns the array.

    Parameters
    ----------
    symmetric:
        Require ``max|A - A.T| <= atol * max(1, max|A|)`` over the last
        two axes (relative so converged-but-noisy tensors like CPHF
        polarizabilities pass with physical tolerances).
    shape:
        Expected shape; ``None`` entries are wildcards.
    dtype:
        Required exact dtype (e.g. ``np.float64``) — guards silent
        downcasts crossing the boundary.
    force:
        Check even when sanitizing is disabled (used by tests).
    """
    if not (force or sanitize_enabled()):
        return arr
    if arr is None:
        _fail(f"{name} is None but its contract requires an array",
              name, "missing", context)
    a = np.asarray(arr)
    if dtype is not None and a.dtype != np.dtype(dtype):
        _fail(f"{name} has dtype {a.dtype}, contract requires "
              f"{np.dtype(dtype)}", name, "dtype", context)
    if shape is not None:
        if a.ndim != len(shape) or any(
            want is not None and got != want
            for got, want in zip(a.shape, shape)
        ):
            _fail(f"{name} has shape {a.shape}, contract requires {shape}",
                  name, "shape", context)
    if finite and not np.all(np.isfinite(a)):
        n_bad = int(np.size(a) - np.count_nonzero(np.isfinite(a)))
        _fail(f"{name} contains {n_bad} non-finite element(s) "
              f"(NaN/Inf) out of {a.size}", name, "finite", context)
    if symmetric:
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            _fail(f"{name} has shape {a.shape} — symmetry requires square "
                  "trailing axes", name, "symmetric", context)
        dev = float(np.abs(a - np.swapaxes(a, -1, -2)).max())
        scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
        if dev > atol * scale:
            _fail(f"{name} is asymmetric: max|A - A^T| = {dev:.3e} "
                  f"(tolerance {atol:.1e} x {scale:.3g})",
                  name, "symmetric", context)
    return arr


def array_contract(
    *,
    finite: bool = True,
    symmetric: bool = False,
    shape: tuple | None = None,
    dtype=None,
    atol: float = 1.0e-8,
    name: str | None = None,
):
    """Decorator: validate a function's ndarray return value.

    Zero-cost no-op path when sanitizing is disabled (one boolean test
    per call). The contract name defaults to the function's qualname.
    """
    def deco(fn):
        label = name or fn.__qualname__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if sanitize_enabled():
                check_array(label, out, finite=finite, symmetric=symmetric,
                            shape=shape, dtype=dtype, atol=atol)
            return out
        return wrapper
    return deco


def check_response(resp, label: str = "", phase: str = "", *,
                   force: bool = False):
    """Fragment-level composite contract (duck-typed FragmentResponse).

    Checks the invariants the Eq. (1) assembly silently assumes:
    a symmetric, finite Hessian; finite Raman tensor and gradient; a
    symmetric equilibrium polarizability. The producing fragment and
    pipeline phase go into the error's context.

    ``force=True`` checks even when sanitizing is disabled — every
    executor uses it so corrupted worker results always feed the retry
    path instead of the spectrum (:mod:`repro.pipeline.executor`).
    """
    if not (force or sanitize_enabled()):
        return resp
    context = " ".join(x for x in (f"fragment={label}" if label else "",
                                   f"phase={phase}" if phase else "") if x)
    ncoord = resp.hessian.shape[0]
    check_array("hessian", resp.hessian, symmetric=True,
                shape=(ncoord, ncoord), atol=1.0e-8, context=context,
                force=force)
    check_array("gradient", resp.gradient, context=context, force=force)
    if resp.dalpha_dr is not None:
        check_array("dalpha_dr", resp.dalpha_dr, shape=(ncoord, 3, 3),
                    context=context, force=force)
    if resp.alpha is not None:
        # the direct CPHF solve gives alpha symmetric to round-off, but
        # store entries written by the older iterative solver carry its
        # asymmetry (1e-8 on U, ~1e-6 on the tensor), so the bound stays
        check_array("alpha", resp.alpha, symmetric=True, shape=(3, 3),
                    atol=1.0e-5, context=context, force=force)
    return resp


# -- cross-process determinism -----------------------------------------------

def _digest_update(h, arr) -> None:
    if arr is None:
        h.update(b"<none>")
        return
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def response_digest(resp) -> str:
    """Stable content hash of a fragment response.

    Bitwise over the float64 payloads: the executor backends promise
    *identical* numerics (same code path, same seeds), so serial and
    pool runs of the same task must produce equal digests.
    """
    h = hashlib.sha256()
    for field in ("hessian", "dalpha_dr", "alpha", "gradient"):
        _digest_update(h, getattr(resp, field, None))
    h.update(np.float64(resp.energy).tobytes())
    return h.hexdigest()


def digests_match(a, b) -> bool:
    return response_digest(a) == response_digest(b)
