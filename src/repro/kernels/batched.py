"""Elastic GEMM batching (paper §V-C, §VII-A.3).

The paper gathers scattered small GEMMs, pads each matrix to a
multiple of 32 in both dimensions, groups calls with equal padded
shapes, and launches one batched GEMM per group (with at least 64
calls packed per offloaded workload). This module reproduces the exact
mechanism: the executor records deferred GEMM requests, then flushes
groups as stacked `numpy.matmul` calls — one vectorized call per shape
class instead of one call per GEMM, which is the same
"pack-for-throughput" transformation the accelerators need.

FLOPs are counted both as *useful* (original shapes) and *padded*
(what the accelerator actually executes); the ratio is the padding
overhead the stride choice trades against batch uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.counters import counters
from repro.utils.flops import FlopCounter, gemm_flops


def pad_to_stride(n: int, stride: int = 32) -> int:
    """Round a matrix dimension up to the batching stride."""
    if n <= 0:
        raise ValueError("dimension must be positive")
    return ((n + stride - 1) // stride) * stride


@dataclass
class _Request:
    a: np.ndarray
    b: np.ndarray
    slot: int


@dataclass
class BatchedGemmExecutor:
    """Deferred, shape-grouped GEMM execution.

    Usage: ``submit`` any number of (A, B) products, then ``flush()``
    returns the results in submission order. ``min_batch`` mirrors the
    paper's ≥64 packing threshold: groups smaller than it are executed
    individually (offloading them would not be profitable).
    """

    stride: int = 32
    min_batch: int = 64
    flops: FlopCounter = field(default_factory=FlopCounter)
    _requests: list[_Request] = field(default_factory=list)
    batches_executed: int = 0
    singles_executed: int = 0

    def submit(self, a: np.ndarray, b: np.ndarray) -> int:
        """Queue A @ B; returns the slot index of the future result."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
        slot = len(self._requests)
        self._requests.append(_Request(np.asarray(a), np.asarray(b), slot))
        self.flops.add("useful", gemm_flops(a.shape[0], b.shape[1], a.shape[1]))
        return slot

    def pending(self) -> int:
        return len(self._requests)

    def flush(self) -> list[np.ndarray]:
        """Execute everything; results indexed by submission slot."""
        results: list[np.ndarray | None] = [None] * len(self._requests)
        groups: dict[tuple[int, int, int], list[_Request]] = {}
        for req in self._requests:
            m, k = req.a.shape
            n = req.b.shape[1]
            key = (
                pad_to_stride(m, self.stride),
                pad_to_stride(k, self.stride),
                pad_to_stride(n, self.stride),
            )
            groups.setdefault(key, []).append(req)
        for (pm, pk, pn), reqs in groups.items():
            if len(reqs) < self.min_batch:
                for req in reqs:
                    results[req.slot] = req.a @ req.b
                    self.singles_executed += 1
                continue
            nb = len(reqs)
            astack = np.zeros((nb, pm, pk))
            bstack = np.zeros((nb, pk, pn))
            for i, req in enumerate(reqs):
                m, k = req.a.shape
                n = req.b.shape[1]
                astack[i, :m, :k] = req.a
                bstack[i, :k, :n] = req.b
            cstack = astack @ bstack  # one batched GEMM
            self.batches_executed += 1
            self.flops.add("padded", nb * gemm_flops(pm, pn, pk))
            for i, req in enumerate(reqs):
                m = req.a.shape[0]
                n = req.b.shape[1]
                results[req.slot] = cstack[i, :m, :n]
        self._requests.clear()
        return results  # type: ignore[return-value]

    def record_contractions(self, records: list[tuple[int, int, int, int]]
                            ) -> None:
        """Account already-executed class contractions as batched GEMMs.

        ``records`` holds one ``(batch, m, n, k)`` per contraction; the
        integral engine passes those of one public call at once. The
        engine evaluates each angular-momentum class with a single
        vectorized contraction — one batched GEMM per class in the
        paper's elastic-offload picture. Padding the executed arrays to
        the stride would change the BLAS reduction tree and break the
        scalar/batched bit-identity promise, so the contraction runs
        unpadded and this method records both sides of the ledger:
        useful FLOPs at the true shapes, padded FLOPs at the
        stride-rounded shapes an accelerator batch would launch.
        Mirrored into the run-wide :mod:`repro.obs` counter registry
        (``kernels.*``; see docs/performance.md).
        """
        shapes = np.array([r for r in records if r[0] > 0],
                          dtype=np.int64).reshape(-1, 4)
        if not len(shapes):
            return
        batch, dims = shapes[:, 0], shapes[:, 1:]
        if (dims <= 0).any():
            raise ValueError("dimension must be positive")
        padded_dims = -(-dims // self.stride) * self.stride
        useful = int((batch * gemm_flops(*dims.T)).sum())
        padded = int((batch * gemm_flops(*padded_dims.T)).sum())
        self.flops.add("useful", useful)
        self.flops.add("padded", padded)
        self.batches_executed += len(shapes)
        reg = counters()
        reg.inc("kernels.class_gemms", len(shapes))
        reg.inc("kernels.gemms_batched", int(batch.sum()))
        reg.inc("kernels.useful_flops", useful)
        reg.inc("kernels.padded_flops", padded)

    def padding_overhead(self) -> float:
        """padded/useful FLOP ratio of the batched groups (1.0 = none)."""
        useful = self.flops.total("useful")
        padded = self.flops.total("padded")
        if padded == 0:
            return 1.0
        return padded / max(useful, 1)


_KERNEL_SEAM: BatchedGemmExecutor | None = None


def kernel_seam() -> BatchedGemmExecutor:
    """Process-global executor seam the integral engine accounts through.

    One registry per process (worker counters travel back to the parent
    through the telemetry shipment like every other counter), so the
    padding-overhead ratio in :meth:`BatchedGemmExecutor.padding_overhead`
    aggregates over a whole run.
    """
    global _KERNEL_SEAM
    if _KERNEL_SEAM is None:
        _KERNEL_SEAM = BatchedGemmExecutor()
    return _KERNEL_SEAM
