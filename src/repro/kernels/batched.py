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

    def padding_overhead(self) -> float:
        """padded/useful FLOP ratio of the batched groups (1.0 = none)."""
        useful = self.flops.total("useful")
        padded = self.flops.total("padded")
        if padded == 0:
            return 1.0
        return padded / max(useful, 1)

