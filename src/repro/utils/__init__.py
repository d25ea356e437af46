"""Shared utilities: the stopwatch, FLOP accounting, linear-algebra
helpers. Phase timing lives in :mod:`repro.obs` spans."""

from repro.utils.timing import Stopwatch
from repro.utils.flops import FlopCounter, gemm_flops, gemv_flops

__all__ = ["Stopwatch", "FlopCounter", "gemm_flops", "gemv_flops"]
