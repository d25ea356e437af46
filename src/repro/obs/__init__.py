"""Unified run telemetry: span tracing, counters, exporters, manifests.

The measurement backbone of the stack (ROADMAP: every perf PR cites
its numbers from here). Four pieces:

- :mod:`repro.obs.tracer` — nested, attributed spans with per-worker
  capture and merge-at-join; zero-cost :class:`NullTracer` when off.
- :mod:`repro.obs.counters` — one registry for the formerly ad-hoc
  counts (SCF iterations, CPHF solves, DIIS resets, fragment-store
  hits/misses, rigid-dedupe rotations).
- :mod:`repro.obs.export` — JSONL event log, Chrome trace-event JSON
  (Perfetto-loadable), Prometheus text metrics, and a
  ``ThroughputReport`` derivation from the span stream.
- :mod:`repro.obs.manifest` — the :class:`RunManifest` provenance
  record written alongside results.

Span names and counter names are a stable contract; see
``docs/observability.md``.
"""

from repro.obs.counters import Counters, counters, reset_counters
from repro.obs.export import (
    chrome_trace,
    derive_throughput,
    load_jsonl,
    load_trace,
    phase_totals,
    prometheus_metrics,
    spans_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.manifest import RunManifest, collect_manifest, git_revision
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    telemetry_shipment,
    tracing_requested,
    use_tracer,
)
from repro.obs.view import flamegraph, phase_summary, render

__all__ = [
    "Counters",
    "counters",
    "reset_counters",
    "chrome_trace",
    "derive_throughput",
    "load_jsonl",
    "load_trace",
    "prometheus_metrics",
    "spans_to_jsonl",
    "write_metrics",
    "write_trace",
    "RunManifest",
    "collect_manifest",
    "git_revision",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "set_tracer",
    "telemetry_shipment",
    "tracing_requested",
    "use_tracer",
    "flamegraph",
    "phase_summary",
    "phase_totals",
    "render",
]
