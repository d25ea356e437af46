"""Trace and metrics exporters.

Three on-disk formats, chosen by file suffix in the CLI:

``.jsonl``
    One JSON object per span record — the lossless event log the
    viewer round-trips (:func:`spans_to_jsonl` / :func:`load_jsonl`).
``.json``
    Chrome trace-event format (the ``{"traceEvents": [...]}`` object
    form) with one complete (``"ph": "X"``) event per span — load it
    at https://ui.perfetto.dev or ``chrome://tracing``. Each process
    of the run gets its own track (pid), mirroring the paper's
    per-worker execution timelines (Fig. 4).
``.prom``
    Prometheus text exposition: every counter as a
    ``qf_<name>_total`` gauge plus per-span aggregate
    ``qf_span_seconds_total`` / ``qf_span_calls_total`` series.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.counters import Counters
from repro.obs.tracer import SpanRecord

__all__ = [
    "spans_to_jsonl",
    "load_jsonl",
    "chrome_trace",
    "load_chrome",
    "write_trace",
    "load_trace",
    "phase_totals",
    "prometheus_metrics",
    "write_metrics",
    "derive_throughput",
]


def _as_records(records) -> list[SpanRecord]:
    return [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r)
        for r in records
    ]


# -- JSONL event log --------------------------------------------------------


def spans_to_jsonl(records, path: str | Path) -> Path:
    """Write one JSON object per span; returns the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in _as_records(records):
            fh.write(json.dumps(rec.as_dict(), sort_keys=True) + "\n")
    return path


def load_jsonl(path: str | Path) -> list[SpanRecord]:
    """Inverse of :func:`spans_to_jsonl`."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_dict(json.loads(line)))
    return records


# -- Chrome trace-event JSON ------------------------------------------------


def chrome_trace(records, counters: Counters | dict | None = None) -> dict:
    """Trace-event object form: complete events + process metadata.

    Timestamps are microseconds relative to the earliest span, so the
    Perfetto timeline starts at zero. Span attributes (and the
    ancestry path) travel in ``args``; counters, when given, ride in
    the top-level ``otherData`` section.
    """
    recs = _as_records(records)
    t0 = min((r.ts for r in recs), default=0.0)
    events: list[dict] = []
    seen_pids: set[int] = set()
    for r in recs:
        if r.pid not in seen_pids:
            seen_pids.add(r.pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": r.pid, "tid": 0,
                "args": {"name": f"qf-raman pid {r.pid}"},
            })
        events.append({
            "name": r.name,
            "cat": "qf",
            "ph": "X",
            "ts": (r.ts - t0) * 1.0e6,
            "dur": r.dur * 1.0e6,
            "pid": r.pid,
            "tid": r.tid,
            "args": {**r.attrs, "path": r.path},
        })
    out = {"traceEvents": events, "displayTimeUnit": "ms"}
    if counters is not None:
        cdict = counters.as_dict() if isinstance(counters, Counters) \
            else dict(counters)
        out["otherData"] = {"counters": cdict}
    return out


def load_chrome(path: str | Path) -> list[SpanRecord]:
    """Rebuild span records from a Chrome trace file (viewer input)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    events = data["traceEvents"] if isinstance(data, dict) else data
    records = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        path_str = args.pop("path", ev["name"])
        records.append(SpanRecord(
            name=ev["name"], path=path_str,
            ts=float(ev["ts"]) * 1.0e-6, dur=float(ev["dur"]) * 1.0e-6,
            pid=int(ev.get("pid", 0)), tid=int(ev.get("tid", 0)),
            attrs=args,
        ))
    return records


# -- suffix-dispatched convenience ------------------------------------------


def write_trace(records, path: str | Path,
                counters: Counters | dict | None = None) -> Path:
    """Write ``records`` in the format implied by the suffix:
    ``.jsonl`` -> event log, anything else -> Chrome trace JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return spans_to_jsonl(records, path)
    path.write_text(
        json.dumps(chrome_trace(records, counters=counters)) + "\n",
        encoding="utf-8",
    )
    return path


def load_trace(path: str | Path) -> list[SpanRecord]:
    """Load either exporter format (sniffs the first byte)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return load_jsonl(path)
    head = path.read_text(encoding="utf-8").lstrip()[:1]
    if head == "{" or head == "[":
        try:
            return load_chrome(path)
        except (KeyError, json.JSONDecodeError):
            return load_jsonl(path)
    return load_jsonl(path)


# -- per-span-name aggregation ----------------------------------------------


def phase_totals(records) -> dict[str, tuple[float, int]]:
    """``name -> (total seconds, calls)`` over all processes: the one
    aggregation behind the manifest's ``phase_wall_s``, the Prometheus
    span series and the ``obs view`` summary."""
    totals: dict[str, tuple[float, int]] = {}
    for r in _as_records(records):
        secs, calls = totals.get(r.name, (0.0, 0))
        totals[r.name] = (secs + r.dur, calls + 1)
    return totals


# -- Prometheus text metrics ------------------------------------------------


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def prometheus_metrics(counters: Counters | dict | None = None,
                       records=None) -> str:
    """Prometheus text exposition of counters and span aggregates."""
    lines: list[str] = []
    if counters is not None:
        cdict = counters.as_dict() if isinstance(counters, Counters) \
            else dict(counters)
        lines.append("# HELP qf_counter unified QF-RAMAN event counters")
        lines.append("# TYPE qf_counter counter")
        for name, value in sorted(cdict.items()):
            lines.append(f"qf_{_prom_name(name)}_total {value}")
    if records:
        totals = phase_totals(records)
        lines.append("# HELP qf_span_seconds_total summed span wall time")
        lines.append("# TYPE qf_span_seconds_total counter")
        for name, (secs, _n) in sorted(totals.items()):
            lines.append(
                f'qf_span_seconds_total{{span="{name}"}} {secs:.6f}')
        lines.append("# HELP qf_span_calls_total span entry count")
        lines.append("# TYPE qf_span_calls_total counter")
        for name, (_secs, n) in sorted(totals.items()):
            lines.append(f'qf_span_calls_total{{span="{name}"}} {n}')
    return "\n".join(lines) + "\n"


def write_metrics(path: str | Path, counters=None, records=None) -> Path:
    path = Path(path)
    path.write_text(
        prometheus_metrics(counters=counters, records=records),
        encoding="utf-8",
    )
    return path


# -- ThroughputReport derivation --------------------------------------------


def derive_throughput(records, max_workers: int = 1,
                      backend: str = "trace"):
    """Reconstruct a :class:`~repro.pipeline.executor.ThroughputReport`
    from a trace — the executor's report is a projection of the span
    stream, which tests assert so the two never drift apart.

    Per-task rows come from the ``fragment`` spans; the run wall is
    the enclosing ``fragment_response`` span when present, else the
    extent of the fragment spans.
    """
    from repro.pipeline.executor import ThroughputReport

    recs = _as_records(records)
    frags = [r for r in recs if r.name == "fragment"]
    walls = [r for r in recs if r.name == "fragment_response"]
    if walls:
        wall_s = sum(r.dur for r in walls)
    elif frags:
        wall_s = max(r.ts + r.dur for r in frags) - min(r.ts for r in frags)
    else:
        wall_s = 0.0
    busy_s = sum(r.dur for r in frags)
    n = len(frags)
    denom = max(wall_s, 1e-12) * max(max_workers, 1)
    return ThroughputReport(
        backend=backend,
        max_workers=max_workers,
        n_tasks=n,
        wall_s=wall_s,
        fragments_per_s=n / max(wall_s, 1e-12),
        worker_utilization=min(1.0, busy_s / denom),
        tasks=[
            {"label": r.attrs.get("label", r.name),
             "natoms": r.attrs.get("natoms", 0),
             "wall_s": r.dur, "worker": r.pid}
            for r in frags
        ],
    )
