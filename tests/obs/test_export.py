"""Exporter formats: Chrome trace-event schema, JSONL round-trip,
Prometheus text, ThroughputReport derivation."""

import json

import pytest

from repro.obs import (
    Counters,
    SpanRecord,
    Tracer,
    chrome_trace,
    derive_throughput,
    load_jsonl,
    load_trace,
    prometheus_metrics,
    spans_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.export import load_chrome


@pytest.fixture
def sample_records():
    t = Tracer()
    with t.span("run"):
        with t.span("fragment_response", n_tasks=2):
            with t.span("fragment", label="w0", natoms=3):
                with t.span("scf", nbf=7):
                    pass
            with t.span("fragment", label="w1", natoms=3):
                pass
    return t.records


def test_chrome_trace_event_schema(sample_records):
    doc = chrome_trace(sample_records)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(sample_records)
    assert len(meta) == len({r.pid for r in sample_records})
    for ev in complete:
        # the trace-event contract Perfetto validates on load
        assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(ev)
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        assert ev["ts"] >= 0.0            # relative to the earliest span
        assert ev["dur"] >= 0.0
        assert ev["args"]["path"]         # ancestry travels in args
    for ev in meta:
        assert ev["name"] == "process_name"
    # JSON-serializable end to end
    json.dumps(doc)


def test_chrome_trace_embeds_counters(sample_records):
    c = Counters()
    c.inc("scf.runs", 4)
    doc = chrome_trace(sample_records, counters=c)
    assert doc["otherData"]["counters"] == {"scf.runs": 4}
    plain = chrome_trace(sample_records, counters={"x": 1})
    assert plain["otherData"]["counters"] == {"x": 1}


def test_chrome_roundtrip_preserves_structure(sample_records, tmp_path):
    path = write_trace(sample_records, tmp_path / "trace.json")
    back = load_chrome(path)
    assert [r.name for r in back] == [r.name for r in sample_records]
    assert [r.path for r in back] == [r.path for r in sample_records]
    for orig, rec in zip(sample_records, back):
        assert rec.dur == pytest.approx(orig.dur, abs=1e-9)
        # attrs survive the args round trip
        assert {k: rec.attrs[k] for k in orig.attrs} == orig.attrs


def test_jsonl_roundtrip_is_lossless(sample_records, tmp_path):
    path = spans_to_jsonl(sample_records, tmp_path / "trace.jsonl")
    back = load_jsonl(path)
    assert back == sample_records


def test_write_trace_dispatches_on_suffix(sample_records, tmp_path):
    jl = write_trace(sample_records, tmp_path / "t.jsonl")
    ch = write_trace(sample_records, tmp_path / "t.json")
    assert jl.read_text().lstrip().startswith("{\"")      # one obj per line
    assert "traceEvents" in json.loads(ch.read_text())
    assert load_trace(jl) == sample_records
    assert [r.path for r in load_trace(ch)] \
        == [r.path for r in sample_records]


def test_prometheus_metrics_text(sample_records):
    c = Counters()
    c.inc("scf.runs", 3)
    text = prometheus_metrics(counters=c, records=sample_records)
    assert "qf_scf_runs_total 3" in text
    assert 'qf_span_calls_total{span="fragment"} 2' in text
    assert 'qf_span_seconds_total{span="run"}' in text
    assert text.endswith("\n")


def test_write_metrics_file(sample_records, tmp_path):
    path = write_metrics(tmp_path / "m.prom", counters={"a.b": 1},
                         records=sample_records)
    assert "qf_a_b_total 1" in path.read_text()


def test_derive_throughput_from_fragment_spans():
    records = [
        SpanRecord("fragment_response", "run/fragment_response",
                   ts=0.0, dur=4.0, pid=1, tid=1, attrs={}),
        SpanRecord("fragment", "run/fragment_response/fragment",
                   ts=0.0, dur=3.0, pid=2, tid=1,
                   attrs={"label": "w0", "natoms": 3}),
        SpanRecord("fragment", "run/fragment_response/fragment",
                   ts=1.0, dur=3.0, pid=3, tid=1,
                   attrs={"label": "w1", "natoms": 6}),
    ]
    tp = derive_throughput(records, max_workers=2, backend="process")
    assert tp.n_tasks == 2
    assert tp.wall_s == pytest.approx(4.0)
    assert tp.fragments_per_s == pytest.approx(0.5)
    assert tp.worker_utilization == pytest.approx(6.0 / 8.0)
    assert [row["label"] for row in tp.tasks] == ["w0", "w1"]


def test_derive_throughput_without_wall_span_uses_extent():
    records = [
        SpanRecord("fragment", "fragment", ts=2.0, dur=1.0, pid=1, tid=1,
                   attrs={"label": "a"}),
        SpanRecord("fragment", "fragment", ts=3.5, dur=0.5, pid=1, tid=1,
                   attrs={"label": "b"}),
    ]
    tp = derive_throughput(records)
    assert tp.wall_s == pytest.approx(2.0)   # 2.0 .. 4.0
    assert tp.n_tasks == 2


def test_derive_throughput_empty_trace():
    tp = derive_throughput([])
    assert tp.n_tasks == 0
    assert tp.wall_s == 0.0
