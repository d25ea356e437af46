"""The benchmark's record names and BENCHMARK.json agree, and
``run.py --compare`` judges deltas against the bounds there."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
from layers import ROOT as ROOT_SPAN
from layers import RunTrace, metric_unit, run_metrics
from repro.obs.tracer import SpanRecord
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def empty_run() -> RunTrace:
    root = SpanRecord(name=ROOT_SPAN, path=ROOT_SPAN, ts=1.0, dur=1.0, pid=0,
                      tid=0, attrs={"span": 0, "parent": None, "run": 0})
    return RunTrace(spans=[root], counters={}, overhead_s=0.0)


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == \
        run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    names = list(run_metrics(empty_run()))
    assert [m["name"] for m in BENCH["per_layer"]] == names
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        {n: metric_unit(n) for n in names}


def test_benchmark_json_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "benchmarks/qfbench/run.py"]
    assert all((REPO / p).is_dir() for p in BENCH["paths"])
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def write_records(side: Path, times: list[float], failed: int = 0) -> Path:
    """One record per seed, as the all-workload command writes them."""
    side.mkdir()
    for seed, t in enumerate(times):
        run_ = {"failed": failed, "metrics": {
            "time_to_spectrum_s": {"value": t, "unit": "s"}}}
        record = {"workloads": {"glycine_df": {"untraced": run_}}}
        (side / f"record-seed{seed}.json").write_text(json.dumps(record))
    return side


@pytest.mark.parametrize("old, new, code, verdict", [
    ([10.0, 10.1, 9.9, 10.2, 9.8], [10.2, 10.0, 10.1, 9.9, 10.3], 0, "ok"),
    ([10.0, 10.1, 9.9, 10.2, 9.8], [13.5, 13.6, 13.4, 13.7, 13.3], 1,
     "REGRESSION"),
    ([10.0, 10.1, 9.9, 10.2, 9.8], [7.0, 7.1, 6.9, 7.2, 6.8], 0, "better"),
    ([5.0, 8.0, 10.0, 12.0, 15.0], [6.0, 9.0, 12.0, 15.0, 18.0], 0,
     "unresolved"),
    ([5.0, 8.0, 10.0, 12.0, 15.0], [1.0, 2.0, 3.0, 3.5, 4.0], 0, "better"),
    # too few samples on a side: no spread is shown, so no verdict
    ([10.0], [13.0], 0, "unresolved"),
    ([10.0, 10.1, 9.9, 10.2], [13.5, 13.6, 13.4, 13.7], 0, "unresolved"),
])
def test_compare_judges_against_bounds(tmp_path, capsys, old, new, code,
                                       verdict):
    assert run.compare(write_records(tmp_path / "old", old),
                       write_records(tmp_path / "new", new)) == code
    assert verdict in capsys.readouterr().out


def test_compare_counts_new_failures_as_regression(tmp_path):
    assert run.compare(write_records(tmp_path / "old", [10.0]),
                       write_records(tmp_path / "new", [10.0], failed=1)) == 1
