import json

import pytest

from repro.cli import main


def test_simulate_command(capsys):
    rc = main(["simulate", "--machine", "ORISE", "--nodes", "100", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ORISE" in out
    assert "frag/s" in out
    assert "eff" in out


def test_simulate_trace_flag(tmp_path, capsys):
    trace = tmp_path / "sched.json"
    rc = main(["simulate", "--machine", "ORISE", "--nodes", "100",
               "--trace", str(trace)])
    assert rc == 0
    assert "trace written to" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    tasks = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert tasks and all(e["name"] in ("task", "reissue") for e in tasks)


def test_water_raman_telemetry_flags(tmp_path, capsys):
    trace = tmp_path / "run.json"
    metrics = tmp_path / "run.prom"
    manifest = tmp_path / "manifest.json"
    rc = main(["water-raman", "--n", "1", "--solver", "dense",
               "--trace", str(trace), "--metrics", str(metrics),
               "--manifest", str(manifest)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace written to" in out
    # Chrome trace: the acceptance-criteria span skeleton is present
    doc = json.loads(trace.read_text())
    paths = {e["args"]["path"] for e in doc["traceEvents"]
             if e["ph"] == "X"}
    assert {"run", "run/decompose", "run/fragment_response",
            "run/fragment_response/fragment", "run/assemble",
            "run/spectrum"} <= paths
    assert doc["otherData"]["counters"]["scf.runs"] >= 1
    assert "qf_scf_runs_total" in metrics.read_text()
    m = json.loads(manifest.read_text())
    assert m["command"] == "water-raman"
    assert m["config"]["n"] == 1
    assert m["counters"]["scf.runs"] >= 1
    assert m["schema"] == 2
    assert m["phase_wall_s"]["fragment_response"] > 0
    assert m["phase_wall_s"]["gradient"] > 0
    # tracing was torn down at command exit
    from repro.obs import NULL_TRACER, get_tracer, tracing_requested

    assert get_tracer() is NULL_TRACER
    assert not tracing_requested()


def test_obs_view_command(tmp_path, capsys):
    from repro.obs import Tracer, write_trace

    t = Tracer()
    with t.span("run"):
        with t.span("scf"):
            pass
    path = write_trace(t.records, tmp_path / "t.jsonl")
    rc = main(["obs", "view", str(path), "--width", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== per-phase summary ==" in out
    assert "run/scf".rsplit("/")[-1] in out
    assert "2 spans" in out


def test_counts_command_small(capsys):
    rc = main(["counts", "--residues", "60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fragments" in out
    assert "water_water_pairs" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
