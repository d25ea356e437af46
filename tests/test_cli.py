import json
import os

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
    # the quadrature health number exists only on the Lanczos solver
    assert m["extras"]["quadrature_delta"] is None
    # the FD Hessian's largest asymmetry and the fragment that has it
    assert 0.0 < m["extras"]["fd_asymmetry_max"] < 1e-3
    assert m["extras"]["fd_asymmetry_fragment"] == "water[0]"
    assert m["extras"]["fd_asymmetry_missing"] == 0
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


def test_executor_and_resilience_flags_parse_and_forward(monkeypatch):
    """The executor and resilience flags of ``water-raman`` reach the
    pipeline: backend and worker count as ``executor``/``max_workers``,
    the retry flags as one ``ResiliencePolicy``, and ``--inject-faults``
    as ``QF_FAULTS`` for this process and its pool workers."""
    import repro.pipeline
    from repro.pipeline.resilience import ResiliencePolicy

    class Captured(Exception):
        pass

    def fake_pipeline(**kwargs):
        raise Captured(kwargs)

    monkeypatch.setattr(repro.pipeline, "QFRamanPipeline", fake_pipeline)
    # restored at teardown: main() exports the fault plan itself
    monkeypatch.setenv("QF_FAULTS", "")

    spec = "crash:water[0]@*;hang:ww[0,1]@1:0.5"
    with pytest.raises(Captured) as info:
        main(["water-raman", "--n", "1", "--executor", "process",
              "--workers", "2", "--retries", "4", "--timeout-s", "60",
              "--failure-policy", "skip_and_report",
              "--inject-faults", spec])
    kwargs = info.value.args[0]
    assert kwargs["executor"] == "process"
    assert kwargs["max_workers"] == 2
    assert kwargs["resilience"] == ResiliencePolicy(
        max_attempts=5, timeout_s=60.0, failure_policy="skip_and_report")
    assert os.environ["QF_FAULTS"] == spec

    # a timeout alone implies two retries and fail-fast
    with pytest.raises(Captured) as info:
        main(["water-raman", "--n", "1", "--executor", "displacement",
              "--timeout-s", "5"])
    kwargs = info.value.args[0]
    assert kwargs["executor"] == "displacement"
    assert kwargs["max_workers"] is None
    assert kwargs["resilience"] == ResiliencePolicy(
        max_attempts=3, timeout_s=5.0, failure_policy="fail_fast")

    # no resilience flag: no policy, the executor's default applies
    with pytest.raises(Captured) as info:
        main(["water-raman", "--n", "1"])
    kwargs = info.value.args[0]
    assert kwargs["executor"] == "serial"
    assert "resilience" not in kwargs

    # a malformed fault plan fails before any pipeline is built
    with pytest.raises(ValueError):
        main(["water-raman", "--n", "1", "--inject-faults", "explode:x"])

    # --sanitize is gone; the sanitizer is QF_SANITIZE=1
    with pytest.raises(SystemExit):
        main(["water-raman", "--n", "1", "--sanitize"])
