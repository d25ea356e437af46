"""Run manifest provenance record."""

from repro.obs import (
    Counters,
    RunManifest,
    Tracer,
    collect_manifest,
    git_revision,
    phase_totals,
)
from repro.obs.manifest import MANIFEST_SCHEMA


def test_collect_manifest_captures_config_and_counters():
    reg = Counters()
    reg.inc("scf.runs", 5)
    tracer = Tracer()
    with tracer.span("assemble"):
        pass
    m = collect_manifest(
        command="water-raman",
        config={"n": 4, "solver": "lanczos"},
        seeds={"seed": 3},
        records=tracer.records,
        counter_registry=reg,
        extras={"note": "test"},
    )
    assert m.command == "water-raman"
    assert m.config == {"n": 4, "solver": "lanczos"}
    assert m.seeds == {"seed": 3}
    assert m.counters == {"scf.runs": 5}
    assert m.phase_wall_s == {
        "assemble": phase_totals(tracer.records)["assemble"][0]}
    assert m.schema == MANIFEST_SCHEMA == 2
    assert m.versions["python"]
    assert m.versions["numpy"]
    assert m.versions["repro"]
    assert m.platform
    assert m.created_unix > 0
    assert m.extras == {"note": "test"}


def test_manifest_embeds_throughput_without_task_rows():
    from repro.pipeline.executor import ThroughputReport

    tp = ThroughputReport(
        backend="serial", max_workers=1, n_tasks=2, wall_s=1.0,
        fragments_per_s=2.0, worker_utilization=1.0,
        tasks=[{"label": "w0"}],
    )
    m = collect_manifest("x", throughput=tp, counter_registry=Counters())
    assert m.throughput["backend"] == "serial"
    assert "tasks" not in m.throughput   # rows belong in the trace
    assert m.phase_wall_s == {}          # untraced: no span records


def test_manifest_json_roundtrip(tmp_path):
    m = collect_manifest("peptide-raman", config={"sequence": ["GLY"]},
                         counter_registry=Counters())
    path = m.write(tmp_path / "manifest.json")
    back = RunManifest.load(path)
    assert back.command == m.command
    assert back.config == m.config
    assert back.versions == m.versions
    assert back.schema == m.schema


def test_from_json_ignores_unknown_fields():
    m = RunManifest.from_json(
        '{"command": "x", "some_future_field": 1, "schema": 2}'
    )
    assert m.command == "x"
    assert m.schema == 2


def test_git_revision_in_this_repo():
    sha = git_revision(cwd=__file__.rsplit("/tests/", 1)[0])
    # the growth repo is a checkout; tolerate git-less environments
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))
