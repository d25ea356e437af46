"""Exportable run manifests.

A :class:`RunManifest` is the provenance record written alongside a
run's results: what was computed (config, seeds), with what (package
versions, git SHA), and what happened (counters, per-phase walls,
throughput). Production runs at paper scale burn node-years — a result
file whose exact producing configuration cannot be reconstructed is a
result that must be recomputed.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs.counters import Counters, counters as global_counters
from repro.obs.export import phase_totals

__all__ = ["RunManifest", "collect_manifest", "git_revision"]

#: 2: ``phase_wall_s`` is keyed by span name (summed over the trace)
MANIFEST_SCHEMA = 2


def git_revision(cwd: str | Path | None = None) -> str | None:
    """HEAD SHA of the repository containing ``cwd`` (None if not a
    checkout or git is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _package_versions() -> dict[str, str]:
    versions = {
        "python": platform.python_version(),
    }
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:  # pragma: no cover - both ship in the image
            versions[mod] = "unavailable"
    try:
        from repro import __version__ as repro_version
        versions["repro"] = repro_version
    except ImportError:  # pragma: no cover
        versions["repro"] = "unavailable"
    return versions


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one run."""

    command: str
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    git_sha: str | None = None
    platform: str = ""
    created_unix: float = 0.0
    counters: dict = field(default_factory=dict)
    phase_wall_s: dict = field(default_factory=dict)
    throughput: dict | None = None
    extras: dict = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True,
                          default=str)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def collect_manifest(
    command: str,
    config: dict | None = None,
    seeds: dict | None = None,
    records=None,
    throughput=None,
    counter_registry: Counters | None = None,
    extras: dict | None = None,
) -> RunManifest:
    """Build a :class:`RunManifest` from the live process state.

    ``records`` (the run's span records) give ``phase_wall_s``, the
    total seconds per span name; an untraced run has none and leaves
    it empty. ``throughput`` (a
    :class:`~repro.pipeline.executor.ThroughputReport`) is embedded as
    its dict form with the per-task rows dropped (they belong in the
    trace, not the manifest).
    """
    reg = counter_registry if counter_registry is not None \
        else global_counters()
    tp = None
    if throughput is not None:
        tp = throughput.as_dict()
        tp.pop("tasks", None)
    return RunManifest(
        command=command,
        config=dict(config or {}),
        seeds=dict(seeds or {}),
        versions=_package_versions(),
        git_sha=git_revision(),
        platform=f"{platform.system()}-{platform.machine()}"
                 f"-py{sys.version_info.major}.{sys.version_info.minor}",
        created_unix=time.time(),
        counters=reg.as_dict(),
        phase_wall_s={name: secs for name, (secs, _calls)
                      in phase_totals(records or ()).items()},
        throughput=tp,
        extras=dict(extras or {}),
    )
