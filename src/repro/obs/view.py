"""Terminal renderer for exported traces.

``python -m repro obs view FILE`` prints a per-phase summary table
(aggregated by span name) and a text flamegraph (aggregated by span
path), for either exporter format. The same functions back the test
suite's round-trip assertions, so the viewer can never drift from the
exporters.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.export import load_trace, phase_totals
from repro.obs.tracer import SpanRecord

__all__ = ["phase_summary", "phase_totals", "flamegraph", "render"]


def phase_summary(records) -> str:
    """Per-phase table of :func:`phase_totals`, sorted by total
    time."""
    totals = phase_totals(records)
    if not totals:
        return "(empty trace)"
    width = max(len("span"), max(len(n) for n in totals))
    lines = [
        f"{'span':<{width}} {'total(s)':>10} {'calls':>7} {'mean(s)':>10}"
    ]
    for name in sorted(totals, key=lambda n: -totals[n][0]):
        secs, calls = totals[name]
        lines.append(
            f"{name:<{width}} {secs:>10.4f} {calls:>7d} "
            f"{secs / calls:>10.6f}"
        )
    return "\n".join(lines)


def _aggregate_paths(records) -> dict[str, tuple[float, int]]:
    agg: dict[str, tuple[float, int]] = {}
    for r in records:
        secs, calls = agg.get(r.path, (0.0, 0))
        agg[r.path] = (secs + r.dur, calls + 1)
    return agg


def flamegraph(records, width: int = 40) -> str:
    """Text flamegraph: the span-path tree with per-path totals and
    bars scaled to the largest root."""
    agg = _aggregate_paths(records)
    if not agg:
        return "(empty trace)"
    children: dict[str, list[str]] = {}
    roots: list[str] = []
    for path in agg:
        head, sep, _ = path.rpartition("/")
        if sep and head in agg:
            children.setdefault(head, []).append(path)
        else:
            roots.append(path)
    scale = max(agg[p][0] for p in roots)
    scale = scale if scale > 0 else 1.0
    name_w = max(
        2 * p.count("/") + len(p.rsplit("/", 1)[-1]) for p in agg
    )
    name_w = max(name_w, len("span"))
    lines = [f"{'span':<{name_w}} {'total(s)':>10} {'calls':>7}  "]

    def emit(path: str, depth: int) -> None:
        secs, calls = agg[path]
        name = path.rsplit("/", 1)[-1]
        bar = "█" * max(1, int(round(width * secs / scale)))
        lines.append(
            f"{'  ' * depth + name:<{name_w}} {secs:>10.4f} {calls:>7d}  "
            f"{bar}"
        )
        for child in sorted(children.get(path, ()),
                            key=lambda p: -agg[p][0]):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda p: -agg[p][0]):
        emit(root, 0)
    return "\n".join(lines)


def render(path: str | Path, width: int = 40) -> str:
    """Full ``obs view`` output for one exported trace file."""
    records: list[SpanRecord] = load_trace(path)
    n_pids = len({r.pid for r in records})
    header = (
        f"{Path(path).name}: {len(records)} spans across "
        f"{n_pids} process(es)"
    )
    return "\n".join([
        header,
        "",
        "== per-phase summary ==",
        phase_summary(records),
        "",
        "== flamegraph (aggregated by span path) ==",
        flamegraph(records, width=width),
    ])
