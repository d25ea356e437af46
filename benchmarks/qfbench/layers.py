"""Outside-in layer tracer for the QF-RAMAN benchmark.

The benchmark times each layer of the program from its own files: it
replaces the public callables the pipeline calls *through* (the
namespace the call site looks the name up in) with thin wrappers that
record one span per call, and puts every original back in a
``finally``. Nothing under ``src/`` changes, and a traced run computes
exactly what an untraced one does.

Each span is a ``repro.obs`` span record: a name, start and duration
(``time.perf_counter``), and in its attributes its own id, the id of
the span that caused it and the id of the pipeline run it belongs to.
The root span of a run is ``pipeline.run``; its self time (duration
minus its children) is the part of the run no layer claims.
Counts come from the program's own ``repro.obs.counters`` registry, as
deltas over each run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.counters import counters
from repro.obs.tracer import SpanRecord, Tracer

ROOT = "pipeline.run"

#: (span name, "module" or "module:Class", attribute). The module or
#: class is the namespace the pipeline resolves the callable through at
#: call time, so a wrapper placed there sees every call the run makes.
SEAMS: tuple[tuple[str, str, str], ...] = (
    (ROOT, "repro.pipeline.qf_raman:QFRamanPipeline", "run"),
    ("fragment.decompose", "repro.pipeline.qf_raman", "decompose_system"),
    ("pipeline.geometry_signature", "repro.pipeline.qf_raman",
     "geometry_signature"),
    ("pipeline.kabsch_rotation", "repro.pipeline.qf_raman", "kabsch_rotation"),
    ("pipeline.rotate_response", "repro.pipeline.qf_raman", "rotate_response"),
    ("pipeline.store_load", "repro.pipeline.canonical:CanonicalStore", "load"),
    ("pipeline.store_write", "repro.pipeline.canonical:CanonicalStore",
     "store_task"),
    ("pipeline.executor_run", "repro.pipeline.executor:SerialExecutor", "run"),
    ("dfpt.fragment_response", "repro.pipeline.executor", "fragment_response"),
    ("dfpt.coordinate_job", "repro.dfpt.hessian", "coordinate_job"),
    ("dfpt.gradient", "repro.dfpt.hessian", "gradient"),
    ("dfpt.cphf", "repro.dfpt.cphf:CPHF", "run"),
    ("scf.rhf", "repro.scf.rhf:RHF", "run"),
    ("scf.df_build", "repro.scf.df:DensityFitting", "__init__"),
    ("integrals.eri", "repro.integrals.engine:IntegralEngine", "eri"),
    ("integrals.eri_deriv", "repro.integrals.engine:IntegralEngine",
     "eri_deriv"),
    ("integrals.three_center_deriv", "repro.integrals.engine:IntegralEngine",
     "three_center_deriv"),
    ("integrals.two_center_deriv", "repro.integrals.engine:IntegralEngine",
     "two_center_deriv"),
    ("integrals.overlap_deriv", "repro.integrals.engine:IntegralEngine",
     "overlap_deriv"),
    ("integrals.kinetic_deriv", "repro.integrals.engine:IntegralEngine",
     "kinetic_deriv"),
    ("integrals.nuclear_deriv", "repro.integrals.engine:IntegralEngine",
     "nuclear_deriv"),
    ("fragment.assemble_response", "repro.pipeline.qf_raman",
     "assemble_response"),
    ("fragment.assemble_sparse_hessian", "repro.pipeline.qf_raman",
     "assemble_sparse_hessian"),
    ("spectra.raman_spectrum_dense", "repro.pipeline.qf_raman",
     "raman_spectrum_dense"),
    ("spectra.raman_spectrum_lanczos", "repro.pipeline.qf_raman",
     "raman_spectrum_lanczos"),
)

SEAM_NAMES = tuple(name for name, _, _ in SEAMS)


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _rhf_attrs(args, kwargs, out) -> dict:
    seeded = kwargs.get("guess_density", args[1] if len(args) > 1 else None)
    return {"seeded": seeded is not None, "converged": bool(out.converged)}


def _assembly_attrs(args, kwargs, out) -> dict:
    return {"bytes": _nbytes(out.hessian) + _nbytes(out.dalpha_dr)}


def _output_bytes(args, kwargs, out) -> dict:
    return {"bytes": _nbytes(out)}


#: per-seam attributes taken from the call, computed after it returns
_ATTRS = {
    "scf.rhf": _rhf_attrs,
    "fragment.decompose": lambda a, k, out: {"pieces": len(out.pieces)},
    "fragment.assemble_response": _assembly_attrs,
    "integrals.eri_deriv": _output_bytes,
    "integrals.three_center_deriv": _output_bytes,
    "integrals.two_center_deriv": _output_bytes,
}


def span_id(s: SpanRecord) -> int:
    return s.attrs["span"]


def parent_id(s: SpanRecord) -> int | None:
    return s.attrs["parent"]


@dataclass
class RunTrace:
    """The spans of one ``pipeline.run`` call plus its counter delta."""

    spans: list[SpanRecord]
    counters: dict[str, int]
    overhead_s: float

    @property
    def root(self) -> SpanRecord:
        return next(s for s in self.spans if parent_id(s) is None)

    def calls(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def busy(self, *names: str) -> float:
        """Summed duration of the named spans (no seam nests in itself)."""
        return sum(s.dur for s in self.spans if s.name in names)

    def output_mb(self, *names: str) -> float:
        """Computed size of the named spans' outputs, in MB."""
        return 1.0e-6 * sum(s.attrs["bytes"] for s in self.spans
                            if s.name in names)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their children cover."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if parent_id(s) is not None:
                child_s[parent_id(s)] = child_s.get(parent_id(s), 0.0) + s.dur
        return sum(s.dur - child_s.get(span_id(s), 0.0)
                   for s in self.calls(name))


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class LayerTracer(Tracer):
    """A :class:`~repro.obs.tracer.Tracer` fed by wrappers at the seams in
    :data:`SEAMS` while installed.

    It is never made the program's global tracer, so the spans inside
    ``src/`` stay disabled and only the seams are recorded. Each record
    carries its span id, parent span id and run id in ``attrs``;
    :meth:`export` output goes straight to ``repro.obs.export.write_trace``.
    """

    def __init__(self):
        super().__init__()
        self.runs: list[RunTrace] = []
        self._open: list[int] = []   # ids of the open spans, innermost last
        self._next_id = 0
        self._run = -1
        self._overhead = 0.0
        self._snapshot: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if name == ROOT:
                self._begin_run()
            ids = {"span": self._next_id,
                   "parent": self._open[-1] if self._open else None,
                   "run": self._run}
            self._next_id += 1
            self._open.append(ids["span"])
            try:
                with self.span(name, **ids) as handle:
                    t1 = time.perf_counter()
                    out = fn(*args, **kwargs)
                    t2 = time.perf_counter()
                    if attrs_of is not None:
                        handle.set(**attrs_of(args, kwargs, out))
            finally:
                self._open.pop()
            self._overhead += (time.perf_counter() - t0) - (t2 - t1)
            if name == ROOT:
                self._end_run()
            return out

        functools.update_wrapper(traced, fn)
        traced.qfbench_seam = name
        return traced

    def _begin_run(self) -> None:
        self._run += 1
        self._overhead = 0.0
        self._snapshot = counters().snapshot()

    def _end_run(self) -> None:
        self.runs.append(RunTrace(
            spans=[s for s in self.records if s.attrs["run"] == self._run],
            counters=counters().delta_since(self._snapshot),
            overhead_s=self._overhead,
        ))

    @contextmanager
    def installed(self):
        """Patch every seam for the ``with`` body; restore all in
        ``finally``."""
        patched: list[tuple[object, str, object]] = []
        try:
            for name, target, attr in SEAMS:
                owner = _resolve(target)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def patched_seams() -> list[str]:
    """Names of the seams that currently hold a tracer wrapper."""
    return [name for name, target, attr in SEAMS
            if hasattr(getattr(_resolve(target), attr), "qfbench_seam")]


# -- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_metrics(rt: RunTrace) -> dict[str, float]:
    """Every per-layer metric of one traced pipeline run."""
    c = rt.counters.get
    root = rt.root
    pieces = sum(s.attrs["pieces"] for s in rt.calls("fragment.decompose"))
    frag = [s.dur for s in rt.calls("dfpt.fragment_response")]
    qm = len(frag)
    scf_runs = len(rt.calls("scf.rhf"))
    df_deriv = ("integrals.three_center_deriv", "integrals.two_center_deriv")
    return {
        "integrals.eri_deriv_s": rt.busy("integrals.eri_deriv"),
        "integrals.eri_deriv_mb": rt.output_mb("integrals.eri_deriv"),
        "integrals.eri_s": rt.busy("integrals.eri"),
        "integrals.df_deriv_s": rt.busy(*df_deriv),
        "integrals.df_deriv_mb": rt.output_mb(*df_deriv),
        "integrals.one_e_deriv_s": rt.busy("integrals.overlap_deriv",
                                           "integrals.kinetic_deriv",
                                           "integrals.nuclear_deriv"),
        "eri.screened_ratio": _ratio(c("eri.pair_combinations_screened", 0),
                                     c("eri.pair_combinations_total", 0)),
        "kernels.flop_efficiency": _ratio(c("kernels.useful_flops", 0),
                                          c("kernels.padded_flops", 0)),
        "scf.runs": scf_runs,
        "scf.self_s": rt.self_time("scf.rhf"),
        "scf.iterations": c("scf.iterations", 0),
        "scf.iters_per_run": _ratio(c("scf.iterations", 0), scf_runs),
        "scf.cold_retries": sum(
            1 for s in rt.calls("scf.rhf")
            if s.attrs["seeded"] and not s.attrs["converged"]),
        "scf.df_build_s": rt.busy("scf.df_build"),
        "dfpt.gradient_s": rt.busy("dfpt.gradient"),
        "dfpt.gradient_self_s": rt.self_time("dfpt.gradient"),
        "dfpt.cphf_s": rt.busy("dfpt.cphf"),
        "cphf.iterations": c("cphf.iterations", 0),
        "dfpt.coordinate_jobs": len(rt.calls("dfpt.coordinate_job")),
        "dfpt.fragment_response_s": sum(frag),
        "dfpt.fragment_response_max_s": max(frag, default=0.0),
        "pipeline.reuse_s": rt.busy(
            "pipeline.geometry_signature", "pipeline.kabsch_rotation",
            "pipeline.rotate_response", "pipeline.store_load",
            "pipeline.store_write"),
        "pipeline.reuse_hit_ratio": _ratio(pieces - qm, pieces),
        "pipeline.rigid_rotations": c("pipeline.rigid_rotations", 0),
        "pipeline.store_writes": c("cache.canonical_writes", 0),
        "pipeline.qm_pieces": qm,
        "pipeline.executor_overhead_s": (
            rt.busy("pipeline.executor_run") - sum(frag)),
        "fragment.decompose_s": rt.busy("fragment.decompose"),
        "fragment.assembly_s": rt.busy("fragment.assemble_response",
                                       "fragment.assemble_sparse_hessian"),
        "fragment.assembly_dense_mb": rt.output_mb(
            "fragment.assemble_response"),
        "spectra.solve_s": rt.busy("spectra.raman_spectrum_dense",
                                   "spectra.raman_spectrum_lanczos"),
        "lanczos.matvecs": c("lanczos.matvecs", 0),
        "trace.overhead_frac": _ratio(rt.overhead_s, root.dur),
        "trace.unattributed_frac": _ratio(rt.self_time(ROOT), root.dur),
    }


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac", "_efficiency", "_per_run")):
        return "ratio"
    return "count"


def median_metrics(runs: list[RunTrace]) -> dict[str, float]:
    """Median over runs of each per-layer metric."""
    per_run = [run_metrics(rt) for rt in runs]
    return {name: float(statistics.median(m[name] for m in per_run))
            for name in per_run[0]}


def self_shares(rt: RunTrace) -> dict[str, float]:
    """Self time of each seam as a share of the run's root span."""
    total = rt.root.dur
    return {name: rt.self_time(name) / total
            for name in sorted({s.name for s in rt.spans})}
