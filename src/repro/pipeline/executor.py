"""Real parallel execution of fragment response tasks.

The QF decomposition produces embarrassingly parallel work — the paper
dispatches it over 576,000 processes (§V-A). :mod:`repro.hpc` *models*
that dispatch on simulated machines; this module *performs* it on the
local one. Three backends share one interface:

``serial``
    The single-process loop (reference behavior; zero overhead).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` over whole
    fragments: tasks are dispatched largest-first (big pieces dominate
    the makespan, so starting them early avoids tail stragglers — the
    same descending-cost rule as the simulated balancer's task pool)
    and in chunks to amortize inter-process overhead. Best when the
    workload has at least as many pieces as cores.
``displacement``
    Parallelism *inside* :func:`repro.dfpt.hessian.fragment_response`:
    the ~3N coordinate jobs of each fragment go to the pool while
    fragments themselves run in order. Best for workloads with few
    large fragments, where fragment-level parallelism would idle most
    workers.

All backends produce numerically identical responses (same code path,
same SCF seeds); tests assert agreement to 1e-10. A worker exception
does not hang the pool: it is re-raised in the parent as
:class:`FragmentExecutorError` carrying the fragment label and the
worker traceback.

Every run yields a :class:`ThroughputReport` (fragments/s, per-task
wall times, worker utilization) that the pipeline attaches to its
:class:`~repro.pipeline.qf_raman.PipelineResult` — the measurable perf
trajectory asked for by the ROADMAP.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.devtools.contracts import (
    ContractViolation,
    check_response,
    determinism_check_enabled,
    response_digest,
)
from repro.dfpt.hessian import FragmentResponse, fragment_response
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer, telemetry_shipment
from repro.pipeline.faults import (
    active_fault_plan,
    apply_post_fault,
    apply_pre_fault,
)
from repro.utils.timing import Stopwatch


@dataclass(frozen=True)
class FragmentTask:
    """One picklable unit of fragment work.

    ``index`` keys the result back to the originating QF piece, so
    completion order never matters.
    """

    index: int
    label: str
    geometry: Geometry
    delta: float = 5.0e-3
    compute_raman: bool = True
    basis_name: str = "sto-3g"
    eri_mode: str = "auto"
    schwarz_cutoff: float = 1.0e-12
    #: 1-based execution attempt — set by the resilience layer on
    #: retries/reissues; keys the deterministic fault-injection plan
    #: (never enters content hashes: a retry computes the same result)
    attempt: int = 1

    @property
    def natoms(self) -> int:
        return self.geometry.natoms


@dataclass
class FragmentTaskResult:
    """A finished task plus its execution record.

    ``spans`` and ``counters`` carry the telemetry a pool worker
    captured while executing the task (empty when the task ran in the
    parent process, where spans flow into the ambient tracer
    directly); the parent merges them at join.
    """

    index: int
    label: str
    natoms: int
    response: FragmentResponse | None
    wall_s: float
    worker: int                      # pid of the executing process
    error: tuple[str, str] | None = None   # (repr(exc), traceback text)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass
class ThroughputReport:
    """Execution statistics of one ``run`` call.

    ``worker_utilization`` is the summed busy time divided by
    ``wall_s * max_workers`` — 1.0 means no worker ever idled.
    """

    backend: str
    max_workers: int
    n_tasks: int
    wall_s: float
    fragments_per_s: float
    worker_utilization: float
    tasks: list[dict] = field(default_factory=list)
    #: retry/reissue/skip accounting when the run was fault-tolerant
    #: (a ResilienceReport dict; flows into the RunManifest)
    resilience: dict | None = None

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "max_workers": self.max_workers,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "fragments_per_s": self.fragments_per_s,
            "worker_utilization": self.worker_utilization,
            "tasks": self.tasks,
            "resilience": self.resilience,
        }

    def summary(self) -> str:
        return (
            f"{self.backend}[{self.max_workers}]: {self.n_tasks} fragments "
            f"in {self.wall_s:.2f}s ({self.fragments_per_s:.3f} frag/s, "
            f"utilization {100.0 * self.worker_utilization:.0f}%)"
        )


class FragmentExecutorError(RuntimeError):
    """A fragment task failed in a worker; carries label + traceback."""

    def __init__(self, label: str, error: str, worker_traceback: str = ""):
        self.label = label
        self.worker_traceback = worker_traceback
        msg = f"fragment task {label!r} failed: {error}"
        if worker_traceback:
            msg += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(msg)


def _run_task(task: FragmentTask,
              pool: Executor | None = None) -> FragmentTaskResult:
    """Execute one task, capturing errors not raising.

    Module-level so it pickles into worker processes; the parent turns
    a captured error into :class:`FragmentExecutorError`. Telemetry
    (spans under a per-task ``fragment`` span, counter increments) is
    captured by the shipment and travels back inside the result.
    ``pool`` fans the task's coordinate jobs out (the displacement
    backend, which runs this in the parent).
    """
    sw = Stopwatch()
    with telemetry_shipment() as shipment:
        plan = active_fault_plan()
        fault = plan.lookup(task.label, task.attempt) \
            if plan is not None else None
        with get_tracer().span(
            "fragment", label=task.label, natoms=task.natoms,
            attempt=task.attempt,
        ) as sp:
            try:
                if fault is not None:
                    counters().inc("resilience.faults_injected")
                    apply_pre_fault(fault)
                resp = fragment_response(
                    task.geometry,
                    delta=task.delta,
                    compute_raman=task.compute_raman,
                    basis_name=task.basis_name,
                    eri_mode=task.eri_mode,
                    schwarz_cutoff=task.schwarz_cutoff,
                    pool=pool,
                )
                apply_post_fault(fault, resp)
                error = None
            except Exception as exc:  # qf: broad-except — captured for the caller
                resp = None
                error = (repr(exc), traceback.format_exc())
            sp.set(ok=error is None)
    return FragmentTaskResult(
        index=task.index,
        label=task.label,
        natoms=task.natoms,
        response=resp,
        wall_s=sw.elapsed(),
        worker=os.getpid(),
        error=error,
        spans=shipment.spans,
        counters=shipment.counters,
    )


def _run_chunk(tasks: list[FragmentTask]) -> list[FragmentTaskResult]:
    return [_run_task(t) for t in tasks]


def largest_first(tasks: list[FragmentTask]) -> list[FragmentTask]:
    """Descending-size dispatch order (stable for equal sizes)."""
    return sorted(tasks, key=lambda t: -t.natoms)


def merge_telemetry(result: FragmentTaskResult) -> None:
    """Fold telemetry a pool worker shipped back into the parent.

    A parent-executed task reported into the ambient tracer/counters
    directly, so only foreign pids are merged.
    """
    if result.worker != os.getpid():
        get_tracer().adopt(result.spans)
        counters().merge(result.counters)


def _check(result: FragmentTaskResult,
           phase: str = "executor") -> FragmentTaskResult:
    # merge before the error check, so a failed task still leaves its
    # trace
    merge_telemetry(result)
    if result.error is not None:
        raise FragmentExecutorError(result.label, *result.error)
    # runtime sanitizer (QF_SANITIZE=1): re-validate the response with
    # the fragment label attached so a violation names its producer
    check_response(result.response, label=result.label, phase=phase)
    return result


def verify_determinism(
    tasks: list[FragmentTask],
    computed: dict[int, FragmentResponse],
    phase: str = "executor",
) -> None:
    """Serial-vs-pool digest comparison (``QF_SANITIZE_DETERMINISM=1``).

    Recomputes every task in the parent process and compares content
    hashes of the float64 payloads. The backends promise bitwise
    identical numerics; a mismatch means cross-process nondeterminism
    (BLAS thread effects, stale worker state) and raises a
    :class:`~repro.devtools.contracts.ContractViolation` naming the
    fragment. This doubles the compute — it is a debugging mode, not a
    production default.
    """
    for task in tasks:
        serial = _run_task(task)
        if serial.error is not None:
            raise FragmentExecutorError(task.label, *serial.error)
        pool_digest = response_digest(computed[task.index])
        serial_digest = response_digest(serial.response)
        if pool_digest != serial_digest:
            raise ContractViolation(
                f"pool result diverges from the serial reference "
                f"(serial {serial_digest[:12]} != pool {pool_digest[:12]})",
                name="response", rule="determinism",
                context=f"fragment={task.label} phase={phase}",
            )


class FragmentExecutor:
    """Common interface: ``run(tasks) -> (responses, report)``.

    ``responses`` maps ``task.index`` to its
    :class:`~repro.dfpt.hessian.FragmentResponse`. Executors are
    context managers; ``close()`` releases any worker pool.
    """

    name = "base"

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(self, tasks: list[FragmentTask]
            ) -> tuple[dict[int, FragmentResponse], ThroughputReport]:
        raise NotImplementedError

    def run_one(self, task: FragmentTask) -> FragmentTaskResult:
        """Execute one task, capturing failure in the result.

        The per-attempt seam the resilience layer drives: never raises
        for a task-level failure (``result.error`` carries it), so the
        caller decides between retry, skip, and abort.
        """
        raise NotImplementedError

    def restart_pool(self) -> None:
        """Replace a broken worker pool (no-op for poolless backends).

        After a hard worker death (``BrokenProcessPool``) the pool
        rejects all further submissions; the resilience layer calls
        this before retrying.
        """

    def close(self) -> None:
        pass

    def __enter__(self) -> "FragmentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _report(self, results: list[FragmentTaskResult], wall_s: float,
                busy_s: float | None = None) -> ThroughputReport:
        n = len(results)
        if busy_s is None:
            busy_s = sum(r.wall_s for r in results)
        denom = max(wall_s, 1e-12) * self.max_workers
        return ThroughputReport(
            backend=self.name,
            max_workers=self.max_workers,
            n_tasks=n,
            wall_s=wall_s,
            fragments_per_s=n / max(wall_s, 1e-12),
            worker_utilization=min(1.0, busy_s / denom),
            tasks=[
                {"label": r.label, "natoms": r.natoms,
                 "wall_s": r.wall_s, "worker": r.worker}
                for r in results
            ],
        )


class SerialExecutor(FragmentExecutor):
    """In-process loop — the reference backend."""

    name = "serial"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers=1)

    def run_one(self, task):
        return _run_task(task)

    def run(self, tasks):
        sw = Stopwatch()
        results = [_check(_run_task(t), phase="serial") for t in tasks]
        report = self._report(results, sw.elapsed())
        return {r.index: r.response for r in results}, report


class ProcessExecutor(FragmentExecutor):
    """Fragment-level process pool, largest-first chunked dispatch."""

    name = "process"

    def __init__(self, max_workers: int | None = None, chunksize: int = 1):
        super().__init__(max_workers)
        self.chunksize = max(1, chunksize)
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def restart_pool(self) -> None:
        self.close()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        counters().inc("resilience.pool_restarts")

    def run_one(self, task):
        try:
            return self._pool.submit(_run_task, task).result()
        except BrokenProcessPool as exc:
            # the worker died without returning (segfault, OOM-kill,
            # os._exit); synthesize a failed result naming the fragment
            return FragmentTaskResult(
                index=task.index, label=task.label, natoms=task.natoms,
                response=None, wall_s=0.0, worker=0,
                error=(f"worker process died before returning ({exc!r})",
                       ""),
            )

    def run(self, tasks):
        ordered = largest_first(tasks)
        sw = Stopwatch()
        chunks = [
            ordered[i: i + self.chunksize]
            for i in range(0, len(ordered), self.chunksize)
        ]
        results: list[FragmentTaskResult] = []
        pending = {self._pool.submit(_run_chunk, c): c for c in chunks}
        try:
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    chunk = pending.pop(fut)
                    try:
                        chunk_results = fut.result()
                    except BrokenProcessPool as exc:
                        # without this, a hard worker death surfaces as
                        # a bare BrokenProcessPool with no hint of what
                        # was running; name the fragment(s) and phase
                        labels = ",".join(t.label for t in chunk)
                        raise FragmentExecutorError(
                            labels,
                            f"worker process died before returning "
                            f"({exc!r}) [phase=process]",
                        ) from exc
                    results.extend(
                        _check(r, phase="process") for r in chunk_results
                    )
        except Exception:
            for fut in pending:
                fut.cancel()
            raise
        responses = {r.index: r.response for r in results}
        if determinism_check_enabled():
            verify_determinism(tasks, responses, phase="process")
        report = self._report(results, sw.elapsed())
        return responses, report


class DisplacementExecutor(FragmentExecutor):
    """Fragments in order, coordinate jobs fanned out to the pool.

    The right choice when the workload is a handful of large fragments:
    each fragment's ~6N displaced SCF/CPHF jobs saturate the pool even
    when the fragment count is below the core count.
    """

    name = "displacement"

    def __init__(self, max_workers: int | None = None):
        super().__init__(max_workers)
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def restart_pool(self) -> None:
        self.close()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        counters().inc("resilience.pool_restarts")

    def run_one(self, task):
        return _run_task(task, pool=self._pool)

    def run(self, tasks):
        sw = Stopwatch()
        results: list[FragmentTaskResult] = []
        busy_s = 0.0
        for task in tasks:
            result = self.run_one(task)
            if result.error is not None:
                raise FragmentExecutorError(task.label, *result.error)
            resp = result.response
            busy_s += resp.meta["coordinate_jobs_s"]
            check_response(resp, label=task.label, phase="displacement")
            results.append(result)
        responses = {r.index: r.response for r in results}
        if determinism_check_enabled():
            verify_determinism(tasks, responses, phase="displacement")
        report = self._report(results, sw.elapsed(), busy_s=busy_s)
        return responses, report


_BACKENDS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
    "displacement": DisplacementExecutor,
}


def make_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    chunksize: int = 1,
    resilience=None,
    store=None,
) -> FragmentExecutor:
    """Instantiate an executor backend by name.

    ``max_workers`` defaults to the CPU count for the parallel
    backends (ignored by ``serial``); ``chunksize`` only affects
    ``process``. Passing a
    :class:`~repro.pipeline.resilience.ResiliencePolicy` (or True for
    the defaults) wraps the backend in the fault-tolerant
    :class:`~repro.pipeline.resilience.ResilientExecutor` (retries,
    timeouts, checkpoint/resume; see docs/resilience.md), which
    checkpoints every accepted fragment to ``store`` (a
    :class:`~repro.pipeline.canonical.CanonicalStore`). A store alone
    does not make a run resilient: the plain backends ignore it.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        )
    if resilience is not None:
        from repro.pipeline.resilience import ResiliencePolicy, ResilientExecutor

        policy = None if resilience is True else resilience
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            raise TypeError(
                f"resilience must be a ResiliencePolicy, got {policy!r}"
            )
        return ResilientExecutor(
            base=backend, max_workers=max_workers, policy=policy,
            store=store,
        )
    cls = _BACKENDS[backend]
    if cls is ProcessExecutor:
        return cls(max_workers=max_workers, chunksize=chunksize)
    return cls(max_workers=max_workers)
