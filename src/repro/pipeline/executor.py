"""Real parallel execution of fragment response tasks.

The QF decomposition produces embarrassingly parallel work — the paper
dispatches it over 576,000 processes (§V-A). :mod:`repro.hpc` *models*
that dispatch on simulated machines; this module *performs* it on the
local one. Three backends share one interface:

``serial``
    The single-process loop (reference behavior).
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` over whole
    fragments. Best when the workload has at least as many pieces as
    cores.
``displacement``
    Parallelism *inside* :func:`repro.dfpt.hessian.fragment_response`:
    the ~3N coordinate jobs of each fragment go to the pool while
    fragments themselves run in order. Best for workloads with few
    large fragments, where fragment-level parallelism would idle most
    workers.

Every backend runs the same dispatch protocol, the paper's
master/leader/worker one: fragments go out largest-first (big pieces
dominate the makespan, so starting them early avoids tail stragglers —
the same descending-cost rule as the simulated balancer's task pool);
each returned result is validated with
:func:`repro.devtools.contracts.check_response` and, once accepted,
checkpointed to the fragment store when the run has one; a failed,
corrupted or timed-out attempt is retried, reissued or skipped per the
executor's :class:`~repro.pipeline.resilience.ResiliencePolicy`
(docs/resilience.md). Without a policy an executor makes one attempt
per fragment and fails fast. Serial and displacement share one
synchronous loop (timeouts are detected after the attempt returns);
process runs one asynchronous pool loop (stragglers are reissued the
moment they pass their deadline).

All backends produce numerically identical responses (same code path,
same SCF seeds); tests assert agreement to 1e-10. A failure never
hangs the pool: a fragment that exhausts its attempts under
``fail_fast`` is raised in the parent as :class:`FragmentExecutorError`
carrying the fragment label, every attempt's error and the worker
traceback (a corrupted result as the
:class:`~repro.devtools.contracts.ContractViolation` that caught it).

Every run yields a :class:`ThroughputReport` (fragments/s, per-task
wall times, worker utilization, and the run's
:class:`~repro.pipeline.resilience.ResilienceReport`) that the pipeline
attaches to its :class:`~repro.pipeline.qf_raman.PipelineResult`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

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
from repro.pipeline.resilience import (
    DEFAULT_POLICY,
    FAIL_FAST,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.utils.timing import Stopwatch

#: bounds on the pool loop's wait slice — keeps deadline checks
#: responsive without busy-spinning
_MIN_TICK_S = 0.01
_MAX_TICK_S = 0.5


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
    #: 1-based execution attempt — set by the executor on
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
    #: the run's retry/reissue/skip accounting (a ResilienceReport
    #: dict; flows into the RunManifest) — None only for a run that
    #: never reached an executor
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
        """One line: accepted of submitted fragments (and the skipped
        count, when a skip-and-report run dropped any), wall time, and
        the throughput of accepted fragments."""
        skipped = len((self.resilience or {}).get("skipped", ()))
        accepted = self.n_tasks - skipped
        skip_note = f" ({skipped} skipped)" if skipped else ""
        return (
            f"{self.backend}[{self.max_workers}]: {accepted} of "
            f"{self.n_tasks} fragments accepted{skip_note} in "
            f"{self.wall_s:.2f}s ({self.fragments_per_s:.3f} accepted "
            f"frag/s, utilization {100.0 * self.worker_utilization:.0f}%)"
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




class _Run:
    """The bookkeeping of one ``run`` call, shared by both loops.

    Holds the accepted results, the :class:`ResilienceReport`, and the
    store every accepted fragment is checkpointed to the moment it
    validates — so a run killed partway resumes from its finished
    fragments whatever its policy.
    """

    def __init__(self, executor: "FragmentExecutor",
                 tasks: list[FragmentTask], store):
        self.executor = executor
        self.policy = executor.policy
        self.phase = executor.name
        self.store = store
        self.clock = Stopwatch()
        self.report = ResilienceReport(policy=self.policy.as_dict(),
                                       n_tasks=len(tasks))
        self.responses: dict[int, FragmentResponse] = {}
        self.results: list[FragmentTaskResult] = []
        #: the accepted attempt of each fragment (replayed by the
        #: determinism check, so a fault plan keyed on attempts agrees)
        self.accepted: list[FragmentTask] = []
        #: the latest failed attempt's worker traceback / contract
        #: violation per label — what a fail-fast abort raises with
        self.tracebacks: dict[str, str] = {}
        self.violations: dict[str, ContractViolation] = {}

    def failure_of(self, result: FragmentTaskResult) -> str | None:
        """Why this attempt cannot be accepted (None = it can).

        Validation is always on (``force=True``, whatever
        ``QF_SANITIZE`` says): a silently wrong result must feed the
        retry path, not the spectrum.
        """
        self.violations.pop(result.label, None)
        if result.error is not None:
            self.tracebacks[result.label] = result.error[1]
            return f"worker raised: {result.error[0]}"
        try:
            check_response(result.response, label=result.label,
                           phase=self.phase, force=True)
        except ContractViolation as exc:
            self.report.corrupted += 1
            counters().inc("resilience.corrupted")
            self.violations[result.label] = exc
            return f"corrupted result: {exc}"
        return None

    def record_failure(self, label: str, attempt: int, why: str) -> None:
        self.report.failures.setdefault(label, []).append(
            f"attempt {attempt}: {why}"
        )

    def accept(self, task: FragmentTask,
               result: FragmentTaskResult) -> None:
        """Take ``result`` of the attempt ``task`` and checkpoint it."""
        self.responses[task.index] = result.response
        self.results.append(result)
        self.accepted.append(task)
        if self.store is not None \
                and self.store.store_task(task, result.response) is not None:
            self.report.store_writes += 1

    def give_up(self, task: FragmentTask) -> None:
        """Skip an exhausted fragment; raise under ``fail_fast``."""
        report = self.report
        failures = report.failures.get(task.label, [])
        attempts = report.attempts.get(task.label, 0)
        counters().inc("resilience.skipped")
        report.skipped.append({
            "label": task.label,
            "index": task.index,
            "attempts": attempts,
            "errors": list(failures),
        })
        if self.policy.failure_policy != FAIL_FAST:
            return
        violation = self.violations.get(task.label)
        if violation is not None:
            # the sanitizer's contract: a corrupted response aborts the
            # run as the violation itself, naming fragment and phase
            raise violation
        raise FragmentExecutorError(
            task.label,
            f"retries exhausted after {attempts} attempt(s): "
            + ("; ".join(failures) or "no attempt completed")
            + f" [phase={self.phase}]",
            self.tracebacks.get(task.label, ""),
        )

    def finish(self) -> tuple[dict[int, FragmentResponse], ThroughputReport]:
        ex = self.executor
        if ex._pool is not None and determinism_check_enabled():
            verify_determinism(self.accepted, self.responses, phase=self.phase)
        throughput = ex._report(self.results, self.clock.elapsed())
        throughput.n_tasks = self.report.n_tasks
        throughput.resilience = self.report.as_dict()
        return self.responses, throughput


@dataclass
class _FragmentState:
    """Pool-loop bookkeeping for one fragment."""

    task: FragmentTask
    attempts: int = 0        # attempts submitted so far
    live: int = 0            # attempts still in flight, timed out or not
    scheduled: int = 0       # queued (re)submissions not yet launched
    done: bool = False
    dead: bool = False       # exhausted; skipped under skip_and_report


class FragmentExecutor:
    """Common interface: ``run(tasks, store=None) -> (responses, report)``.

    ``responses`` maps ``task.index`` to its
    :class:`~repro.dfpt.hessian.FragmentResponse`; ``store`` (a
    :class:`~repro.pipeline.canonical.CanonicalStore`) receives each
    fragment the moment it is accepted. ``policy`` sets the retries,
    timeout and failure policy (one attempt, fail-fast when None).
    Executors are context managers; ``close()`` releases any worker
    pool.

    The base ``run`` is the synchronous loop: one attempt at a time in
    the calling process (which hands the attempt's coordinate jobs to
    the pool, when the backend has one).
    """

    name = "base"
    #: the worker pool of the parallel backends (None: runs in-process)
    _pool: ProcessPoolExecutor | None = None

    def __init__(self, max_workers: int | None = None,
                 policy: ResiliencePolicy | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            raise TypeError(
                f"policy must be a ResiliencePolicy or None, got {policy!r}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.policy = policy if policy is not None else DEFAULT_POLICY

    def run(self, tasks: list[FragmentTask], store=None
            ) -> tuple[dict[int, FragmentResponse], ThroughputReport]:
        run = _Run(self, tasks, store)
        policy = self.policy
        report = run.report
        for task in largest_first(tasks):
            for attempt in range(1, policy.max_attempts + 1):
                report.attempts[task.label] = attempt
                if attempt > 1:
                    report.retries += 1
                    counters().inc("resilience.retries")
                    delay = policy.backoff(task.label, attempt)
                    if delay > 0:
                        time.sleep(delay)
                this = replace(task, attempt=attempt)
                result = _run_task(this, pool=self._pool)
                merge_telemetry(result)
                failure = run.failure_of(result)
                if failure is None:
                    if policy.timeout_s is not None \
                            and result.wall_s > policy.timeout_s:
                        # post-hoc straggler detection: an in-process
                        # attempt cannot be preempted, so the (valid)
                        # late result is kept and only recorded
                        report.timeouts += 1
                        counters().inc("resilience.timeouts")
                    run.accept(this, result)
                    break
                run.record_failure(task.label, attempt, failure)
                if "BrokenProcessPool" in failure:
                    # the displacement backend shares one pool across
                    # fragments; replace it or every retry inherits
                    # the corpse
                    self.restart_pool()
                    report.pool_restarts += 1
            else:
                run.give_up(task)
        return run.finish()

    def _busy_s(self, result: FragmentTaskResult) -> float:
        """Worker-seconds one accepted task kept the backend busy."""
        return result.wall_s

    def restart_pool(self) -> None:
        """Replace a broken worker pool (no-op for poolless backends).

        After a hard worker death (``BrokenProcessPool``) the pool
        rejects all further submissions; the loops call this before
        retrying.
        """
        if self._pool is None:
            return
        self.close()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        counters().inc("resilience.pool_restarts")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "FragmentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _report(self, results: list[FragmentTaskResult],
                wall_s: float) -> ThroughputReport:
        n = len(results)
        busy_s = sum(self._busy_s(r) for r in results)
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

    def __init__(self, max_workers: int | None = None,
                 policy: ResiliencePolicy | None = None):
        super().__init__(max_workers=1, policy=policy)

    # defined here, not only inherited: the benchmark's layer tracer
    # times the serial loop by wrapping ``SerialExecutor.run``
    def run(self, tasks, store=None):
        return super().run(tasks, store)


class ProcessExecutor(FragmentExecutor):
    """Fragment-level process pool: the asynchronous loop.

    Failures, corrupted results, worker deaths (``BrokenProcessPool``
    → pool restart) and timeouts are handled per fragment while the
    rest of the pool keeps working. An attempt past ``timeout_s`` is
    reissued speculatively but stays in flight: the first valid result
    wins, and a fragment is only given up once no attempt is left
    running.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None,
                 policy: ResiliencePolicy | None = None):
        super().__init__(max_workers, policy)
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def run(self, tasks, store=None):
        run = _Run(self, tasks, store)
        policy = self.policy
        report = run.report
        clock = run.clock
        ordered = largest_first(tasks)
        state = {t.index: _FragmentState(task=t) for t in ordered}
        ready: list[tuple[float, int]] = [(0.0, t.index) for t in ordered]
        pending: dict = {}   # future -> [index, attempt, deadline, timed_out]

        def submit(index: int) -> None:
            st = state[index]
            if st.done or st.dead or st.attempts >= policy.max_attempts:
                return
            st.attempts += 1
            st.live += 1
            report.attempts[st.task.label] = st.attempts
            fut = self._pool.submit(
                _run_task, replace(st.task, attempt=st.attempts)
            )
            deadline = (clock.elapsed() + policy.timeout_s
                        if policy.timeout_s is not None else None)
            pending[fut] = [index, st.attempts, deadline, False]

        def can_retry(st: _FragmentState) -> bool:
            return not st.done and not st.dead \
                and st.attempts + st.scheduled < policy.max_attempts

        def schedule_retry(st: _FragmentState, *, backoff: bool) -> None:
            """Queue the next attempt (ordinary retry or reissue)."""
            at = clock.elapsed()
            if backoff:
                report.retries += 1
                counters().inc("resilience.retries")
                at += policy.backoff(st.task.label, st.attempts + 1)
            else:
                report.reissues += 1
                counters().inc("resilience.reissues")
            st.scheduled += 1
            ready.append((at, st.task.index))

        def on_failure(st: _FragmentState, attempt: int, why: str) -> None:
            run.record_failure(st.task.label, attempt, why)
            if can_retry(st):
                schedule_retry(st, backoff=True)

        def settle_dead() -> None:
            """Declare fragments with no remaining path to success."""
            for st in state.values():
                if st.done or st.dead:
                    continue
                if st.attempts >= policy.max_attempts and st.live == 0 \
                        and st.scheduled == 0:
                    st.dead = True
                    run.give_up(st.task)   # raises on fail_fast

        def unsettled() -> bool:
            return any(not (st.done or st.dead) for st in state.values())

        try:
            while unsettled():
                now = clock.elapsed()
                # launch everything whose backoff has elapsed
                still_waiting = []
                for at, index in ready:
                    if at <= now:
                        state[index].scheduled = max(
                            0, state[index].scheduled - 1)
                        submit(index)
                    else:
                        still_waiting.append((at, index))
                ready[:] = still_waiting
                settle_dead()
                if not unsettled():
                    break
                if not pending:
                    if not ready:       # pragma: no cover - defensive
                        raise RuntimeError(
                            "pool loop stalled with unfinished fragments "
                            "and nothing in flight"
                        )
                    time.sleep(max(_MIN_TICK_S,
                                   min(at for at, _ in ready) - now))
                    continue
                # wait slice: the nearest deadline or queued launch
                horizons = [at - now for at, _ in ready]
                horizons += [rec[2] - now for rec in pending.values()
                             if rec[2] is not None and not rec[3]]
                tick = min(horizons) if horizons else _MAX_TICK_S
                tick = min(max(tick, _MIN_TICK_S), _MAX_TICK_S)
                finished, _ = wait(list(pending), timeout=tick,
                                   return_when=FIRST_COMPLETED)
                pool_broke = False
                for fut in finished:
                    index, attempt, _deadline, _timed_out = pending.pop(fut)
                    st = state[index]
                    st.live -= 1
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        pool_broke = True
                        on_failure(st, attempt,
                                   f"worker process died before returning "
                                   f"({exc!r})")
                        continue
                    except CancelledError:      # pragma: no cover
                        continue
                    merge_telemetry(result)
                    if st.done or st.dead:
                        # a straggler's result arriving after the
                        # fragment was settled by a reissue
                        counters().inc("resilience.late_results")
                        continue
                    failure = run.failure_of(result)
                    if failure is None:
                        st.done = True
                        run.accept(replace(st.task, attempt=attempt),
                                   result)
                    else:
                        on_failure(st, attempt, failure)
                if pool_broke:
                    # every other in-flight future died with the pool
                    for index, attempt, _d, _t in pending.values():
                        st = state[index]
                        st.live -= 1
                        on_failure(st, attempt,
                                   "worker pool broke while task was in "
                                   "flight (BrokenProcessPool)")
                    pending.clear()
                    self.restart_pool()
                    report.pool_restarts += 1
                # speculative reissue of stragglers past their deadline;
                # the straggler stays live — it may still win
                if policy.timeout_s is not None:
                    now = clock.elapsed()
                    for rec in pending.values():
                        index, attempt, deadline, timed_out = rec
                        if timed_out or deadline is None or now <= deadline:
                            continue
                        st = state[index]
                        rec[3] = True
                        report.timeouts += 1
                        counters().inc("resilience.timeouts")
                        run.record_failure(
                            st.task.label, attempt,
                            f"timed out after {policy.timeout_s:.3g}s",
                        )
                        if can_retry(st):
                            schedule_retry(st, backoff=False)
                settle_dead()
        except Exception:
            for fut in pending:
                fut.cancel()
            raise
        return run.finish()


class DisplacementExecutor(FragmentExecutor):
    """Fragments in order, coordinate jobs fanned out to the pool.

    The right choice when the workload is a handful of large fragments:
    each fragment's ~6N displaced SCF/CPHF jobs saturate the pool even
    when the fragment count is below the core count. Runs the
    synchronous loop; each attempt hands its coordinate jobs to the
    pool.
    """

    name = "displacement"

    def __init__(self, max_workers: int | None = None,
                 policy: ResiliencePolicy | None = None):
        super().__init__(max_workers, policy)
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def _busy_s(self, result):
        # the pooled coordinate jobs, not the parent's wall time
        return result.response.meta["coordinate_jobs_s"]


_BACKENDS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
    "displacement": DisplacementExecutor,
}


def make_executor(
    backend: str = "serial",
    max_workers: int | None = None,
    policy: ResiliencePolicy | None = None,
) -> FragmentExecutor:
    """Instantiate an executor backend by name.

    ``max_workers`` defaults to the CPU count for the parallel
    backends (ignored by ``serial``). ``policy`` sets retries,
    timeouts and the failure policy (docs/resilience.md); None means
    one attempt per fragment, fail-fast, no timeout.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        )
    return _BACKENDS[backend](max_workers=max_workers, policy=policy)
