"""Deterministic process-pool execution for the verification flow.

:func:`parallel_map` is the one fan-out primitive every parallel layer
uses — sweep points, packet chunks, campaign checks, characterization
analyses.  Its contract:

* **Order-preserving.**  Results are consumed strictly in task order,
  whatever order workers finish in, so accumulation is reproducible.
* **Bit-identical to serial.**  With per-task seed derivation
  (:mod:`repro.perf.seeding`) a task's output does not depend on which
  worker ran it; ``jobs=1`` runs the very same task function in-process.
* **Early-stop aware.**  An optional ``stop`` predicate is evaluated in
  task order; once it fires, no new tasks are dispatched, in-flight
  tasks drain, and their results are discarded — the consumed prefix is
  exactly what a serial run would have consumed.
* **Fault-tolerant.**  A task exception does not propagate raw out of
  ``future.result()``: the attempt is captured as a
  :class:`repro.perf.resilience.TaskError` (exception type, message,
  traceback, task index, worker pid), retried up to ``retries`` times
  with the *same* payload (so a retry that succeeds is bit-identical to
  a clean run), and only then surfaced — as a raised
  :class:`~repro.perf.resilience.TaskFailedError` (``on_error="raise"``)
  or as the task's result (``on_error="capture"``).  A per-task
  ``task_timeout`` turns runaway tasks into ordinary task errors, a
  dying worker (``BrokenProcessPool``) degrades the region to
  in-process serial execution of the remaining tasks, and on *every*
  exit path — clean, stopped, failed, aborted — in-flight futures are
  cancelled or drained and the region's metrics and ``parallel:{stage}``
  span are still emitted.
* **Observable, one attempt contract.**  Every task attempt — in a
  pool worker or in process — runs under an empty scratch
  :class:`repro.obs.Telemetry` bundle with no live monitor; the parent
  merges its spans, metrics and probe taps in task order, and only
  when the attempt succeeded (a failed attempt contributes its
  wall-clock only), so the merged telemetry of a retried-then-clean
  run matches a fault-free run, serial or pooled.  Pool regions wrap
  themselves in a ``parallel:{stage}`` span with one ``{stage}:task``
  child span per attempt that parents the worker's spans; the
  in-process path hangs the task's spans under the active span, where
  they would have opened inline.  Every region reports a
  ``parallel_efficiency`` gauge (``busy_time / (jobs * wall_time)``,
  1.0 in-process) labelled with both the *requested* and the
  *effective* job count, a ``parallel_tasks`` counter, and the
  resilience counters ``parallel_task_retries`` /
  ``parallel_task_failures`` / ``parallel_tasks_discarded`` /
  ``parallel_pool_broken``, so a ``repro profile`` comparison across
  job counts lines up metric for metric.

Nested parallelism is suppressed: in a worker process :func:`jobs_for`
resolves any ``jobs`` request to 1, so the outermost parallel layer wins
and inner layers run serially inside the workers.  Workers receive the parent's
whole :class:`repro.perf.RunOptions` at start-up.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro import obs
from repro.obs import bundle as _bundle
from repro.obs.probes import ProbeConfig
from repro.perf import faults as _faults
from repro.perf import options as _options
from repro.perf import resilience as _resilience
from repro.perf.options import RunOptions, cpu_count
from repro.perf.resilience import TaskError, TaskFailedError

__all__ = [
    "ParallelResult",
    "cpu_count",
    "in_worker",
    "jobs_for",
    "parallel_map",
]

#: Set in pool workers so nested fan-out degrades to serial.
_in_worker = False


def in_worker() -> bool:
    """Whether this process is a pool worker (nested fan-out disabled)."""
    return _in_worker


def jobs_for(jobs: Optional[int] = None) -> int:
    """The worker count a parallel region runs with.

    ``jobs`` (None = the active ``--jobs``) resolved through
    :meth:`RunOptions.overlay`, clamped to 1 in a pool worker — a worker
    never nests a pool, so the outermost fan-out wins.
    """
    resolved = _options.run_options().overlay(jobs=jobs).jobs
    return 1 if _in_worker else resolved


class ParallelResult(List[Any]):
    """The consumed results (a list), plus execution telemetry.

    Attributes:
        jobs: worker count the region actually ran with (1 =
            in-process; a single-task region always runs in-process).
        jobs_requested: worker count the caller's configuration asked
            for, before the single-task rewrite — ``repro profile``
            comparisons report both so the region's label always
            matches the requested configuration.
        wall_s: wall-clock of the whole region.
        busy_s: summed task execution time across workers, including
            failed attempts and drained-but-discarded tasks.
        efficiency: ``busy_s / (jobs * wall_s)`` — 1.0 is perfect
            scaling, ``1/jobs`` means the pool bought nothing.
        stopped: whether the ``stop`` predicate ended the region early.
        retries: task attempts re-run after a captured failure.
        failures: :class:`TaskError` of every task that exhausted its
            retries (at most one when ``on_error="raise"``).
        discarded: in-flight tasks that ran to completion after an
            early stop / failure but whose results were discarded.
        pool_broken: whether a dying worker broke the process pool and
            the region fell back to in-process serial execution.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs: int = 1
        self.jobs_requested: int = 1
        self.wall_s: float = 0.0
        self.busy_s: float = 0.0
        self.efficiency: float = 1.0
        self.stopped: bool = False
        self.retries: int = 0
        self.failures: List[TaskError] = []
        self.discarded: int = 0
        self.pool_broken: bool = False


def _init_worker(
    options: RunOptions, tracing: bool, probe_config: ProbeConfig
) -> None:
    """Pool initializer: install the parent's run context in the worker.

    Marks the process so nested fan-out is serial and installs the
    parent's whole :class:`RunOptions`, so a worker runs nested regions
    with the parent's settings whatever the start method.  The telemetry
    a forked worker inherits is replaced by an empty bundle of the
    parent's shape — its tracer on or off, its probe config — with no
    live monitor, so events emitted inside tasks stay invisible to the
    parent-side flight recorder.  The run writer is kept for tasks that
    read the store; they defer writes to the parent via
    :func:`in_worker`.
    """
    global _in_worker
    _in_worker = True
    _options._install(options)
    _bundle._install(obs.Telemetry(
        tracer=obs.Tracer() if tracing else None,
        probes=obs.ProbeRegistry(probe_config),
        writer=obs.telemetry().writer,
    ))


class _Reply(NamedTuple):
    """What one task attempt hands back to the parent."""

    result: Any  # the task's result, or a TaskError when it raised
    attempt: int
    duration_s: float
    worker_pid: int
    snapshot: Optional[tuple]  # scratch telemetry; None when it failed


def _attempt(payload) -> _Reply:
    """Run one task attempt under a scratch telemetry bundle.

    The one attempt path of every region: a pool worker runs it on the
    parent's payload and the in-process path calls it directly.  The
    task runs under :meth:`repro.obs.Telemetry.spawn` of the active
    bundle, so nothing it records reaches the parent until the parent
    merges the snapshot — in task order, and only for a successful
    attempt, which keeps the merged telemetry of a retried-then-clean
    run identical to a fault-free one.  Faults fire inside the timeout
    guard, so an injected delay is subject to the same budget as real
    task work.
    """
    fn, task, index, attempt, stage, timeout_s, plan = payload
    scratch = obs.telemetry().spawn()
    start = time.perf_counter()
    with obs.telemetry_scope(scratch):
        try:
            with _resilience.task_timeout_guard(timeout_s):
                _faults.apply_task_faults(
                    plan, stage, index, attempt, _in_worker
                )
                result = fn(task)
        except Exception as exc:  # structured capture, never raw
            result = _resilience.task_error_from(exc, index, attempt)
    duration = time.perf_counter() - start
    failed = isinstance(result, TaskError)
    return _Reply(result, attempt, duration, os.getpid(),
                  None if failed else scratch.snapshot())


def _consume_attempt(
    reply: _Reply,
    index: int,
    stage: str,
    parent: "obs.Telemetry",
    out: "ParallelResult",
    pooled: bool,
) -> None:
    """Account one attempt in the parent, in task order (both paths).

    Adds its wall-clock to ``busy_s`` and merges its scratch telemetry
    when it succeeded; a pooled attempt is also recorded as a
    ``{stage}:task`` span that parents the worker's spans, while the
    in-process path hangs the task's spans under the active span, where
    they would have opened inline.
    """
    result = reply.result
    failed = isinstance(result, TaskError)
    out.busy_s += reply.duration_s
    parent_id = None
    if pooled:
        record = parent.tracer.record_span(
            f"{stage}:task", reply.duration_s,
            index=index, worker_pid=reply.worker_pid, jobs=out.jobs,
            **({"error": result.exc_type, "attempt": result.attempt}
               if failed else {}),
        )
        parent_id = record.span_id if record is not None else None
    if reply.snapshot is not None:
        parent.merge(reply.snapshot, parent_id=parent_id)
    obs.live_note_task(
        stage, index, reply.duration_s, reply.worker_pid, ok=not failed,
        attempt=reply.attempt,
    )
    if failed:
        _record_task_failure(result, stage, parent)


def _run_inprocess(
    fn: Callable[[Any], Any],
    task: Any,
    index: int,
    stage: str,
    options: RunOptions,
    reseed: Optional[Callable[[Any, int], Any]],
    parent: "obs.Telemetry",
    out: "ParallelResult",
) -> Any:
    """Run one task in-process with the full retry/timeout/fault stack.

    Returns the task's result, or the final attempt's
    :class:`TaskError` once retries are exhausted.  Used by the serial
    fast path and by the broken-pool fallback.
    """
    for attempt in range(options.retries + 1):
        attempt_task = (
            task if (reseed is None or attempt == 0) else reseed(task, attempt)
        )
        reply = _attempt((fn, attempt_task, index, attempt, stage,
                          options.task_timeout, options.fault_plan))
        _consume_attempt(reply, index, stage, parent, out, pooled=False)
        if not isinstance(reply.result, TaskError):
            break
        if attempt < options.retries:
            out.retries += 1
    return reply.result


def _record_task_failure(
    error: TaskError, stage: str, parent: "obs.Telemetry"
) -> None:
    """Emit the failure's telemetry: a counter tick and a trace event."""
    parent.registry.counter(
        "parallel_task_errors", "task attempts that raised"
    ).inc(stage=stage, exc_type=error.exc_type)
    parent.tracer.event(
        "task_error",
        stage=stage,
        index=error.index,
        attempt=error.attempt,
        exc_type=error.exc_type,
        message=error.message,
        worker_pid=error.worker_pid,
    )


def _emit_region_metrics(
    out: "ParallelResult", stage: str, parent: "obs.Telemetry"
) -> None:
    """Report a region's scaling + resilience telemetry (every path)."""
    registry = parent.registry
    registry.gauge(
        "parallel_efficiency",
        "busy / (jobs * wall) of a parallel region",
    ).set(out.efficiency, stage=stage, jobs=out.jobs,
          requested=out.jobs_requested)
    registry.counter(
        "parallel_tasks", "tasks executed by parallel regions"
    ).inc(len(out), stage=stage)
    registry.counter(
        "parallel_task_retries", "task attempts re-run after a failure"
    ).inc(out.retries, stage=stage)
    registry.counter(
        "parallel_task_failures", "tasks that exhausted their retries"
    ).inc(len(out.failures), stage=stage)
    registry.counter(
        "parallel_tasks_discarded",
        "in-flight tasks drained after an early stop, their work unused",
    ).inc(out.discarded, stage=stage)
    if out.pool_broken:
        registry.counter(
            "parallel_pool_broken",
            "regions that lost their pool and fell back to serial",
        ).inc(stage=stage)


def _drain_futures(
    futures: Dict[int, Any], out: "ParallelResult"
) -> None:
    """Cancel pending futures and drain running ones on region exit.

    ``Future.cancel`` only stops not-yet-started tasks; anything
    already executing runs to completion inside the executor, so its
    wall-clock is accounted into ``busy_s`` and counted as discarded
    work — ``efficiency`` stays honest about what the pool really did.
    """
    for index in sorted(futures):
        future = futures.pop(index)
        if future.cancel():
            continue
        try:
            out.busy_s += future.result().duration_s
        except Exception:  # broken pool / interpreter teardown
            continue
        out.discarded += 1


def _finish_task(
    out: "ParallelResult",
    index: int,
    result: Any,
    on_result: Optional[Callable[[int, Any], None]],
    stop: Optional[Callable[[int, Any], bool]],
    on_error: str,
) -> bool:
    """Consume one final (post-retry) task result, in task order.

    Returns True when the region should stop dispatching.
    """
    if isinstance(result, TaskError):
        out.failures.append(result)
        if on_error == "raise":
            raise TaskFailedError(result)
    out.append(result)
    if on_result is not None:
        on_result(index, result)
    if stop is not None and stop(index, result):
        out.stopped = True
        return True
    return False


def _pool_context():
    """Prefer fork (cheap, inherits the loaded stack) where available."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    stage: str = "parallel",
    stop: Optional[Callable[[int, Any], bool]] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    window: Optional[int] = None,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    reseed: Optional[Callable[[Any, int], Any]] = None,
    on_error: str = "raise",
) -> ParallelResult:
    """Apply ``fn`` to every task, in order, optionally across processes.

    Args:
        fn: a picklable callable (module-level function) of one task.
        tasks: the work items, each picklable.
        jobs: worker processes; None defers to the ambient ``--jobs``
            default, 0 means one per CPU, 1 runs in-process.
        stage: label for spans/metrics (``"sweep"``, ``"ber"``, ...).
        stop: ``stop(index, result)`` evaluated strictly in task order
            after each result is consumed; True ends the region — no
            further task is dispatched and later in-flight results are
            discarded, mirroring a serial early-stop.
        on_result: ``on_result(index, result)`` called in task order for
            each consumed result (progress reporting).
        window: max in-flight tasks beyond the consumed front (default
            ``2 * jobs``); bounds wasted work after an early stop.
        retries: times a failed task is re-run before its error is
            surfaced; None defers to the ambient ``--retries`` default
            (0).  Retries re-run the *same* payload, so a retry that
            succeeds is bit-identical to a clean run; callers that want
            per-attempt entropy pass ``reseed``.
        task_timeout: per-task wall-clock budget in seconds (a timeout
            becomes an ordinary task error, retried like any other);
            None defers to the ambient ``--task-timeout`` default.
        reseed: ``reseed(task, attempt) -> task`` mapping a task to its
            attempt-``k`` payload (attempt 0 always uses the original);
            pair with :func:`repro.perf.seeding.attempt_seed` for
            reproducible per-attempt streams.
        on_error: ``"raise"`` (default) raises
            :class:`~repro.perf.resilience.TaskFailedError` once a task
            exhausts its retries — with in-flight work drained and
            region telemetry still emitted; ``"capture"`` appends the
            :class:`~repro.perf.resilience.TaskError` as the task's
            result and keeps going.

    Returns:
        A :class:`ParallelResult` with the consumed results (a prefix
        of ``tasks``'s results) and scaling + resilience telemetry.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    options = _options.run_options().overlay(
        jobs=jobs, retries=retries, task_timeout=task_timeout
    )
    jobs = jobs_for(options.jobs)
    plan = options.fault_plan
    parent = obs.telemetry()
    out = ParallelResult()
    out.jobs_requested = jobs
    out.jobs = jobs
    tasks = list(tasks)
    start = time.perf_counter()

    if jobs == 1 or len(tasks) <= 1:
        out.jobs = 1
        obs.live_note_region(stage, len(tasks), 1)
        try:
            for i, task in enumerate(tasks):
                _faults.check_abort(plan, stage, i)
                result = _run_inprocess(
                    fn, task, i, stage, options, reseed, parent, out
                )
                if _finish_task(out, i, result, on_result, stop, on_error):
                    break
        finally:
            out.wall_s = time.perf_counter() - start
            out.efficiency = 1.0
            _emit_region_metrics(out, stage, parent)
        return out

    window = max(jobs, window if window is not None else 2 * jobs)
    obs.live_note_region(stage, len(tasks), jobs)
    try:
        with obs.span(f"parallel:{stage}", jobs=jobs, tasks=len(tasks)):
            with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(options, parent.tracer.enabled,
                          parent.probes.config),
            ) as executor:
                futures: Dict[int, Any] = {}
                next_submit = 0

                def submit(index, attempt):
                    attempt_task = (
                        tasks[index]
                        if (reseed is None or attempt == 0)
                        else reseed(tasks[index], attempt)
                    )
                    futures[index] = executor.submit(
                        _attempt,
                        (fn, attempt_task, index, attempt, stage,
                         options.task_timeout, plan),
                    )

                def submit_up_to(limit):
                    nonlocal next_submit
                    while next_submit < min(limit, len(tasks)):
                        submit(next_submit, 0)
                        next_submit += 1

                i = 0
                broken_at: Optional[int] = None
                try:
                    submit_up_to(window)
                    while i < len(tasks):
                        if i not in futures:
                            break
                        _faults.check_abort(plan, stage, i)
                        reply = futures.pop(i).result()
                        _consume_attempt(
                            reply, i, stage, parent, out, pooled=True
                        )
                        result = reply.result
                        if (isinstance(result, TaskError)
                                and result.attempt < options.retries):
                            out.retries += 1
                            submit(i, result.attempt + 1)
                            continue
                        if _finish_task(
                            out, i, result, on_result, stop, on_error
                        ):
                            break
                        i += 1
                        submit_up_to(i + window)
                except BrokenProcessPool:
                    # Raised from .result() of the crashed task's
                    # future *or* from a later submit; either way the
                    # tasks from ``i`` on have not been consumed.
                    broken_at = i
                finally:
                    _drain_futures(futures, out)
                if broken_at is not None:
                    # A worker died (SIGKILL, OOM...): the pool is
                    # unusable, so degrade gracefully — finish the
                    # remaining tasks in-process.  Seed derivation makes
                    # the results identical to an unbroken run; attempt
                    # numbering restarts for tasks the pool lost.
                    out.pool_broken = True
                    for i in range(broken_at, len(tasks)):
                        _faults.check_abort(plan, stage, i)
                        result = _run_inprocess(
                            fn, tasks[i], i, stage, options, reseed,
                            parent, out,
                        )
                        if _finish_task(
                            out, i, result, on_result, stop, on_error
                        ):
                            break
    finally:
        out.wall_s = time.perf_counter() - start
        out.efficiency = (
            out.busy_s / (out.jobs * out.wall_s) if out.wall_s > 0 else 1.0
        )
        _emit_region_metrics(out, stage, parent)
    return out
