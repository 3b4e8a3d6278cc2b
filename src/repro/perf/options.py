"""The run's execution settings: one frozen :class:`RunOptions`.

Every knob of the parallel execution layer — worker count, PHY batch
size, point memoization, the retry budget, the per-task timeout,
resume and the fault-injection plan — lives in one immutable value
held in one ambient slot.  Library calls read the slot through
:func:`run_options`; a call's explicit keyword arguments override it
through :meth:`RunOptions.overlay`; the CLI and tests install a value
for a block with :func:`options_scope`.  Pool workers receive the
parent's whole value at start-up, so a worker runs nested regions
with exactly the parent's settings whatever the process start method.

A bad setting fails when the value is built — in the parent, before
anything is installed — never inside a pool worker.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.perf.faults import FaultPlan

__all__ = [
    "RunOptions",
    "cpu_count",
    "options_scope",
    "run_options",
    "set_default_batch_size",
    "set_default_jobs",
]


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RunOptions:
    """The execution settings of a run (the CLI's global flags).

    Attributes:
        jobs: worker processes per parallel region (1 = in-process;
            0 at construction means one per CPU).
        batch_size: packets per stacked PHY-chain evaluation.  A pure
            throughput knob: results are bit-identical at every size.
        memoize: reuse stored sweep-point results with the same
            measurement setup.
        retries: times a failed task is re-run before its error is
            surfaced.
        task_timeout: per-task wall-clock budget in seconds (None = no
            budget).
        resume: pick interrupted sweeps/campaigns up from the store.
        fault_plan: deterministic fault injection (None = no faults).
    """

    jobs: int = 1
    batch_size: int = 1
    memoize: bool = False
    retries: int = 0
    task_timeout: Optional[float] = None
    resume: bool = False
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        jobs = int(self.jobs)
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        batch_size = int(self.batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        retries = int(self.retries)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        timeout = self.task_timeout
        if timeout is not None:
            timeout = float(timeout)
            if not timeout > 0:  # NaN included
                raise ValueError(f"task timeout must be > 0, got {timeout}")
        if not (self.fault_plan is None
                or isinstance(self.fault_plan, FaultPlan)):
            raise TypeError(
                f"fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )
        for name, value in (
            ("jobs", jobs if jobs > 0 else cpu_count()),
            ("batch_size", batch_size),
            ("memoize", bool(self.memoize)),
            ("retries", retries),
            ("task_timeout", timeout),
            ("resume", bool(self.resume)),
        ):
            object.__setattr__(self, name, value)

    def overlay(self, **call) -> "RunOptions":
        """These options with a call's explicit keyword arguments applied.

        The one way a library call fills its ``None`` keyword arguments
        from the ambient settings: ``None`` keeps this value's field,
        anything else replaces it (and is validated).
        """
        changes = {k: v for k, v in call.items() if v is not None}
        return replace(self, **changes) if changes else self


#: The ambient slot (see :func:`options_scope`).
_options = RunOptions()


def run_options() -> RunOptions:
    """The active :class:`RunOptions` (the defaults unless installed)."""
    return _options


def _install(options: RunOptions) -> RunOptions:
    """Put ``options`` in the slot; returns what was there."""
    global _options
    previous, _options = _options, options
    return previous


@contextmanager
def options_scope(
    options: Optional[RunOptions] = None, **changes
) -> Iterator[RunOptions]:
    """Install run options for the ``with`` block.

    Args:
        options: the value to install; None starts from the active one.
        **changes: fields replaced on top (validated before anything is
            installed), e.g. ``options_scope(retries=2)``.

    Yields:
        The installed :class:`RunOptions`.
    """
    base = options if options is not None else _options
    installed = replace(base, **changes) if changes else base
    previous = _install(installed)
    try:
        yield installed
    finally:
        _install(previous)


def set_default_jobs(jobs: Optional[int]) -> int:
    """Set the active job count (0 or None = one per CPU); returns the old."""
    return _install(replace(_options, jobs=0 if jobs is None else jobs)).jobs


def set_default_batch_size(batch_size: Optional[int]) -> int:
    """Set the active PHY batch size (None = 1); returns the old one."""
    size = 1 if batch_size is None else batch_size
    return _install(replace(_options, batch_size=size)).batch_size
