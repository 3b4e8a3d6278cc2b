"""Deterministic fault injection for the parallel execution layer.

The error paths of :func:`repro.perf.parallel_map` — task exceptions,
killed workers, timeouts, parent crashes mid-campaign — are themselves
verified code: tests and the ``repro qa --faults`` harness inject
faults here and assert that retries, the broken-pool fallback, and
checkpoint/resume reproduce a fault-free run bit for bit.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
matching a (stage, task index, attempt) coordinate:

* ``fail`` — raise :class:`InjectedFault` *before* the task body runs
  (so a retried attempt reproduces the clean measurement exactly);
* ``kill`` — SIGKILL the pool worker (parent sees
  ``BrokenProcessPool``); outside a worker it degrades to ``fail`` so
  an in-process fallback attempt errors instead of killing the parent;
* ``delay`` — sleep ``delay_s`` before the task body (timeout tests);
* ``abort`` — raise in the *parent* when it is about to consume task
  ``index``'s result, simulating a crash mid-campaign with the
  consumed prefix already checkpointed.

A plan is the ``fault_plan`` field of the run's
:class:`repro.perf.RunOptions` (the CLI's ``--inject-faults``, or
``perf.options_scope(fault_plan=...)`` in tests); every task attempt
receives it in its payload, so faults fire identically in serial,
pooled, and fallback execution.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "parse_fault_spec",
]

#: Actions a fault spec may request.
_ACTIONS = ("fail", "kill", "delay", "abort")


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection layer."""


@dataclass
class FaultSpec:
    """One injected fault, addressed by execution coordinates.

    Attributes:
        action: ``"fail"``, ``"kill"``, ``"delay"`` or ``"abort"``.
        task: task index to hit (None = every task).
        attempt: attempt number to hit (None = every attempt).
        stage: parallel-region stage label to hit (``"sweep"``,
            ``"ber"``, ``"campaign"``...; None = every stage).
        delay_s: sleep duration for ``delay`` actions.
    """

    action: str
    task: Optional[int] = None
    attempt: Optional[int] = None
    stage: Optional[str] = None
    delay_s: float = 0.0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {', '.join(_ACTIONS)})"
            )

    def matches(self, stage: str, index: int, attempt: int) -> bool:
        return (
            (self.stage is None or self.stage == stage)
            and (self.task is None or self.task == index)
            and (self.attempt is None or self.attempt == attempt)
        )


@dataclass
class FaultPlan:
    """A picklable bundle of fault specs consulted by the executor."""

    specs: List[FaultSpec] = field(default_factory=list)

    def task_faults(
        self, stage: str, index: int, attempt: int
    ) -> List[FaultSpec]:
        """Specs (excluding aborts) firing at a task-attempt coordinate."""
        return [
            s for s in self.specs
            if s.action != "abort" and s.matches(stage, index, attempt)
        ]

    def should_abort(self, stage: str, index: int) -> Optional[FaultSpec]:
        """The abort spec firing when the parent consumes ``index``."""
        for s in self.specs:
            if s.action == "abort" and s.matches(stage, index, 0):
                return s
        return None


def apply_task_faults(
    plan: Optional[FaultPlan],
    stage: str,
    index: int,
    attempt: int,
    in_worker: bool,
) -> None:
    """Fire the plan's task-level faults for one attempt.

    Called at the very start of a task attempt — before the task body
    consumes any randomness — so a failed attempt leaves no trace in
    the measurement and the retry is bit-identical to a clean run.
    """
    if plan is None:
        return
    for spec in plan.task_faults(stage, index, attempt):
        if spec.action == "delay":
            time.sleep(spec.delay_s)
        elif spec.action == "kill":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                f"injected worker-kill outside a pool worker "
                f"(stage={stage}, task={index}, attempt={attempt})"
            )
        else:  # fail
            raise InjectedFault(
                f"injected failure (stage={stage}, task={index}, "
                f"attempt={attempt})"
            )


def check_abort(plan: Optional[FaultPlan], stage: str, index: int) -> None:
    """Fire the plan's parent-side abort when consuming ``index``."""
    if plan is None:
        return
    spec = plan.should_abort(stage, index)
    if spec is not None:
        raise InjectedFault(
            f"injected abort (stage={stage}, before consuming task {index})"
        )


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse the CLI's ``--inject-faults`` specification.

    Comma-separated entries of the form
    ``[stage/]action:task[@attempt][=delay_s]``::

        sweep/fail:1@0          fail sweep task 1 on its first attempt
        kill:2@0                SIGKILL the worker running task 2
        ber/delay:0@0=0.25      sleep 250 ms before ber chunk 0
        sweep/abort:3           crash the parent before consuming task 3

    Task may be ``*`` (every task); omitting ``@attempt`` hits every
    attempt; omitting ``stage/`` hits every stage.
    """
    specs: List[FaultSpec] = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        stage = None
        if "/" in entry:
            stage, entry = entry.split("/", 1)
        if ":" not in entry:
            raise ValueError(
                f"bad fault entry {raw!r}: expected "
                "[stage/]action:task[@attempt][=delay_s]"
            )
        action, coords = entry.split(":", 1)
        delay_s = 0.0
        if "=" in coords:
            coords, delay = coords.split("=", 1)
            delay_s = float(delay)
        attempt: Optional[int] = None
        if "@" in coords:
            coords, attempt_text = coords.split("@", 1)
            attempt = int(attempt_text)
        task = None if coords.strip() == "*" else int(coords)
        specs.append(FaultSpec(
            action=action.strip(),
            task=task,
            attempt=attempt,
            stage=stage,
            delay_s=delay_s,
        ))
    return FaultPlan(specs)
