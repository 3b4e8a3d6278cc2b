"""Unified progress reporting for sweeps, campaigns, and long runs.

Before this module existed every long-running loop invented its own
callback shape (``ParameterSweep.run(progress=print)`` took a string
callback, the campaign had none at all).  The obs layer replaces them
with one structured event:

* producers emit :class:`ProgressEvent` objects through a listener;
* :func:`as_listener` adapts whatever the caller passed — ``None``, a
  plain ``Callable[[str], None]`` like :func:`print` (the legacy shape,
  kept so existing CLI output is unchanged), or a structured listener —
  into a uniform ``Callable[[ProgressEvent], None]``;
* every event is mirrored onto the active tracer as a ``progress``
  event, so traces capture the run's heartbeat even when nothing prints;
* every event also feeds the ambient :class:`repro.obs.live.LiveMonitor`
  (when one is installed by ``repro --live``), which turns the stream
  into convergence state, heartbeats, and the flight recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.obs import live as _live
from repro.obs.bundle import telemetry

__all__ = ["ProgressEvent", "ProgressListener", "as_listener", "printer"]


@dataclass
class ProgressEvent:
    """One step of a long-running operation.

    Attributes:
        stage: producer name, e.g. ``"sweep"`` or ``"campaign"``.
        current: 1-based step just completed.
        total: total steps when known.
        message: human-readable one-liner (what legacy callbacks got).
        data: structured payload (parameter values, BER, verdicts...).
    """

    stage: str
    current: int
    total: Optional[int]
    message: str
    data: Dict[str, Any] = field(default_factory=dict)


class ProgressListener:
    """Base class for structured listeners (subclass or duck-type).

    Anything with an ``on_event(ProgressEvent)`` method is treated as
    structured; any other callable is assumed to be a legacy string
    callback.
    """

    def on_event(self, event: ProgressEvent) -> None:
        raise NotImplementedError


def printer(print_fn: Callable[[str], None] = print) -> ProgressListener:
    """A structured listener that prints each event's message.

    When the event carries a usable ``total`` the message is prefixed
    with a ``[current/total pct%]`` progress stamp.  A zero or missing
    ``total`` (open-ended stages, empty sweeps) must not reach the
    percent division — those events print their message bare instead of
    being dropped by a ``ZeroDivisionError`` inside the listener.
    """
    listener = ProgressListener()

    def _print(event: ProgressEvent) -> None:
        if event.total:  # falsy guards both None and 0
            pct = 100.0 * event.current / event.total
            print_fn(
                f"[{event.current}/{event.total} {pct:3.0f}%] {event.message}"
            )
        else:
            print_fn(event.message)

    listener.on_event = _print  # type: ignore[method-assign]
    return listener


def as_listener(progress) -> Callable[[ProgressEvent], None]:
    """Normalise any accepted progress argument into an event callable.

    Args:
        progress: ``None`` (trace-only), an object with ``on_event``,
            a ``Callable[[ProgressEvent], None]`` marked structured by
            being a :class:`ProgressListener`, or a legacy
            ``Callable[[str], None]`` such as :func:`print`.

    Returns:
        A callable that forwards the event to the caller's sink (if
        any) and mirrors it onto the active tracer.
    """
    if progress is None:
        sink = None
    elif hasattr(progress, "on_event"):
        sink = progress.on_event
    elif callable(progress):
        def sink(event, _cb=progress):
            _cb(event.message)
    else:
        raise TypeError(
            f"progress must be None, a callable, or a ProgressListener; "
            f"got {type(progress).__name__}"
        )

    def emit(event: ProgressEvent) -> None:
        active = telemetry().tracer
        if active.enabled:
            active.event(
                "progress",
                stage=event.stage,
                current=event.current,
                total=event.total,
                message=event.message,
                **event.data,
            )
        _live.observe_event(event)
        if sink is not None:
            sink(event)

    return emit
