"""The run's telemetry sinks: one :class:`Telemetry` bundle.

Every sink the verification flow reports into — the tracer, the
metrics registry, the probe registry, the live monitor and the run
writer — travels together in one frozen bundle held in one ambient
slot.  Instrumented code reads it through :func:`telemetry` (or the
:func:`span` / :func:`get_tracer` shorthands); the CLI and tests
install a bundle for a block with :func:`telemetry_scope`.

The bundle is also the unit of the task-attempt contract of
:func:`repro.perf.parallel_map`: every attempt, in a pool worker or in
process, runs under :meth:`Telemetry.spawn` — an empty scratch bundle of
the same shape with no live monitor — and the parent folds the
attempt's :meth:`Telemetry.snapshot` in with :meth:`Telemetry.merge`,
in task order and only when the attempt succeeded.  The run writer is
a parent-side sink: a scratch bundle shares it by reference, and it is
never snapshotted.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeRegistry
from repro.obs.tracer import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import LiveMonitor
    from repro.obs.store import RunWriter

__all__ = [
    "Telemetry",
    "get_tracer",
    "set_probes",
    "set_tracer",
    "span",
    "telemetry",
    "telemetry_scope",
]

#: ``(metrics snapshot, span records or None, probe snapshot or None)``.
TelemetrySnapshot = Tuple[dict, Optional[list], Optional[dict]]


@dataclass(frozen=True)
class Telemetry:
    """The sinks one run (or one task attempt) reports into.

    ``None`` for the tracer, registry or probes means the quiet
    default: a :class:`NullTracer`, a fresh registry, disabled probes.

    Attributes:
        tracer: span/event recorder.
        registry: counters, gauges and histograms.
        probes: signal taps (disabled unless a preset is installed).
        monitor: live monitor fed by progress events and task
            round-trips (None = no live capture).
        writer: run-store writer producers attach results to.
    """

    tracer: Any = field(default_factory=NullTracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    probes: ProbeRegistry = field(default_factory=ProbeRegistry)
    monitor: Optional["LiveMonitor"] = None
    writer: Optional["RunWriter"] = None

    def __post_init__(self):
        for name, default in (("tracer", NullTracer),
                              ("registry", MetricsRegistry),
                              ("probes", ProbeRegistry)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default())

    def spawn(self) -> "Telemetry":
        """An empty scratch bundle of this shape for one task attempt.

        A tracer only when this one records, probes with the same
        config, a fresh registry, no live monitor — so events a task
        emits internally never reach a flight recorder — and the same
        run writer.
        """
        return Telemetry(
            tracer=Tracer() if self.tracer.enabled else None,
            probes=self.probes.spawn(),
            writer=self.writer,
        )

    def snapshot(self) -> TelemetrySnapshot:
        """A picklable copy of what the bundle recorded (not the writer)."""
        return (
            self.registry.snapshot(),
            self.tracer.records if self.tracer.enabled else None,
            self.probes.snapshot() if self.probes.enabled else None,
        )

    def merge(
        self, snapshot: TelemetrySnapshot, parent_id: Optional[int] = None
    ) -> None:
        """Fold a :meth:`snapshot` in (spans under ``parent_id``).

        ``parent_id`` None hangs the absorbed spans under this thread's
        active span as of the call, where the task's own spans would
        have opened.
        """
        if parent_id is None:
            parent_id = self.tracer.current_span_id()
        metrics, spans, probes = snapshot
        self.registry.merge(metrics)
        if probes is not None:
            self.probes.merge(probes)
        if spans:
            self.tracer.absorb(spans, parent_id=parent_id)


#: The ambient slot (see :func:`telemetry_scope`).
_telemetry = Telemetry()


def telemetry() -> Telemetry:
    """The active :class:`Telemetry` bundle."""
    return _telemetry


def _install(bundle: Telemetry) -> Telemetry:
    """Put ``bundle`` in the slot; returns what was there."""
    global _telemetry
    previous, _telemetry = _telemetry, bundle
    return previous


@contextmanager
def telemetry_scope(
    bundle: Optional[Telemetry] = None, **changes
) -> Iterator[Telemetry]:
    """Install a telemetry bundle for the ``with`` block.

    Args:
        bundle: the bundle to install; None starts from the active one.
        **changes: sinks replaced on top, e.g.
            ``telemetry_scope(probes=ProbeRegistry(probe_preset("basic")))``.

    Yields:
        The installed :class:`Telemetry`.
    """
    base = bundle if bundle is not None else _telemetry
    installed = replace(base, **changes) if changes else base
    previous = _install(installed)
    try:
        yield installed
    finally:
        _install(previous)


def get_tracer():
    """The active tracer (a :class:`NullTracer` unless one is installed)."""
    return _telemetry.tracer


def set_tracer(tracer):
    """Install ``tracer`` (None = no tracing); returns the previous one."""
    return _install(replace(_telemetry, tracer=tracer)).tracer


def set_probes(registry: Optional[ProbeRegistry]) -> ProbeRegistry:
    """Install a probe registry (None = disabled); returns the previous."""
    return _install(replace(_telemetry, probes=registry)).probes


def span(name: str, **attributes):
    """Open a span on the active tracer (free when tracing is off)."""
    return _telemetry.tracer.span(name, **attributes)
