"""``repro.obs`` — observability for the verification flow.

One package instruments the whole stack: structured tracing (nested
spans and events with a JSONL sink), a metrics registry (counters,
gauges, histograms with labels), signal probes, live telemetry, run
manifests (seed, config, versions, source revision), a run store,
unified progress events, and trace-profile analysis.

A run's sinks — tracer, metrics registry, probe registry, live monitor
and run writer — travel together in one frozen :class:`Telemetry`
bundle held in one ambient slot: :func:`telemetry` reads it and
:func:`telemetry_scope` installs one for a ``with`` block.  Every task
attempt of :func:`repro.perf.parallel_map` runs under an empty scratch
bundle (:meth:`Telemetry.spawn`) that the parent merges in task order
when the attempt succeeds, so a result's telemetry does not depend on
how the work was scheduled.

The instrumentation is **zero-cost when disabled**: the default tracer
is a no-op, so library code can be sprinkled with ``obs.span(...)``
without slowing down untraced runs.

Typical producer code::

    from repro import obs

    with obs.span("block:receiver", samples=baseband.size):
        result = receiver.receive(baseband)
    obs.telemetry().registry.counter("packets_simulated").inc()

Typical consumer code::

    with obs.telemetry_scope(tracer=obs.Tracer()) as bundle:
        run_experiment()
    bundle.tracer.write_jsonl(
        "run.jsonl", header=obs.build_manifest().as_dict()
    )
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.manifest import (
    SEEDING_SCHEME,
    RunManifest,
    build_manifest,
    source_revision,
)
from repro.obs.store import (
    RunEntry,
    RunRecord,
    RunStore,
    RunWriter,
    config_key,
    contribute,
)
from repro.obs.regress import (
    Delta,
    RegressionConfig,
    RegressionVerdict,
    compare_runs,
    flatten_metrics,
)
from repro.obs.report import (
    chrome_trace,
    render_html,
    render_markdown,
    render_run_markdown,
    render_timeline,
    run_sections,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import (
    PROBE_PRESETS,
    ProbeConfig,
    ProbeRegistry,
    probe_preset,
)
from repro.obs.profile import SpanSummary, aggregate_spans, profile_rows
from repro.obs.live import (
    ConvergenceConfig,
    LiveDashboard,
    LiveMonitor,
    MetricsServer,
    classify_point,
    kpi_trend,
    openmetrics_text,
    parse_openmetrics,
    render_dashboard,
    sparkline,
)
from repro.obs.live import note_region as live_note_region
from repro.obs.live import note_task as live_note_task
from repro.obs.progress import ProgressEvent, ProgressListener, as_listener, printer
from repro.obs.bundle import (
    Telemetry,
    get_tracer,
    set_probes,
    set_tracer,
    span,
    telemetry,
    telemetry_scope,
)
from repro.obs.tracer import (
    EventRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    read_jsonl,
)

__all__ = [
    "ConvergenceConfig",
    "Counter",
    "Delta",
    "EventRecord",
    "Gauge",
    "Histogram",
    "LiveDashboard",
    "LiveMonitor",
    "MetricsRegistry",
    "MetricsServer",
    "NullTracer",
    "PROBE_PRESETS",
    "ProbeConfig",
    "ProbeRegistry",
    "ProgressEvent",
    "ProgressListener",
    "RegressionConfig",
    "RegressionVerdict",
    "RunEntry",
    "RunManifest",
    "RunRecord",
    "RunStore",
    "RunWriter",
    "SEEDING_SCHEME",
    "SpanRecord",
    "SpanSummary",
    "Telemetry",
    "Timed",
    "Tracer",
    "aggregate_spans",
    "as_listener",
    "build_manifest",
    "chrome_trace",
    "classify_point",
    "compare_runs",
    "config_key",
    "contribute",
    "flatten_metrics",
    "get_tracer",
    "kpi_trend",
    "live_note_region",
    "live_note_task",
    "openmetrics_text",
    "parse_openmetrics",
    "printer",
    "render_dashboard",
    "probe_preset",
    "profile_rows",
    "read_jsonl",
    "render_html",
    "render_markdown",
    "render_run_markdown",
    "render_timeline",
    "run_sections",
    "set_probes",
    "set_tracer",
    "source_revision",
    "span",
    "sparkline",
    "telemetry",
    "telemetry_scope",
    "timed",
    "write_chrome_trace",
]


class Timed:
    """A context manager that always measures, and traces when enabled.

    Unlike :func:`span` — which is free when tracing is off and
    therefore measures nothing — ``Timed`` always reads the monotonic
    clock, so callers that *need* the duration (the campaign's
    ``CheckResult.duration_s``, the co-simulation's wall times) get it
    identically whether or not a tracer is active.

    Attributes:
        elapsed: monotonic seconds; live while open, frozen after exit.
    """

    def __init__(self, name: str, **attributes):
        self._name = name
        self._attributes = attributes
        self._span = None
        self._start = 0.0
        self._elapsed: Optional[float] = None

    @property
    def elapsed(self) -> float:
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._start

    def set(self, **attributes) -> "Timed":
        """Attach attributes to the underlying span (if tracing)."""
        self._span.set(**attributes)
        return self

    def __enter__(self) -> "Timed":
        self._span = span(self._name, **self._attributes)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._elapsed = time.perf_counter() - self._start
        self._span.__exit__(exc_type, exc, tb)


def timed(name: str, **attributes) -> Timed:
    """Open a :class:`Timed` region (the campaign's timing primitive)."""
    return Timed(name, **attributes)
