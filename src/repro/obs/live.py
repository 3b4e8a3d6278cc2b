"""Live run telemetry: convergence, worker health, flight recording.

The post-hoc observability layers (tracer, metrics, run store, probes)
only speak after a run finishes; a multi-hour Monte-Carlo campaign is a
black box while it executes.  This module closes that gap with a
streaming :class:`LiveMonitor` fed by two existing buses:

* every :class:`repro.obs.ProgressEvent` (sweeps, campaigns, per-chunk
  BER accumulation) flows through :func:`observe_event`, installed by
  :func:`repro.obs.progress.as_listener`;
* every :func:`repro.perf.parallel_map` region reports task round-trips
  through :func:`note_region` / :func:`note_task` (worker heartbeats).

From those feeds the monitor aggregates, per sweep/campaign:

* **per-point BER convergence** — Wilson confidence interval width via
  :func:`repro.core.metrics.binomial_confidence`, bits/second rate, and
  a ``converged`` / ``running`` / ``starved`` classification;
* **per-worker heartbeats** with stall detection (no completion within
  ``stall_factor`` × the trailing median task time → flagged);
* an **ETA model** from trailing completion rates.

It renders three ways: an in-terminal ASCII dashboard
(:class:`LiveDashboard`, the CLI's ``--live``), an OpenMetrics text
exposition (:func:`openmetrics_text`, optionally served over localhost
HTTP by :class:`MetricsServer` for ``--metrics-port``), and a bounded
"flight recorder" — a JSONL event timeline persisted to the run store
as ``flight.jsonl`` and replayable with :meth:`LiveMonitor.replay`
(``repro watch``, the report's "Run timeline" section).

Determinism contract (the same one the probe layer honours):

* The monitor is **read-only and RNG-free** — attaching it never
  changes a measurement, so live-on and live-off runs are bit-identical.
* Flight records carry only deterministic fields (event sequence,
  stage, step counters, messages, event data, derived CI bounds).
  Wall-clock quantities — task durations, heartbeat ages, ETA,
  bits/second — live only in the in-memory snapshot and in ``live_*``
  gauges, which :class:`repro.obs.RegressionConfig` ignores by default.
* Serial and ``--jobs N`` runs produce **equivalent flight records**:
  every task attempt, in process or in a pool worker, runs under a
  scratch :class:`repro.obs.Telemetry` bundle with no monitor, so
  events emitted *inside* task execution never reach it in either
  mode, while parent-side consumption events are identical in both
  modes because results are consumed in task order.
* A failed attempt's events never double-count: progress events fire
  only when a result is *consumed* (post-retry), and failed
  :func:`note_task` round-trips are excluded from completion counts
  and the ETA's duration window, mirroring the probe-merge discard
  rule.
"""

from __future__ import annotations

import fnmatch
import json
import re
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs.bundle import telemetry

__all__ = [
    "ConvergenceConfig",
    "LiveDashboard",
    "LiveMonitor",
    "MetricsServer",
    "classify_point",
    "kpi_trend",
    "note_region",
    "note_task",
    "observe_event",
    "openmetrics_text",
    "parse_openmetrics",
    "render_dashboard",
    "sparkline",
]


# -- convergence classification -----------------------------------------
@dataclass(frozen=True)
class ConvergenceConfig:
    """When is a Monte-Carlo BER point statistically settled?

    Attributes:
        z: normal quantile of the Wilson interval (1.96 ≈ 95 %).
        min_errors: below this many observed bit errors the estimate is
            ``starved`` — the classic rule of thumb that a BER point
            needs ~10–100 errors before its value means anything (the
            ROADMAP's rare-event item).
        rel_width: converged when the CI width is at most this fraction
            of the estimate itself...
        abs_width: ...or below this absolute width (so BER ≈ 0 points
            with plenty of bits can still converge).
    """

    z: float = 1.96
    min_errors: float = 10.0
    rel_width: float = 0.5
    abs_width: float = 1e-4


def classify_point(
    errors: float, bits: int, config: Optional[ConvergenceConfig] = None
) -> Dict[str, float]:
    """Wilson-CI convergence state of one BER estimate.

    Returns:
        ``{"ci_lo", "ci_hi", "ci_width", "state"}`` where ``state`` is
        ``"pending"`` (no bits yet), ``"starved"`` (too few errors),
        ``"running"`` (CI still wide) or ``"converged"``.
    """
    config = config or ConvergenceConfig()
    if bits <= 0:
        return {"ci_lo": 0.0, "ci_hi": 1.0, "ci_width": 1.0,
                "state": "pending"}
    # Imported lazily: repro.core pulls in modules that import repro.obs,
    # and this module loads during the obs package's own initialisation.
    from repro.core.metrics import binomial_confidence

    lo, hi = binomial_confidence(errors, bits, z=config.z)
    lo, hi = float(lo), float(hi)
    width = hi - lo
    ber = errors / bits
    if errors < config.min_errors:
        state = "starved"
    elif width <= max(config.rel_width * ber, config.abs_width):
        state = "converged"
    else:
        state = "running"
    return {"ci_lo": lo, "ci_hi": hi, "ci_width": width, "state": state}


# -- the monitor --------------------------------------------------------
class LiveMonitor:
    """Streaming aggregation of a run's progress events and heartbeats.

    Args:
        convergence: classification thresholds (defaults above).
        max_flight: flight-recorder bound; the oldest records are
            dropped (and counted) beyond it.
        stall_factor: a worker with no completed task within
            ``stall_factor`` × the trailing median task time is flagged
            as stalled.
        clock: monotonic time source (injectable for tests); only
            feeds the *volatile* side — heartbeats, ETA, elapsed — never
            flight records.
        spool_path: optional append-only JSONL file mirroring flight
            records as they happen, so ``repro watch`` can tail a run
            in flight.  Opened lazily, parent-process only.
    """

    #: Trailing task durations kept per stage (the ETA/stall window).
    _DURATION_WINDOW = 32

    #: Event-data keys that carry wall-clock and therefore vary between
    #: otherwise identical runs.  They stay visible in the dashboard's
    #: ``last_message`` but are stripped from persisted flight records,
    #: which must be deterministic per (seed, jobs).
    _VOLATILE_DATA_KEYS = frozenset({"duration_s", "wall_s", "elapsed_s"})

    def __init__(
        self,
        convergence: Optional[ConvergenceConfig] = None,
        max_flight: int = 4096,
        stall_factor: float = 4.0,
        clock: Optional[Callable[[], float]] = None,
        spool_path=None,
    ):
        if max_flight < 1:
            raise ValueError("max_flight must be >= 1")
        self.convergence = convergence or ConvergenceConfig()
        self.max_flight = int(max_flight)
        self.stall_factor = float(stall_factor)
        self.clock = clock if clock is not None else time.monotonic
        self.on_update: Optional[Callable[["LiveMonitor"], None]] = None
        self._lock = threading.Lock()
        self._flight: deque = deque(maxlen=self.max_flight)
        self._dropped = 0
        self._seq = 0
        self._started_at: Optional[float] = None
        self._last_message = ""
        # stage -> {events, current, total, done, failed, retried, jobs,
        #           n_tasks, durations (deque of ok-attempt seconds)}
        self._stages: Dict[str, Dict[str, Any]] = {}
        self._stage_order: List[str] = []
        # point key -> convergence dict
        self._points: Dict[str, Dict[str, Any]] = {}
        self._point_order: List[str] = []
        # pid -> {tasks, failures, busy_s, last_seen, last_stage}
        self._workers: Dict[int, Dict[str, Any]] = {}
        # stage -> duration of the most recent ok round-trip, consumed
        # by the next progress event of that stage (bits/s rate).
        self._pending_duration: Dict[str, float] = {}
        self._spool_path = Path(spool_path) if spool_path else None
        self._spool_fh = None

    # -- feed: progress events -----------------------------------------
    def on_event(self, event) -> None:
        """Ingest one :class:`repro.obs.ProgressEvent` (duck-typed)."""
        with self._lock:
            self._touch()
            stage = self._stage(event.stage)
            stage["events"] += 1
            stage["current"] = int(event.current)
            if event.total is not None:
                stage["total"] = int(event.total)
            self._last_message = event.message
            data = {
                k: v for k, v in (event.data or {}).items()
                if k not in self._VOLATILE_DATA_KEYS
            }
            record: Dict[str, Any] = {
                "seq": self._seq,
                "stage": event.stage,
                "current": int(event.current),
                "total": None if event.total is None else int(event.total),
                "message": event.message,
                "data": data,
            }
            self._seq += 1
            point = self._update_point(event.stage, data)
            if point is not None:
                record["convergence"] = {
                    "point": point["key"],
                    "ci_lo": point["ci_lo"],
                    "ci_hi": point["ci_hi"],
                    "ci_width": point["ci_width"],
                    "state": point["state"],
                }
            if len(self._flight) == self.max_flight:
                self._dropped += 1
            self._flight.append(record)
            self._spool(record)
        self._notify()

    def _update_point(
        self, stage: str, data: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Fold one event's BER payload into its convergence point."""
        if "bit_errors" not in data or "bits_total" not in data:
            return None
        errors = float(data["bit_errors"])
        bits = int(data["bits_total"])
        if "parameter" in data and "value" in data:
            key = f"{data['parameter']}={float(data['value']):.6g}"
        else:
            key = stage
        point = self._points.get(key)
        if point is None:
            point = {"key": key, "stage": stage, "errors": 0.0, "bits": 0,
                     "events": 0, "bits_per_s": None}
            self._points[key] = point
            self._point_order.append(key)
        prev_bits = point["bits"]
        point["errors"] = errors
        point["bits"] = bits
        point["events"] += 1
        point["ber"] = errors / bits if bits > 0 else 0.0
        # "estimator"/"ess" arrive on importance-sampled events, whose
        # bit_errors/bits_total already carry the *effective* counts —
        # the Wilson classification below therefore is the weighted CI.
        for extra in ("per", "packets", "memoized", "estimator", "ess"):
            if extra in data:
                point[extra] = data[extra]
        duration = self._pending_duration.pop(stage, None)
        if duration is not None and duration > 0 and bits > prev_bits:
            point["bits_per_s"] = (bits - prev_bits) / duration
        point.update(classify_point(errors, bits, self.convergence))
        return point

    # -- feed: worker round-trips --------------------------------------
    def note_region(self, stage: str, n_tasks: int, jobs: int) -> None:
        """A :func:`repro.perf.parallel_map` region is starting."""
        with self._lock:
            self._touch()
            entry = self._stage(stage)
            entry["n_tasks"] = int(n_tasks)
            entry["jobs"] = int(jobs)
        self._notify()

    def note_task(
        self,
        stage: str,
        index: int,
        duration_s: float,
        worker_pid: int,
        ok: bool = True,
        attempt: int = 0,
    ) -> None:
        """One task attempt finished its round-trip (pooled or inline).

        Failed attempts feed the retry counter and the worker's failure
        tally but neither the completion count nor the ETA's trailing
        durations — a retried-then-clean region converges exactly like
        a fault-free one.
        """
        with self._lock:
            now = self._touch()
            entry = self._stage(stage)
            if ok:
                entry["done"] += 1
                entry["durations"].append(float(duration_s))
                self._pending_duration[stage] = float(duration_s)
            else:
                entry["failed"] += 1
                entry["retried"] += int(attempt is not None)
            worker = self._workers.get(worker_pid)
            if worker is None:
                worker = self._workers[worker_pid] = {
                    "pid": int(worker_pid), "tasks": 0, "failures": 0,
                    "busy_s": 0.0, "last_seen": now, "last_stage": stage,
                }
            worker["tasks"] += 1
            if not ok:
                worker["failures"] += 1
            worker["busy_s"] += float(duration_s)
            worker["last_seen"] = now
            worker["last_stage"] = stage
        self._notify()

    # -- internals ------------------------------------------------------
    def _touch(self) -> float:
        now = self.clock()
        if self._started_at is None:
            self._started_at = now
        return now

    def _stage(self, name: str) -> Dict[str, Any]:
        entry = self._stages.get(name)
        if entry is None:
            entry = self._stages[name] = {
                "events": 0, "current": 0, "total": None, "done": 0,
                "failed": 0, "retried": 0, "jobs": None, "n_tasks": None,
                "durations": deque(maxlen=self._DURATION_WINDOW),
            }
            self._stage_order.append(name)
        return entry

    def _spool(self, record: Dict[str, Any]) -> None:
        if self._spool_path is None:
            return
        if self._spool_fh is None:
            self._spool_path.parent.mkdir(parents=True, exist_ok=True)
            self._spool_fh = open(self._spool_path, "w", encoding="utf-8")
        json.dump(record, self._spool_fh, sort_keys=True)
        self._spool_fh.write("\n")
        self._spool_fh.flush()

    def _notify(self) -> None:
        callback = self.on_update
        if callback is not None:
            callback(self)

    @staticmethod
    def _median(values: Sequence[float]) -> Optional[float]:
        if not values:
            return None
        ordered = sorted(values)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    # -- views ----------------------------------------------------------
    def has_data(self) -> bool:
        """Whether anything was observed (events or round-trips)."""
        with self._lock:
            return bool(self._stages)

    def flight_records(self) -> List[Dict[str, Any]]:
        """The retained flight-recorder timeline, oldest first."""
        with self._lock:
            return [dict(r) for r in self._flight]

    def flight_summary(self) -> Dict[str, Any]:
        """Deterministic digest of the flight: the serial-vs-parallel
        equivalence object (no durations, pids, or clocks)."""
        with self._lock:
            stages = {
                name: {
                    "events": e["events"],
                    "current": e["current"],
                    "total": e["total"],
                    "done": e["done"],
                    "failed": e["failed"],
                }
                for name, e in self._stages.items()
            }
            states: Dict[str, int] = {}
            points = {}
            for key in self._point_order:
                point = self._points[key]
                state = point.get("state", "pending")
                states[state] = states.get(state, 0) + 1
                points[key] = state
            return {
                "events": self._seq,
                "recorded": len(self._flight),
                "dropped": self._dropped,
                "stages": stages,
                "points": points,
                "states": states,
            }

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall-clock from trailing completion rates, or None."""
        with self._lock:
            return self._eta_locked()

    def _eta_locked(self) -> Optional[float]:
        for name in reversed(self._stage_order):
            entry = self._stages[name]
            total = entry["total"]
            if total is None or entry["current"] >= total:
                continue
            med = self._median(entry["durations"])
            if med is None:
                continue
            jobs = max(entry["jobs"] or 1, 1)
            remaining = total - entry["current"]
            return remaining * med / jobs
        return None

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-able state for dashboards (volatile fields included)."""
        with self._lock:
            now = self.clock()
            elapsed = (
                now - self._started_at if self._started_at is not None
                else None
            )
            stages = []
            for name in self._stage_order:
                entry = self._stages[name]
                stages.append({
                    "stage": name,
                    "events": entry["events"],
                    "current": entry["current"],
                    "total": entry["total"],
                    "done": entry["done"],
                    "failed": entry["failed"],
                    "retried": entry["retried"],
                    "jobs": entry["jobs"],
                    "median_task_s": self._median(entry["durations"]),
                })
            points = [dict(self._points[key]) for key in self._point_order]
            workers = []
            for pid in sorted(self._workers):
                worker = self._workers[pid]
                age = now - worker["last_seen"]
                stage = self._stages.get(worker["last_stage"])
                med = (
                    self._median(stage["durations"]) if stage else None
                )
                active = bool(
                    stage is not None
                    and stage["total"] is not None
                    and stage["current"] < stage["total"]
                )
                stalled = bool(
                    active
                    and med is not None
                    and age > self.stall_factor * max(med, 1e-3)
                )
                workers.append({
                    "pid": pid,
                    "tasks": worker["tasks"],
                    "failures": worker["failures"],
                    "busy_s": worker["busy_s"],
                    "age_s": age,
                    "stalled": stalled,
                })
            return {
                "elapsed_s": elapsed,
                "eta_s": self._eta_locked(),
                "stages": stages,
                "points": points,
                "workers": workers,
                "flight": {
                    "events": self._seq,
                    "recorded": len(self._flight),
                    "dropped": self._dropped,
                },
                "last_message": self._last_message,
            }

    def emit_metrics(self, registry=None) -> None:
        """Publish ``live_*`` convergence/health gauges into ``registry``.

        These gauges carry volatile quantities (rates, stall flags), so
        :class:`repro.obs.RegressionConfig` ignores ``live_*`` by
        default — they inform, they never gate.
        """
        registry = registry if registry is not None else telemetry().registry
        snap = self.snapshot()
        summary = self.flight_summary()
        registry.gauge(
            "live_flight_events", "progress events seen by the live monitor"
        ).set(summary["events"])
        registry.gauge(
            "live_flight_dropped", "flight records dropped by the bound"
        ).set(summary["dropped"])
        for state, count in sorted(summary["states"].items()):
            registry.gauge(
                "live_points", "BER points by convergence state"
            ).set(count, state=state)
        for point in snap["points"]:
            registry.gauge(
                "live_point_ci_width", "Wilson CI width per BER point"
            ).set(point.get("ci_width", 1.0), point=point["key"])
            if point.get("bits_per_s") is not None:
                registry.gauge(
                    "live_point_bits_per_s", "simulated bits/s per point"
                ).set(point["bits_per_s"], point=point["key"])
        for stage in snap["stages"]:
            registry.gauge(
                "live_stage_done", "tasks completed per stage"
            ).set(stage["done"], stage=stage["stage"])
            registry.gauge(
                "live_stage_failed", "failed task attempts per stage"
            ).set(stage["failed"], stage=stage["stage"])
        registry.gauge(
            "live_workers", "worker processes seen by the live monitor"
        ).set(len(snap["workers"]))
        registry.gauge(
            "live_worker_stalls", "workers currently flagged as stalled"
        ).set(sum(1 for w in snap["workers"] if w["stalled"]))
        if snap["eta_s"] is not None:
            registry.gauge(
                "live_eta_seconds", "estimated remaining wall-clock"
            ).set(snap["eta_s"])
        if snap["elapsed_s"] is not None:
            registry.gauge(
                "live_elapsed_seconds", "wall-clock since the first event"
            ).set(snap["elapsed_s"])

    # -- replay ----------------------------------------------------------
    @classmethod
    def replay(cls, records: Sequence[Dict[str, Any]],
               **kwargs) -> "LiveMonitor":
        """Rebuild a monitor from stored/spooled flight records.

        Durations and heartbeats are not recorded (they are volatile),
        so the replayed monitor reconstructs the deterministic side:
        stages, convergence points, flight summary.
        """
        kwargs.setdefault("clock", lambda: 0.0)
        monitor = cls(**kwargs)

        class _Event:
            __slots__ = ("stage", "current", "total", "message", "data")

        for record in records:
            event = _Event()
            event.stage = record.get("stage", "?")
            event.current = int(record.get("current", 0))
            event.total = record.get("total")
            event.message = record.get("message", "")
            event.data = record.get("data", {})
            monitor.on_event(event)
        return monitor

    # -- spool lifecycle -------------------------------------------------
    def open_spool(self, path) -> None:
        """Mirror subsequent flight records to an append-only JSONL file."""
        with self._lock:
            self.close_spool_locked()
            self._spool_path = Path(path)

    def close_spool(self, remove: bool = False) -> None:
        """Stop spooling; with ``remove`` also delete the spool file."""
        with self._lock:
            path = self._spool_path
            self.close_spool_locked()
            self._spool_path = None
            if remove and path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass

    def close_spool_locked(self) -> None:
        if self._spool_fh is not None:
            try:
                self._spool_fh.close()
            except OSError:
                pass
            self._spool_fh = None


# -- feeds from the ambient telemetry bundle ---------------------------
def observe_event(event) -> None:
    """Forward a progress event to the ambient monitor (no-op without)."""
    monitor = telemetry().monitor
    if monitor is not None:
        monitor.on_event(event)


def note_region(stage: str, n_tasks: int, jobs: int) -> None:
    """Forward a parallel-region start to the ambient monitor."""
    monitor = telemetry().monitor
    if monitor is not None:
        monitor.note_region(stage, n_tasks, jobs)


def note_task(
    stage: str,
    index: int,
    duration_s: float,
    worker_pid: int,
    ok: bool = True,
    attempt: int = 0,
) -> None:
    """Forward a task round-trip to the ambient monitor."""
    monitor = telemetry().monitor
    if monitor is not None:
        monitor.note_task(
            stage, index, duration_s, worker_pid, ok=ok, attempt=attempt
        )


# -- ASCII dashboard ----------------------------------------------------
def _bar(current: int, total: Optional[int], width: int) -> str:
    if not total:
        return "." * width
    filled = max(0, min(width, round(width * current / total)))
    return "#" * filled + "." * (width - filled)


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 120.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.1f}s"


def render_dashboard(snapshot: Dict[str, Any], width: int = 72) -> str:
    """Render a monitor snapshot as a plain-ASCII dashboard block."""
    lines: List[str] = []
    flight = snapshot.get("flight", {})
    head = (
        f"live: {flight.get('events', 0)} events"
        f"  elapsed {_fmt_s(snapshot.get('elapsed_s'))}"
        f"  eta {_fmt_s(snapshot.get('eta_s'))}"
    )
    if flight.get("dropped"):
        head += f"  (flight dropped {flight['dropped']})"
    lines.append(head)
    bar_w = max(10, width - 34)
    for stage in snapshot.get("stages", []):
        total = stage.get("total")
        current = stage.get("current", 0)
        progress = (
            f"{current}/{total}" if total is not None else f"{current}"
        )
        jobs = stage.get("jobs")
        med = stage.get("median_task_s")
        lines.append(
            f"  {stage['stage']:<10.10}"
            f" [{_bar(current, total, bar_w)}] {progress:>7}"
            + (f"  x{jobs}" if jobs and jobs > 1 else "")
            + (f"  ~{_fmt_s(med)}/task" if med is not None else "")
        )
    points = snapshot.get("points", [])
    if points:
        lines.append("  point                      BER        CI95 width"
                     "  bits/s   state")
    for point in points:
        rate = point.get("bits_per_s")
        lines.append(
            f"  {point['key']:<24.24}"
            f" {point.get('ber', 0.0):>9.3g}"
            f" {point.get('ci_width', 1.0):>11.3g}"
            f" {(f'{rate:.3g}' if rate is not None else '-'):>8}"
            f"   {point.get('state', 'pending')}"
            + (" (memo)" if point.get("memoized") else "")
        )
    workers = snapshot.get("workers", [])
    if workers:
        lines.append("  worker        tasks  fail  busy     last    state")
        for worker in workers:
            lines.append(
                f"  pid {worker['pid']:<8} {worker['tasks']:>5}"
                f" {worker['failures']:>5}"
                f"  {_fmt_s(worker['busy_s']):>6}"
                f"  {_fmt_s(worker['age_s']):>6} ago"
                f"  {'STALLED' if worker['stalled'] else 'ok'}"
            )
    message = snapshot.get("last_message")
    if message:
        lines.append(f"  > {message[: width - 4]}")
    return "\n".join(lines)


class LiveDashboard:
    """Throttled terminal renderer for a :class:`LiveMonitor`.

    Attach :meth:`on_update` as the monitor's update callback; on a TTY
    the previous block is overwritten in place, elsewhere refreshed
    blocks print at most every ``interval`` seconds (CI-log friendly).
    """

    def __init__(self, stream=None, interval: float = 1.0,
                 width: int = 72,
                 clock: Optional[Callable[[], float]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = float(interval)
        self.width = int(width)
        self.clock = clock if clock is not None else time.monotonic
        self._last_render = 0.0
        self._last_lines = 0

    def _emit(self, monitor: LiveMonitor) -> None:
        text = render_dashboard(monitor.snapshot(), width=self.width)
        is_tty = getattr(self.stream, "isatty", lambda: False)()
        if is_tty and self._last_lines:
            self.stream.write(f"\x1b[{self._last_lines}F\x1b[J")
        self.stream.write(text + "\n")
        self.stream.flush()
        self._last_lines = text.count("\n") + 1 if is_tty else 0

    def on_update(self, monitor: LiveMonitor) -> None:
        now = self.clock()
        if now - self._last_render < self.interval:
            return
        self._last_render = now
        self._emit(monitor)

    def final(self, monitor: LiveMonitor) -> None:
        """Render the closing state unconditionally."""
        if monitor.has_data():
            self._emit(monitor)


# -- OpenMetrics exposition ---------------------------------------------
_OM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_OM_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
_OM_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)

#: OpenMetrics content type for HTTP exposition.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def _om_name(name: str) -> str:
    """Sanitise a registry metric name into an OpenMetrics name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _OM_NAME_RE.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _om_escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _om_labels(labels: Dict[str, Any],
               extra: Optional[List[Tuple[str, Any]]] = None) -> str:
    pairs = [
        (_om_name(k).lstrip(":"), v) for k, v in sorted(labels.items())
    ]
    if extra:
        pairs += extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_om_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _om_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return f"{number:.10g}"


def openmetrics_text(registry=None, monitor=None) -> str:
    """Render a registry (plus live gauges) as OpenMetrics text.

    Counters gain the mandated ``_total`` suffix, histograms export as
    OpenMetrics summaries (quantile samples plus ``_count``/``_sum``),
    and the exposition terminates with ``# EOF``.  The output round-
    trips through :func:`parse_openmetrics` (the strict parser the
    tests gate with).

    Args:
        registry: source :class:`repro.obs.MetricsRegistry`; defaults
            to the ambient one.
        monitor: optional :class:`LiveMonitor` whose ``live_*`` gauges
            are merged into the exposition without mutating ``registry``.
    """
    registry = registry if registry is not None else telemetry().registry
    if monitor is not None and monitor.has_data():
        combined = _metrics.MetricsRegistry()
        combined.merge(registry.snapshot())
        monitor.emit_metrics(combined)
        registry = combined
    lines: List[str] = []
    for raw_name, entry in sorted(registry.as_dict().items()):
        kind = entry.get("kind", "gauge")
        name = _om_name(raw_name)
        om_kind = "summary" if kind == "histogram" else kind
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_om_escape(help_text)}")
        lines.append(f"# TYPE {name} {om_kind}")
        for series in entry.get("series", []):
            labels = series.get("labels", {})
            if kind == "counter":
                lines.append(
                    f"{name}_total{_om_labels(labels)}"
                    f" {_om_value(series.get('value', 0))}"
                )
            elif kind == "histogram":
                count = series.get("count", 0)
                for quantile, field in (
                    ("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"),
                ):
                    if count:
                        lines.append(
                            f"{name}{_om_labels(labels, [('quantile', quantile)])}"
                            f" {_om_value(series[field])}"
                        )
                lines.append(
                    f"{name}_count{_om_labels(labels)} {int(count)}"
                )
                lines.append(
                    f"{name}_sum{_om_labels(labels)}"
                    f" {_om_value(series.get('sum', 0.0))}"
                )
            else:
                lines.append(
                    f"{name}{_om_labels(labels)}"
                    f" {_om_value(series.get('value', 0))}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_OM_TYPES = frozenset(
    {"counter", "gauge", "summary", "histogram", "info", "stateset",
     "unknown"}
)

#: Sample-name suffixes each family type may emit.
_OM_SUFFIXES = {
    "counter": ("_total", "_created"),
    "summary": ("", "_count", "_sum", "_created"),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
}


def parse_openmetrics(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse an OpenMetrics text exposition.

    Enforces the format rules this repo relies on: a final ``# EOF``
    line, ``# TYPE`` declared before a family's samples, known types,
    legal metric/label names, float-parseable values, and counter
    samples carrying the ``_total`` suffix.

    Returns:
        ``{family: {"type", "help", "samples": [{"name", "labels",
        "value"}]}}``.

    Raises:
        ValueError: on any violation, with the offending line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition does not end with '# EOF'")
    families: Dict[str, Dict[str, Any]] = {}

    def fail(i: int, why: str):
        raise ValueError(f"line {i + 1}: {why}: {lines[i]!r}")

    for i, line in enumerate(lines[:-1]):
        if not line:
            fail(i, "blank line inside exposition")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#":
                fail(i, "malformed comment line")
            keyword, family = parts[1], parts[2]
            if keyword == "TYPE":
                if len(parts) != 4 or parts[3] not in _OM_TYPES:
                    fail(i, "unknown metric type")
                if not _OM_NAME_RE.match(family):
                    fail(i, "illegal family name")
                if family in families and families[family]["samples"]:
                    fail(i, "TYPE after samples")
                families.setdefault(
                    family, {"type": parts[3], "help": "", "samples": []}
                )["type"] = parts[3]
            elif keyword == "HELP":
                if not _OM_NAME_RE.match(family):
                    fail(i, "illegal family name")
                families.setdefault(
                    family, {"type": "unknown", "help": "", "samples": []}
                )["help"] = parts[3] if len(parts) == 4 else ""
            elif keyword == "UNIT":
                continue
            else:
                fail(i, "unknown comment keyword")
            continue
        match = _OM_SAMPLE_RE.match(line)
        if not match:
            fail(i, "malformed sample line")
        sample_name = match.group("name")
        label_text = match.group("labels")
        labels: Dict[str, str] = {}
        if label_text:
            consumed = 0
            for pair in _OM_LABEL_PAIR_RE.finditer(label_text):
                key, value = pair.group(1), pair.group(2)
                if not _OM_LABEL_RE.match(key):
                    fail(i, f"illegal label name {key!r}")
                labels[key] = (
                    value.replace('\\"', '"').replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed += len(pair.group(0)) + 1  # + separator
            if consumed < len(label_text):
                fail(i, "malformed label set")
        try:
            value = float(match.group("value"))
        except ValueError:
            fail(i, "sample value is not a float")
        family = None
        for candidate, entry in families.items():
            suffixes = _OM_SUFFIXES.get(entry["type"], ("",))
            for suffix in suffixes:
                if sample_name == candidate + suffix:
                    family = candidate
                    break
            if family:
                break
        if family is None:
            fail(i, "sample for undeclared family")
        if (
            families[family]["type"] == "counter"
            and not sample_name.endswith(("_total", "_created"))
        ):
            fail(i, "counter sample without _total suffix")
        families[family]["samples"].append(
            {"name": sample_name, "labels": labels, "value": value}
        )
    return families


class MetricsServer:
    """Localhost HTTP endpoint serving the live OpenMetrics exposition.

    Serves ``GET /metrics`` (and a one-line index at ``/``) on
    ``127.0.0.1`` using only the stdlib.  The exposition is rendered at
    request time from the registry and live monitor of the telemetry
    bundle active when the server was built — or from the explicit
    callables passed in — so scrapes see the run as it is, even while
    a task runs under its scratch bundle.

    Args:
        port: TCP port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
        registry_fn / monitor_fn: sources consulted per request;
            default to the registry / monitor of that bundle.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 registry_fn=None, monitor_fn=None):
        self._requested_port = int(port)
        self.host = host
        bundle = telemetry()
        self.registry_fn = registry_fn or (lambda: bundle.registry)
        self.monitor_fn = monitor_fn or (lambda: bundle.monitor)
        self._server = None
        self._thread = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib casing)
                if self.path == "/metrics":
                    body = openmetrics_text(
                        outer.registry_fn(), outer.monitor_fn()
                    ).encode("utf-8")
                    content_type = OPENMETRICS_CONTENT_TYPE
                elif self.path in ("", "/"):
                    body = b"repro live metrics: GET /metrics\n"
                    content_type = "text/plain; charset=utf-8"
                else:
                    self.send_response(404)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence request logging
                pass

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# -- cross-run KPI trends -----------------------------------------------
def kpi_trend(
    store,
    pattern: str = "*",
    kinds: Optional[Sequence[str]] = None,
    since: Optional[float] = None,
    last: Optional[int] = None,
) -> Dict[str, List[Dict[str, Any]]]:
    """Per-KPI trajectories across a store's runs, oldest first.

    The missing consumer for accumulated run history (and the
    BENCH_perf.json lineage): walk the index chronologically, load each
    run, and collect every KPI matching ``pattern``.

    Args:
        store: a :class:`repro.obs.RunStore`.
        pattern: ``fnmatch`` glob over KPI names (e.g. ``"ber*"``).
        kinds: restrict to these run kinds (None = all); entries
            starting with ``!`` exclude a kind instead.
        since: only runs created at/after this unix timestamp.
        last: keep only each series' most recent N samples.

    Returns:
        ``{kpi: [{"run_id", "kind", "created_iso", "created_unix_s",
        "value"}, ...]}`` sorted by KPI name.
    """
    entries = sorted(
        store.list_runs(), key=lambda e: (e.created_unix_s, e.run_id)
    )
    series: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        if kinds and not _kind_selected(entry.kind, kinds):
            continue
        if since is not None and entry.created_unix_s < since:
            continue
        try:
            run = store.load_run(entry.run_id)
        except (KeyError, OSError, ValueError):
            continue
        for name in sorted(run.kpis):
            if not fnmatch.fnmatch(name, pattern):
                continue
            series.setdefault(name, []).append({
                "run_id": entry.run_id,
                "kind": entry.kind,
                "created_iso": entry.created_iso,
                "created_unix_s": entry.created_unix_s,
                "value": run.kpis[name],
            })
    if last is not None and last > 0:
        series = {k: v[-last:] for k, v in series.items()}
    return dict(sorted(series.items()))


def _kind_selected(kind: str, spec: Sequence[str]) -> bool:
    """Apply an include/exclude kind filter (``sweep`` / ``!point``)."""
    includes = [s for s in spec if not s.startswith("!")]
    excludes = [s[1:] for s in spec if s.startswith("!")]
    if kind in excludes:
        return False
    if includes:
        return kind in includes
    return True


#: ASCII intensity ramp for sparklines (portable, no unicode blocks).
_SPARK_RAMP = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render a value series as a one-line ASCII sparkline."""
    if not values:
        return ""
    values = list(values)[-width:]
    lo = min(values)
    hi = max(values)
    if hi <= lo:
        return _SPARK_RAMP[len(_SPARK_RAMP) // 2] * len(values)
    out = []
    for value in values:
        frac = (value - lo) / (hi - lo)
        out.append(_SPARK_RAMP[
            min(int(frac * (len(_SPARK_RAMP) - 1) + 0.5),
                len(_SPARK_RAMP) - 1)
        ])
    return "".join(out)
