"""Structured tracing: nested spans, events, and a JSONL sink.

The tracer plays the role SPW's probes played for signals, but for
*time*: every instrumented region of the verification flow becomes a
span with wall-clock and monotonic timestamps, spans nest to mirror the
call structure (campaign -> check -> sweep point -> block), and the
whole run can be dumped as one JSON-Lines file and replayed offline.

Design constraints:

* **Zero cost when disabled.**  The default tracer of the ambient
  :class:`repro.obs.Telemetry` bundle is a :class:`NullTracer` whose :meth:`~NullTracer.span` hands back a shared
  no-op context manager — no allocation, no clock reads — so the hot
  loops of the dataflow engine and the testbench pay nothing when nobody
  is tracing.
* **Thread safe.**  The recorder guards its buffer with a lock and keeps
  the active-span stack in thread-local storage, so sweeps parallelised
  later can trace without coordination.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "SpanRecord",
    "EventRecord",
    "Tracer",
    "NullTracer",
    "read_jsonl",
]


@dataclass
class SpanRecord:
    """One finished span.

    Attributes:
        name: span identifier, conventionally ``"category:detail"``
            (e.g. ``"block:receiver"``, ``"check:phy_loopback"``).
        span_id: id unique within the tracer.
        parent_id: enclosing span's id, or None at top level.
        start_unix_s: wall-clock start (epoch seconds).
        start_monotonic_s: monotonic start (:func:`time.perf_counter`).
        duration_s: monotonic duration.
        attributes: free-form JSON-serialisable key/values.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_unix_s: float
    start_monotonic_s: float
    duration_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_s": self.start_unix_s,
            "start_monotonic_s": self.start_monotonic_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }


@dataclass
class EventRecord:
    """A point-in-time event, attached to the span active when emitted."""

    name: str
    span_id: Optional[int]
    unix_s: float
    monotonic_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "span_id": self.span_id,
            "unix_s": self.unix_s,
            "monotonic_s": self.monotonic_s,
            "attributes": self.attributes,
        }


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id",
                 "_start_unix", "_start_mono", "attributes")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id = tracer._next_id()
        self.parent_id: Optional[int] = None
        self._start_unix = 0.0
        self._start_mono = 0.0

    def set(self, **attributes) -> "_ActiveSpan":
        """Attach attributes to the span while it is open."""
        self.attributes.update(attributes)
        return self

    @property
    def elapsed(self) -> float:
        """Monotonic seconds since the span was entered."""
        return time.perf_counter() - self._start_mono

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start_unix = time.time()
        self._start_mono = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start_mono
        stack = self._tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._record(SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_unix_s=self._start_unix,
            start_monotonic_s=self._start_mono,
            duration_s=duration,
            attributes=self.attributes,
        ))


class Tracer:
    """Thread-safe in-memory span/event recorder with a JSONL sink.

    Args:
        sink: optional open text file; finished records are additionally
            streamed to it one JSON object per line as they complete.
    """

    enabled = True

    def __init__(self, sink=None):
        self._lock = threading.Lock()
        self._records: List[Any] = []
        self._local = threading.local()
        self._id = 0
        self._sink = sink

    # -- internal ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _record(self, *records) -> None:
        with self._lock:
            self._records.extend(records)
            if self._sink is not None:
                for record in records:
                    json.dump(record.as_dict(), self._sink)
                    self._sink.write("\n")

    # -- public API ----------------------------------------------------
    def current_span_id(self) -> Optional[int]:
        """Id of this thread's innermost open span (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attributes) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        return _ActiveSpan(self, name, attributes)

    def event(self, name: str, **attributes) -> None:
        """Record an instantaneous event under the active span."""
        stack = self._stack()
        self._record(EventRecord(
            name=name,
            span_id=stack[-1] if stack else None,
            unix_s=time.time(),
            monotonic_s=time.perf_counter(),
            attributes=attributes,
        ))

    def record_span(self, name: str, duration_s: float, **attributes):
        """Record an already-measured region as a finished span.

        For callers (e.g. the dataflow engine) that time work themselves
        and only hand the result over; the span is parented under the
        currently active span of this thread.

        Returns:
            The recorded :class:`SpanRecord`.
        """
        stack = self._stack()
        now_mono = time.perf_counter()
        record = SpanRecord(
            name=name,
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else None,
            start_unix_s=time.time() - duration_s,
            start_monotonic_s=now_mono - duration_s,
            duration_s=duration_s,
            attributes=attributes,
        )
        self._record(record)
        return record

    def absorb(
        self,
        records: List[Any],
        parent_id: Optional[int] = None,
    ) -> None:
        """Graft records from another tracer into this one.

        Used by the parallel executor to fold a task attempt's scratch
        trace back into the parent's: span ids are remapped into this
        tracer's id space (preserving the task's internal nesting) and
        its top-level spans are re-parented under ``parent_id`` (or the
        caller's active span).

        Args:
            records: the foreign :class:`SpanRecord` /
                :class:`EventRecord` objects (picklable, so a worker's
                records cross the process boundary as they are).
            parent_id: span id to hang the foreign roots under; None
                uses this thread's active span.
        """
        if parent_id is None:
            parent_id = self.current_span_id()
        spans = [r.span_id for r in records if isinstance(r, SpanRecord)]
        with self._lock:  # one block of fresh ids, in record order
            first = self._id + 1
            self._id += len(spans)
        id_map: Dict[int, int] = dict(zip(spans, itertools.count(first)))
        grafted = []
        for r in records:
            if isinstance(r, SpanRecord):
                grafted.append(SpanRecord(
                    r.name, id_map[r.span_id],
                    id_map.get(r.parent_id, parent_id),
                    r.start_unix_s, r.start_monotonic_s, r.duration_s,
                    dict(r.attributes),
                ))
            else:
                grafted.append(EventRecord(
                    r.name, id_map.get(r.span_id, parent_id),
                    r.unix_s, r.monotonic_s, dict(r.attributes),
                ))
        self._record(*grafted)

    @property
    def records(self) -> List[Any]:
        """Snapshot of the finished records, in completion order."""
        with self._lock:
            return list(self._records)

    def spans(self, prefix: str = "") -> List[SpanRecord]:
        """Finished spans, optionally filtered by name prefix."""
        return [r for r in self.records
                if isinstance(r, SpanRecord) and r.name.startswith(prefix)]

    def write_jsonl(self, path, header: Optional[Dict[str, Any]] = None):
        """Dump all records to ``path`` as JSON lines.

        Args:
            path: destination file path.
            header: optional dict written as the first line (the run
                manifest, conventionally, with ``"type": "manifest"``).
        """
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                json.dump(header, fh)
                fh.write("\n")
            for record in self.records:
                json.dump(record.as_dict(), fh)
                fh.write("\n")


class _NullSpan:
    """Shared no-op span context manager (the disabled fast path)."""

    __slots__ = ()
    elapsed = 0.0

    def set(self, **attributes):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing, as cheaply as possible."""

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes) -> None:
        return None

    def record_span(self, name: str, duration_s: float, **attributes):
        return None

    def current_span_id(self) -> None:
        return None

    def absorb(self, records, parent_id=None) -> None:
        return None

    @property
    def records(self) -> List[Any]:
        return []

    def spans(self, prefix: str = "") -> List[SpanRecord]:
        return []

    def write_jsonl(self, path, header=None):
        raise RuntimeError("NullTracer has nothing to write")


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Parse a trace file back into a list of record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
