"""Run metrics: counters, gauges, and histograms with label support.

The registry gives the verification flow a machine-readable place for
the numbers that today live in ad-hoc floats — ``packets_simulated``,
``ber``, ``block_work_seconds``, the co-simulation's interface-overhead
split — with a text rendering for the terminal and a JSON export that is
written next to the trace file.

Labels follow the Prometheus convention: the same metric name can carry
several label sets (``wall_seconds{mode="cosim"}`` vs
``wall_seconds{mode="system"}``), and the text export renders them in
the familiar ``name{k="v"} value`` form.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing: name, help text, per-label-set storage."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[_LabelKey, Any] = {}

    def _labelled(self, labels: Dict[str, Any], default):
        key = _label_key(labels)
        if key not in self._series:
            self._series[key] = default()
        return key

    def series(self) -> Dict[_LabelKey, Any]:
        """Snapshot of label-set -> value."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        with self._lock:
            key = self._labelled(labels, float)
            self._series[key] += value

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


class Gauge(_Metric):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            key = self._labelled(labels, float)
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


class Histogram(_Metric):
    """An exact-sample histogram with percentile extraction.

    Samples are retained verbatim (runs here observe thousands of
    values, not millions), so percentiles are exact rather than
    bucket-interpolated.
    """

    kind = "histogram"

    def observe(self, value: float, **labels) -> None:
        with self._lock:
            key = self._labelled(labels, list)
            self._series[key].append(float(value))

    def values(self, **labels) -> List[float]:
        with self._lock:
            return list(self._series.get(_label_key(labels), []))

    def percentile(self, p: float, **labels) -> float:
        """Exact percentile (linear interpolation between samples)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        data = sorted(self.values(**labels))
        if not data:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if len(data) == 1:
            return data[0]
        pos = (p / 100.0) * (len(data) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    @staticmethod
    def _summary(samples: Sequence[float]) -> Dict[str, float]:
        data = sorted(samples)
        n = len(data)

        def pct(p):
            pos = (p / 100.0) * (n - 1)
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            frac = pos - lo
            return data[lo] * (1.0 - frac) + data[hi] * frac

        return {
            "count": n,
            "sum": float(sum(data)),
            "min": data[0],
            "max": data[-1],
            "p50": pct(50.0),
            "p90": pct(90.0),
            "p99": pct(99.0),
        }


class MetricsRegistry:
    """Creates and owns named metrics; exports text and JSON."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def metrics(self) -> Dict[str, _Metric]:
        with self._lock:
            return dict(self._metrics)

    # -- cross-process transfer ----------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Loss-free picklable dump (histograms keep raw samples).

        Unlike :meth:`as_dict` — which summarises histograms for export
        — this form round-trips through :meth:`merge`, so a worker
        process can ship its registry back to the parent.
        """
        out: Dict[str, Any] = {}
        for name, metric in self.metrics().items():
            out[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": [
                    (dict(key), list(value) if isinstance(value, list)
                     else value)
                    for key, value in sorted(metric.series().items())
                ],
            }
        return out

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, histograms extend with the snapshot's samples,
        gauges take the snapshot's value (last write wins).  Merging
        worker snapshots in task order keeps the combined registry
        deterministic.
        """
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            help_text = entry.get("help", "")
            for labels, value in entry.get("series", []):
                if kind == "counter":
                    self.counter(name, help_text).inc(value, **labels)
                elif kind == "gauge":
                    self.gauge(name, help_text).set(value, **labels)
                elif kind == "histogram":
                    histogram = self.histogram(name, help_text)
                    for sample in value:
                        histogram.observe(sample, **labels)

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of every metric and label set."""
        out: Dict[str, Any] = {}
        for name, metric in sorted(self.metrics().items()):
            entry: Dict[str, Any] = {"kind": metric.kind}
            if metric.help:
                entry["help"] = metric.help
            series = []
            for key, value in sorted(metric.series().items()):
                labels = dict(key)
                if metric.kind == "histogram":
                    series.append(
                        {"labels": labels, **Histogram._summary(value)}
                        if value else {"labels": labels, "count": 0}
                    )
                else:
                    series.append({"labels": labels, "value": value})
            entry["series"] = series
            out[name] = entry
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        """Prometheus-style plain-text exposition."""
        lines: List[str] = []
        for name, metric in sorted(self.metrics().items()):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, value in sorted(metric.series().items()):
                label = _label_str(key)
                if metric.kind == "histogram":
                    if value:
                        s = Histogram._summary(value)
                        lines.append(f"{name}_count{label} {s['count']}")
                        lines.append(f"{name}_sum{label} {s['sum']:.9g}")
                        lines.append(f"{name}_p50{label} {s['p50']:.9g}")
                        lines.append(f"{name}_p99{label} {s['p99']:.9g}")
                    else:
                        lines.append(f"{name}_count{label} 0")
                else:
                    lines.append(f"{name}{label} {value:.9g}")
        return "\n".join(lines)
