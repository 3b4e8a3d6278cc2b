"""Tests for the dataflow engine (repro.flow.dataflow)."""

import numpy as np
import pytest

from repro.flow.dataflow import (
    Block,
    DataflowEngine,
    FunctionBlock,
    Schematic,
    SchematicError,
)


class ConstSource(Block):
    inputs = ()
    outputs = ("out",)

    def __init__(self, values):
        self.values = np.asarray(values)

    def work(self, inputs, ctx):
        return {"out": self.values}


def _simple_schematic(n=64):
    sch = Schematic("test")
    sch.add("src", ConstSource(np.arange(n, dtype=float)))
    sch.add("double", FunctionBlock(lambda x: 2 * x))
    sch.add("offset", FunctionBlock(lambda x: x + 1))
    sch.connect("src.out", "double.in")
    sch.connect("double.out", "offset.in")
    return sch


class TestSchematic:
    def test_duplicate_block_rejected(self):
        sch = Schematic()
        sch.add("a", ConstSource([1]))
        with pytest.raises(SchematicError):
            sch.add("a", ConstSource([2]))

    def test_unknown_block_in_connect(self):
        sch = Schematic()
        sch.add("a", ConstSource([1]))
        with pytest.raises(SchematicError):
            sch.connect("a.out", "nope.in")

    def test_unknown_port(self):
        sch = Schematic()
        sch.add("a", ConstSource([1]))
        sch.add("b", FunctionBlock(lambda x: x))
        with pytest.raises(SchematicError):
            sch.connect("a.bogus", "b.in")

    def test_double_driver_rejected(self):
        sch = Schematic()
        sch.add("a", ConstSource([1]))
        sch.add("b", ConstSource([2]))
        sch.add("c", FunctionBlock(lambda x: x))
        sch.connect("a.out", "c.in")
        with pytest.raises(SchematicError):
            sch.connect("b.out", "c.in")

    def test_unconnected_input_caught(self):
        sch = Schematic()
        sch.add("f", FunctionBlock(lambda x: x))
        with pytest.raises(SchematicError):
            sch.validate()

    def test_port_defaulting(self):
        sch = Schematic()
        sch.add("a", ConstSource([1.0]))
        sch.add("b", FunctionBlock(lambda x: x))
        sch.connect("a", "b")  # single ports resolve implicitly
        sch.validate()

    def test_topological_order(self):
        sch = _simple_schematic()
        order = sch.topological_order()
        assert order.index("src") < order.index("double") < order.index("offset")

    def test_cycle_detection(self):
        sch = Schematic()
        sch.add("f", FunctionBlock(lambda x: x))
        sch.add("g", FunctionBlock(lambda x: x))
        sch.connect("f.out", "g.in")
        sch.connect("g.out", "f.in")
        with pytest.raises(SchematicError):
            sch.topological_order()

    def test_block_param_access(self):
        sch = Schematic()
        src = ConstSource([1.0])
        sch.add("src", src)
        sch.set_block_param("src.values", np.array([5.0]))
        assert sch.block_param("src.values")[0] == 5.0


class TestCompiledMode:
    def test_pipeline_math(self):
        result = DataflowEngine(mode="compiled").run(_simple_schematic(16))
        assert np.allclose(result.outputs["offset.out"], 2 * np.arange(16) + 1)

    def test_probe_capture(self):
        sch = _simple_schematic(8)
        sch.probe("double.out")
        result = DataflowEngine().run(sch)
        assert "double.out" in result.probes
        assert np.allclose(result.probes["double.out"], 2 * np.arange(8))

    def test_probe_deselection(self):
        sch = _simple_schematic(8)
        sch.probe("double.out")
        sch.probe("double.out", enabled=False)
        result = DataflowEngine().run(sch)
        assert "double.out" not in result.probes

    def test_invocation_count(self):
        result = DataflowEngine().run(_simple_schematic())
        assert result.n_block_invocations == 3

    def test_missing_output_detected(self):
        class Broken(Block):
            inputs = ()
            outputs = ("out",)

            def work(self, inputs, ctx):
                return {}

        sch = Schematic()
        sch.add("b", Broken())
        with pytest.raises(SchematicError):
            DataflowEngine().run(sch)


class TestInterpretedMode:
    def test_matches_compiled_for_stateless(self):
        compiled = DataflowEngine(mode="compiled").run(_simple_schematic(100))
        interp = DataflowEngine(mode="interpreted", frame_size=17).run(
            _simple_schematic(100)
        )
        assert np.allclose(
            compiled.outputs["offset.out"], interp.outputs["offset.out"]
        )

    def test_stateful_filter_across_frames(self):
        from scipy.signal import butter, sosfilt

        from repro.flow.blocks import IirFilterBlock

        sos = butter(3, 0.2, output="sos")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)

        sch = Schematic()
        sch.add("src", ConstSource(x))
        sch.add("filt", IirFilterBlock(sos))
        sch.connect("src.out", "filt.in")
        result = DataflowEngine(mode="interpreted", frame_size=23).run(sch)
        expected = sosfilt(sos, x.astype(complex))
        assert np.allclose(result.outputs["filt.out"], expected)

    def test_unsupported_block_rejected(self):
        from repro.flow.blocks import TransmitterBlock

        sch = Schematic()
        sch.add("tx", TransmitterBlock())
        with pytest.raises(SchematicError):
            DataflowEngine(mode="interpreted").run(sch)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            DataflowEngine(mode="jit")

    def test_bad_frame_size(self):
        with pytest.raises(ValueError):
            DataflowEngine(frame_size=0)

    def test_function_block_multi_output(self):
        def split(x):
            return x[: x.size // 2], x[x.size // 2 :]

        sch = Schematic()
        sch.add("src", ConstSource(np.arange(10.0)))
        sch.add("split", FunctionBlock(split, outputs=("lo", "hi")))
        sch.connect("src.out", "split.in")
        result = DataflowEngine().run(sch)
        assert np.allclose(result.outputs["split.lo"], np.arange(5.0))
        assert np.allclose(result.outputs["split.hi"], np.arange(5.0, 10.0))


class TestInstrumentation:
    def test_compiled_block_stats(self):
        result = DataflowEngine(mode="compiled").run(_simple_schematic(64))
        stats = result.block_stats
        assert set(stats) == {"src", "double", "offset"}
        for stat in stats.values():
            assert stat.calls == 1
            assert stat.work_seconds >= 0.0
        assert stats["src"].samples_in == 0
        assert stats["src"].samples_out == 64
        assert stats["double"].samples_in == 64
        assert stats["double"].samples_out == 64

    def test_interpreted_block_stats(self):
        result = DataflowEngine(mode="interpreted", frame_size=16).run(
            _simple_schematic(64)
        )
        stats = result.block_stats
        # The source pre-rolls once; processing blocks run per frame.
        assert stats["src"].calls == 1
        assert stats["src"].samples_out == 64
        assert stats["double"].calls == 4
        assert stats["double"].samples_in == 64
        assert stats["double"].samples_out == 64

    def test_compiled_emits_block_spans(self):
        from repro import obs

        tracer = obs.Tracer()
        with obs.telemetry_scope(tracer=tracer):
            DataflowEngine(mode="compiled").run(_simple_schematic(32))
        block_spans = tracer.spans("block:")
        assert {s.name for s in block_spans} == {
            "block:src", "block:double", "block:offset",
        }
        engine_span = tracer.spans("engine:run")[0]
        for s in block_spans:
            assert s.parent_id == engine_span.span_id
        double = next(s for s in block_spans if s.name == "block:double")
        assert double.attributes["samples"] == 32
        assert double.attributes["mode"] == "compiled"

    def test_interpreted_emits_one_summary_span_per_block(self):
        from repro import obs

        tracer = obs.Tracer()
        with obs.telemetry_scope(tracer=tracer):
            DataflowEngine(mode="interpreted", frame_size=8).run(
                _simple_schematic(64)
            )
        double_spans = tracer.spans("block:double")
        assert len(double_spans) == 1
        assert double_spans[0].attributes["calls"] == 8
        assert double_spans[0].attributes["samples"] == 64

    def test_explicit_tracer_overrides_global(self):
        from repro import obs

        tracer = obs.Tracer()
        result = DataflowEngine(mode="compiled", tracer=tracer).run(
            _simple_schematic(8)
        )
        assert len(tracer.spans("block:")) == 3
        assert result.n_block_invocations == 3

    def test_disabled_instrumentation_identical_outputs(self):
        from repro import obs

        plain = DataflowEngine(mode="compiled").run(_simple_schematic(100))
        tracer = obs.Tracer()
        traced = DataflowEngine(mode="compiled", tracer=tracer).run(
            _simple_schematic(100)
        )
        assert np.array_equal(
            plain.outputs["offset.out"], traced.outputs["offset.out"]
        )
