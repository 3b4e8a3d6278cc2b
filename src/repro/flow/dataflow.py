"""A block-diagram dataflow simulator (the SPW stand-in).

The engine executes a :class:`Schematic` of connected :class:`Block`
instances in topological order.  Two execution modes mirror SPW's
interpreted and compiled (SPB-C) simulation:

* ``"compiled"`` — each block processes the entire stream in one
  vectorized call; this is the fast mode the paper recommends "for long
  simulation times as necessary for BER computations".
* ``"interpreted"`` — the stream is cut into frames and blocks are invoked
  once per frame in a Python loop, like a scheduler stepping a block
  diagram; markedly slower, useful for debugging probes mid-run.

Probes capture wire contents; they can be deselected ("to avoid a data
overload, it can be necessary to deselect probes during simulations with a
large number of samples").

Every run also accounts *time* per block: :class:`RunResult` carries a
:class:`BlockStat` per block (invocations, work seconds, samples in/out)
in both execution modes — the engine-side extension of the probe concept
from signals to wall-clock.  When a :class:`repro.obs.Tracer` is active
the compiled mode additionally emits one ``block:<name>`` span per
invocation, so ``repro profile`` can render a breakdown offline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs


class SchematicError(RuntimeError):
    """Raised for invalid schematics (dangling ports, cycles, rebinding)."""


@dataclass
class SimulationContext:
    """Run-time context handed to every block invocation.

    Attributes:
        rng: shared random generator.
        sample_rate: nominal schematic sample rate.
        mode: "compiled" or "interpreted".
        frame_index: current frame number (always 0 in compiled mode).
    """

    rng: np.random.Generator
    sample_rate: float
    mode: str = "compiled"
    frame_index: int = 0


class Block:
    """Base class of all dataflow blocks.

    Subclasses declare ``inputs`` and ``outputs`` (port name tuples) and
    implement :meth:`work`.  Blocks whose state cannot be chunked (e.g. a
    whole-packet receiver) set ``supports_interpreted = False``.

    Parameters live as plain attributes; :meth:`set_param` /
    :meth:`get_param` provide the generic access the sweep manager uses.
    """

    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    supports_interpreted: bool = True

    def work(
        self, inputs: Dict[str, np.ndarray], ctx: SimulationContext
    ) -> Dict[str, np.ndarray]:
        """Process one frame; must return one array per output port."""
        raise NotImplementedError

    def reset(self):
        """Clear internal state before a run (filters, counters...)."""

    def set_param(self, name: str, value):
        """Set a block parameter by name."""
        if not hasattr(self, name):
            raise AttributeError(
                f"{type(self).__name__} has no parameter {name!r}"
            )
        setattr(self, name, value)

    def get_param(self, name: str):
        """Read a block parameter by name."""
        return getattr(self, name)


class FunctionBlock(Block):
    """A block wrapping a plain function ``f(*arrays) -> array(s)``.

    Args:
        func: callable receiving the input arrays in declared port order.
        inputs: input port names.
        outputs: output port names.
        stateless: set False if ``func`` closes over state that breaks
            frame-wise execution.
    """

    def __init__(
        self,
        func: Callable,
        inputs: Sequence[str] = ("in",),
        outputs: Sequence[str] = ("out",),
        stateless: bool = True,
    ):
        self.func = func
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.supports_interpreted = stateless

    def work(self, inputs, ctx):
        args = [inputs[name] for name in self.inputs]
        result = self.func(*args)
        if len(self.outputs) == 1:
            return {self.outputs[0]: np.asarray(result)}
        return {
            name: np.asarray(arr) for name, arr in zip(self.outputs, result)
        }


class CompositeBlock(Block):
    """A block whose implementation is a nested schematic.

    The paper's design flow starts with the "creation of a hierarchical
    model of the RF part": composite blocks give the dataflow engine that
    hierarchy — a sub-schematic with designated boundary ports appears as
    a single block in the parent schematic.

    Args:
        schematic: the inner block diagram.
        input_map: outer input port -> inner ``"block.port"`` input.
        output_map: outer output port -> inner ``"block.port"`` output.
    """

    supports_interpreted = False

    def __init__(
        self,
        schematic: "Schematic",
        input_map: Dict[str, str],
        output_map: Dict[str, str],
    ):
        self._schematic = schematic
        self._input_map = {}
        for outer, inner in input_map.items():
            block, port = schematic._resolve(inner, is_output=False)
            if (block, port) in schematic._input_bindings:
                raise SchematicError(
                    f"inner input {inner} is already driven internally"
                )
            self._input_map[outer] = (block, port)
        self._output_map = {
            outer: schematic._resolve(inner, is_output=True)
            for outer, inner in output_map.items()
        }
        self.inputs = tuple(input_map)
        self.outputs = tuple(output_map)

    @property
    def schematic(self) -> "Schematic":
        """The wrapped inner schematic."""
        return self._schematic

    def reset(self):
        for block in self._schematic._blocks.values():
            block.reset()

    def set_param(self, name: str, value):
        """Hierarchical parameters: ``"block.param"`` paths reach inside."""
        if "." in name:
            self._schematic.set_block_param(name, value)
        else:
            super().set_param(name, value)

    def get_param(self, name: str):
        if "." in name:
            return self._schematic.block_param(name)
        return super().get_param(name)

    def work(self, inputs, ctx):
        sch = self._schematic
        order = sch.topological_order()
        values: Dict[Tuple[str, str], np.ndarray] = {}
        # Seed the boundary inputs.
        boundary = {
            self._input_map[outer]: arr for outer, arr in inputs.items()
        }
        for name in order:
            block = sch._blocks[name]
            block_inputs = {}
            missing = False
            for port in block.inputs:
                key = (name, port)
                if key in boundary:
                    block_inputs[port] = boundary[key]
                elif key in sch._input_bindings:
                    block_inputs[port] = values[sch._input_bindings[key]]
                else:
                    raise SchematicError(
                        f"composite inner input {name}.{port} is neither "
                        f"mapped nor driven"
                    )
            outputs = block.work(block_inputs, ctx)
            for port in block.outputs:
                values[(name, port)] = outputs[port]
        return {
            outer: values[inner] for outer, inner in self._output_map.items()
        }


@dataclass
class _Wire:
    src: Tuple[str, str]
    dsts: List[Tuple[str, str]] = field(default_factory=list)
    probed: bool = False


class Schematic:
    """A named collection of blocks and the wires between their ports."""

    def __init__(self, name: str = "schematic"):
        self.name = name
        self._blocks: Dict[str, Block] = {}
        self._wires: Dict[Tuple[str, str], _Wire] = {}
        self._input_bindings: Dict[Tuple[str, str], Tuple[str, str]] = {}

    @property
    def blocks(self) -> Dict[str, Block]:
        """Mapping of instance name to block."""
        return dict(self._blocks)

    def add(self, name: str, block: Block) -> Block:
        """Add a block instance under ``name``; returns the block."""
        if name in self._blocks:
            raise SchematicError(f"duplicate block name {name!r}")
        self._blocks[name] = block
        return block

    def connect(self, src: str, dst: str):
        """Connect ``"block.port"`` to ``"block.port"``.

        Port names default to the single port when omitted
        (``"tx" -> "tx.out"`` if the block has exactly one output).
        """
        s_block, s_port = self._resolve(src, is_output=True)
        d_block, d_port = self._resolve(dst, is_output=False)
        key = (d_block, d_port)
        if key in self._input_bindings:
            raise SchematicError(
                f"input {d_block}.{d_port} already driven by "
                f"{self._input_bindings[key]}"
            )
        self._input_bindings[key] = (s_block, s_port)
        wire = self._wires.setdefault((s_block, s_port), _Wire((s_block, s_port)))
        wire.dsts.append((d_block, d_port))

    def probe(self, src: str, enabled: bool = True):
        """Enable/disable a probe on an output ``"block.port"``."""
        s_block, s_port = self._resolve(src, is_output=True)
        wire = self._wires.setdefault((s_block, s_port), _Wire((s_block, s_port)))
        wire.probed = enabled

    def _resolve(self, ref: str, is_output: bool) -> Tuple[str, str]:
        if "." in ref:
            block_name, port = ref.split(".", 1)
        else:
            block_name, port = ref, None
        if block_name not in self._blocks:
            raise SchematicError(f"unknown block {block_name!r}")
        block = self._blocks[block_name]
        ports = block.outputs if is_output else block.inputs
        if port is None:
            if len(ports) != 1:
                raise SchematicError(
                    f"{block_name} has {len(ports)} "
                    f"{'outputs' if is_output else 'inputs'}; specify a port"
                )
            port = ports[0]
        if port not in ports:
            raise SchematicError(
                f"{block_name} has no "
                f"{'output' if is_output else 'input'} port {port!r}"
            )
        return block_name, port

    def validate(self):
        """Check that every input port of every block is driven."""
        for name, block in self._blocks.items():
            for port in block.inputs:
                if (name, port) not in self._input_bindings:
                    raise SchematicError(f"unconnected input {name}.{port}")

    def topological_order(self) -> List[str]:
        """Blocks sorted so producers run before consumers."""
        deps: Dict[str, set] = {name: set() for name in self._blocks}
        for (d_block, _), (s_block, _) in self._input_bindings.items():
            if s_block != d_block:
                deps[d_block].add(s_block)
        order: List[str] = []
        ready = sorted(n for n, d in deps.items() if not d)
        remaining = {n: set(d) for n, d in deps.items() if d}
        while ready:
            n = ready.pop(0)
            order.append(n)
            newly = []
            for m, d in list(remaining.items()):
                d.discard(n)
                if not d:
                    newly.append(m)
                    del remaining[m]
            ready.extend(sorted(newly))
        if remaining:
            raise SchematicError(
                f"schematic contains a cycle among {sorted(remaining)}"
            )
        return order

    def block_param(self, path: str):
        """Read a parameter by ``"block.param"`` path (sweep support)."""
        block_name, param = path.split(".", 1)
        return self._blocks[block_name].get_param(param)

    def set_block_param(self, path: str, value):
        """Set a parameter by ``"block.param"`` path (sweep support)."""
        block_name, param = path.split(".", 1)
        self._blocks[block_name].set_param(param, value)


@dataclass
class BlockStat:
    """Per-block accounting for one engine run.

    Attributes:
        name: block instance name.
        calls: ``work()`` invocations (0 for pre-rolled sources in
            interpreted mode).
        work_seconds: monotonic time spent inside ``work()``.
        samples_in / samples_out: summed array sizes over all ports.
    """

    name: str
    calls: int = 0
    work_seconds: float = 0.0
    samples_in: int = 0
    samples_out: int = 0


@dataclass
class RunResult:
    """Outcome of one engine run.

    Attributes:
        outputs: final frame (or concatenated frames) per output wire of
            every block, keyed ``"block.port"``.
        probes: captured samples for probed wires, keyed ``"block.port"``.
        n_block_invocations: total block work() calls (engine statistics).
        block_stats: per-block time and sample accounting, keyed by
            block instance name.
    """

    outputs: Dict[str, np.ndarray]
    probes: Dict[str, np.ndarray]
    n_block_invocations: int
    block_stats: Dict[str, BlockStat] = field(default_factory=dict)


class DataflowEngine:
    """Executes a schematic in compiled or interpreted mode.

    Args:
        mode: "compiled" (single vectorized pass) or "interpreted"
            (frame-by-frame Python scheduling).
        frame_size: samples per frame in interpreted mode.
        sample_rate: nominal sample rate handed to blocks.
        seed: seed of the run's random generator.
        tracer: span sink for per-block timing; None uses the process
            tracer (a no-op unless one was installed via
            :func:`repro.obs.telemetry_scope`).
    """

    def __init__(
        self,
        mode: str = "compiled",
        frame_size: int = 256,
        sample_rate: float = 20e6,
        seed: int = 0,
        tracer=None,
    ):
        if mode not in ("compiled", "interpreted"):
            raise ValueError(f"unknown mode {mode!r}")
        if frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        self.mode = mode
        self.frame_size = frame_size
        self.sample_rate = sample_rate
        self.seed = seed
        self.tracer = tracer

    def _active_tracer(self):
        return self.tracer if self.tracer is not None else obs.get_tracer()

    def run(self, schematic: Schematic) -> RunResult:
        """Run the schematic until its sources are exhausted."""
        schematic.validate()
        order = schematic.topological_order()
        ctx = SimulationContext(
            rng=np.random.default_rng(self.seed),
            sample_rate=self.sample_rate,
            mode=self.mode,
        )
        for block in schematic.blocks.values():
            block.reset()
        with self._active_tracer().span(
            "engine:run", schematic=schematic.name, mode=self.mode
        ):
            if self.mode == "compiled":
                return self._run_compiled(schematic, order, ctx)
            return self._run_interpreted(schematic, order, ctx)

    def _tap_signal_probes(self, schematic, probes) -> None:
        """Feed probed wires into the ambient signal-probe registry.

        Wires the schematic designer marked ``probe=True`` show up in the
        signal-level telemetry (power/PAPR summaries) under
        ``flow:{schematic}.{block}.{port}``.  Sorted order keeps the
        registry state independent of wire-dict insertion order.
        """
        registry = obs.telemetry().probes
        if not registry.enabled:
            return
        for key in sorted(probes):
            samples = np.asarray(probes[key])
            if samples.size:
                registry.tap(
                    f"flow:{schematic.name}.{key}",
                    samples,
                    self.sample_rate,
                )

    def _run_compiled(self, schematic, order, ctx) -> RunResult:
        tracer = self._active_tracer()
        tracing = tracer.enabled
        values: Dict[Tuple[str, str], np.ndarray] = {}
        probes: Dict[str, np.ndarray] = {}
        stats: Dict[str, BlockStat] = {}
        invocations = 0
        for name in order:
            block = schematic._blocks[name]
            inputs = {
                port: values[schematic._input_bindings[(name, port)]]
                for port in block.inputs
            }
            n_in = sum(arr.size for arr in inputs.values())
            start = time.perf_counter()
            outputs = block.work(inputs, ctx)
            work_s = time.perf_counter() - start
            invocations += 1
            for port in block.outputs:
                if port not in outputs:
                    raise SchematicError(
                        f"{name} did not produce output {port!r}"
                    )
                values[(name, port)] = outputs[port]
            n_out = sum(
                outputs[port].size for port in block.outputs
            )
            stats[name] = BlockStat(name, 1, work_s, n_in, n_out)
            if tracing:
                tracer.record_span(
                    f"block:{name}",
                    work_s,
                    kind=type(block).__name__,
                    mode="compiled",
                    samples=n_out,
                    samples_in=n_in,
                )
        for key, wire in schematic._wires.items():
            if wire.probed and key in values:
                probes[f"{key[0]}.{key[1]}"] = values[key]
        outputs = {f"{b}.{p}": v for (b, p), v in values.items()}
        self._tap_signal_probes(schematic, probes)
        return RunResult(outputs, probes, invocations, stats)

    def _run_interpreted(self, schematic, order, ctx) -> RunResult:
        tracer = self._active_tracer()
        for name in order:
            block = schematic._blocks[name]
            if not block.supports_interpreted:
                raise SchematicError(
                    f"block {name} ({type(block).__name__}) does not "
                    f"support interpreted mode; use compiled mode"
                )
        stats: Dict[str, BlockStat] = {
            name: BlockStat(name) for name in order
        }
        # Sources produce their full stream once; the engine then steps
        # through it frame by frame.
        source_streams: Dict[str, Dict[str, np.ndarray]] = {}
        stream_length = 0
        for name in order:
            block = schematic._blocks[name]
            if not block.inputs:
                start = time.perf_counter()
                outputs = block.work({}, ctx)
                stat = stats[name]
                stat.calls += 1
                stat.work_seconds += time.perf_counter() - start
                source_streams[name] = outputs
                for arr in outputs.values():
                    stat.samples_out += arr.size
                    stream_length = max(stream_length, arr.size)
        chunks: Dict[Tuple[str, str], List[np.ndarray]] = {}
        invocations = 0
        n_frames = max(int(np.ceil(stream_length / self.frame_size)), 1)
        for f in range(n_frames):
            ctx.frame_index = f
            lo, hi = f * self.frame_size, (f + 1) * self.frame_size
            values: Dict[Tuple[str, str], np.ndarray] = {}
            for name in order:
                block = schematic._blocks[name]
                if not block.inputs:
                    outputs = {
                        port: arr[lo:hi]
                        for port, arr in source_streams[name].items()
                    }
                else:
                    inputs = {
                        port: values[schematic._input_bindings[(name, port)]]
                        for port in block.inputs
                    }
                    stat = stats[name]
                    stat.samples_in += sum(
                        arr.size for arr in inputs.values()
                    )
                    start = time.perf_counter()
                    outputs = block.work(inputs, ctx)
                    stat.work_seconds += time.perf_counter() - start
                    stat.calls += 1
                    stat.samples_out += sum(
                        arr.size for arr in outputs.values()
                    )
                    invocations += 1
                for port, arr in outputs.items():
                    values[(name, port)] = arr
                    chunks.setdefault((name, port), []).append(arr)
        if tracer.enabled:
            # One summary span per block (not per frame) keeps traces
            # bounded for long interpreted runs.
            for name in order:
                stat = stats[name]
                tracer.record_span(
                    f"block:{name}",
                    stat.work_seconds,
                    kind=type(schematic._blocks[name]).__name__,
                    mode="interpreted",
                    calls=stat.calls,
                    samples=stat.samples_out,
                    samples_in=stat.samples_in,
                )
        merged = {
            f"{b}.{p}": np.concatenate(arrs) if arrs else np.zeros(0)
            for (b, p), arrs in chunks.items()
        }
        probes = {
            f"{k[0]}.{k[1]}": merged[f"{k[0]}.{k[1]}"]
            for k, wire in schematic._wires.items()
            if wire.probed and f"{k[0]}.{k[1]}" in merged
        }
        self._tap_signal_probes(schematic, probes)
        return RunResult(merged, probes, invocations, stats)
