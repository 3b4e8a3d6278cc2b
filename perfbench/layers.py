"""Per-layer attribution from outside the program.

The benchmark wraps the public callables of each layer of the
verification chain in ``obs.span("bench:<op>")`` for a traced pass and
removes the wrappers again for untraced passes, so the untraced timing
is of the unmodified program.  Nothing under ``src/`` is edited: the
wrappers are installed by ``setattr`` on the owning module or class and
removed by restoring exactly what was there before.

Worker processes of :func:`repro.perf.parallel_map` are forked after the
wrappers are installed, so they inherit them, and their spans come back
to the parent through the pool's existing tracer round-trip.  All spans
share the host's monotonic clock, so a worker span nests inside the
parent span that waited for it.

A layer's self time is the duration of its span minus the part of that
interval covered by its nearest ``bench:`` descendants (spans the
program records itself, such as ``block:receiver``, are transparent).
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Dict, List, Sequence, Tuple

from repro import obs

PREFIX = "bench:"

#: ``op -> targets``.  A target is ``"module:attr"`` for a module-level
#: callable (patched where the caller binds it) or ``"module:Class.attr"``
#: for a method.  The ops are the layer names the per-layer metrics use.
OPS: Dict[str, Tuple[str, ...]] = {
    "core.sweep.run": ("repro.core.sweep:ParameterSweep.run",),
    "core.testbench.measure_ber": (
        "repro.core.testbench:WlanTestbench.measure_ber",
    ),
    "core.testbench.run_packet_batch": (
        "repro.core.testbench:WlanTestbench.run_packet_batch",
    ),
    "core.testbench.run_packet": (
        "repro.core.testbench:WlanTestbench.run_packet",
    ),
    "dsp.transmitter.transmit_batch": (
        "repro.dsp.transmitter:Transmitter.transmit_batch",
    ),
    "dsp.transmitter.transmit": (
        "repro.dsp.transmitter:Transmitter.transmit",
    ),
    "dsp.receiver.receive_batch": (
        "repro.dsp.receiver:Receiver.receive_batch",
    ),
    "dsp.receiver.receive": ("repro.dsp.receiver:Receiver.receive",),
    "dsp.sync": (
        "repro.dsp.receiver:detect_packet",
        "repro.dsp.receiver:symbol_timing",
        "repro.dsp.receiver:coarse_cfo_estimate",
        "repro.dsp.receiver:fine_cfo_estimate",
        "repro.dsp.receiver:apply_cfo",
    ),
    "dsp.chanest": (
        "repro.dsp.receiver:estimate_channel_ls",
        "repro.dsp.receiver:estimate_noise_variance",
        "repro.dsp.receiver:smooth_channel_estimate",
        "repro.dsp.receiver:equalize",
        "repro.dsp.receiver:equalize_mmse",
        "repro.dsp.receiver:pilot_phase_correction",
    ),
    "dsp.ofdm.demodulate": (
        "repro.dsp.ofdm:OfdmDemodulator.demodulate",
        "repro.dsp.ofdm:OfdmDemodulator.demodulate_batch",
    ),
    "dsp.signal.decode": (
        "repro.dsp.receiver:decode_signal_field",
        "repro.dsp.receiver:decode_signal_fields",
    ),
    "dsp.demap": (
        "repro.dsp.modulation:Demapper.demap_soft",
        "repro.dsp.modulation:Demapper.demap_soft_rows",
        "repro.dsp.modulation:Demapper.demap_hard",
    ),
    "dsp.viterbi.decode_soft": (
        "repro.dsp.viterbi:ViterbiDecoder.decode_soft",
    ),
    "channel.awgn.process": ("repro.channel.awgn:AwgnChannel.process",),
    "channel.fading.process": (
        "repro.channel.fading:FadingChannel.process",
    ),
    "channel.fading.realize_time_varying": (
        "repro.channel.fading:FadingChannel.realize_time_varying",
    ),
    "scenario.apply": ("repro.scenario.scenario:Scenario.apply",),
    "scenario.emitter.wlan.generate": (
        "repro.scenario.emitters:WlanEmitter.generate",
    ),
    "scenario.emitter.bluetooth.generate": (
        "repro.scenario.emitters:BluetoothFhEmitter.generate",
    ),
    "scenario.emitter.microwave.generate": (
        "repro.scenario.emitters:MicrowaveOvenEmitter.generate",
    ),
    # Its call count is the number of front-end builds.
    "rf.frontend.construct": (
        "repro.rf.frontend:DoubleConversionReceiver.__init__",
        "repro.rf.zeroif:ZeroIfReceiver.__init__",
    ),
    # ``process`` delegates to ``stage_outputs``, which the probe path
    # calls directly, so wrapping ``stage_outputs`` sees every packet.
    "rf.frontend.process": (
        "repro.rf.frontend:DoubleConversionReceiver.stage_outputs",
        "repro.rf.zeroif:ZeroIfReceiver.stage_outputs",
    ),
    "rf.lna": ("repro.rf.amplifier:Amplifier.process",),
    "rf.mixer": (
        "repro.rf.mixer:Mixer.process",
        "repro.rf.mixer:QuadratureMixer.process",
    ),
    "rf.filter": ("repro.rf.filters:AnalogFilter.process",),
    "rf.agc": ("repro.rf.amplifier:AgcAmplifier.process",),
    "rf.adc": ("repro.rf.adc:Adc.process",),
    "perf.parallel_map": ("repro.perf:parallel_map",),
    "obs.probes.tap": (
        "repro.obs.probes:ProbeRegistry.tap",
        "repro.obs.probes:ProbeRegistry.tap_mask",
        "repro.obs.probes:ProbeRegistry.tap_evm",
    ),
    "obs.merge": (
        "repro.obs.probes:ProbeRegistry.merge",
        "repro.obs.metrics:MetricsRegistry.merge",
        "repro.obs.tracer:Tracer.absorb",
    ),
}

#: Ops whose span records a work count, as ``op -> attribute``.
WORK = {"dsp.viterbi.decode_soft": "bits"}

#: Ops that own everything they call.  An emitter synthesises its
#: interferer with the DSP transmitter and designs its channel filter
#: per packet; that work is the scenario layer's cost, not the wanted
#: signal's transmitter, so no op nested inside an emitter opens a span.
OPAQUE = frozenset(op for op in OPS if op.startswith("scenario.emitter."))


def resolve(target: str):
    """``(owner, attribute name)`` of one target string."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracing:
    """A traced region: a fresh tracer plus the wrappers around :data:`OPS`.

    Use as a context manager.  Entering installs the tracer and a wrapper
    around every target; leaving restores the previous tracer and each
    patched attribute to the very object that was there before (deleting
    it again where the wrapper shadowed an inherited method).

    While installed it also keeps the outcome of every outermost
    :func:`repro.perf.parallel_map` region of the installing process in
    ``regions`` as ``(tasks, jobs, wall_s, busy_s)``.
    """

    def __init__(self):
        self.tracer = obs.Tracer()
        self.regions: List[Tuple[int, int, float, float]] = []
        self._previous_tracer = None
        self._saved: List[tuple] = []
        self._active: set = set()
        self._pid = os.getpid()

    def _enter(self, op: str) -> bool:
        """Mark ``op`` active; False when it should open no span.

        Re-entering an op (an override calling ``super()``) is one call,
        and nothing inside an :data:`OPAQUE` op is a call of its own.
        A forked worker starts with nothing active: the ops its parent
        was inside at fork time are not on the worker's stack.
        """
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._active.clear()
        if op in self._active or not OPAQUE.isdisjoint(self._active):
            return False
        self._active.add(op)
        return True

    def _wrap(self, op: str, fn):
        work = WORK.get(op)
        regions = self.regions if op == "perf.parallel_map" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enter(op):
                return fn(*args, **kwargs)
            try:
                with obs.span(PREFIX + op) as sp:
                    result = fn(*args, **kwargs)
                    if work is not None:
                        sp.set(**{work: int(result.size)})
            finally:
                self._active.discard(op)
            if regions is not None:
                regions.append(
                    (len(result), result.jobs, result.wall_s, result.busy_s)
                )
            return result

        return wrapper

    def __enter__(self) -> "Tracing":
        if self._saved:
            raise RuntimeError("already tracing")
        for op, targets in OPS.items():
            for target in targets:
                owner, attr = resolve(target)
                had_own = attr in vars(owner)
                previous = vars(owner).get(attr)
                setattr(owner, attr, self._wrap(op, getattr(owner, attr)))
                self._saved.append((owner, attr, had_own, previous))
        self._previous_tracer = obs.set_tracer(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        obs.set_tracer(self._previous_tracer)
        for owner, attr, had_own, previous in reversed(self._saved):
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def attribute(self):
        """:func:`attribute` of the spans recorded so far."""
        return attribute(self.tracer.records)


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def attribute(records) -> Tuple[Dict[str, dict], float]:
    """Per-op ``calls``, ``self_s`` and work counts of one traced pass.

    Returns ``(per_op, covered_s)``: ``per_op[op]`` holds ``calls``,
    ``self_s`` and any work count; ``covered_s`` is the time the
    outermost ``bench:`` spans cover.
    """
    spans = [r for r in records if isinstance(r, obs.SpanRecord)]
    by_id = {s.span_id: s for s in spans}

    def bench_parent(span):
        parent = by_id.get(span.parent_id)
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = by_id.get(parent.parent_id)
        return parent

    children: Dict[int, List[Tuple[float, float]]] = {}
    roots: List[Tuple[float, float]] = []
    bench = [s for s in spans if s.name.startswith(PREFIX)]
    for span in bench:
        interval = (
            span.start_monotonic_s, span.start_monotonic_s + span.duration_s
        )
        parent = bench_parent(span)
        if parent is None:
            roots.append(interval)
        else:
            children.setdefault(parent.span_id, []).append(interval)
    per_op: Dict[str, dict] = {}
    for span in bench:
        op = span.name[len(PREFIX):]
        start = span.start_monotonic_s
        end = start + span.duration_s
        inner = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span.span_id, ())
            if hi > start and lo < end
        ]
        entry = per_op.setdefault(op, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += max(0.0, span.duration_s - _union_length(inner))
        work = WORK.get(op)
        if work is not None:
            entry[work] = entry.get(work, 0) + span.attributes.get(work, 0)
    return per_op, _union_length(roots)
