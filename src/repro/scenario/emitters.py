"""Waveform-level emitter models for the scenario library.

Each emitter synthesizes one asynchronous interference source as a
complex-baseband waveform in the wanted receiver's band (IQ mixing: the
emitter waveform is generated at its own center frequency offset and
summed onto the wanted samples).  Emitters share a single contract:

``generate(n_samples, sample_rate, wanted_power_watts, rng) -> Signal``

where ``rng`` is the emitter's *own* forked stream (see
:func:`repro.channel.streams.fork_stream`) and ``wanted_power_watts``
the reference power measured under the emitter's ``power_convention``
(:func:`reference_power_watts`).  The returned waveform is scaled so
its power under that same convention sits ``excess_db`` above the
reference.

Emitter types:

* :class:`WlanEmitter` — an 802.11a transmitter on a configurable
  channel offset (0 = co-channel, ±1 = adjacent, ±2 = alternate): the
  paper's section-4.1 adjacent channel ("the transmitter model was
  duplicated and its OFDM signal was shifted by 20 MHz in the frequency
  domain").
* :class:`BluetoothFhEmitter` — slotted frequency-hopping blips:
  constant-envelope binary-FSK bursts (GFSK-like, 1 Msym/s, ±157 kHz
  deviation) hopping over a 1 MHz-spaced channel grid.
* :class:`MicrowaveOvenEmitter` — magnetron burst noise: a swept
  carrier gated by the mains half-period duty cycle, with a random
  mains phase per packet window.

Power convention
----------------

An interferer is typically bursty: packets separated by idle gaps.  Two
power references are therefore meaningful, and ``excess_db`` must name
one explicitly (mixing them was a real bias — scaling the *active-burst*
power against a *time-averaged* wanted reference skews the realized
excess by the duty factors involved):

* ``"active"`` (default): ``excess_db`` relates **on-air burst powers**
  — interferer power while transmitting over wanted power while
  transmitting.  This matches the receiver-blocking test of 17.3.10.2,
  where both signal generators are measured mid-burst.
* ``"average"``: ``excess_db`` relates **time-averaged powers** over the
  full simulated window, idle gaps included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.params import CHANNEL_SPACING
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.rf.signal import Signal

__all__ = [
    "ADJACENT_EXCESS_DB",
    "BluetoothFhEmitter",
    "MicrowaveOvenEmitter",
    "NON_ADJACENT_EXCESS_DB",
    "POWER_CONVENTIONS",
    "WlanEmitter",
    "active_power_watts",
    "reference_power_watts",
    "scale_to_excess",
]

#: Adjacent-channel excess level over the wanted signal (dB); the
#: 802.11a receiver requirement of 17.3.10.2, quoted in section 2.2 of
#: the paper.
ADJACENT_EXCESS_DB = 16.0

#: Non-adjacent (alternate) channel excess level (dB), same clause.
NON_ADJACENT_EXCESS_DB = 32.0

#: Valid ``power_convention`` values (see the module docstring).
POWER_CONVENTIONS = ("active", "average")


def _check_convention(convention: str) -> None:
    if convention not in POWER_CONVENTIONS:
        raise ValueError(
            f"unknown power convention {convention!r}; "
            f"choose from {', '.join(POWER_CONVENTIONS)}"
        )


def active_power_watts(samples: np.ndarray) -> float:
    """Mean on-air power: ``|x|**2`` averaged over *nonzero* samples."""
    samples = np.asarray(samples)
    inst = np.abs(samples[samples != 0]) ** 2
    if inst.size == 0:
        return 0.0
    return float(np.mean(inst))


def reference_power_watts(samples: np.ndarray, convention: str) -> float:
    """The power of ``samples`` under a power convention.

    ``"active"`` averages over the nonzero (on-air) samples;
    ``"average"`` over the full window, guard zeros included.  Applied to
    the wanted signal this is the reference an ``excess_db`` is measured
    against.
    """
    _check_convention(convention)
    samples = np.asarray(samples)
    if convention == "active":
        return active_power_watts(samples)
    if samples.size == 0:
        return 0.0
    return float(np.mean(np.abs(samples) ** 2))


def scale_to_excess(
    samples: np.ndarray,
    reference_power_watts_: float,
    excess_db: float,
    convention: str,
) -> np.ndarray:
    """Scale an emitter waveform to ``reference + excess_db`` consistently.

    Under ``"active"`` the emitter's on-air (nonzero-sample) power lands
    at the target; under ``"average"`` its full-window mean power does.
    Either way the convention on both sides of the ratio is the same —
    the duty-cycle bias of mixing them is exactly what this helper
    exists to prevent.
    """
    samples = np.asarray(samples, dtype=complex)
    current = reference_power_watts(samples, convention)
    if current <= 0 or reference_power_watts_ <= 0:
        return samples
    target = reference_power_watts_ * 10.0 ** (excess_db / 10.0)
    return samples * np.sqrt(target / current)


@dataclass
class WlanEmitter:
    """An interfering 802.11a transmitter at a configurable channel offset.

    ``offset_channels=0`` models co-channel traffic (a hidden-node style
    collision).

    Attributes:
        offset_channels: channel offset from the wanted signal (+1 is the
            first adjacent channel at +20 MHz, +2 the non-adjacent at
            +40 MHz; negative offsets are allowed; 0 is co-channel).
        excess_db: interferer power relative to the wanted signal power,
            in the sense of ``power_convention``.
        rate_mbps: data rate of the interfering transmitter.
        psdu_bytes: payload size of the interfering packets.
        timing_jitter_samples: maximum random start-time offset.
        power_convention: ``"active"`` (on-air burst powers, the
            802.11a blocking-test convention, default) or ``"average"``
            (time-averaged powers, idle gaps included).
    """

    offset_channels: int = 1
    excess_db: float = ADJACENT_EXCESS_DB
    rate_mbps: int = 24
    psdu_bytes: int = 256
    timing_jitter_samples: int = 400
    power_convention: str = "active"

    #: Config ``type`` tag of this emitter class.
    kind = "wlan"

    @property
    def label(self) -> str:
        """Short probe-stage label, e.g. ``wlan+1`` / ``wlan0``."""
        return f"wlan{self.offset_channels:+d}" if self.offset_channels \
            else "wlan0"

    @property
    def offset_hz(self) -> float:
        """Frequency offset of the interferer in Hz."""
        return self.offset_channels * CHANNEL_SPACING

    @property
    def required_halfband_hz(self) -> float:
        """One-sided bandwidth the envelope must represent (Nyquist)."""
        return abs(self.offset_hz) + 10e6

    def generate(
        self,
        n_samples: int,
        sample_rate: float,
        wanted_power_watts: float,
        rng: np.random.Generator,
    ) -> Signal:
        """Generate the interfering waveform.

        The interferer is a stream of back-to-back packets from a duplicate
        transmitter, frequency-shifted to its channel and scaled to
        ``wanted_power + excess_db`` under this emitter's power convention.

        Args:
            n_samples: number of samples to cover.
            sample_rate: envelope sample rate (must be an oversampled
                multiple of 20 MHz large enough to represent the offset).
            wanted_power_watts: reference power of the wanted signal,
                measured under the *same* convention as this emitter
                (:func:`reference_power_watts` computes it).
            rng: this emitter's own random stream (the scenario forks
                one per emitter; passing the wanted path's shared
                generator here would re-couple the draws).
        """
        oversample = sample_rate / 20e6
        if abs(oversample - round(oversample)) > 1e-9:
            raise ValueError("sample rate must be a multiple of 20 MHz")
        oversample = int(round(oversample))
        if self.required_halfband_hz > sample_rate / 2.0:
            raise ValueError(
                f"sample rate {sample_rate:g} Hz cannot represent an "
                f"interferer at {self.offset_hz:g} Hz offset; oversample "
                f"the baseband (sampling theorem)"
            )
        tx = Transmitter(
            TxConfig(rate_mbps=self.rate_mbps, oversample=oversample)
        )
        pieces = []
        total = 0
        start = int(rng.integers(0, self.timing_jitter_samples + 1))
        pieces.append(np.zeros(start, dtype=complex))
        total += start
        while total < n_samples:
            wave = tx.transmit(random_psdu(self.psdu_bytes, rng))
            gap = np.zeros(10 * oversample, dtype=complex)
            pieces.append(wave)
            pieces.append(gap)
            total += wave.size + gap.size
        samples = np.concatenate(pieces)[:n_samples]
        interferer = Signal(samples, sample_rate).shifted(self.offset_hz)
        return interferer.with_samples(
            scale_to_excess(
                interferer.samples,
                wanted_power_watts,
                self.excess_db,
                self.power_convention,
            )
        )


@dataclass
class BluetoothFhEmitter:
    """Frequency-hopping constant-envelope blips (Bluetooth-style).

    Time is divided into ``slot_s`` slots; each slot independently
    transmits (probability ``duty``) a ``burst_s`` constant-envelope
    binary-FSK burst on a hop channel drawn uniformly from a
    ``hop_spacing_hz``-spaced grid spanning ``span_hz`` around
    ``offset_hz``.  Real Bluetooth uses 625 us slots over 79 channels;
    scenario presets shrink the slot scale so a single WLAN packet
    window sees several hops.

    Attributes:
        excess_db: emitter power over the wanted reference, under
            ``power_convention``.
        offset_hz: center of the hop span relative to the wanted
            carrier.
        span_hz: total hop span.
        hop_spacing_hz: hop channel grid spacing.
        slot_s: hop slot duration.
        burst_s: on-air burst duration within a slot (clipped to the
            slot).
        duty: probability a slot transmits.
        symbol_rate_hz: FSK symbol rate.
        deviation_hz: FSK frequency deviation (Bluetooth GFSK ~157 kHz).
        power_convention: see the module docstring.
    """

    excess_db: float = 0.0
    offset_hz: float = 0.0
    span_hz: float = 20e6
    hop_spacing_hz: float = 1e6
    slot_s: float = 625e-6
    burst_s: float = 366e-6
    duty: float = 1.0
    symbol_rate_hz: float = 1e6
    deviation_hz: float = 157e3
    power_convention: str = "active"

    kind = "bluetooth"

    @property
    def label(self) -> str:
        return "bluetooth"

    @property
    def required_halfband_hz(self) -> float:
        """One-sided bandwidth the envelope must represent (Nyquist)."""
        return (
            abs(self.offset_hz)
            + self.span_hz / 2.0
            + self.deviation_hz
            + self.symbol_rate_hz
        )

    def generate(
        self,
        n_samples: int,
        sample_rate: float,
        wanted_power_watts: float,
        rng: np.random.Generator,
    ) -> Signal:
        """Synthesize the hopping burst train over ``n_samples``."""
        if self.slot_s <= 0 or self.burst_s <= 0:
            raise ValueError("slot_s and burst_s must be positive")
        out = np.zeros(int(n_samples), dtype=complex)
        slot_len = max(int(round(self.slot_s * sample_rate)), 1)
        burst_len = max(
            min(int(round(self.burst_s * sample_rate)), slot_len), 1
        )
        n_channels = max(int(round(self.span_hz / self.hop_spacing_hz)), 1)
        for start in range(0, out.size, slot_len):
            # One occupancy draw and (when occupied) one hop draw per
            # slot, in slot order — a deterministic schedule per stream.
            if float(rng.random()) >= self.duty:
                continue
            channel = int(rng.integers(n_channels))
            hop_hz = (
                self.offset_hz
                + (channel - (n_channels - 1) / 2.0) * self.hop_spacing_hz
            )
            length = min(burst_len, out.size - start)
            n_symbols = (
                int(np.ceil(length * self.symbol_rate_hz / sample_rate)) + 1
            )
            symbols = 2.0 * rng.integers(0, 2, n_symbols) - 1.0
            index = (
                np.arange(length) * self.symbol_rate_hz / sample_rate
            ).astype(int)
            inst_hz = hop_hz + symbols[index] * self.deviation_hz
            phase = 2.0 * np.pi * np.cumsum(inst_hz) / sample_rate
            out[start : start + length] = np.exp(1j * phase)
        scaled = scale_to_excess(
            out, wanted_power_watts, self.excess_db, self.power_convention
        )
        return Signal(scaled, sample_rate)


@dataclass
class MicrowaveOvenEmitter:
    """Duty-cycled swept-carrier burst noise (microwave-oven style).

    A magnetron radiates only during one half of the mains cycle and
    its frequency sweeps with the anode voltage; the model is a linear
    chirp of width ``sweep_hz`` across each ``duty``-fraction on-window
    of the ``period_s`` cycle, with a uniformly random mains phase per
    packet window.

    Attributes:
        excess_db: emitter power over the wanted reference, under
            ``power_convention``.
        offset_hz: center frequency relative to the wanted carrier.
        sweep_hz: chirp width during the on-window.
        period_s: burst repetition period (mains half-cycle, ~8.3 ms at
            60 Hz; scenario presets shrink it so a WLAN packet window
            sees on/off transitions).
        duty: fraction of each period the magnetron radiates.
        power_convention: see the module docstring.
    """

    excess_db: float = 0.0
    offset_hz: float = 0.0
    sweep_hz: float = 8e6
    period_s: float = 8.33e-3
    duty: float = 0.5
    power_convention: str = "active"

    kind = "microwave"

    @property
    def label(self) -> str:
        return "microwave"

    @property
    def required_halfband_hz(self) -> float:
        """One-sided bandwidth the envelope must represent (Nyquist)."""
        # 1 MHz margin covers the gating splatter of the on/off edges.
        return abs(self.offset_hz) + self.sweep_hz / 2.0 + 1e6

    def generate(
        self,
        n_samples: int,
        sample_rate: float,
        wanted_power_watts: float,
        rng: np.random.Generator,
    ) -> Signal:
        """Synthesize the gated chirp over ``n_samples``."""
        if self.period_s <= 0 or not 0.0 < self.duty <= 1.0:
            raise ValueError("period_s must be positive and duty in (0, 1]")
        t = np.arange(int(n_samples)) / float(sample_rate)
        mains_phase = float(rng.uniform(0.0, self.period_s))
        position = (t + mains_phase) % self.period_s
        on_s = self.duty * self.period_s
        on = position < on_s
        fraction = np.where(on, position / on_s, 0.0)
        inst_hz = self.offset_hz + self.sweep_hz * (fraction - 0.5)
        phase = 2.0 * np.pi * np.cumsum(inst_hz) / sample_rate
        out = np.where(on, np.exp(1j * phase), 0.0 + 0.0j)
        scaled = scale_to_excess(
            out, wanted_power_watts, self.excess_db, self.power_convention
        )
        return Signal(scaled, sample_rate)
