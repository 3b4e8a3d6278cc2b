"""IEEE 802.11a transmitter (PPDU assembly, 17.3.2).

Produces the complete complex-baseband PPDU: PLCP preamble, SIGNAL symbol
and DATA symbols, optionally oversampled for RF-level and adjacent-channel
experiments (the paper oversamples the baseband "to fulfill the sampling
theorem" when a 20 MHz-offset interferer is added).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.convcode import ConvolutionalEncoder, puncture
from repro.dsp.interleaver import interleave
from repro.dsp.modulation import Mapper
from repro.dsp.ofdm import OfdmModulator
from repro.dsp.params import (
    MAX_PSDU_BYTES,
    N_SERVICE_BITS,
    N_TAIL_BITS,
    RATES,
    RateParameters,
    SAMPLE_RATE,
    symbols_for_psdu,
)
from repro.dsp.preamble import encode_signal_field, preamble
from repro.dsp.scrambler import Scrambler
from repro.rf.filters import butter_sos, resample_poly, sosfiltfilt


@dataclass(frozen=True)
class TxConfig:
    """Transmitter configuration.

    Attributes:
        rate_mbps: one of the eight 802.11a data rates.
        scrambler_seed: non-zero 7-bit scrambler seed.
        oversample: integer oversampling factor applied to the final
            waveform (1 = native 20 MHz).
        spectral_shaping: apply the transmit pulse-shaping low-pass that a
            real 802.11a front end uses to meet the spectral mask;
            suppresses the OFDM sinc sidelobes.  Only effective when
            oversampling (the shaping band exceeds 10 MHz).
        shaping_edge_hz: passband edge of the shaping filter.
    """

    rate_mbps: int = 24
    scrambler_seed: int = 0b1011101
    oversample: int = 1
    spectral_shaping: bool = True
    shaping_edge_hz: float = 9.5e6

    @property
    def rate(self) -> RateParameters:
        """Rate parameter set for the configured data rate."""
        return RATES[self.rate_mbps]

    @property
    def sample_rate(self) -> float:
        """Output sample rate in Hz."""
        return SAMPLE_RATE * self.oversample


class Transmitter:
    """Standard-compliant 802.11a transmitter.

    Example:
        >>> tx = Transmitter(TxConfig(rate_mbps=6))
        >>> psdu = np.zeros(100, dtype=np.uint8)
        >>> waveform = tx.transmit(psdu)
    """

    def __init__(self, config: TxConfig = TxConfig()):
        if config.rate_mbps not in RATES:
            raise ValueError(f"unsupported data rate {config.rate_mbps} Mbps")
        if config.oversample < 1:
            raise ValueError("oversample factor must be >= 1")
        self.config = config
        self._encoder = ConvolutionalEncoder()
        self._mapper = Mapper(config.rate.modulation)
        self._ofdm = OfdmModulator()

    def data_field_bits(self, psdu: np.ndarray) -> np.ndarray:
        """Scrambled + padded DATA field bits of one PSDU (before FEC)."""
        return self.data_field_bits_batch(_one_row(psdu))[0]

    def data_field_bits_batch(self, psdus: np.ndarray) -> np.ndarray:
        """Scrambled + padded DATA field bits for ``(n_packets, n_bytes)``.

        Implements 17.3.5.3/17.3.5.4: SERVICE + PSDU + tail + pad bits are
        scrambled, then the six tail bits are forced back to zero so the
        convolutional code terminates.  Every packet shares the PSDU
        length (one SIGNAL field per batch).
        """
        psdus = np.asarray(psdus, dtype=np.uint8)
        if psdus.ndim != 2:
            raise ValueError("expected (n_packets, n_bytes) input")
        if psdus.shape[1] > MAX_PSDU_BYTES:
            raise ValueError(f"PSDU too long ({psdus.shape[1]} bytes)")
        rate = self.config.rate
        psdu_bits = np.unpackbits(psdus, axis=1, bitorder="little")
        n_total = symbols_for_psdu(psdus.shape[1], rate) * rate.n_dbps
        bits = np.zeros((psdus.shape[0], n_total), dtype=np.uint8)
        bits[:, N_SERVICE_BITS : N_SERVICE_BITS + psdu_bits.shape[1]] = psdu_bits
        scrambled = Scrambler(self.config.scrambler_seed).process(bits)
        tail_start = N_SERVICE_BITS + psdu_bits.shape[1]
        scrambled[:, tail_start : tail_start + N_TAIL_BITS] = 0
        return scrambled

    def data_symbols(self, psdu: np.ndarray) -> np.ndarray:
        """Constellation symbols of one DATA field, shape (n_sym, 48)."""
        return self.data_symbols_batch(_one_row(psdu))[0]

    def data_symbols_batch(self, psdus: np.ndarray) -> np.ndarray:
        """DATA-field constellation symbols: ``(n_packets, n_symbols, 48)``."""
        rate = self.config.rate
        bits = self.data_field_bits_batch(psdus)
        coded = puncture(self._encoder.encode(bits), rate.coding_rate)
        interleaved = interleave(coded, rate.n_cbps, rate.n_bpsc)
        n_packets = interleaved.shape[0]
        return self._mapper.map(interleaved).reshape(n_packets, -1, 48)

    def transmit(self, psdu: np.ndarray) -> np.ndarray:
        """The full PPDU waveform of one PSDU (a batch of one)."""
        return self.transmit_batch(_one_row(psdu))[0][0]

    def transmit_batch(self, psdus: np.ndarray):
        """Build the PPDU waveforms of a whole batch in stacked array ops.

        All packets share the PSDU length, so the preamble + SIGNAL head is
        built once and broadcast; the DATA fields go through one batched
        bit chain and one stacked IFFT.

        Args:
            psdus: payload bytes, shape ``(n_packets, n_bytes)``.

        Returns:
            Tuple ``(waveforms, data_symbols)``.  ``waveforms`` is
            ``(n_packets, n_samples)`` complex baseband at
            ``config.sample_rate`` with unit average power over the DATA
            portion; ``data_symbols`` is the ``(n_packets, n_symbols,
            48)`` constellation points (handy for EVM probes without a
            recompute).
        """
        psdus = np.asarray(psdus, dtype=np.uint8)
        if psdus.ndim != 2:
            raise ValueError("expected (n_packets, n_bytes) input")
        n_packets = psdus.shape[0]
        signal_sym = encode_signal_field(self.config.rate, psdus.shape[1])
        head = np.concatenate([preamble(), signal_sym])
        symbols = self.data_symbols_batch(psdus)
        data_wave = self._ofdm.modulate_batch(symbols)
        ppdu = np.concatenate(
            [np.broadcast_to(head, (n_packets, head.size)), data_wave],
            axis=1,
        )
        if self.config.oversample > 1:
            ppdu = resample_poly(ppdu, self.config.oversample, 1)
            if self.config.spectral_shaping:
                ppdu = self._shape(ppdu)
        return ppdu, symbols

    def _shape(self, samples: np.ndarray) -> np.ndarray:
        """Zero-phase transmit pulse shaping (mask filter); last-axis N-D."""
        fs = self.config.sample_rate
        edge = self.config.shaping_edge_hz
        if edge >= fs / 2.0:
            return samples
        return sosfiltfilt(butter_sos(7, edge / (fs / 2.0), "low"), samples)


def _one_row(psdu) -> np.ndarray:
    """One PSDU as a ``(1, n_bytes)`` batch."""
    return np.asarray(psdu, dtype=np.uint8).reshape(1, -1)


def random_psdu(n_bytes: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a random PSDU payload of ``n_bytes`` bytes."""
    if n_bytes < 1:
        raise ValueError("PSDU must contain at least one byte")
    return rng.integers(0, 256, size=n_bytes, dtype=np.uint8)
