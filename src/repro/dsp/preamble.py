"""PLCP preamble and SIGNAL field of IEEE 802.11a (17.3.3, 17.3.4).

The preamble consists of ten repetitions of a 16-sample short training
symbol (packet detection, AGC, coarse frequency) followed by a double-length
guard interval and two 64-sample long training symbols (fine frequency,
timing, channel estimation).  The SIGNAL field is a single BPSK rate-1/2
OFDM symbol carrying the rate and length of the following DATA field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.convcode import ConvolutionalEncoder
from repro.dsp.interleaver import deinterleave, interleave
from repro.dsp.modulation import Demapper, Mapper
from repro.dsp.ofdm import N_USED, OfdmModulator, subcarriers_to_fft_bins
from repro.dsp.params import (
    MAX_PSDU_BYTES,
    N_FFT,
    RATE_BITS_TO_MBPS,
    RATES,
    RateParameters,
)
from repro.dsp.viterbi import ViterbiDecoder

#: Duration of the short training field in samples (10 x 16).
STF_LENGTH = 160

#: Duration of the long training field in samples (32 CP + 2 x 64).
LTF_LENGTH = 160

#: Total preamble length in samples.
PREAMBLE_LENGTH = STF_LENGTH + LTF_LENGTH

_TIME_SCALE = N_FFT / np.sqrt(N_USED)


def _short_training_freq() -> np.ndarray:
    """Frequency-domain short training sequence S_-26..26 on FFT bins."""
    amplitude = np.sqrt(13.0 / 6.0)
    entries = {
        -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j,
        -8: -1 - 1j, -4: 1 + 1j, 4: -1 - 1j, 8: -1 - 1j,
        12: 1 + 1j, 16: 1 + 1j, 20: 1 + 1j, 24: 1 + 1j,
    }
    freq = np.zeros(N_FFT, dtype=complex)
    carriers = np.array(list(entries.keys()))
    values = np.array(list(entries.values()))
    freq[subcarriers_to_fft_bins(carriers)] = amplitude * values
    return freq


#: Long training sequence L_k for k = -26..26 (17.3.3, eq. 8).
LONG_TRAINING_SEQUENCE = np.array(
    [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
     1, -1, 1, 1, 1, 1,
     0,
     1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1,
     -1, 1, -1, 1, 1, 1, 1],
    dtype=float,
)


def long_training_symbol_freq() -> np.ndarray:
    """Long training sequence mapped onto the 64 FFT bins."""
    carriers = np.arange(-26, 27)
    freq = np.zeros(N_FFT, dtype=complex)
    freq[subcarriers_to_fft_bins(carriers)] = LONG_TRAINING_SEQUENCE
    return freq


def short_training_field() -> np.ndarray:
    """Time-domain short training field (160 samples).

    The underlying 64-sample IFFT output is periodic with period 16 because
    only every fourth subcarrier is occupied; ten periods are transmitted.
    """
    time64 = np.fft.ifft(_short_training_freq()) * _TIME_SCALE
    return np.tile(time64[:16], 10)


def long_training_field() -> np.ndarray:
    """Time-domain long training field (32-sample GI + two 64-sample LTS)."""
    time64 = np.fft.ifft(long_training_symbol_freq()) * _TIME_SCALE
    return np.concatenate([time64[-32:], time64, time64])


def preamble() -> np.ndarray:
    """Complete 320-sample PLCP preamble."""
    return np.concatenate([short_training_field(), long_training_field()])


@dataclass(frozen=True)
class SignalFieldContent:
    """Decoded contents of the SIGNAL symbol."""

    rate: RateParameters
    length_bytes: int
    parity_ok: bool


def signal_field_bits(rate: RateParameters, length_bytes: int) -> np.ndarray:
    """The 24 SIGNAL bits: RATE, reserved, LENGTH (LSB first), parity, tail."""
    if not 1 <= length_bytes <= MAX_PSDU_BYTES:
        raise ValueError(
            f"PSDU length {length_bytes} outside 1..{MAX_PSDU_BYTES}"
        )
    bits = np.zeros(24, dtype=np.uint8)
    bits[0:4] = rate.rate_bits
    # bit 4 reserved = 0
    for i in range(12):
        bits[5 + i] = (length_bytes >> i) & 1
    bits[17] = bits[0:17].sum() % 2
    # bits 18..23 tail = 0
    return bits


def encode_signal_field(rate: RateParameters, length_bytes: int) -> np.ndarray:
    """Encode the SIGNAL field into one 80-sample OFDM symbol.

    The SIGNAL symbol is always BPSK, rate 1/2, not scrambled, with pilot
    polarity index 0 (+1).
    """
    bits = signal_field_bits(rate, length_bytes)
    coded = ConvolutionalEncoder().encode(bits)
    interleaved = interleave(coded, n_cbps=48, n_bpsc=1)
    symbols = Mapper("BPSK").map(interleaved)
    return OfdmModulator().modulate_symbol(symbols, 0, pilot_polarity=1.0)


def _parse_signal_bits(bits: np.ndarray) -> Optional[SignalFieldContent]:
    """Interpret 24 decoded SIGNAL bits."""
    rate_bits = tuple(int(b) for b in bits[0:4])
    mbps = RATE_BITS_TO_MBPS.get(rate_bits)
    if mbps is None:
        return None
    length = int(sum(int(bits[5 + i]) << i for i in range(12)))
    parity_ok = int(bits[0:17].sum() % 2) == int(bits[17])
    return SignalFieldContent(
        rate=RATES[mbps], length_bytes=length, parity_ok=parity_ok
    )


def decode_signal_field(
    data_subcarriers: np.ndarray, noise_var: float = 1.0
) -> Optional[SignalFieldContent]:
    """Decode one received (equalized) SIGNAL symbol (a batch of one).

    Args:
        data_subcarriers: the 48 equalized data subcarrier values of the
            SIGNAL symbol.
        noise_var: noise variance for soft demapping.

    Returns:
        The decoded :class:`SignalFieldContent`, or None if the RATE field
        is invalid (reception failure).
    """
    rows = np.reshape(data_subcarriers, (1, -1))
    return decode_signal_fields(rows, [noise_var])[0]


def decode_signal_fields(
    data_subcarrier_rows: np.ndarray, noise_vars: np.ndarray
) -> list:
    """Decode a batch of SIGNAL symbols in one vectorized pass.

    Args:
        data_subcarrier_rows: ``(n_packets, 48)`` equalized data
            subcarriers, one SIGNAL symbol per row.
        noise_vars: per-packet noise variance, shape ``(n_packets,)``.

    Returns:
        One result per row: the decoded :class:`SignalFieldContent`, or
        None where the RATE field is invalid (reception failure).
    """
    rows = np.asarray(data_subcarrier_rows, dtype=complex)
    noise_vars = np.asarray(noise_vars, dtype=float)
    llr = Demapper("BPSK").demap_soft_rows(rows, noise_vars)
    peak = np.max(np.abs(llr), axis=1)
    safe = np.where(peak > 0, peak, 1.0)
    scale = np.where(peak > 0, 20.0 / safe, 1.0)
    llr = llr * scale[:, None]
    llr = deinterleave(llr, n_cbps=48, n_bpsc=1)
    bits = ViterbiDecoder(terminated=True).decode_soft(llr)
    return [_parse_signal_bits(row) for row in bits]
