"""OFDM symbol assembly and demodulation (17.3.5.9).

One 802.11a OFDM symbol carries 48 data subcarriers and 4 pilot subcarriers
on a 64-point IFFT grid, preceded by a 16-sample cyclic prefix.  Signals are
normalized so that an OFDM symbol built from unit-energy constellation
points has unit average time-domain power.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.params import (
    DATA_CARRIER_INDICES,
    N_CP,
    N_FFT,
    PILOT_BASE_VALUES,
    PILOT_CARRIER_INDICES,
)
from repro.dsp.scrambler import pilot_polarity_sequence

#: Number of occupied (data + pilot) subcarriers.
N_USED = DATA_CARRIER_INDICES.size + PILOT_CARRIER_INDICES.size

#: Time-domain scale making unit-energy constellations unit-power in time.
TIME_SCALE = N_FFT / np.sqrt(N_USED)

_PILOT_POLARITY = pilot_polarity_sequence()


def pilot_value_rows(first_symbol_index: int, n_symbols: int) -> np.ndarray:
    """Pilot subcarrier values of ``n_symbols`` consecutive DATA symbols.

    Row ``n`` belongs to DATA symbol ``first_symbol_index + n`` (0-based).
    The SIGNAL symbol uses polarity index 0; DATA symbol ``n`` uses index
    ``n + 1`` (cyclic over 127).
    """
    indices = first_symbol_index + np.arange(n_symbols)
    polarity = _PILOT_POLARITY[(indices + 1) % _PILOT_POLARITY.size]
    return PILOT_BASE_VALUES[None, :] * polarity[:, None]


def pilot_values(symbol_index: int) -> np.ndarray:
    """Pilot subcarrier values for DATA symbol ``symbol_index`` (0-based)."""
    return pilot_value_rows(symbol_index, 1)[0]


def subcarriers_to_fft_bins(carriers: np.ndarray) -> np.ndarray:
    """Map logical subcarrier indices (-32..31) to numpy FFT bin indices."""
    return np.where(carriers >= 0, carriers, carriers + N_FFT)


_DATA_BINS = subcarriers_to_fft_bins(DATA_CARRIER_INDICES)
_PILOT_BINS = subcarriers_to_fft_bins(PILOT_CARRIER_INDICES)


class OfdmModulator:
    """Assembles time-domain OFDM symbols from data constellation points."""

    def modulate_symbol(
        self,
        data_symbols: np.ndarray,
        symbol_index: int,
        pilot_polarity: float = None,
    ) -> np.ndarray:
        """Build one OFDM symbol with cyclic prefix.

        Args:
            data_symbols: 48 complex constellation points.
            symbol_index: 0-based DATA symbol index controlling pilot
                polarity (ignored when ``pilot_polarity`` is given).
            pilot_polarity: explicit pilot polarity override (used for the
                SIGNAL symbol which takes polarity index 0, i.e. +1).

        Returns:
            80 complex time-domain samples (16 CP + 64).
        """
        data_symbols = np.asarray(data_symbols, dtype=complex)
        if data_symbols.size != _DATA_BINS.size:
            raise ValueError(
                f"expected {_DATA_BINS.size} data symbols, got {data_symbols.size}"
            )
        freq = np.zeros(N_FFT, dtype=complex)
        freq[_DATA_BINS] = data_symbols
        if pilot_polarity is None:
            freq[_PILOT_BINS] = pilot_values(symbol_index)
        else:
            freq[_PILOT_BINS] = PILOT_BASE_VALUES * pilot_polarity
        time = np.fft.ifft(freq) * TIME_SCALE
        return np.concatenate([time[-N_CP:], time])

    def modulate(self, data_symbols: np.ndarray) -> np.ndarray:
        """Modulate one DATA field (a batch of one).

        Args:
            data_symbols: array of shape ``(n_symbols, 48)`` or flat with a
                length that is a multiple of 48.

        Returns:
            Concatenated time-domain samples, ``n_symbols * 80`` long.
        """
        blocks = np.reshape(data_symbols, (1, -1, _DATA_BINS.size))
        return self.modulate_batch(blocks)[0]

    def modulate_batch(self, data_symbols: np.ndarray) -> np.ndarray:
        """Modulate a batch of DATA fields in one stacked IFFT.

        Args:
            data_symbols: ``(n_packets, n_symbols, 48)`` constellation
                points; every packet restarts its pilot polarity at DATA
                symbol 0.

        Returns:
            ``(n_packets, n_symbols * 80)`` time-domain samples, each
            symbol CP-prefixed.
        """
        data_symbols = np.asarray(data_symbols, dtype=complex)
        if data_symbols.ndim != 3:
            raise ValueError("expected (n_packets, n_symbols, 48) input")
        n_packets, n_symbols, _ = data_symbols.shape
        freq = np.zeros((n_packets * n_symbols, N_FFT), dtype=complex)
        freq[:, _DATA_BINS] = data_symbols.reshape(-1, _DATA_BINS.size)
        freq[:, _PILOT_BINS] = np.tile(
            pilot_value_rows(0, n_symbols), (n_packets, 1)
        )
        time = np.fft.ifft(freq, axis=1) * TIME_SCALE
        out = np.concatenate([time[:, -N_CP:], time], axis=1)
        return out.reshape(n_packets, n_symbols * (N_CP + N_FFT))


class OfdmDemodulator:
    """Splits a time-domain stream into frequency-domain OFDM symbols."""

    def demodulate(self, samples: np.ndarray) -> np.ndarray:
        """FFT-demodulate one stream of CP-prefixed OFDM symbols.

        Args:
            samples: time-domain samples; length must be a multiple of 80.

        Returns:
            Array of shape ``(n_symbols, 64)`` (see
            :meth:`demodulate_batch`).
        """
        return self.demodulate_batch(np.reshape(samples, (1, -1)))[0]

    def demodulate_batch(self, sample_rows: np.ndarray) -> np.ndarray:
        """FFT-demodulate a batch of symbol streams in one stacked FFT.

        Args:
            sample_rows: ``(n_packets, n_samples)`` time-domain samples;
                the row length must be a multiple of 80.

        Returns:
            ``(n_packets, n_symbols, 64)`` full FFT bins, normalized so
            transmitted constellation points are recovered at unit scale
            over an ideal channel.
        """
        sample_rows = np.asarray(sample_rows, dtype=complex)
        if sample_rows.ndim != 2:
            raise ValueError("expected (n_packets, n_samples) input")
        if sample_rows.shape[-1] % (N_CP + N_FFT):
            raise ValueError(
                f"sample count {sample_rows.shape[-1]} is not a multiple "
                f"of {N_CP + N_FFT}"
            )
        blocks = sample_rows.reshape(
            sample_rows.shape[0], -1, N_CP + N_FFT
        )[:, :, N_CP:]
        return np.fft.fft(blocks, axis=-1) / TIME_SCALE

    def extract_data(self, freq_symbols: np.ndarray) -> np.ndarray:
        """Pick the 48 data subcarriers from full FFT rows (any ndim)."""
        freq_symbols = np.asarray(freq_symbols, dtype=complex)
        if freq_symbols.ndim == 1:
            freq_symbols = freq_symbols[None, :]
        return freq_symbols[..., _DATA_BINS]

    def extract_pilots(self, freq_symbols: np.ndarray) -> np.ndarray:
        """Pick the 4 pilot subcarriers from full FFT rows (any ndim)."""
        freq_symbols = np.asarray(freq_symbols, dtype=complex)
        if freq_symbols.ndim == 1:
            freq_symbols = freq_symbols[None, :]
        return freq_symbols[..., _PILOT_BINS]
