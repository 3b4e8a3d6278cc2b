"""Subcarrier modulation mapping of IEEE 802.11a (17.3.5.7).

Gray-coded BPSK, QPSK, 16-QAM and 64-QAM with the standard's normalization
factors so the average constellation energy is 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

import numpy as np

#: Normalization factors K_MOD (17.3.5.7, table 84).
K_MOD: Dict[str, float] = {
    "BPSK": 1.0,
    "QPSK": 1.0 / np.sqrt(2.0),
    "QAM16": 1.0 / np.sqrt(10.0),
    "QAM64": 1.0 / np.sqrt(42.0),
}

#: Coded bits per subcarrier for each constellation.
BITS_PER_SYMBOL: Dict[str, int] = {"BPSK": 1, "QPSK": 2, "QAM16": 4, "QAM64": 6}

# Gray-coded PAM levels indexed by the bit group value (17.3.5.7 tables).
_PAM_GRAY = {
    1: {0: -1.0, 1: 1.0},
    2: {0: -3.0, 1: -1.0, 3: 1.0, 2: 3.0},
    3: {0: -7.0, 1: -5.0, 3: -3.0, 2: -1.0, 6: 1.0, 7: 3.0, 5: 5.0, 4: 7.0},
}


def _pam_table(n_bits: int) -> np.ndarray:
    """PAM level lookup table: table[bit_group_value] -> level."""
    table = np.zeros(1 << n_bits)
    for value, level in _PAM_GRAY[n_bits].items():
        table[value] = level
    return table


@lru_cache(maxsize=None)
def constellation(modulation: str) -> np.ndarray:
    """Complex constellation points indexed by the bit-group value.

    Bits map MSB-first: the first transmitted bit is the MSB of the index.
    For QPSK/QAM the first half of the bits select I, the second half Q.
    """
    n = BITS_PER_SYMBOL[modulation]
    k = K_MOD[modulation]
    if modulation == "BPSK":
        return k * np.array([-1.0 + 0j, 1.0 + 0j])
    half = n // 2
    pam = _pam_table(half)
    values = np.arange(1 << n)
    i_bits = values >> half
    q_bits = values & ((1 << half) - 1)
    return k * (pam[i_bits] + 1j * pam[q_bits])


class Mapper:
    """Bit-to-constellation mapper for one 802.11a modulation."""

    def __init__(self, modulation: str):
        if modulation not in BITS_PER_SYMBOL:
            raise ValueError(f"unknown modulation {modulation!r}")
        self.modulation = modulation
        self.n_bpsc = BITS_PER_SYMBOL[modulation]
        self._points = constellation(modulation)

    def map(self, bits: np.ndarray) -> np.ndarray:
        """Map interleaved bits to complex constellation symbols."""
        bits = np.asarray(bits, dtype=np.int64)
        if bits.size % self.n_bpsc:
            raise ValueError(
                f"bit count {bits.size} is not a multiple of "
                f"N_BPSC={self.n_bpsc}"
            )
        groups = bits.reshape(-1, self.n_bpsc)
        weights = 1 << np.arange(self.n_bpsc - 1, -1, -1)
        indices = groups @ weights
        return self._points[indices]


class Demapper:
    """Hard and soft (max-log LLR) demapper.

    LLR sign convention matches :class:`repro.dsp.viterbi.ViterbiDecoder`:
    positive LLR favours bit 0.
    """

    def __init__(self, modulation: str):
        if modulation not in BITS_PER_SYMBOL:
            raise ValueError(f"unknown modulation {modulation!r}")
        self.modulation = modulation
        self.n_bpsc = BITS_PER_SYMBOL[modulation]
        self._points = constellation(modulation)
        n_points = self._points.size
        indices = np.arange(n_points)
        # bit_matrix[p, b] = value of bit b (MSB-first) of point p.
        shifts = np.arange(self.n_bpsc - 1, -1, -1)
        self._bit_matrix = (indices[:, None] >> shifts[None, :]) & 1

    def demap_hard(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-neighbour hard decisions, returning interleaved bits."""
        symbols = np.asarray(symbols, dtype=complex).ravel()
        dist = np.abs(symbols[:, None] - self._points[None, :]) ** 2
        nearest = np.argmin(dist, axis=1)
        return self._bit_matrix[nearest].reshape(-1).astype(np.uint8)

    def demap_soft(self, symbols: np.ndarray, noise_var: float = 1.0) -> np.ndarray:
        """Max-log LLRs per coded bit of one symbol vector (a row of one).

        Returns:
            LLR array of length ``len(symbols) * n_bpsc``.
        """
        rows = np.reshape(symbols, (1, -1))
        return self.demap_soft_rows(rows, [noise_var])[0]

    def demap_soft_rows(
        self, symbol_rows: np.ndarray, noise_vars: np.ndarray
    ) -> np.ndarray:
        """Max-log LLRs per coded bit with a per-row noise variance.

        Args:
            symbol_rows: ``(n_rows, n_symbols)`` received (equalized)
                constellation symbols — one packet per row.
            noise_vars: per-row effective noise variance, shape
                ``(n_rows,)``, used to scale the LLRs.  Any uniform
                positive scale yields identical Viterbi decisions.

        Returns:
            ``(n_rows, n_symbols * n_bpsc)`` LLRs.
        """
        symbol_rows = np.asarray(symbol_rows, dtype=complex)
        if symbol_rows.ndim != 2:
            raise ValueError("expected (n_rows, n_symbols) input")
        n_rows, n_per = symbol_rows.shape
        n = self.n_bpsc
        flat = symbol_rows.reshape(-1)
        dist = np.abs(flat[:, None] - self._points[None, :])
        np.multiply(dist, dist, out=dist)
        llrs = np.empty((flat.size, n))
        div = np.repeat(
            np.maximum(np.asarray(noise_vars, dtype=float), 1e-30), n_per
        )
        for b in range(n):
            if n >= 6:
                # MSB-first Gray indexing makes bit b a reshape axis, so
                # the per-bit minima reduce over strided views instead of
                # boolean-mask copies.  min() over the same point set is
                # traversal-order independent (distances are nonnegative,
                # so no ±0.0 ambiguity): bit-identical to the mask form,
                # and ~2.5x faster for the 64-point constellation.  For
                # the small constellations the masked copies win.
                d = dist.reshape(flat.size, 1 << b, 2, 1 << (n - 1 - b))
                d0 = d[:, :, 0, :].min(axis=(1, 2))
                d1 = d[:, :, 1, :].min(axis=(1, 2))
            else:
                mask1 = self._bit_matrix[:, b].astype(bool)
                d0 = dist[:, ~mask1].min(axis=1)
                d1 = dist[:, mask1].min(axis=1)
            llrs[:, b] = (d1 - d0) / div
        return llrs.reshape(n_rows, n_per * n)
