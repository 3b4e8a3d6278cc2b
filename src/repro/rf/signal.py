"""Carrier-referenced complex-baseband signal container.

All RF models operate on :class:`Signal`: a complex envelope around a
carrier reference frequency.  The power convention is the usual system
simulation one: the instantaneous envelope power in watts is ``|x|**2``
(samples carry units of sqrt-watt), so ``0 dBm`` corresponds to an average
``|x|**2`` of 1 mW.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

#: Entry bound of the caches of deterministic envelope-length arrays
#: (channel-shift and LO rotators, the flicker PSD shape): one entry per
#: distinct parameter set, each holding one envelope's worth.
ENVELOPE_CACHE_SIZE = 16


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** (dbm / 10.0) * 1e-3


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm (-inf for zero power)."""
    if watts <= 0.0:
        return -np.inf
    return 10.0 * np.log10(watts / 1e-3)


def db_to_linear(db: float) -> float:
    """Convert a power ratio in dB to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def db_to_amplitude(db: float) -> float:
    """Convert a power ratio in dB to a linear amplitude ratio."""
    return 10.0 ** (db / 20.0)


@lru_cache(maxsize=ENVELOPE_CACHE_SIZE)
def _shift_rotator(
    offset_hz: float, n: int, sample_rate: float
) -> np.ndarray:
    """``exp(2j*pi*offset*t)`` over ``n`` samples, read-only and shared."""
    rotator = np.exp(2j * np.pi * offset_hz * (np.arange(n) / sample_rate))
    rotator.setflags(write=False)
    return rotator


@dataclass
class Signal:
    """A complex-envelope signal at a carrier reference frequency.

    Attributes:
        samples: complex envelope samples in sqrt-watt units.
        sample_rate: envelope sample rate [Hz] (= simulation bandwidth).
        carrier_frequency: the carrier the envelope is referenced to [Hz];
            0 for true baseband.
    """

    samples: np.ndarray
    sample_rate: float
    carrier_frequency: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Signal duration in seconds."""
        return self.samples.size / self.sample_rate

    @property
    def time(self) -> np.ndarray:
        """Sample time axis in seconds."""
        return np.arange(self.samples.size) / self.sample_rate

    def power_watts(self) -> float:
        """Average envelope power in watts."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def power_dbm(self) -> float:
        """Average envelope power in dBm."""
        return watts_to_dbm(self.power_watts())

    def peak_power_dbm(self) -> float:
        """Peak envelope power in dBm."""
        if self.samples.size == 0:
            return -np.inf
        return watts_to_dbm(float(np.max(np.abs(self.samples) ** 2)))

    def papr_db(self) -> float:
        """Peak-to-average power ratio in dB."""
        return self.peak_power_dbm() - self.power_dbm()

    def with_samples(self, samples: np.ndarray) -> "Signal":
        """Copy of this signal with replaced samples (same rates)."""
        return replace(self, samples=np.asarray(samples, dtype=complex))

    def scaled_to_dbm(self, target_dbm: float) -> "Signal":
        """Copy rescaled so the average power equals ``target_dbm``.

        This is the paper's "constant multiplier" level adaptation between
        the DSP test bench and the RF subsystem (section 4.1).
        """
        current = self.power_watts()
        if current <= 0.0:
            raise ValueError("cannot scale an all-zero signal")
        gain = np.sqrt(dbm_to_watts(target_dbm) / current)
        return self.with_samples(self.samples * gain)

    def shifted(self, offset_hz: float) -> "Signal":
        """Frequency-shift the envelope contents by ``offset_hz``.

        The carrier reference is unchanged; the envelope spectrum moves.
        Used to place an adjacent channel 20 MHz from the wanted one.
        """
        rotator = _shift_rotator(
            offset_hz, self.samples.size, self.sample_rate
        )
        return self.with_samples(self.samples * rotator)

    def delayed(self, n_samples: int) -> "Signal":
        """Copy with ``n_samples`` zeros prepended."""
        if n_samples < 0:
            raise ValueError("delay must be non-negative")
        pad = np.zeros(n_samples, dtype=complex)
        return self.with_samples(np.concatenate([pad, self.samples]))

    def __add__(self, other: "Signal") -> "Signal":
        """Sum of two signals sharing rates; shorter one is zero-padded."""
        if not isinstance(other, Signal):
            return NotImplemented
        if other.sample_rate != self.sample_rate:
            raise ValueError("sample rates differ")
        if other.carrier_frequency != self.carrier_frequency:
            raise ValueError("carrier references differ")
        n = max(self.samples.size, other.samples.size)
        a = np.zeros(n, dtype=complex)
        a[: self.samples.size] = self.samples
        a[: other.samples.size] += other.samples
        return self.with_samples(a)
