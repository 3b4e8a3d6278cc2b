"""Local oscillator with frequency error and phase noise.

The paper's receiver derives both mixer stages from a single 2.6 GHz
VCO/PLL.  The model provides a deterministic frequency error (ppm of the
nominal frequency, i.e. a carrier frequency offset after down-conversion)
and a synthesized phase-noise process with a -20 dB/decade (free-running
VCO / Wiener) profile specified as L(f) dBc/Hz at a reference offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.rf.signal import ENVELOPE_CACHE_SIZE


def _error_phase(error_hz: float, n: int, sample_rate: float) -> np.ndarray:
    """Envelope phase left by an LO frequency error of ``error_hz``."""
    t = np.arange(n) / sample_rate
    # Down-conversion by an LO that runs high by df leaves the envelope
    # rotating at -df.
    return -2.0 * np.pi * error_hz * t


@lru_cache(maxsize=ENVELOPE_CACHE_SIZE)
def _error_rotator(
    error_hz: float, n: int, sample_rate: float
) -> np.ndarray:
    """``exp(1j * phase)`` of :func:`_error_phase`, read-only and shared."""
    rotator = np.exp(1j * _error_phase(error_hz, n, sample_rate))
    rotator.setflags(write=False)
    return rotator


@dataclass
class LocalOscillator:
    """Behavioral LO / VCO+PLL model.

    Attributes:
        frequency_hz: nominal LO frequency.
        frequency_error_ppm: static frequency error in parts per million.
        phase_noise_dbc_hz: single-sideband phase noise level L(f_ref) in
            dBc/Hz; None disables phase noise.
        phase_noise_ref_hz: offset frequency f_ref the level refers to.
    """

    frequency_hz: float
    frequency_error_ppm: float = 0.0
    phase_noise_dbc_hz: Optional[float] = None
    phase_noise_ref_hz: float = 1e6

    @property
    def frequency_error_hz(self) -> float:
        """Absolute LO frequency error in Hz."""
        return self.frequency_hz * self.frequency_error_ppm * 1e-6

    def phase_noise_process(
        self, n: int, sample_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Synthesize a phase-noise trajectory phi[n] in radians.

        A -20 dB/decade SSB profile corresponds to a Wiener (random-walk)
        phase: ``S_phi(f) = 2 * L(f)`` with ``L(f) = L_ref * (f_ref/f)^2``.
        The random walk increment variance sigma^2 per sample follows from
        ``S_phi(f) = sigma^2 / (sample_rate * (pi f / f_s)^2)`` in the small
        frequency limit, giving
        ``sigma^2 = 2 * L_ref * (2*pi*f_ref)^2 / (2 * sample_rate)``.
        """
        if self.phase_noise_dbc_hz is None:
            return np.zeros(n)
        l_ref = 10.0 ** (self.phase_noise_dbc_hz / 10.0)
        # PSD of the phase: S_phi(f) = 2*L(f) (small-angle approximation),
        # with L(f) = l_ref * (f_ref / f)^2.  For a random walk
        # phi[k] = phi[k-1] + w[k], S_phi(f) ~ sigma_w^2 / fs / (2 pi f/fs)^2
        # = sigma_w^2 fs / (2 pi f)^2, so
        # sigma_w^2 = 2 * l_ref * (2 pi f_ref)^2 / fs.
        sigma2 = 2.0 * l_ref * (2.0 * np.pi * self.phase_noise_ref_hz) ** 2 / sample_rate
        steps = rng.standard_normal(n) * np.sqrt(sigma2)
        return np.cumsum(steps)

    def envelope_rotation(
        self,
        n: int,
        sample_rate: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Unit-magnitude rotator combining frequency error and phase noise.

        Args:
            n: number of samples.
            sample_rate: envelope sample rate.
            rng: random generator; when None, phase noise is skipped (the
                co-simulation "no noise functions" mode).

        Returns:
            A new array; without phase noise it is a copy of a cached
            rotator.
        """
        if self.phase_noise_dbc_hz is None or rng is None:
            return _error_rotator(
                self.frequency_error_hz, n, sample_rate
            ).copy()
        phase = _error_phase(self.frequency_error_hz, n, sample_rate)
        noise = self.phase_noise_process(n, sample_rate, rng)
        return np.exp(1j * (phase - noise))
