"""Transmit power amplifier model (extension of the paper's RX study).

The paper focuses on the receive chain, but the same behavioral machinery
applies to the transmitter: an OFDM signal with ~10 dB PAPR through a
compressive PA produces spectral regrowth that eats the 802.11a transmit
mask margin.  :class:`PowerAmplifier` wraps a Rapp nonlinearity with an
output-backoff operating convention, the standard knob of PA studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rf.nonlinearity import RappNonlinearity
from repro.rf.signal import Signal, dbm_to_watts, watts_to_dbm


@dataclass
class PowerAmplifier:
    """Rapp-model transmit PA operated at a given output backoff.

    Attributes:
        psat_dbm: saturated output power.
        gain_db: small-signal gain.
        smoothness: Rapp smoothness parameter.
        am_pm_deg: maximum AM/PM deviation.
    """

    psat_dbm: float = 24.0
    gain_db: float = 25.0
    smoothness: float = 2.0
    am_pm_deg: float = 3.0

    def __post_init__(self):
        self._model = RappNonlinearity(
            gain_db=self.gain_db,
            osat_dbm=self.psat_dbm,
            smoothness=self.smoothness,
            am_pm_deg=self.am_pm_deg,
        )

    def drive_level_dbm(self, output_backoff_db: float) -> float:
        """Input power that puts the average output at Psat - OBO."""
        if output_backoff_db < 0:
            raise ValueError("output backoff must be >= 0 dB")
        return self.psat_dbm - output_backoff_db - self.gain_db

    def process(
        self,
        signal: Signal,
        rng: Optional[np.random.Generator] = None,
        output_backoff_db: Optional[float] = None,
    ) -> Signal:
        """Amplify; optionally re-level the input to a target backoff.

        Args:
            signal: input envelope.
            rng: unused (the PA model is noiseless).
            output_backoff_db: when given, the input is first scaled so
                the *average* output power sits this far below Psat.
        """
        work = signal
        if output_backoff_db is not None:
            work = signal.scaled_to_dbm(
                self.drive_level_dbm(output_backoff_db)
            )
        return work.with_samples(self._model.apply(work.samples))
