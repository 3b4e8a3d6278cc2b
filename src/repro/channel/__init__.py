"""Propagation channel models.

The SPW demo system the paper uses transmits over "a channel model that can
realize an additive white gaussian noise (AWGN) or a fading channel".  The
adjacent channel of the RF experiments (the transmitter duplicated and its
OFDM signal shifted by 20 MHz) is an emitter of :mod:`repro.scenario`.
"""

from repro.channel.awgn import AwgnChannel, ebn0_to_snr_db, snr_to_ebn0_db
from repro.channel.fading import FadingChannel, exponential_power_delay_profile

__all__ = [
    "AwgnChannel",
    "ebn0_to_snr_db",
    "snr_to_ebn0_db",
    "FadingChannel",
    "exponential_power_delay_profile",
]
