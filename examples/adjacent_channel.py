"""Adjacent-channel scenario: spectrum and receiver robustness.

Builds the paper's figure-4 situation — a wanted 802.11a channel at
5.2 GHz plus a duplicate transmitter shifted by +20 MHz, 16 dB hotter —
shows the combined spectrum, and measures how the double-conversion
receiver copes with and without the interferer.

Run:  python examples/adjacent_channel.py
"""

import numpy as np

from repro.core.reporting import render_ascii_plot
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
from repro.rf.frontend import FrontendConfig
from repro.rf.signal import Signal
from repro.scenario import Scenario
from repro.spectrum.psd import (
    adjacent_channel_power_ratio_db,
    occupied_bandwidth_hz,
    welch_psd,
)


def show_spectrum():
    rng = np.random.default_rng(5)
    wave = Transmitter(TxConfig(rate_mbps=24, oversample=4)).transmit(
        random_psdu(400, rng)
    )
    wanted = Signal(wave, 80e6, 5.2e9).scaled_to_dbm(-40.0)
    print(f"wanted channel: {wanted.power_dbm():.1f} dBm, occupied BW "
          f"{occupied_bandwidth_hz(wanted) / 1e6:.1f} MHz")

    combined = Scenario.preset("adjacent-16db").apply(wanted, rng)
    psd = welch_psd(combined, nperseg=2048)
    print(
        render_ascii_plot(
            psd.absolute_freqs_hz / 1e9,
            psd.psd_dbm_hz,
            width=70,
            height=16,
            title="OFDM signal and adjacent channel (figure 4)",
            x_label="frequency [GHz]",
            y_label="PSD [dBm/Hz]",
        )
    )
    lower, upper = adjacent_channel_power_ratio_db(combined)
    print(f"adjacent-channel power ratio: lower {lower:+.1f} dB, "
          f"upper {upper:+.1f} dB (interferer is ~16 dB hot)")


def measure_robustness():
    print("\nBER through the double-conversion receiver at -60 dBm:")
    for name, scenario, fs in (
        ("no interferer      ", None, 80e6),
        ("adjacent    (+16dB)", Scenario.preset("adjacent-16db"), 80e6),
        ("non-adjacent(+32dB)", Scenario.preset("non-adjacent-32db"), 120e6),
    ):
        bench = WlanTestbench(
            TestbenchConfig(
                rate_mbps=24,
                psdu_bytes=60,
                thermal_floor=True,
                frontend=FrontendConfig(sample_rate_in=fs),
                scenario=scenario,
                input_level_dbm=-60.0,
            )
        )
        m = bench.measure_ber(n_packets=3, seed=1)
        print(f"  {name}: BER = {m.ber:.4f} "
              f"({m.packets_lost}/{m.packets} packets lost)")


if __name__ == "__main__":
    show_spectrum()
    measure_robustness()
