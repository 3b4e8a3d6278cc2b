"""Figure 5 of the paper: BER vs. Chebyshev filter bandwidth (adjacent
channel present).

The paper sweeps "the ratio between filter parameter and BER — passband
edge frequency (1.0e8 Hz)" with the +16 dB adjacent channel active.  The
expected shape: BER ~ 0.5 for very narrow filters (the signal itself is
destroyed), a low plateau around the nominal ~9 MHz channel bandwidth, and
a rise back toward 0.5 once the passband admits the adjacent channel
(which then aliases through the 20 MHz ADC).
"""

import numpy as np

from repro.core.reporting import render_ascii_plot, render_table
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig
from repro.scenario import Scenario

#: Passband edges as ratios of 1e8 Hz, like the paper's x axis.
EDGE_RATIOS = [0.03, 0.05, 0.06, 0.07, 0.08, 0.10, 0.12, 0.16, 0.25]
N_PACKETS = 5
RATE = 36
LEVEL_DBM = -60.0


def _sweep():
    cfg = TestbenchConfig(
        rate_mbps=RATE,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        scenario=Scenario.preset("adjacent-16db"),
        input_level_dbm=LEVEL_DBM,
    )
    sweep = ParameterSweep(
        base_config=cfg,
        parameter="frontend.lpf_edge_hz",
        values=[r * 1e8 for r in EDGE_RATIOS],
        n_packets=N_PACKETS,
        seed=50,
    )
    return sweep.run()


def test_fig5_ber_vs_filter_bandwidth(benchmark, save_result):
    result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    ratios = result.values / 1e8
    bers = result.bers
    rows = [
        [f"{r:.2f}", f"{v / 1e6:.1f}", f"{b:.3f}"]
        for r, v, b in zip(ratios, result.values, bers)
    ]
    table = render_table(
        ["edge ratio (of 1e8 Hz)", "edge [MHz]", "BER"], rows
    )
    plot = render_ascii_plot(
        ratios, bers, width=64, height=14,
        title=(
            "Figure 5 — BER vs. filter passband edge "
            "(adjacent channel present)"
        ),
        x_label="passband edge ratio (1.0e8 Hz)",
        y_label="BER",
    )
    save_result("fig5_filter_bw", plot + "\n\n" + table)

    # Shape assertions (the paper's qualitative result):
    narrow = bers[ratios <= 0.05]
    nominal = bers[(ratios >= 0.07) & (ratios <= 0.10)]
    wide = bers[ratios >= 0.16]
    assert narrow.min() > 0.3, "too-narrow filters must destroy the signal"
    assert nominal.max() < 0.05, "nominal bandwidth must decode cleanly"
    assert wide.min() > 0.3, "too-wide filters must admit the interferer"
