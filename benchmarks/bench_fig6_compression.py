"""Figure 6 of the paper: BER vs. compression point of the first LNA.

Sweeps the LNA input 1-dB compression point with (a) no interferer,
(b) the +16 dB adjacent channel and (c) the +32 dB non-adjacent channel,
at a fixed -60 dBm wanted level.  Expected shape: each curve is a
waterfall from ~0.5 down to ~0; the interferer curves need progressively
more linearity (the adjacent curve shifted right of the clean one, the
non-adjacent curve further right by roughly the extra interferer power).
"""

import numpy as np

from repro.core.reporting import render_ascii_plot, render_table
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig
from repro.scenario import Scenario

P1DB_VALUES = [-55.0, -50.0, -45.0, -40.0, -35.0, -30.0, -25.0, -20.0,
               -15.0, -10.0]
N_PACKETS = 4
RATE = 36
LEVEL_DBM = -60.0


def _sweep(scenario, sample_rate_in):
    cfg = TestbenchConfig(
        rate_mbps=RATE,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(sample_rate_in=sample_rate_in),
        scenario=scenario,
        input_level_dbm=LEVEL_DBM,
    )
    return ParameterSweep(
        base_config=cfg,
        parameter="frontend.lna_p1db_dbm",
        values=P1DB_VALUES,
        n_packets=N_PACKETS,
        seed=60,
    ).run()


def _all_sweeps():
    return {
        "none": _sweep(None, 80e6),
        "adjacent": _sweep(Scenario.preset("adjacent-16db"), 80e6),
        # The +/-40 MHz interferer needs a wider simulation band.
        "non_adjacent": _sweep(
            Scenario.preset("non-adjacent-32db"), 120e6
        ),
    }


def _waterfall_p1db(values, bers, threshold=0.1):
    """First compression point where the BER falls below threshold."""
    for v, b in zip(values, bers):
        if b < threshold:
            return v
    return np.inf


def test_fig6_ber_vs_compression_point(benchmark, save_result):
    sweeps = benchmark.pedantic(_all_sweeps, rounds=1, iterations=1)
    rows = []
    for i, p1 in enumerate(P1DB_VALUES):
        rows.append(
            [f"{p1:+.0f}"]
            + [f"{sweeps[k].bers[i]:.3f}" for k in ("none", "adjacent", "non_adjacent")]
        )
    table = render_table(
        ["LNA1 P1dB [dBm]", "BER (none)", "BER (adjacent +16dB)",
         "BER (non-adjacent +32dB)"],
        rows,
    )
    plot = render_ascii_plot(
        np.array(P1DB_VALUES),
        sweeps["adjacent"].bers,
        width=60, height=12,
        title="Figure 6 — BER vs. LNA1 compression point (adjacent channel)",
        x_label="compression point of LNA1 [dBm]",
        y_label="BER",
    )
    save_result("fig6_compression", table + "\n\n" + plot)

    none_fall = _waterfall_p1db(P1DB_VALUES, sweeps["none"].bers)
    adj_fall = _waterfall_p1db(P1DB_VALUES, sweeps["adjacent"].bers)
    non_fall = _waterfall_p1db(P1DB_VALUES, sweeps["non_adjacent"].bers)
    # Without interference the whole sweep range decodes (waterfall below
    # the lowest swept P1dB); the adjacent channel needs more linearity,
    # the non-adjacent (+16 dB more power) needs the most.
    assert none_fall == P1DB_VALUES[0]
    assert adj_fall > none_fall
    assert non_fall > adj_fall
    assert non_fall - adj_fall >= 5.0
    # Saturation toward guessing on the compressed side (paper: BER -> ~0.5).
    assert sweeps["adjacent"].bers[0] > 0.4
    # Clean decode on the linear side.
    assert sweeps["adjacent"].bers[-1] < 0.05
    assert sweeps["non_adjacent"].bers[-1] < 0.05
