"""Section 5.1 (text) experiments: BER vs. IP3 and vs. noise figure.

"In order to determine the influence of the RF subsystem on the
transmission system the parameter input and output scale, compression
point and third order intercept point were examined."  The noise-figure
influence could *not* be examined in co-simulation (no noise functions);
in the system-level simulation it can — both sweeps are reproduced here.
"""

import numpy as np

from repro.core.reporting import render_table
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig
from repro.rf.nonlinearity import p1db_from_iip3
from repro.scenario import Scenario

IIP3_VALUES = [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]
NF_VALUES = [3.0, 6.0, 9.0, 12.0, 15.0, 18.0]
N_PACKETS = 4


def _ip3_sweep():
    """BER vs LNA IIP3 with the adjacent channel present."""
    cfg = TestbenchConfig(
        rate_mbps=36,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        scenario=Scenario.preset("adjacent-16db"),
        input_level_dbm=-60.0,
    )
    # The LNA is P1dB-parameterized; sweep via the cubic equivalence.
    return ParameterSweep(
        base_config=cfg,
        parameter="frontend.lna_p1db_dbm",
        values=[p1db_from_iip3(i) for i in IIP3_VALUES],
        n_packets=N_PACKETS,
        seed=70,
    ).run()


def _nf_sweep():
    """BER vs LNA noise figure near sensitivity (no interferer)."""
    cfg = TestbenchConfig(
        rate_mbps=24,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        input_level_dbm=-80.0,
    )
    return ParameterSweep(
        base_config=cfg,
        parameter="frontend.lna_nf_db",
        values=NF_VALUES,
        n_packets=N_PACKETS,
        seed=71,
    ).run()


def test_ber_vs_lna_ip3(benchmark, save_result):
    result = benchmark.pedantic(_ip3_sweep, rounds=1, iterations=1)
    rows = [
        [f"{iip3:+.0f}", f"{p1:.1f}", f"{b:.3f}"]
        for iip3, p1, b in zip(IIP3_VALUES, result.values, result.bers)
    ]
    table = render_table(
        ["LNA IIP3 [dBm]", "equiv. P1dB [dBm]", "BER (adjacent +16 dB)"],
        rows,
    )
    save_result("ip3_sweep", "BER vs. IP3 value of the LNA\n" + table)
    # Low IIP3 destroys the link; high IIP3 restores it.
    assert result.bers[0] > 0.3
    assert result.bers[-1] < 0.05
    # Monotone trend (allowing small statistical jitter).
    assert result.bers[0] >= result.bers[-1]


def test_ber_vs_lna_noise_figure(benchmark, save_result):
    result = benchmark.pedantic(_nf_sweep, rounds=1, iterations=1)
    rows = [
        [f"{nf:.0f}", f"{b:.3f}"] for nf, b in zip(NF_VALUES, result.bers)
    ]
    table = render_table(["LNA NF [dB]", "BER at -80 dBm"], rows)
    save_result("nf_sweep", "BER vs. LNA noise figure\n" + table)
    assert result.bers[-1] > result.bers[0]
    assert result.bers[0] < 0.05
    assert result.bers[-1] > 0.1
