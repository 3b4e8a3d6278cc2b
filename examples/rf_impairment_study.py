"""RF impairment study: miniature versions of the paper's figures 5 and 6.

Uses the simulation manager to sweep the Chebyshev channel-filter edge and
the LNA compression point against the end-to-end BER, with the +16 dB
adjacent channel present — the central experiments of the paper.

Run:  python examples/rf_impairment_study.py
"""

from repro.core.reporting import render_ascii_plot
from repro.core.sweep import ParameterSweep, SimulationManager
from repro.core.testbench import TestbenchConfig
from repro.rf.frontend import FrontendConfig
from repro.scenario import Scenario


def main():
    base = TestbenchConfig(
        rate_mbps=36,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        scenario=Scenario.preset("adjacent-16db"),
        input_level_dbm=-60.0,
    )

    manager = SimulationManager()
    manager.add(
        "figure5: BER vs channel-filter passband edge",
        ParameterSweep(
            base_config=base,
            parameter="frontend.lpf_edge_hz",
            values=[4e6, 6e6, 7e6, 8.6e6, 10e6, 14e6, 20e6],
            n_packets=3,
        ),
    )
    manager.add(
        "figure6: BER vs LNA compression point",
        ParameterSweep(
            base_config=base,
            parameter="frontend.lna_p1db_dbm",
            values=[-50.0, -45.0, -40.0, -35.0, -30.0, -20.0, -10.0],
            n_packets=3,
        ),
    )

    manager.run_all(progress=lambda msg: print("  " + msg))
    print()
    print(manager.report())

    fig6 = manager.results["figure6: BER vs LNA compression point"]
    print()
    print(
        render_ascii_plot(
            fig6.values,
            fig6.bers,
            width=60,
            height=12,
            title="BER vs compression point of LNA1 (adjacent channel)",
            x_label="P1dB [dBm]",
            y_label="BER",
        )
    )


if __name__ == "__main__":
    main()
